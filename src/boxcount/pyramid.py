"""Pyramid brick piles and their four-coloured generating series.

Bricks sit in layers y >= 0.  Layer y holds positions (x, y, z) with

    |x| <= ceil(y/2),  x = ceil(y/2)  (mod 2),
    |z| <= floor(y/2), z = floor(y/2) (mod 2),

so layer 0 is the single brick (0, 0, 0), odd layers extend in x, and even
layers extend in z.  A brick's parents are the bricks one layer down that
support it: subtract (-1,1,0) or (1,1,0) when y is odd, (0,1,-1) or (0,1,1)
when y is even, keeping what lands on a valid position.  A pile is a finite
set of bricks closed under taking parents.

Diagonal slices are indexed by x - z; a brick's colour depends only on its
slice index mod 4.
"""

from __future__ import annotations

from boxcount import ideals, young
from boxcount.series import Series, var_key

V1 = (-1, 1, 0)
V2 = (1, 1, 0)
W1 = (0, 1, -1)
W2 = (0, 1, 1)

# slice index mod 4 -> index into the (q0, qa, qb, qc) variables
SLICE_COLOUR = (0, 2, 3, 1)

KLEIN_VARS = ("q0", "qa", "qb", "qc")


def is_brick(b):
    x, y, z = b
    if y < 0:
        return False
    nv = (y + 1) // 2
    nw = y // 2
    return abs(x) <= nv and abs(z) <= nw and (x - nv) % 2 == 0 and (z - nw) % 2 == 0


def parents(b):
    x, y, z = b
    steps = (V1, V2) if y % 2 == 1 else (W1, W2)
    out = []
    for sx, sy, sz in steps:
        p = (x - sx, y - sy, z - sz)
        if is_brick(p):
            out.append(p)
    return out


def layer_bricks(y):
    """All bricks in layer y, in canonical (x, z) order."""
    nv = (y + 1) // 2
    nw = y // 2
    out = []
    for x in range(-nv, nv + 1):
        if (x - nv) % 2:
            continue
        for z in range(-nw, nw + 1):
            if (z - nw) % 2:
                continue
            out.append((x, y, z))
    return out


def colour_index(b):
    """Index into (q0, qa, qb, qc) of the brick's colour."""
    x, _, z = b
    return SLICE_COLOUR[(x - z) % 4]


class PyramidPartition:
    """An immutable parent-closed set of bricks."""

    __slots__ = ("bricks",)

    def __init__(self, bricks, _trusted=False):
        # a trusted caller passes distinct bricks that are already parent-closed
        if _trusted:
            bricks = tuple(sorted(bricks))
        else:
            bset = set(bricks)
            bricks = tuple(sorted(bset))
            for b in bricks:
                if not is_brick(b):
                    raise ValueError(f"not a brick position: {b!r}")
                for p in parents(b):
                    if p not in bset:
                        raise ValueError(f"not parent-closed: {b!r} needs {p!r}")
        object.__setattr__(self, "bricks", bricks)

    def __setattr__(self, name, value):
        raise AttributeError("PyramidPartition is immutable")

    def volume(self):
        return len(self.bricks)

    def slices(self):
        """Partition of each diagonal x - z = k, as row counts.

        Within a slice a brick sits in row r and column p, counting the
        (1,2,1) and (-1,2,-1) steps from the slice's apex brick.  Adjacent
        slices s and s+1 then interlace with the inner one on top: plainly
        for even s, conjugately for odd s.
        """
        cells = {}
        for x, y, z in self.bricks:
            k = x - z
            m = abs(k) // 2
            if k >= 0:
                apex_x = m if k % 2 == 0 else m + 1
            else:
                apex_x = -m if k % 2 == 0 else -m - 1
            apex_y = 2 * m + k % 2
            # steps (1,2,1) and (-1,2,-1) span the slice plane
            r = ((x - apex_x) + (y - apex_y) // 2) // 2
            p_ = ((y - apex_y) // 2 - (x - apex_x)) // 2
            cells.setdefault(k, set()).add((r, p_))
        out = {}
        for k, cs in cells.items():
            rows = {}
            for r, p_ in cs:
                rows[r] = rows.get(r, 0) + 1
            lam = tuple(rows.get(i, 0) for i in range(max(rows) + 1))
            out[k] = young.check_partition(lam)
        return out

    def __eq__(self, other):
        return isinstance(other, PyramidPartition) and self.bricks == other.bricks

    def __hash__(self):
        return hash(self.bricks)

    def __repr__(self):
        return f"PyramidPartition({list(self.bricks)!r})"


def enumerate_pyramids(max_bricks):
    """Yield every pile with at most max_bricks bricks, each exactly once.

    Bricks are ordered by (layer, x, z), so every brick comes after its
    parents, and the piles are the order ideals of that poset: one
    reverse-search walk over it yields each pile once, already closed.
    """
    if max_bricks < 0:
        raise ValueError("max_bricks must be non-negative")
    bricks = [b for y in range(max_bricks) for b in layer_bricks(y)]
    index = {b: i for i, b in enumerate(bricks)}
    parent_idx = [[index[p] for p in parents(b)] for b in bricks]
    for ideal in ideals.order_ideals(parent_idx, max_bricks):
        yield PyramidPartition([bricks[i] for i in ideal], _trusted=True)


def pyramid_series(trunc):
    """Generating series over (q0, qa, qb, qc) of piles by colour counts."""
    # each brick a pile can hold adds its packed colour and degree to the pile's key
    step = {b: var_key(len(KLEIN_VARS), colour_index(b)) for y in range(trunc) for b in layer_bricks(y)}
    terms = {}
    for pp in enumerate_pyramids(trunc):
        key = sum(map(step.__getitem__, pp.bricks))
        terms[key] = terms.get(key, 0) + 1
    return Series(KLEIN_VARS, trunc, terms, _trusted=True)
