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

The piles of at most n bricks are the order ideals of the bricks of layers
below n (`brick_poset`).  `enumerate_pyramids` walks them with
`ideals.order_ideals` and yields each pile once as one reused list of
bricks, which a pile of k bricks extends from the last pile of k - 1.
`pyramid_series` keeps one key per size and adds the new brick's colour to
the key below it.  `PyramidPartition` checks a pile and reads its diagonal
slices.
"""

from __future__ import annotations

from boxcount import ideals, young
from boxcount.colouring import KLEIN_VARS, SLICE_COLOUR
from boxcount.series import Series, var_key


def is_brick(b):
    x, y, z = b
    nv, nw = (y + 1) // 2, y // 2
    return y >= 0 and abs(x) <= nv and abs(z) <= nw and (x - nv) % 2 == 0 and (z - nw) % 2 == 0


def parents(b):
    x, y, z = b
    steps = ((-1, 1, 0), (1, 1, 0)) if y % 2 else ((0, 1, -1), (0, 1, 1))
    return [p for sx, sy, sz in steps if is_brick(p := (x - sx, y - sy, z - sz))]


def layer_bricks(y):
    """All bricks in layer y, in canonical (x, z) order."""
    nv, nw = (y + 1) // 2, y // 2
    return [(x, y, z) for x in range(-nv, nv + 1, 2) for z in range(-nw, nw + 1, 2)]


def colour_index(b):
    """Index into (q0, qa, qb, qc) of the brick's colour."""
    x, _, z = b
    return SLICE_COLOUR[(x - z) % 4]


class PyramidPartition:
    """An immutable parent-closed set of bricks."""

    __slots__ = ("bricks",)

    def __init__(self, bricks):
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
            apex_x = (m + k % 2) * (1 if k >= 0 else -1)
            apex_y = 2 * m + k % 2
            # steps (1,2,1) and (-1,2,-1) span the slice plane
            r = ((x - apex_x) + (y - apex_y) // 2) // 2
            p_ = ((y - apex_y) // 2 - (x - apex_x)) // 2
            cells.setdefault(k, set()).add((r, p_))
        out = {}
        for k, cs in cells.items():
            rows = [0] * (max(r for r, _ in cs) + 1)
            for r, _ in cs:
                rows[r] += 1
            out[k] = young.check_partition(tuple(rows))
        return out

    def __eq__(self, other):
        return isinstance(other, PyramidPartition) and self.bricks == other.bricks

    def __hash__(self):
        return hash(self.bricks)

    def __repr__(self):
        return f"PyramidPartition({list(self.bricks)!r})"


def brick_poset(n):
    """The bricks of layers 0..n-1 as a poset: (bricks, parents, steps).

    Bricks are ordered by (layer, x, z), so every brick comes after its
    parents; parents[i] lists brick i's parents by index, and steps[i] is
    the packed key of brick i's colour.
    """
    bricks = [b for y in range(n) for b in layer_bricks(y)]
    index = {b: i for i, b in enumerate(bricks)}
    return (
        bricks,
        [[index[p] for p in parents(b)] for b in bricks],
        [var_key(len(KLEIN_VARS), colour_index(b)) for b in bricks],
    )


def enumerate_pyramids(max_bricks):
    """Yield every pile with at most max_bricks bricks, each exactly once.

    One reverse-search walk over `brick_poset(max_bricks)` yields each pile,
    already closed, as the list of its bricks in the order they were added.
    The list is reused, as `ideals.order_ideals` reuses its ideal: it is
    valid only until the next step, and a pile of k bricks extends the last
    one yielded of k - 1 by one brick.
    """
    if max_bricks < 0:
        raise ValueError("max_bricks must be non-negative")
    bricks, parent_idx, _ = brick_poset(max_bricks)
    walk = ideals.order_ideals(parent_idx, max_bricks)
    next(walk)  # the empty ideal
    pile = []
    yield pile
    for ideal in walk:
        del pile[len(ideal) - 1:]
        pile.append(bricks[ideal[-1]])
        yield pile


def pyramid_series(trunc):
    """Generating series over (q0, qa, qb, qc) of piles by colour counts."""
    bricks, _, steps = brick_poset(trunc)
    # each brick a pile holds adds its packed colour and degree to the pile's key
    step = dict(zip(bricks, steps)).__getitem__
    keys = [0] * (trunc + 1)  # keys[k]: the key of the last pile of k bricks
    piles = enumerate_pyramids(trunc)
    next(piles)  # the empty pile, at key 0
    terms = {0: 1}
    get = terms.get
    for pile in piles:
        k = len(pile)
        key = keys[k] = keys[k - 1] + step(pile[-1])
        terms[key] = get(key, 0) + 1
    return Series(KLEIN_VARS, trunc, terms)
