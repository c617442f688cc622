"""Finite 3D partitions (box piles) and their coloured generating series.

A pile is a finite set of boxes closed under coordinate decrease, that is,
an order ideal of the boxes of the octant.  `coloured_series` counts the
piles as the order ideals of the cells with (x+1)(y+1)(z+1) <= N, by one
reverse-search walk (`boxcount.ideals.key_series`) that sums each pile's
colour key as it goes, and never builds a pile object or its cell list.

`Diagram3D` stores a pile by its diagonal slices instead: the partition
pi_k collects the heights along the diagonal x - y = k, and a family of
slices assembles to a pile exactly when it increases to the centre and
decreases outward,

    ... < pi_(-1) < pi_0 > pi_1 > ...

in the interlacing order.  `enumerate_diagrams` walks central partitions
and then descending interlacing chains on both sides, so each pile is
produced once.  It shares no code with the walk, and the tests hold the
two enumerations to the same series.
"""

from functools import lru_cache

from boxcount import colouring, ideals, young
from boxcount.series import Series, var_key


class Diagram3D:
    """An immutable pile of boxes, stored slice-wise."""

    __slots__ = ("center", "neg", "pos")

    def __init__(self, center, neg=(), pos=()):
        young.check_partition(center)
        for side in (neg, pos):
            prev = center
            for p in side:
                young.check_partition(p)
                if not p:
                    raise ValueError("side slices must be non-empty")
                if not young.interlaces(prev, p):
                    raise ValueError("slices must interlace toward the centre")
                prev = p
            # the support ends here, so the last slice sits over the empty one
            if not young.interlaces(prev, ()):
                raise ValueError("outermost slice must interlace over the empty partition")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "neg", tuple(neg))
        object.__setattr__(self, "pos", tuple(pos))

    def __setattr__(self, name, value):
        raise AttributeError("Diagram3D is immutable")

    @classmethod
    def from_slices(cls, slices):
        """Build from a mapping of slice index to partition."""
        slices = {k: tuple(p) for k, p in slices.items() if p}
        center = slices.get(0, ())
        neg = []
        k = -1
        while k in slices:
            neg.append(slices.pop(k))
            k -= 1
        pos = []
        k = 1
        while k in slices:
            pos.append(slices.pop(k))
            k += 1
        slices.pop(0, None)
        if slices:
            raise ValueError(f"gap in slice support; stray indices {sorted(slices)}")
        return cls(center, tuple(neg), tuple(pos))

    @classmethod
    def from_boxes(cls, boxes):
        """Build from a box set, checking closure under coordinate decrease."""
        boxes = set(boxes)
        slices = {}
        for x, y, z in boxes:
            if min(x, y, z) < 0:
                raise ValueError("box coordinates must be non-negative")
            for step in ((x - 1, y, z), (x, y - 1, z), (x, y, z - 1)):
                if min(step) >= 0 and step not in boxes:
                    raise ValueError(f"box set is not closed: missing {step}")
            slices.setdefault(x - y, {}).setdefault(min(x, y), set()).add(z)
        parts = {}
        for k, rows in slices.items():
            lam = tuple(len(rows.get(i, ())) for i in range(max(rows) + 1))
            parts[k] = lam
        return cls.from_slices(parts)

    def slices(self):
        out = {}
        if self.center:
            out[0] = self.center
        for k, p in enumerate(self.neg, start=1):
            out[-k] = p
        for k, p in enumerate(self.pos, start=1):
            out[k] = p
        return out

    def boxes(self):
        for k, p in self.slices().items():
            for i, j in young.cells(p):
                if k >= 0:
                    yield (i + k, i, j)
                else:
                    yield (i, i - k, j)

    def volume(self):
        return sum(self.center) + sum(map(sum, self.neg)) + sum(map(sum, self.pos))

    def _key(self):
        return (self.center, self.neg, self.pos)

    def __eq__(self, other):
        return isinstance(other, Diagram3D) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Diagram3D(slices={self.slices()!r})"


@lru_cache(maxsize=None)
def _descending_chains(top, budget):
    """Descending interlacing chains of non-empty partitions below `top`.

    A chain may stop only when its last element (or `top` itself, for the
    empty chain) interlaces over the empty partition, because the slice
    after the chain is empty.
    """
    out = [()] if len(top) <= 1 else []
    for nxt in young.interlacing_below(top):
        if nxt and sum(nxt) <= budget:
            for tail in _descending_chains(nxt, budget - sum(nxt)):
                out.append((nxt,) + tail)
    return tuple(out)


def enumerate_diagrams(max_boxes):
    """Yield every pile with at most max_boxes boxes, each exactly once."""
    for center in young.partitions_up_to(max_boxes):
        if not center:
            yield Diagram3D(())
            continue
        budget = max_boxes - sum(center)
        for pos in _descending_chains(center, budget):
            left = budget - sum(map(sum, pos))
            for neg in _descending_chains(center, left):
                yield Diagram3D(center, neg, pos)


def volume_counts(max_boxes):
    """Number of piles of each volume 0..max_boxes."""
    counts = [0] * (max_boxes + 1)
    for d in enumerate_diagrams(max_boxes):
        counts[d.volume()] += 1
    return counts


def coloured_series(group, trunc):
    """Generating series of piles weighted by their colour counts.

    The coefficient of a monomial is the number of piles whose boxes have
    exactly those colour multiplicities; total degree is the box count.
    A pile of at most `trunc` boxes lies in the cells with
    (x+1)(y+1)(z+1) <= trunc, so the piles are the order ideals of those
    cells under coordinate decrease, and each cell adds its packed colour
    and degree to the key of every pile that holds it: `ideals.key_series`
    counts the piles by key in one walk.
    """
    cells = sorted(
        ((x, y, z) for x in range(trunc) for y in range(trunc // (x + 1)) for z in range(trunc // ((x + 1) * (y + 1)))),
        key=lambda c: (sum(c), c),
    )
    index = {c: i for i, c in enumerate(cells)}
    parents = [
        [index[p] for p in ((x - 1, y, z), (x, y - 1, z), (x, y, z - 1)) if p in index] for x, y, z in cells
    ]
    step = [var_key(group.order, colouring.colour_index(group, *c)) for c in cells]
    return Series(group.variables, trunc, ideals.key_series(parents, step, trunc))
