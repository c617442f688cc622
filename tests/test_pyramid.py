import pytest

from boxcount import young
from boxcount.pyramid import (
    SLICE_COLOUR,
    PyramidPartition,
    colour_index,
    enumerate_pyramids,
    is_brick,
    layer_bricks,
    parents,
    pyramid_series,
)

# frozen from tools/oracles/pyramid_words.py (word-model BFS)
PYRAMID_COUNTS_8 = [1, 1, 2, 5, 10, 18, 32, 59, 106]
PYRAMID_COLOURS_7 = {
    (0, 0, 0, 0): 1, (1, 0, 0, 0): 1, (1, 0, 1, 0): 1, (1, 1, 0, 0): 1,
    (1, 0, 1, 1): 1, (1, 1, 0, 1): 1, (1, 1, 1, 0): 1, (2, 0, 1, 0): 1,
    (2, 1, 0, 0): 1, (1, 1, 1, 1): 4, (2, 0, 1, 1): 1, (2, 0, 2, 0): 1,
    (2, 1, 0, 1): 1, (2, 1, 1, 0): 2, (2, 2, 0, 0): 1, (1, 1, 1, 2): 1,
    (1, 1, 2, 1): 1, (1, 2, 1, 1): 1, (2, 0, 2, 1): 1, (2, 1, 1, 1): 8,
    (2, 1, 2, 0): 1, (2, 2, 0, 1): 1, (2, 2, 1, 0): 1, (3, 0, 2, 0): 1,
    (3, 1, 1, 0): 1, (3, 2, 0, 0): 1, (1, 1, 2, 2): 1, (1, 2, 1, 2): 1,
    (2, 1, 1, 2): 2, (2, 1, 2, 1): 8, (2, 2, 1, 1): 8, (3, 0, 2, 1): 1,
    (3, 0, 3, 0): 1, (3, 1, 1, 1): 4, (3, 1, 2, 0): 2, (3, 2, 0, 1): 1,
    (3, 2, 1, 0): 2, (3, 3, 0, 0): 1, (1, 2, 2, 2): 1, (2, 1, 2, 2): 8,
    (2, 1, 3, 1): 1, (2, 2, 1, 2): 8, (2, 2, 2, 1): 8, (2, 3, 1, 1): 1,
    (3, 0, 3, 1): 1, (3, 1, 1, 2): 1, (3, 1, 2, 1): 11, (3, 1, 3, 0): 1,
    (3, 2, 1, 1): 11, (3, 2, 2, 0): 1, (3, 3, 0, 1): 1, (3, 3, 1, 0): 1,
    (4, 0, 3, 0): 1, (4, 1, 2, 0): 1, (4, 2, 1, 0): 1, (4, 3, 0, 0): 1,
}


def test_counts_fixture():
    counts = [0] * 9
    for pile in enumerate_pyramids(8):
        counts[PyramidPartition(pile).volume()] += 1
    assert counts == PYRAMID_COUNTS_8


def test_each_pile_extends_the_last_one_yielded_one_brick_smaller():
    # the yielded list is reused, so the piles are compared as copies
    last = {0: []}
    for pile in enumerate_pyramids(9):
        if pile:
            assert pile[:-1] == last[len(pile) - 1]
        last[len(pile)] = list(pile)
    assert len(last) == 10


def test_coloured_fixture():
    got = {e: c for e, c in pyramid_series(7).items()}
    assert got == PYRAMID_COLOURS_7


def test_brick_geometry():
    assert is_brick((0, 0, 0))
    assert not is_brick((1, 0, 0))
    for y in range(6):
        layer = layer_bricks(y)
        assert len(layer) == (y // 2 + 1) * ((y + 1) // 2 + 1)
        for b in layer:
            assert is_brick(b)
            assert all(is_brick(p) for p in parents(b))
    assert list(parents((0, 0, 0))) == []


def test_parent_closure_enforced():
    apex = (0, 0, 0)
    PyramidPartition([apex])
    with pytest.raises(ValueError):
        PyramidPartition([(-1, 1, 0)])  # missing the apex


def test_word_model_equivalence():
    # adding one addable brick at a time reaches exactly the enumerated piles
    frontier = {frozenset()}
    reached = {0: frontier}
    for step in range(1, 6):
        nxt = set()
        for pile in frontier:
            for y in range(step):
                for b in layer_bricks(y):
                    if b not in pile and all(p in pile for p in parents(b)):
                        nxt.add(pile | {b})
        reached[step] = nxt
        frontier = nxt
    for n in range(6):
        piles = map(PyramidPartition, enumerate_pyramids(5))
        enumerated = {frozenset(p.bricks) for p in piles if p.volume() == n}
        assert enumerated == reached[n]


def test_slice_colours_follow_the_table():
    for pile in enumerate_pyramids(6):
        for x, y, z in PyramidPartition(pile).bricks:
            assert colour_index((x, y, z)) == SLICE_COLOUR[(x - z) % 4]


def test_slices_interlace():
    # neighbouring slices interlace, plainly from even indices, conjugately
    # from odd ones, with the inner slice on top
    for pile in enumerate_pyramids(6):
        sl = dict(PyramidPartition(pile).slices())
        lo = min(sl) - 1 if sl else 0
        hi = max(sl) + 1 if sl else 0
        for s in range(lo, hi):
            a = sl.get(s, ())
            b = sl.get(s + 1, ())
            inner, outer = (b, a) if s < 0 else (a, b)
            if s % 2 == 0:
                assert young.interlaces(inner, outer)
            else:
                assert young.conjugate_interlaces(inner, outer)


def test_slices_determine_the_pile():
    seen = {}
    for p in map(PyramidPartition, enumerate_pyramids(6)):
        key = tuple(sorted(p.slices().items()))
        assert key not in seen
        seen[key] = p
