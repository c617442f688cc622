from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount import colouring
from boxcount.colouring import KLEIN_VARS
from boxcount.enum3d import coloured_series, enumerate_diagrams
from boxcount.ideals import key_series, order_ideals
from boxcount.pyramid import PyramidPartition, brick_poset, enumerate_pyramids, pyramid_series
from boxcount.series import Series, _pack


@st.composite
def posets(draw):
    # element i draws its parents from the earlier elements, so 0..n-1 is a linear extension
    n = draw(st.integers(0, 10))
    return [draw(st.lists(st.integers(0, i - 1), unique=True, max_size=3)) if i else [] for i in range(n)]


def brute_force_ideals(parents, limit):
    n = len(parents)
    return {
        frozenset(subset)
        for size in range(min(n, limit) + 1)
        for subset in combinations(range(n), size)
        if all(p in subset for i in subset for p in parents[i])
    }


@given(posets())
@settings(max_examples=150, deadline=None)
def test_walk_yields_each_ideal_once(parents):
    for limit in range(len(parents) + 2):
        seen = [frozenset(ideal) for ideal in order_ideals(parents, limit)]
        assert len(seen) == len(set(seen))
        assert set(seen) == brute_force_ideals(parents, limit)


@given(posets())
@settings(max_examples=50, deadline=None)
def test_each_ideal_extends_the_last_one_yielded_one_element_shorter(parents):
    last = {0: []}
    for ideal in order_ideals(parents, len(parents)):
        if ideal:
            assert ideal[:-1] == last[len(ideal) - 1]
        last[len(ideal)] = list(ideal)


def test_limit_zero_yields_only_the_empty_ideal():
    assert [list(i) for i in order_ideals([[], [0], [0, 1]], 0)] == [[]]
    assert [list(i) for i in order_ideals([], 0)] == [[]]
    assert key_series([[], [0], [0, 1]], [1, 2, 4], 0) == {0: 1}
    assert key_series([], [], 3) == {0: 1}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_key_series_counts_the_step_sums_of_every_ideal(data):
    parents = data.draw(posets())
    step = data.draw(st.lists(st.integers(-4, 9), min_size=len(parents), max_size=len(parents)))
    for limit in range(len(parents) + 2):
        expected = {}
        for ideal in brute_force_ideals(parents, limit):
            key = sum(step[i] for i in ideal)
            expected[key] = expected.get(key, 0) + 1
        assert key_series(parents, step, limit) == expected


@pytest.mark.parametrize("N", range(19))
def test_brick_key_series_is_the_pyramid_series(N):
    _, parents, step = brick_poset(N)
    assert Series(KLEIN_VARS, N, key_series(parents, step, N)) == pyramid_series(N)


def tallied_series(group, trunc):
    # the slice-chain enumeration, coloured box by box
    terms = {}
    for d in enumerate_diagrams(trunc):
        exps = [0] * group.order
        for x, y, z in d.boxes():
            exps[colouring.colour_index(group, x, y, z)] += 1
        key = _pack(exps)
        terms[key] = terms.get(key, 0) + 1
    return Series(group.variables, trunc, terms)


@pytest.mark.parametrize("name", [*(f"zn:{k}" for k in range(1, 8)), "klein", "z3diag"])
def test_box_ideals_equal_the_slice_chain_enumeration(name):
    group = colouring.parse_group(name)
    assert coloured_series(group, 9) == tallied_series(group, 9)


def test_brick_ideals_are_distinct_closed_piles():
    piles = [list(pile) for pile in enumerate_pyramids(9)]
    # the constructor checks every brick and its parents
    checked = set(map(PyramidPartition, piles))
    assert all(len(pile) == len(set(pile)) for pile in piles)
    assert len(checked) == len(piles)
