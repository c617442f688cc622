"""_kernels.scale_accumulate called directly, on keys packed by Monomial.

The kernel drops a term by one comparison of its key against a limit; the
reference here unpacks nothing and decides by the degrees of the
monomials, so it shares no arithmetic on keys with the kernel.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount._kernels import scale_accumulate
from boxcount.series import MAX_TRUNC, Monomial, degree_shift

V = ("x", "y")
SHIFT = degree_shift(len(V))


def key(*exps):
    return Monomial(V, exps).packed()


def test_cap_is_kept_and_cap_plus_one_dropped_with_degree_zero_add():
    cap = 6
    dst = {}
    scale_accumulate(dst, {key(2, 4): 5, key(3, 4): 3, key(0, 0): 1}, 0, 1, cap, SHIFT)
    assert dst == {key(2, 4): 5, key(0, 0): 1}


def test_cap_is_kept_and_cap_plus_one_dropped_with_positive_degree_add():
    cap = 6
    dst = {}
    scale_accumulate(dst, {key(1, 3): 5, key(2, 3): 3, key(0, 0): 1}, key(2, 0), 1, cap, SHIFT)
    assert dst == {key(3, 3): 5, key(2, 0): 1}


def test_cap_at_the_largest_truncation_with_one_full_lane():
    # every degree in one lane: the kept sum's lane reaches 63, the dropped one 64
    cap = MAX_TRUNC
    dst = {}
    scale_accumulate(dst, {key(50, 0): 1, key(51, 0): 1, key(0, 50): 1}, key(13, 0), 1, cap, SHIFT)
    assert dst == {key(63, 0): 1, key(13, 50): 1}


def test_key_add_above_cap_drops_everything():
    cap = 6
    dst = {key(1, 0): 4}
    scale_accumulate(dst, {key(0, 0): 1, key(1, 1): 2}, key(3, 4), 1, cap, SHIFT)
    assert dst == {key(1, 0): 4}


def test_a_sum_that_cancels_deletes_its_key():
    cap = 8
    dst = {key(2, 2): 3, key(4, 0): 7}
    scale_accumulate(dst, {key(0, 2): 3, key(2, 0): 1}, key(2, 0), -1, cap, SHIFT)
    assert dst == {key(4, 0): 6}


def test_negative_coefficient_scales_every_term():
    cap = 8
    dst = {}
    scale_accumulate(dst, {key(0, 0): 2, key(1, 1): -5}, key(0, 2), -3, cap, SHIFT)
    assert dst == {key(0, 2): -6, key(1, 3): 15}


exps = st.tuples(st.integers(0, MAX_TRUNC), st.integers(0, MAX_TRUNC)).filter(lambda e: sum(e) <= MAX_TRUNC)


@given(
    st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=8),
    exps,
    st.integers(-3, 3).filter(bool),
    st.integers(0, MAX_TRUNC),
)
@settings(max_examples=200, deadline=None)
def test_matches_a_product_of_monomials(src, add, coef, trunc):
    dst = {}
    scale_accumulate(dst, {key(*e): c for e, c in src.items()}, key(*add), coef, trunc, SHIFT)
    want = {}
    for e, c in src.items():
        m = Monomial(V, e) * Monomial(V, add)
        if m.degree <= trunc:
            want[m.packed()] = coef * c
    assert dst == want
