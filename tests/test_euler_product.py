"""series.euler_product against a naive product of (1 - u)**(-e) factors.

The reference multiplies in one series per factor, raised to |e| by
Series.__pow__: for e < 0 the polynomial 1 - u, and for e > 0 the
geometric series of (1 - u)**(-1), written out as a sum of monomials up to
the cap.  A non-negative power only multiplies series, so the reference
neither merges equal factors, forms a binomial coefficient nor runs the
in-place pass under test, which Series.inverse also runs.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxcount import _kernels, formulas
from boxcount.colouring import klein_group, zn_group
from boxcount.series import Monomial, Series, euler_product, macmahon_factors


def naive_product(vars, trunc, factors):
    out = Series.one(vars, trunc)
    for u, e in factors:
        if e > 0:
            # sum over k of u**k; from_monomial drops the powers above the cap
            base = Series.zero(vars, trunc)
            for k in range(trunc + 1):
                base = base + Series.from_monomial(u**k, trunc)
        else:
            base = Series.one(vars, trunc) - Series.from_monomial(u, trunc)
        out = out * base ** abs(e)
    return out


TABLES = (
    [(f"zn:{n}", lambda n=n: formulas.orbifold_rows(zn_group(n))) for n in range(1, 8)]
    + [("klein", lambda: formulas.orbifold_rows(klein_group())), ("pyramid", formulas.pyramid_rows), ("pair", formulas.pair_rows)]
    + [
        (f"{name} {side}", lambda g=g, paired=paired: formulas.resolution_rows(g, paired))
        for name, g in [(f"zn:{n}", zn_group(n)) for n in range(1, 6)] + [("klein", klein_group())]
        for side, paired in (("resolution", False), ("paired", True))
    ]
)


@pytest.mark.parametrize("name, rows", TABLES, ids=[name for name, _ in TABLES])
def test_factor_tables_match_naive_product(name, rows):
    N = 10
    rows = rows()
    vars = rows[0][1].vars
    factors = [(u, m * p) for x, q, p, two_sided in rows for u, m in macmahon_factors(x, q, N, two_sided)]
    assert euler_product(vars, N, factors) == naive_product(vars, N, factors)
    assert formulas.evaluate(rows, N) == naive_product(vars, N, factors)


@st.composite
def factor_lists(draw):
    vars = ("x", "y", "z")[: draw(st.integers(2, 3))]
    trunc = draw(st.integers(0, 8))
    # up to 3 per lane, so some u lie above the cap
    exps = st.tuples(*[st.integers(0, 3)] * len(vars)).filter(any)
    pool = draw(st.lists(st.tuples(exps, st.sampled_from((1, -1))), min_size=1, max_size=4))
    # drawing from a small pool repeats equal u, whose exponents then merge
    raw = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(-30, 30)), max_size=6))
    return vars, trunc, [(Monomial(vars, x, sign), e) for (x, sign), e in raw]


XY = ("x", "y")


# single factors, each one pass over the terms of (1 - u)**|e|
@given(factor_lists())
@settings(max_examples=100, deadline=None)
# e > 0, the upward walk: steps cut at |e|, and u**8 lands on the cap
@example((XY, 8, [(Monomial(XY, (1, 0)), 2)]))
# steps cut at cap // deg u, equal to |e| and below it
@example((XY, 8, [(Monomial(XY, (1, 0)), 8)]))
@example((XY, 8, [(Monomial(XY, (1, 2)), 30)]))
# a signed u of degree 1, steps cut at |e| and at cap // deg u
@example((XY, 8, [(Monomial(XY, (1, 0), -1), 3)]))
@example((XY, 8, [(Monomial(XY, (0, 1), -1), 17)]))
# e < 0, the downward walk: the polynomial (1 - u)**3, whose u**3 lands on the cap
@example((XY, 6, [(Monomial(XY, (1, 1)), -3)]))
@example((XY, 6, [(Monomial(XY, (2, 0), -1), -3)]))
def test_random_factors_match_naive_product(case):
    vars, trunc, factors = case
    assert euler_product(vars, trunc, factors) == naive_product(vars, trunc, factors)


@given(factor_lists(), st.data())
@settings(max_examples=100, deadline=None)
def test_product_does_not_depend_on_factor_order(case, data):
    # the schedule interleaves the factors of A and B, by |e| and degree,
    # while the right side takes all of A, then multiplies in all of B
    vars, trunc, factors = case
    i = data.draw(st.integers(0, len(factors)))
    A, B = factors[:i], factors[i:]
    assert euler_product(vars, trunc, A + B) == euler_product(vars, trunc, A) * euler_product(vars, trunc, B)


def kernel_terms(monkeypatch, evaluate, *args):
    """The terms `evaluate(*args)` feeds to the kernel: every pass calls it
    through the module, so the wrapper sees every term read."""
    fed = []
    kernel = _kernels.scale_accumulate

    def counting(dst, src, *args):
        fed.append(len(src))
        return kernel(dst, src, *args)

    monkeypatch.setattr(_kernels, "scale_accumulate", counting)
    evaluate(*args)
    return sum(fed)


def test_resolution_factors_run_most_steps_first(monkeypatch):
    # the box factors (-q)**m, e = 4m, run over the longest product when
    # taken highest degree first, and the passes then read 139,291 terms;
    # taking the polynomials before the divisions of equal |e| reads 74,484
    assert kernel_terms(monkeypatch, formulas.dt_resolution, klein_group(), 28) <= 75_000


@pytest.mark.parametrize(
    "evaluate, args, bound",
    [
        # 26,164, 13,899 and 19,800 terms with the divisions of equal |e| first
        (formulas.closed_orbifold, (klein_group(), 30), 22_500),
        (formulas.closed_pyramid, (30,), 13_000),
        (formulas.dt_resolution_paired, (klein_group(), 28), 17_200),
    ],
    ids=["formula klein", "formula pyramid", "dt klein paired"],
)
def test_polynomial_factors_run_before_divisions(monkeypatch, evaluate, args, bound):
    # a polynomial pass leaves the product no longer than a division pass of
    # the same |e|, so taking it first shortens what the division reads
    assert kernel_terms(monkeypatch, evaluate, *args) <= bound


def test_equal_factors_merge():
    V = ("x", "y")
    x, y = Monomial.var(V, "x"), Monomial.var(V, "y")
    xy2 = Monomial.from_exponents(V, {"x": 1, "y": 2})
    N = 8
    # exponents that sum to 0 leave no factor, in any order and for either sign of u
    assert euler_product(V, N, [(x, 3), (-xy2, 30), (x, -3), (-xy2, -30)]).is_one()
    assert euler_product(V, N, [(-x, 2), (y, 1), (-x, -2)]) == euler_product(V, N, [(y, 1)])
    # u and -u are different factors, and do not merge
    mixed = [(x, 2), (-x, 2), (x, -1), (-xy2, -7), (-xy2, 4)]
    assert euler_product(V, N, mixed) == naive_product(V, N, mixed)
    assert euler_product(V, N, mixed) == euler_product(V, N, [(x, 1), (-x, 2), (-xy2, -3)])


@pytest.mark.parametrize("e", [True, 1.5, 1.0, "1"])
def test_factor_exponents_must_be_ints(e):
    # a bool would be read as 1, and math.comb refuses a float with TypeError
    x = Monomial.var(("x",), "x")
    with pytest.raises(ValueError, match="factor exponent"):
        euler_product(("x",), 4, [(x, e)])


@pytest.mark.parametrize("e", [-30, -17, -1, 1, 2, 30])
def test_large_exponents_of_signed_half_unit_factors(e):
    # u of degree 1, the least a factor can have, takes the most steps
    V = ("x", "y")
    u = Monomial.from_exponents(V, {"x": 1}, sign=-1)
    v = Monomial.from_exponents(V, {"x": 1, "y": 1})
    factors = [(u, e), (v, -e // 2 or 1)]
    assert euler_product(V, 16, factors) == naive_product(V, 16, factors)


def test_signed_polynomial_factor_is_a_binomial_row():
    # u = -x, e = -30: (1 - u)**30 = (1 + x)**30, every coefficient positive
    u = -Monomial.var(("x",), "x")
    assert [c for _, c in euler_product(("x",), 30, [(u, -30)]).items()] == [math.comb(30, k) for k in range(31)]


def test_factors_above_the_cap_are_one():
    V = ("x", "y")
    x = Monomial.var(V, "x")
    big = Monomial.from_exponents(V, {"x": 3, "y": 2})
    for N in (0, 1, 4):
        assert euler_product(V, N, [(big, 5), (-big, -30)]).is_one()
        assert euler_product(V, N, [(x, 2), (big, 1)]) == euler_product(V, N, [(x, 2)])
    assert euler_product(V, 5, [(x, 2), (big, 1)]) == naive_product(V, 5, [(x, 2), (big, 1)])


def test_degree_zero_factor_raises():
    V = ("x", "y")
    with pytest.raises(ValueError):
        euler_product(V, 4, [(Monomial.var(V, "x"), 1), (Monomial.one(V), 1)])
    with pytest.raises(ValueError):
        euler_product(V, 4, [(-Monomial.one(V), -2)])


def test_foreign_variables_raise():
    with pytest.raises(ValueError):
        euler_product(("x", "y"), 4, [(Monomial.var(("x",), "x"), 1)])
