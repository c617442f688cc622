"""series.euler_product against a naive product of (1 - u)**(-e) factors.

The reference multiplies in one series per factor, raised to |e| by
Series.__pow__: for e < 0 the polynomial 1 - u, and for e > 0 the
geometric series of (1 - u)**(-1), written out as a sum of monomials up to
the cap.  A non-negative power only multiplies series, so the reference
neither merges equal factors, forms a binomial coefficient nor runs the
in-place pass under test, which Series.inverse also runs.  The factor
pairs of a row table come from `monomial_factors`, which multiplies and
divides `Monomial`s, where the evaluator reads its factor records off
packed keys.
"""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxcount import _kernels, formulas
from boxcount.colouring import klein_group, zn_group
from boxcount.series import Monomial, Series, degree_shift, euler_product, macmahon_records


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


def monomial_factors(x, q, trunc, two_sided=False):
    """The (u, m) pairs of macmahon(x, q), or of macmahon_tilde(x, q) if
    `two_sided`, by monomial arithmetic, up to the last factor of degree at
    most `trunc`."""
    factors = []
    m = 1
    while x.degree + m * q.degree <= trunc:
        factors.append((x * q**m, m))
        m += 1
    m = 1
    while two_sided:
        u = q**m / x  # raises if x does not divide q**m
        if u.degree > trunc:
            break
        factors.append((u, m))
        m += 1
    return factors


def table_factors(rows, trunc):
    return [(u, m * p) for x, q, p, two_sided in rows for u, m in monomial_factors(x, q, trunc, two_sided)]


TABLES = (
    [(f"zn:{n}", lambda n=n: formulas.orbifold_rows(zn_group(n))) for n in range(1, 8)]
    + [("klein", lambda: formulas.orbifold_rows(klein_group())), ("pyramid", formulas.pyramid_rows), ("pair", formulas.pair_rows)]
    + [
        (f"{name} {side}", lambda g=g, paired=paired: formulas.resolution_rows(g, paired))
        for name, g in [(f"zn:{n}", zn_group(n)) for n in range(1, 6)] + [("klein", klein_group())]
        for side, paired in (("resolution", False), ("paired", True))
    ]
)
# every closed table: the orbifold, resolution and paired rows of each group, and the pyramid and pair rows
ALL_TABLES = (
    [
        (f"{name} {side}", lambda g=g, side=side: formulas.orbifold_rows(g) if side == "orbifold" else formulas.resolution_rows(g, side == "paired"))
        for name, g in [(f"zn:{n}", zn_group(n)) for n in range(1, 8)] + [("klein", klein_group())]
        for side in ("orbifold", "resolution", "paired")
    ]
    + [("pyramid", formulas.pyramid_rows), ("pair", formulas.pair_rows)]
)


@pytest.mark.parametrize("name, rows", TABLES, ids=[name for name, _ in TABLES])
def test_factor_tables_match_naive_product(name, rows):
    N = 10
    rows = rows()
    vars = rows[0][1].vars
    factors = table_factors(rows, N)
    assert euler_product(vars, N, factors) == naive_product(vars, N, factors)
    assert formulas.evaluate(rows, N) == naive_product(vars, N, factors)


@pytest.mark.parametrize("name, rows", ALL_TABLES, ids=[name for name, _ in ALL_TABLES])
@pytest.mark.parametrize("N", [0, 1, 7, 20])
def test_records_are_the_monomial_factors(name, rows, N):
    # key(x) + m key(q) and m key(q) - key(x) against x * q**m and q**m / x
    rows = rows()
    records = [r for x, q, p, two_sided in rows for r in macmahon_records(x, q, N, two_sided, p)]
    assert records == [(u.degree, u.packed(), u.sign, e) for u, e in table_factors(rows, N)]


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
    """The terms `evaluate(*args)` feeds to the pass kernel: every pass
    calls it through the module, so the wrapper sees every term read."""
    fed = []
    kernel = _kernels.add_shifted

    def counting(dst, src, *args):
        fed.append(len(src))
        return kernel(dst, src, *args)

    monkeypatch.setattr(_kernels, "add_shifted", counting)
    evaluate(*args)
    return sum(fed)


def test_resolution_factors_run_most_steps_first(monkeypatch):
    # the box factors (-q)**m, e = 4m, run over the longest product when
    # taken highest degree first, and the passes then read 139,291 terms;
    # taking the polynomials before the divisions of equal |e| reads 74,484
    assert kernel_terms(monkeypatch, formulas.dt_resolution, klein_group(), 28) == 74_484


@pytest.mark.parametrize(
    "evaluate, args, count",
    [
        # 26,164, 13,899 and 19,800 terms with the divisions of equal |e| first
        (formulas.closed_orbifold, (klein_group(), 30), 22_260),
        (formulas.closed_pyramid, (30,), 12_860),
        (formulas.dt_resolution_paired, (klein_group(), 28), 16_999),
    ],
    ids=["formula klein", "formula pyramid", "dt klein paired"],
)
def test_polynomial_factors_run_before_divisions(monkeypatch, evaluate, args, count):
    # a polynomial pass leaves the product no longer than a division pass of
    # the same |e|, so taking it first shortens what the division reads
    assert kernel_terms(monkeypatch, evaluate, *args) == count


@pytest.mark.parametrize("name, rows", ALL_TABLES, ids=[name for name, _ in ALL_TABLES])
def test_every_pass_stays_within_the_cap(monkeypatch, name, rows):
    # the pass kernel makes no degree test: every shifted term must already lie within the cap
    N = 20
    rows = rows()
    shift = degree_shift(len(rows[0][1].vars))
    calls = []
    kernel = _kernels.add_shifted

    def checking(dst, src, key, coef):
        assert (max(src) + key) >> shift <= N
        calls.append(key)
        return kernel(dst, src, key, coef)

    monkeypatch.setattr(_kernels, "add_shifted", checking)
    formulas.evaluate(rows, N)
    assert calls


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


XY_Q = Monomial.from_exponents(XY, {"x": 1, "y": 1})
ONE_SIDED_ROW = (Monomial.one(XY), XY_Q, 1, False)


def refused_row(x, q, N, two_sided=True):
    """Check that both the record builder and `formulas.evaluate` refuse the
    row (x, q, 1, two_sided), evaluated after a row they accept, and return
    the builder's message."""
    with pytest.raises(ValueError) as builder:
        macmahon_records(x, q, N, two_sided)
    with pytest.raises(ValueError, match=re.escape(str(builder.value))):
        formulas.evaluate([ONE_SIDED_ROW, (x, q, 1, two_sided)], N)
    return str(builder.value)


@pytest.mark.parametrize("N", [0, 1, 6])
def test_two_sided_row_whose_x_does_not_divide_q_raises(N):
    # at every N, as the first mirror factor q / x is formed before the cap is read
    for x in (Monomial.var(XY, "x", 2), -Monomial.from_exponents(XY, {"x": 2, "y": 1})):
        assert "does not divide" in refused_row(x, XY_Q, N)
    # one-sided, the same row has no mirror factors
    row = (Monomial.var(XY, "x", 2), XY_Q, 1, False)
    assert formulas.evaluate([ONE_SIDED_ROW, row], 6) == naive_product(XY, 6, table_factors([ONE_SIDED_ROW, row], 6))


@pytest.mark.parametrize("N", [0, 4])
def test_degree_zero_mirror_factor_raises(N):
    for x in (XY_Q, -XY_Q):
        assert refused_row(x, XY_Q, N) == "mirror factor has degree 0; truncation is not well defined"


def test_degree_zero_q_raises():
    assert refused_row(Monomial.one(XY), Monomial.one(XY), 4, False) == "q must have positive degree"


def test_foreign_variables_in_rows_raise():
    # x and q on different variables
    assert refused_row(Monomial.var(("x",), "x"), XY_Q, 4) == "variable sets differ"
    # a row on other variables than the first row's
    q = Monomial.from_exponents(("x", "z"), {"x": 1, "z": 1})
    with pytest.raises(ValueError, match="variable sets differ"):
        formulas.evaluate([ONE_SIDED_ROW, (Monomial.one(q.vars), q, 1, False)], 4)


def test_records_are_exact_where_a_lane_of_x_and_q_overflows():
    # the mirror factor q / x = y has degree 1, though x and q have a lane of 300
    x = Monomial.var(XY, "x", 300)
    q = Monomial.from_exponents(XY, {"x": 300, "y": 1})
    assert macmahon_records(x, q, 5, True) == [(1, Monomial.var(XY, "y").packed(), 1, 1)]
    assert formulas.evaluate([(x, q, 1, True)], 5) == euler_product(XY, 5, [(Monomial.var(XY, "y"), 1)])
