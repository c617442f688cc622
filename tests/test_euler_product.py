"""series.euler_product against a naive product of (1 - u)**(-e) factors.

The reference multiplies one series per factor, raised to -e through
Series.inverse() and Series.__pow__, and shares no code with the graded
recurrence under test.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount import formulas
from boxcount.colouring import klein_group, zn_group
from boxcount.series import Monomial, Series, euler_product, macmahon_factors


def naive_product(vars, trunc, factors):
    out = Series.one(vars, trunc)
    for u, e in factors:
        out = out * (Series.one(vars, trunc) - Series.from_monomial(u, trunc)) ** (-e)
    return out


TABLES = (
    [(f"zn:{n}", lambda n=n: formulas.orbifold_rows(zn_group(n))) for n in range(1, 8)]
    + [("klein", lambda: formulas.orbifold_rows(klein_group())), ("pyramid", formulas.pyramid_rows)]
    + [
        (f"{name} {side}", lambda g=g, paired=paired: formulas.resolution_rows(g, paired))
        for name, g in (("zn:2", zn_group(2)), ("zn:3", zn_group(3)), ("klein", klein_group()))
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
    halves = st.tuples(*[st.integers(0, 4)] * len(vars)).filter(any)
    raw = draw(st.lists(st.tuples(halves, st.sampled_from((1, -1)), st.integers(-3, 3)), max_size=5))
    return vars, trunc, [(Monomial(vars, h, sign), e) for h, sign, e in raw]


@given(factor_lists())
@settings(max_examples=60, deadline=None)
def test_random_factors_match_naive_product(case):
    # half-unit exponents give odd half-degrees, which the recurrence steps through too
    vars, trunc, factors = case
    assert euler_product(vars, trunc, factors) == naive_product(vars, trunc, factors)


def test_degree_zero_factor_raises():
    V = ("x", "y")
    with pytest.raises(ValueError):
        euler_product(V, 4, [(Monomial.var(V, "x"), 1), (Monomial.one(V), 1)])
    with pytest.raises(ValueError):
        euler_product(V, 4, [(-Monomial.one(V), -2)])


def test_foreign_variables_raise():
    with pytest.raises(ValueError):
        euler_product(("x", "y"), 4, [(Monomial.var(("x",), "x"), 1)])
