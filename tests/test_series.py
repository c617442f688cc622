import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount.series import Monomial, Series, euler_product, macmahon, macmahon_tilde

# frozen from tools/oracles/series_products.py
MAC_M_1Q_14 = [1, 1, 3, 6, 13, 24, 48, 86, 160, 282, 500, 859, 1479, 2485, 4167]
MAC_M_1_NEGQ_10 = [1, -1, 3, -6, 13, -24, 48, -86, 160, -282, 500]
MT_Q0_Q0Q1_6 = {
    (0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1, (1, 2): 2, (2, 1): 1,
    (0, 4): 1, (1, 3): 2, (2, 2): 1, (0, 5): 1, (1, 4): 2, (2, 3): 4,
    (3, 2): 2, (0, 6): 1, (1, 5): 2, (2, 4): 7, (3, 3): 4, (4, 2): 1,
}
MT_NEG_QA_QAQB_5 = {
    (0, 0): 1, (0, 1): -1, (0, 2): 1, (0, 3): -1, (1, 2): -2, (2, 1): -1,
    (0, 4): 1, (1, 3): 2, (2, 2): 1, (0, 5): -1, (1, 4): -2, (2, 3): -4, (3, 2): -2,
}
M_Q0Q1_QQQ_5 = {(0, 0, 0): 1, (2, 2, 1): 1}


def series_coeffs(s):
    return {exps: c for exps, c in s.iter_whole()}


def test_macmahon_classical():
    V = ("q",)
    s = macmahon(Monomial.one(V), Monomial.var(V, "q"), 14)
    assert [s.coefficient((d,)) for d in range(15)] == MAC_M_1Q_14


def test_macmahon_sign_substitution():
    V = ("q",)
    s = macmahon(Monomial.one(V), -Monomial.var(V, "q"), 10)
    assert [s.coefficient((d,)) for d in range(11)] == MAC_M_1_NEGQ_10
    plain = macmahon(Monomial.one(V), Monomial.var(V, "q"), 10)
    assert plain.substitute_signs(["q"]) == s


def test_macmahon_tilde_two_vars():
    V = ("q0", "q1")
    x = Monomial.var(V, "q0")
    q = Monomial.from_exponents(V, {"q0": 1, "q1": 1})
    assert series_coeffs(macmahon_tilde(x, q, 6)) == MT_Q0_Q0Q1_6


def test_macmahon_tilde_signed_argument():
    V = ("qa", "qb")
    x = -Monomial.var(V, "qa")
    q = Monomial.from_exponents(V, {"qa": 1, "qb": 1})
    assert series_coeffs(macmahon_tilde(x, q, 5)) == MT_NEG_QA_QAQB_5


def test_macmahon_three_vars():
    V = ("q0", "q1", "q2")
    x = Monomial.from_exponents(V, {"q0": 1, "q1": 1})
    q = Monomial.from_exponents(V, {"q0": 1, "q1": 1, "q2": 1})
    assert series_coeffs(macmahon(x, q, 5)) == M_Q0Q1_QQQ_5


def test_macmahon_tilde_rejects_degree_zero_mirror():
    V = ("q",)
    with pytest.raises(ValueError):
        macmahon_tilde(Monomial.var(V, "q"), Monomial.var(V, "q"), 4)


def test_monomial_arithmetic():
    V = ("x", "y")
    x = Monomial.var(V, "x")
    y = Monomial.var(V, "y")
    assert (x * y) ** 2 == Monomial.from_exponents(V, {"x": 2, "y": 2})
    assert (x ** 3 * y) / x == Monomial.from_exponents(V, {"x": 2, "y": 1})
    assert (-x) * (-y) == x * y
    with pytest.raises(ValueError):
        x / y
    half = Monomial.from_half_exponents(V, {"x": 1})
    assert not half.is_integral()
    assert half * half == x


def test_monomial_rendering():
    V = ("x", "g")
    m = Monomial.from_half_exponents(V, {"x": 2, "g": 1})
    assert "g^(1/2)" in repr(m)


def test_series_inverse():
    V = ("q",)
    q = Monomial.var(V, "q")
    s = Series.one(V, 8) - Series.from_monomial(q, 8)
    assert (s * s.inverse()).is_one()
    assert s.inverse() == euler_product(V, 8, [(q, 1)])
    with pytest.raises(ValueError):
        (Series.from_monomial(q, 8) * 2).inverse()


def test_series_power_negative():
    V = ("q",)
    q = Monomial.var(V, "q")
    s = Series.one(V, 6) - Series.from_monomial(q, 6)
    assert s ** -2 == (s.inverse()) ** 2


def test_serialization_round_trip():
    V = ("q0", "q1")
    x = Monomial.var(V, "q0")
    q = Monomial.from_exponents(V, {"q0": 1, "q1": 1})
    s = macmahon_tilde(x, q, 5)
    assert Series.from_json(s.to_json()) == s
    d = json.loads(s.to_json())
    assert d["vars"] == ["q0", "q1"]
    assert all(isinstance(t["coef"], str) for t in d["terms"])


def test_csv_output():
    V = ("q",)
    s = macmahon(Monomial.one(V), Monomial.var(V, "q"), 3)
    lines = s.to_csv().strip().split("\n")
    assert lines[0] == "degree,exponent_q,coefficient"
    assert lines[1] == "0,0,1"
    assert lines[-1] == "3,3,6"


def test_diff_reports_first_mismatch():
    V = ("q",)
    q = Monomial.var(V, "q")
    a = Series.one(V, 6) + Series.from_monomial(q, 6)
    b = Series.one(V, 6) + Series.from_monomial(q, 6) * 3
    halves, ca, cb = a.diff(b)
    assert (halves, ca, cb) == ((2,), 1, 3)
    assert a.diff(a) is None


def test_guardrails():
    with pytest.raises(ValueError):
        Series.one(tuple("abcdefgh"), 4)  # too many variables
    with pytest.raises(ValueError):
        Series.one(("q",), 64)  # truncation too deep
    with pytest.raises(ValueError):
        Monomial.var(("q",), "x")


small_series = st.builds(
    lambda terms: Series.from_terms(("x", "y"), 6, {e: c for e, c in terms if c}),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-9, 9)),
        max_size=6,
        unique_by=lambda t: t[0],
    ),
)


@given(small_series, small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_series, small_series)
@settings(max_examples=60, deadline=None)
def test_truncation_consistency(a, b):
    # multiplying then truncating agrees with truncating first
    t = (a * b).truncate(3)
    assert t == a.truncate(3) * b.truncate(3)
    assert t.trunc == 3


@given(small_series)
@settings(max_examples=60, deadline=None)
def test_substitute_signs_involution(a):
    flipped = a.substitute_signs(["x"])
    assert flipped.substitute_signs(["x"]) == a
    for exps, c in a.iter_whole():
        want = -c if exps[0] % 2 else c
        assert flipped.coefficient(exps) == want


@given(small_series)
@settings(max_examples=40, deadline=None)
def test_json_round_trip_property(a):
    assert Series.from_json(a.to_json()) == a
