import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxcount import cli
from boxcount.series import MAX_TRUNC, MAX_VARS, Monomial, Series, euler_product, macmahon, macmahon_tilde

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


@st.composite
def unit_series(draw):
    """A series on (x, y) with constant term +1 or -1 and up to 5 signed
    terms of positive degree, some with half-unit exponents."""
    V = ("x", "y")
    trunc = draw(st.integers(0, 8))
    s = Series.one(V, trunc) * draw(st.sampled_from((1, -1)))
    halves = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)
    for h, coef in draw(st.lists(st.tuples(halves, st.integers(-3, 3).filter(bool)), max_size=5)):
        s = s + Series.from_monomial(Monomial(V, h), trunc, coef)
    return s


@given(unit_series())
@settings(max_examples=100, deadline=None)
def test_series_inverse_of_units(s):
    # the product goes through the multiplication kernel, not the inverse's pass
    assert (s * s.inverse()).is_one()
    assert s.inverse().inverse() == s


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


def test_sign_flips_refuse_half_integer_exponents():
    # sqrt(x) y: sign_by_parities reads every lane, so even a flip of y alone refuses it
    V = ("x", "y")
    s = Series.one(V, 3) + Series.from_monomial(Monomial.from_half_exponents(V, {"x": 1, "y": 2}), 3)
    with pytest.raises(ValueError, match="half-integer"):
        s.substitute_signs(["y"])
    with pytest.raises(ValueError, match="half-integer"):
        s.sign_by_parities([0, 1, 0, 1])


@given(small_series)
@settings(max_examples=40, deadline=None)
def test_json_round_trip_property(a):
    assert Series.from_json(a.to_json()) == a


@st.composite
def any_series(draw):
    # names json.dumps must escape, up to every variable, every truncation and huge coefficients
    names = st.text(alphabet='qxy"\\\x01\u00e9\u263a', min_size=1, max_size=3)
    vars = tuple(draw(st.lists(names, min_size=1, max_size=MAX_VARS, unique=True)))
    trunc = draw(st.sampled_from((0, MAX_TRUNC)) | st.integers(0, MAX_TRUNC))
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        room, exps = trunc, []
        for _ in vars:
            exps.append(draw(st.integers(0, room)))
            room -= exps[-1]
        exps = draw(st.permutations(exps))
        terms[tuple(exps)] = draw(st.integers(-(2**80), 2**80))
    return Series.from_terms(vars, trunc, terms)


@given(any_series())
@example(Series.zero(("q",), 0))
@example(Series.zero(tuple("abcdefg"), MAX_TRUNC))
@example(Series.from_terms(("x", "y"), MAX_TRUNC, {(0, 0): 2**64 + 1, (MAX_TRUNC, 0): -(2**70), (1, 62): -1}))
@settings(max_examples=150, deadline=None)
def test_json_writer_matches_json_dumps(s):
    assert s.to_json() == json.dumps(s.to_json_dict())


def test_writers_refuse_half_integer_exponents():
    V = ("x", "y")
    s = Series.one(V, 3) + Series.from_monomial(Monomial.from_half_exponents(V, {"x": 1, "y": 2}), 3)
    for write in (s.to_json, s.to_csv, s.to_json_dict, lambda: list(s.iter_whole())):
        with pytest.raises(ValueError, match="half-integer"):
            write()
    assert [h for h, _ in s.items()] == [(0, 0), (1, 2)]


# sha256 of the CLI's stdout, recorded before the one-pass writers replaced json.dumps; the
# zn:5, pyramid and dt resolution/zn:4 digests before the closed forms became class records
CLI_DIGESTS = {
    ("formula klein -N 12", "json"): "31b6076f992069895df0316171366361e83b7f83c4c4174d81c25dea0b6ec495",
    ("formula klein -N 12", "csv"): "f7cb22c284b707a2d4756da7872aa84db6c3b9e878898698f34a1bf738174a6f",
    ("dt klein -N 12 --side paired", "json"): "2ccfa8416881e8ef1ee0afc53d5904a8a0b3f72bb66330d03a875412b804804a",
    ("dt klein -N 12 --side paired", "csv"): "85146f8313885457e635b0beaa1f5bd4c60db812b20492b01bc76b44b6dbdd78",
    ("enum zn:3 -N 8", "json"): "ea112ea84b705dd9af4d340c78178ff52de0c049e66ebc8ae5dcee3bf0c4117e",
    ("enum zn:3 -N 8", "csv"): "a8e3f292e179df4b39d663070691e9294cbab9c847636d497a34a76894446688",
    ("transfer pyramid -N 8", "json"): "b5546a88cb393400c7b8922e09889c589f09e695efe17d6dcd02f18af236893a",
    ("transfer pyramid -N 8", "csv"): "c56ce620b33fdfd00e0ec7f8a7d148242402fa243835c871165c3da77ff357b6",
    ("formula zn:5 -N 12", "json"): "91b379e6b98cfedc45ee0d09b2acc26a8109366757bc128b20fca6d964c16d6c",
    ("formula zn:5 -N 12", "csv"): "fea735c8916e74842e86a3b84b94fa6f2424506c638fa7c81715f5e383454ae3",
    ("formula pyramid -N 12", "json"): "8c5fdb1dbe38be2e77009e9a6524d8850b0b861ad8c57b693418335ff00d4519",
    ("formula pyramid -N 12", "csv"): "dd11d4e883895454ba0003b96425668667f8809b43c2a09426abe551e548eb59",
    ("dt zn:3 -N 12 --side resolution", "json"): "15bfdd3a70b3db899b820c11e5529a55f5d9070e78901152e64ba305a3bf7cc6",
    ("dt zn:3 -N 12 --side resolution", "csv"): "837d39b0b92cd7ff782037d9b08bcafdd119ce9499cde4f1ad8569f711d73f93",
    ("dt klein -N 12 --side resolution", "json"): "442845897f69af60449551db9d9384cf1c8fc1f0b7d0a09b67d16a1a21c56299",
    ("dt klein -N 12 --side resolution", "csv"): "09cada696072cfbee09d7e2c7b8528d865de5637a28f79e187a89555f263a6b5",
    ("dt zn:4 -N 12 --side paired", "json"): "b59e3a13e0b559a6a8d9656ca6461dbd283e82ede15675dbfa49de7ffb63647b",
    ("dt zn:4 -N 12 --side paired", "csv"): "6af13eb04d414a233e179dd5b90b2c5805ec73551b0ebb2337682eb258ef7559",
    # the closed-form operations of the perfbench `closed` workload, at its depth
    ("formula klein -N 30", "json"): "9c0db301174df5e24597e0186d4daaf623805450e0d9d1e6ca0640a0c11cd567",
    ("formula pyramid -N 30", "json"): "50e4800c23eae8230f8587fda7e3ef905848a84b88bde886f9e6615ee3074217",
    ("dt klein -N 28 --side resolution", "json"): "4faf40d797dd37fa1c00e45310689162df15866812f6fefbed2b0f5c8a6ca304",
    ("dt klein -N 28 --side paired", "json"): "5276e2c600c004d68e746921cfc5cdf9b810797101c8610bb092f51777c611d3",
}


@pytest.mark.parametrize("command, fmt", sorted(CLI_DIGESTS), ids=[f"{c} {f}" for c, f in sorted(CLI_DIGESTS)])
def test_cli_output_bytes_are_pinned(capsys, command, fmt):
    assert cli.main([*command.split(), "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_DIGESTS[command, fmt]
