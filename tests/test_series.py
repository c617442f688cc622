import hashlib
import io
import json
import tracemalloc
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxcount import cli
from boxcount.colouring import parse_group, zn_group
from boxcount.formulas import closed_orbifold
from boxcount.series import (
    MAX_TRUNC, MAX_VARS, WRITE_BLOCK, Monomial, Series, _pack, euler_product, macmahon, macmahon_tilde, var_key,
)
from boxcount.young import check_partition

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
    return {exps: c for exps, c in s.items()}


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


def test_monomial_rendering():
    V = ("x", "g")
    m = Monomial.from_exponents(V, {"x": 2, "g": 1})
    assert repr(m) == "x^2*g"
    assert repr(-m) == "-x^2*g"
    assert repr(Monomial.one(V)) == "1"


@st.composite
def monomial_pairs(draw):
    """Two signed monomials on one variable tuple."""
    vars = tuple(draw(st.lists(st.sampled_from("qxyzuvw"), min_size=1, max_size=MAX_VARS, unique=True)))
    exps = st.tuples(*[st.integers(0, 9)] * len(vars))
    signs = st.sampled_from((1, -1))
    return Monomial(vars, draw(exps), draw(signs)), Monomial(vars, draw(exps), draw(signs))


@given(monomial_pairs(), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_monomial_operations_match_the_validating_constructor(pair, k):
    a, b = pair
    V = a.vars
    assert a * b == Monomial(V, [x + y for x, y in zip(a.exps, b.exps)], a.sign * b.sign)
    assert a**k == Monomial(V, [k * x for x in a.exps], a.sign**k)
    assert -a == Monomial(V, a.exps, -a.sign)
    assert (a * b) / b == Monomial(V, a.exps, a.sign)
    for result in (a * b, a**k, -a, (a * b) / b):
        assert type(result.exps) is tuple and result.vars is V
    if any(x < y for x, y in zip(a.exps, b.exps)):
        with pytest.raises(ValueError, match="negative exponent"):
            a / b
    other = Monomial(V[:-1] + ("t",), a.exps)
    for op in (lambda: a * other, lambda: a / other, lambda: other * a, lambda: other / a):
        with pytest.raises(ValueError, match="variable sets differ"):
            op()


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
    terms of positive degree."""
    V = ("x", "y")
    trunc = draw(st.integers(0, 8))
    s = Series.one(V, trunc) * draw(st.sampled_from((1, -1)))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any)
    for e, coef in draw(st.lists(st.tuples(exps, st.integers(-3, 3).filter(bool)), max_size=5)):
        s = s + Series.from_monomial(Monomial(V, e), trunc) * coef
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
    exps, ca, cb = a.diff(b)
    assert (exps, ca, cb) == ((1,), 1, 3)
    assert a.diff(a) is None


def test_diff_reports_canonically_first_of_several_mismatches():
    # y^3 < x*z^2 < x^2*y in canonical order; with the lanes reversed, integer
    # order would compare z first and put x^2*y first
    V = ("x", "y", "z")
    a = Series.from_terms(V, 6, {(0, 0, 0): 1, (0, 3, 0): 2, (1, 0, 2): 5, (2, 1, 0): 7, (4, 0, 0): 1})
    b = Series.from_terms(V, 6, {(0, 0, 0): 1, (0, 3, 0): -2, (1, 0, 2): 6, (2, 1, 0): 0, (0, 0, 4): 3})
    assert a.diff(b) == ((0, 3, 0), 2, -2)
    assert b.diff(a) == ((0, 3, 0), -2, 2)
    c = Series.from_terms(V, 6, {(0, 0, 0): 1, (0, 3, 0): 2, (1, 0, 2): 6, (2, 1, 0): 0})
    assert a.diff(c) == ((1, 0, 2), 5, 6)


@st.composite
def exponent_pair(draw):
    # two exponent tuples on 1-7 variables, each of degree at most MAX_TRUNC
    n = draw(st.integers(1, MAX_VARS))

    def exps():
        room, out = MAX_TRUNC, []
        for _ in range(n):
            out.append(draw(st.integers(0, room)))
            room -= out[-1]
        return tuple(draw(st.permutations(out)))

    return exps(), exps()


@given(exponent_pair())
@example(((1, 0), (0, 1)))
@example(((0, 0, MAX_TRUNC), (MAX_TRUNC, 0, 0)))
@settings(max_examples=300, deadline=None)
def test_key_order_is_canonical_order(pair):
    a, b = pair
    assert (_pack(a) < _pack(b)) == ((sum(a), a) < (sum(b), b))
    assert (_pack(a) == _pack(b)) == (a == b)


def test_guardrails():
    with pytest.raises(ValueError):
        Series.one(tuple("abcdefgh"), 4)  # too many variables
    with pytest.raises(ValueError):
        Series.one(("q",), 64)  # truncation too deep
    with pytest.raises(ValueError):
        Monomial.var(("q",), "x")
    s = Series.from_terms(("x", "y"), 4, {(1, 0): 2})
    # a monomial on other variables, the first above the truncation so that it coerces to a zero series
    for m in (Monomial(("x", "t"), (3, 2)), Monomial(("x", "t"), (0, 1))):
        for op in (lambda: s + m, lambda: m + s, lambda: s - m, lambda: m - s):
            with pytest.raises(ValueError, match="variable sets differ"):
                op()


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
    for exps, c in a.items():
        want = -c if exps[0] % 2 else c
        assert flipped.coefficient(exps) == want


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


@given(any_series())
@example(Series.zero(("q",), 0))
@example(Series.from_terms(("%d", "y%s"), 5, {(0, 0): 3, (2, 3): -(2**70)}))
@settings(max_examples=150, deadline=None)
def test_csv_writer_matches_line_by_line_reference(s):
    header = "degree," + ",".join(f"exponent_{v}" for v in s.vars) + ",coefficient\n"
    lines = [f"{sum(exps)},{','.join(map(str, exps))},{coef}\n" for exps, coef in s.items()]
    assert s.to_csv() == header + "".join(lines)


def _document(change=None):
    """The JSON document of 3 - 5*y^2 + 2*x*y on (x, y) to degree 3, after
    `change`, if given, changed it in place."""
    data = Series.from_terms(("x", "y"), 3, {(0, 0): 3, (0, 2): -5, (1, 1): 2}).to_json_dict()
    if change:
        change(data)
    return data


def _set(*path):
    def change(data):
        *keys, last, value = path
        for key in keys:
            data = data[key]
        data[last] = value

    return change


REJECTED_DOCUMENTS = {
    "trunc float": _set("trunc", 3.9),
    "trunc bool": _set("trunc", True),
    "exponent float": _set("terms", 1, "exp", [0.0, 2]),
    "exponent bool": _set("terms", 2, "exp", [True, 1]),
    "coef float": _set("terms", 1, "coef", 2.7),
    "coef int": _set("terms", 1, "coef", 4),
    "coef bool": _set("terms", 1, "coef", True),
    "coef padded": _set("terms", 1, "coef", " 4 "),
    "coef leading zero": _set("terms", 1, "coef", "05"),
    "coef underscore": _set("terms", 1, "coef", "1_0"),
    "coef plus sign": _set("terms", 1, "coef", "+4"),
    "coef zero": _set("terms", 1, "coef", "0"),
    "coef negative zero": _set("terms", 1, "coef", "-0"),
    "exponent repeated": _set("terms", 2, "exp", [0, 2]),
    "terms out of order": lambda data: data["terms"].reverse(),
    "term above trunc": lambda data: data["terms"].append({"exp": [0, 4], "coef": "1"}),
    "vars string": _set("vars", "xy"),
    "vars not strings": _set("vars", ["x", 1]),
}


def test_reader_takes_the_unchanged_document():
    assert Series.from_json_dict(_document()) == Series.from_terms(("x", "y"), 3, {(0, 0): 3, (0, 2): -5, (1, 1): 2})


@pytest.mark.parametrize("change", REJECTED_DOCUMENTS.values(), ids=REJECTED_DOCUMENTS)
def test_reader_rejects_what_the_writer_never_writes(change):
    with pytest.raises(ValueError):
        Series.from_json_dict(_document(change))


MISSHAPEN_DOCUMENTS = {
    "document a list": [],
    "terms a string": dict(_document(), terms="ab"),
    "term a list": dict(_document(), terms=[[0, 0]]),
    "terms missing": {"vars": ["x", "y"], "trunc": 3},
    "coef missing": dict(_document(), terms=[{"exp": [0, 0]}]),
}


@pytest.mark.parametrize("data", MISSHAPEN_DOCUMENTS.values(), ids=MISSHAPEN_DOCUMENTS)
def test_reader_rejects_a_misshapen_document_with_value_error(data):
    with pytest.raises(ValueError):
        Series.from_json_dict(data)


BAD_EXPONENTS = {"bool": (True, 0), "negative": (-1, 1), "float": (1.0, 0), "string": ("a", 0), "short": (1,)}


@pytest.mark.parametrize("exps", BAD_EXPONENTS.values(), ids=BAD_EXPONENTS)
def test_every_exponent_reader_refuses_a_bad_vector(exps):
    V = ("x", "y")
    s = Series.from_terms(V, 3, {(1, 0): 2})
    for read in (
        lambda: s.coefficient(exps),
        lambda: Series.from_terms(V, 3, {exps: 1}),
        lambda: Monomial(V, exps),
        lambda: Series.from_json_dict(dict(s.to_json_dict(), terms=[{"exp": list(exps), "coef": "1"}])),
    ):
        with pytest.raises(ValueError):
            read()


def test_the_constructor_refuses_what_from_terms_drops():
    V = ("x",)
    x = var_key(1, 0)
    # a zero coefficient and a term above the truncation are refused, not dropped
    for terms in ({0: 1, x: 0}, {0: 1, 4 * x: 1}):
        with pytest.raises(ValueError):
            Series(V, 3, terms)
    assert Series(V, 3, {0: 1, 3 * x: -2}).coefficient((3,)) == -2
    # from_terms drops both
    s = Series.from_terms(V, 3, {(0,): 1, (1,): 0, (2,): 5, (4,): 7})
    assert s == Series(V, 3, {0: 1, 2 * x: 5}) and len(s) == 2
    assert Series.from_terms(V, 0, {(1,): 1}).is_zero()


def test_the_constructor_refuses_negative_keys():
    # a negative key has no exponents to write: pretty() would overflow
    for terms in ({-5: 1}, {0: 1, -1: 2}):
        with pytest.raises(ValueError):
            Series(("x",), 3, terms)


BOOL_CONSTANTS = {
    "s + True": lambda s: s + True,
    "s + False": lambda s: s + False,
    "s * True": lambda s: s * True,
    "True * s": lambda s: True * s,
}


@pytest.mark.parametrize("combine", BOOL_CONSTANTS.values(), ids=BOOL_CONSTANTS)
def test_arithmetic_refuses_bool_constants(combine):
    # False would otherwise act as 0 and True be refused only as a coefficient
    with pytest.raises(TypeError):
        combine(Series.one(("x",), 3))


BOOL_ARGUMENTS = {
    "monomial exponent": lambda: Monomial(("x",), (True,)),
    "monomial sign": lambda: Monomial(("x",), (1,), sign=True),
    "from_terms exponent": lambda: Series.from_terms(("x",), 3, {(True,): 1}),
    "from_terms coefficient": lambda: Series.from_terms(("x",), 3, {(1,): True}),
    "series coefficient": lambda: Series(("x",), 3, {0: True}),
    "series trunc": lambda: Series(("x",), True, {0: 1}),
    "euler_product trunc": lambda: euler_product(("x",), True, [(Monomial(("x",), (1,)), 1)]),
    "zn_group order": lambda: zn_group(True),
    "monomial power": lambda: Monomial(("x",), (1,)) ** True,
    "series power": lambda: Series.one(("x",), 3) ** True,
    "var_key index": lambda: var_key(2, True),
    "partition row": lambda: check_partition((True,)),
}


@pytest.mark.parametrize("build", BOOL_ARGUMENTS.values(), ids=BOOL_ARGUMENTS)
def test_constructors_refuse_bools_as_ints(build):
    # a bool coefficient would be written as "True", which the reader refuses,
    # and a bool order would name the group zn:True
    with pytest.raises(ValueError):
        build()


@given(any_series())
@settings(max_examples=60, deadline=None)
def test_items_come_in_degree_then_exponent_order(s):
    exps = [e for e, _ in s.items()]
    assert exps == sorted(set(exps), key=lambda e: (sum(e), e))


@st.composite
def series_and_monomial(draw):
    """A series and a signed monomial on its variables, of any degree up to
    3 per variable, so the monomial may lie above the truncation."""
    s = draw(any_series())
    exps = [draw(st.integers(0, 3)) for _ in s.vars]
    return s, Monomial(s.vars, exps, draw(st.sampled_from((1, -1))))


@given(series_and_monomial(), st.integers(-(2**70), 2**70))
@settings(max_examples=100, deadline=None)
def test_products_with_monomials_and_ints_are_products_with_their_series(pair, c):
    s, m = pair
    V, N = s.vars, s.trunc
    # term by term: m shifts each exponent and c scales each coefficient
    shifted = {tuple(map(add, e, m.exps)): m.sign * coef for e, coef in s.items() if sum(e) + m.degree <= N}
    assert s * m == m * s == s * Series.from_monomial(m, N) == Series.from_terms(V, N, shifted)
    constant = Series.from_terms(V, N, {(0,) * len(V): c})
    assert s * c == c * s == s * constant == Series.from_terms(V, N, {e: c * coef for e, coef in s.items()})
    # "t" is not among any_series' names
    other = Monomial(V[:-1] + ("t",), m.exps)
    for op in (lambda: s * other, lambda: other * s, lambda: s * Series.from_monomial(other, N)):
        with pytest.raises(ValueError, match="variable sets differ"):
            op()


def _series_of(n):
    # the first n monomials on three variables of degree <= 20, with coefficients of every size
    V = ("x", "y", "z")
    exps = [(i, j, k) for i in range(21) for j in range(21 - i) for k in range(21 - i - j)][:n]
    return Series.from_terms(V, 20, {e: (-1) ** t * 7**t for t, e in enumerate(exps, 1)})


@pytest.mark.parametrize("n", [0, 1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 2 * WRITE_BLOCK + 1])
def test_streamed_writers_write_the_returned_text(n):
    s = _series_of(n)
    assert len(s) == n
    for write in (s.to_json, s.to_csv):
        out = io.StringIO()
        assert write(out) is None
        assert out.getvalue() == write()
    assert json.loads(s.to_json()) == s.to_json_dict()


class _Discard:
    def write(self, text):
        pass


def test_streamed_writer_holds_a_fraction_of_the_text():
    # what stays is the sorted key list, 8 of the ~45 bytes a term of zn:7's JSON takes, and one block
    s = closed_orbifold(parse_group("zn:7"), 20)
    size = len(s.to_json())
    tracemalloc.start()
    try:
        s.to_json(_Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 4, (peak, size)


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
    # a deeper resolution, where the cap cuts most factors' steps
    ("dt zn:5 -N 24 --side resolution", "json"): "f14ada0941109932ef4fef0a6b2bc61af9c386b72880a08e7b15f1bed5eb506e",
    # the transfer machines: the perfbench `transfer` workload's operations at its depth,
    # the primed checkerboard table, and z3diag, which has no closed form to compare with
    ("transfer z2z2 -N 15", "json"): "15d6346f9e8785674046492cbe2074f5ce9f874194d6245e313f2fef9c4c7761",
    ("transfer pyramid -N 15", "json"): "2a858a01af8beab6a865160385bbb19c6a1748c95c78c59e8adee839e3b7f611",
    ("transfer zn:3 -N 15", "json"): "58cc84ccbdcce89a39a0ec3da7952a72a1b5e33768c9a4e37322e9d9f18586bb",
    ("transfer pyramid-checkerboard -N 12", "json"): "8c5fdb1dbe38be2e77009e9a6524d8850b0b861ad8c57b693418335ff00d4519",
    ("transfer z3diag -N 12", "json"): "1139c2062c1df8ed53ada4f4bb1ed0faef075939b84dbf00be2b6140c2ca1930",
    # the seven-colour machine, whose closed form is checked only at depth
    ("transfer zn:7 -N 12", "json"): "e40240d2f94b60a3313ef73f3d60d1d68ddbbc87f3bda8c1d3280243742f25e8",
    # deeper transfer walks, where a tail bound or a meeting slice could first drop a live term
    ("transfer zn:7 -N 20", "json"): "6abb43b65d9c1ecab30acf3ca7c1232d4ecd6ac72c364527071e4a51b28c16a9",
    ("transfer pyramid-checkerboard -N 20", "json"): "65fefffadf96dc8d1293db74d6a6ff79e12d421988825603e356fb81a66c677b",
    # recorded before the writers streamed their text in blocks of keys in integer order
    ("formula klein -N 30", "csv"): "ba57ed683de72169b89ef8d265701b479bdfa2110dce7e89da7a3b0a6edd4d99",
    ("formula klein -N 12", "pretty"): "47774784484f1e0459241bf8406b981a98ee9c483e6fac54ec93eb0a1dc697f6",
    ("dt zn:3 -N 12 --side resolution --max-terms 500", "pretty"):
        "71a92e19793709ce252c98338919fb85f75b1478148ef15881448d45c6e06a5e",
    # the enumerations of the perfbench `enumerate` workload, at its depth, recorded
    # while each pile was still yielded to its consumer as a list of cells
    ("enum klein -N 15", "json"): "15d6346f9e8785674046492cbe2074f5ce9f874194d6245e313f2fef9c4c7761",
    ("sign zn:3 -N 14", "json"): "1aa10f00df6b4e88c568becc36c2bd772d2999a9104c5988cfb08eaabcbb6bf6",
    ("enum zn:7 -N 14", "json"): "5e4ccb6e086edf511233d04ed312bb26a67e2f56b897d6adbb0612eb6677db17",
    # the brick piles of the perfbench `enumerate` workload, recorded while each pile
    # was still built as a PyramidPartition
    ("pyramid -N 13", "json"): "7c685e3d0462c504e6888577248518343e462c61533c9dbdd55a3e6de006b1f9",
    ("pyramid -N 13", "csv"): "6d04e54f40906764d52370699b273d8f10ff6c78d47a1d5873f3cf2e3e1180e4",
}


@pytest.mark.parametrize("command, fmt", sorted(CLI_DIGESTS), ids=[f"{c} {f}" for c, f in sorted(CLI_DIGESTS)])
def test_cli_output_bytes_are_pinned(capsys, command, fmt):
    assert cli.main([*command.split(), "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_DIGESTS[command, fmt]
