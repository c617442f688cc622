import pytest

from boxcount import formulas
from boxcount.colouring import klein_group, z3diag_group, zn_group
from boxcount.enum3d import coloured_series
from boxcount.pyramid import pyramid_series
from boxcount.series import Monomial, macmahon, macmahon_tilde


def test_zn1_is_the_classical_product():
    V = ("q0",)
    assert formulas.closed_zn(1, 10) == macmahon(Monomial.one(V), Monomial.var(V, "q0"), 10)


def test_closed_forms_match_enumeration():
    assert formulas.closed_zn(2, 7) == coloured_series(zn_group(2), 7)
    assert formulas.closed_zn(3, 7) == coloured_series(zn_group(3), 7)
    assert formulas.closed_klein(7) == coloured_series(klein_group(), 7)
    assert formulas.closed_pyramid(7) == pyramid_series(7)


def test_closed_orbifold_dispatch():
    assert formulas.closed_orbifold(zn_group(3), 5) == formulas.closed_zn(3, 5)
    assert formulas.closed_orbifold(klein_group(), 5) == formulas.closed_klein(5)
    with pytest.raises(ValueError):
        formulas.closed_orbifold(z3diag_group(), 5)


def test_pair_identity():
    N = 20
    V = ("q0", "qa", "qb", "qc")
    factor = macmahon_tilde(
        Monomial.from_exponents(V, {"qa": 1, "qb": 1}),
        Monomial.from_exponents(V, {"q0": 1, "qa": 1, "qb": 1, "qc": 1}),
        N,
    )
    assert formulas.closed_klein(N) == factor * formulas.closed_pyramid(N)


def test_euler_numbers():
    assert formulas.euler_number(zn_group(4)) == 4
    assert formulas.euler_number(klein_group()) == 4


def test_curve_classes():
    zn = dict((m.packed(), c) for m, c in formulas._curve_classes(zn_group(3)))
    assert len(zn) == 3 and set(zn.values()) == {1}
    klein = formulas._curve_classes(klein_group())
    assert sorted(c for _, c in klein) == [-1, -1, -1, -1, 1, 1, 1]
    # the resolution side puts its box variable q in q0's place
    for g in (zn_group(2), zn_group(5), klein_group()):
        assert all(beta.halves[0] == 0 for beta, _ in formulas._curve_classes(g))


def test_dt_orbifold_is_sign_substitution():
    for g in (zn_group(2), klein_group()):
        flipped = formulas.closed_orbifold(g, 6).substitute_signs(formulas.dt_sign_variables(g))
        assert formulas.dt_orbifold(g, 6) == flipped


def test_dt_resolution_variables():
    assert formulas.resolution_variables(zn_group(3)) == ("q", "v1", "v2")
    assert formulas.resolution_variables(klein_group()) == ("q", "va", "vb", "vc")


def test_dt_pairing():
    for g in (zn_group(2), zn_group(3), klein_group()):
        assert formulas.dt_pairing_holds(g, 16)


def test_dt_resolution_leading_terms():
    # euler-number multiple of the point contribution appears at degree 1
    s = formulas.dt_resolution(zn_group(2), 4)
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((1, 0)) == -2
    assert s.coefficient((0, 1)) == 0
    assert s.coefficient((1, 1)) == -1
