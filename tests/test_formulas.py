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
    # every class table, checked through its orbifold rows
    for n in range(1, 8):
        assert formulas.closed_zn(n, 7) == coloured_series(zn_group(n), 7), n
    assert formulas.closed_klein(7) == coloured_series(klein_group(), 7)
    assert formulas.closed_pyramid(7) == pyramid_series(7)


def test_closed_orbifold_dispatch():
    assert formulas.closed_orbifold(zn_group(3), 5) == formulas.closed_zn(3, 5)
    assert formulas.closed_orbifold(klein_group(), 5) == formulas.closed_klein(5)
    for lookup in (formulas.closed_form, formulas.dt_sign_variables, formulas.resolution_variables):
        with pytest.raises(ValueError):
            lookup(z3diag_group())
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
    assert formulas.closed_klein(N) == formulas.evaluate(formulas.pair_rows(), N)


def test_euler_numbers():
    # the prefactor M(1, q)**|G| on every side of the wall
    for g in (zn_group(4), klein_group()):
        for rows in (formulas.orbifold_rows(g), formulas.resolution_rows(g), formulas.resolution_rows(g, True)):
            assert rows[0][0].degree == 0 and rows[0][2] == 4
    assert formulas.pyramid_rows()[0][2] == 4


def test_curve_classes():
    zn = formulas.closed_form(zn_group(3)).classes
    assert sorted(zn) == [(("q1",), 1), (("q1", "q2"), 1), (("q2",), 1)]
    klein = formulas.closed_form(klein_group()).classes
    assert sorted(c for _, c in klein) == [-1, -1, -1, -1, 1, 1, 1]
    assert len(set(cover for cover, _ in klein)) == 7
    assert sorted(c for _, c in formulas.PYRAMID_CLASSES) == [-1, -1, -1, -1, 1, 1]
    # the resolution side puts its box variable q in q0's place
    for g in [zn_group(n) for n in range(1, 8)] + [klein_group()]:
        form = formulas.closed_form(g)
        assert len(form.curves) == g.order - 1
        assert all("q0" not in cover and set(cover) <= set(g.variables) for cover, _ in form.classes)


def test_dt_orbifold_is_sign_substitution():
    for g in (zn_group(2), klein_group()):
        flipped = formulas.closed_orbifold(g, 6).substitute_signs(formulas.dt_sign_variables(g))
        assert formulas.dt_orbifold(g, 6) == flipped


def test_dt_resolution_variables():
    assert formulas.resolution_variables(zn_group(3)) == ("q", "v1", "v2")
    assert formulas.resolution_variables(klein_group()) == ("q", "va", "vb", "vc")


def test_dt_pairing():
    for g in [zn_group(n) for n in range(1, 8)] + [klein_group()]:
        assert formulas.dt_pairing_holds(g, 16), g


def test_dt_resolution_leading_terms():
    # euler-number multiple of the point contribution appears at degree 1
    s = formulas.dt_resolution(zn_group(2), 4)
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((1, 0)) == -2
    assert s.coefficient((0, 1)) == 0
    assert s.coefficient((1, 1)) == -1
