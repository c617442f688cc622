from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount import dtsign
from boxcount.colouring import klein_group, z3diag_group, zn_group
from boxcount.enum3d import coloured_series, enumerate_diagrams
from boxcount.formulas import dt_orbifold, dt_sign_variables

GROUPS = [zn_group(2), zn_group(3), zn_group(4), zn_group(5), klein_group(), z3diag_group()]


def test_single_box_parities():
    box = [(0, 0, 0)]
    assert dtsign.invariant_parity(zn_group(2), box) == 1
    assert dtsign.invariant_parity(zn_group(5), box) == 1
    assert dtsign.invariant_parity(klein_group(), box) == 0
    assert dtsign.invariant_parity(z3diag_group(), box) == 0


def test_restricted_vertex_factor():
    # the four-term factor collapses mod 2 per group
    assert dtsign._f_mod2(zn_group(2)) == 0
    assert dtsign._f_mod2(zn_group(3)) == 0b110
    assert dtsign._f_mod2(zn_group(5)) == 0b10010
    assert dtsign._f_mod2(klein_group()) == 0b1111
    assert dtsign._f_mod2(z3diag_group()) == 0b011


def test_ring_route_equals_laurent_route_and_closed_signs():
    for d in enumerate_diagrams(6):
        boxes = list(d.boxes())
        v = dtsign.vertex_char(boxes)
        for g in GROUPS:
            parity = dtsign.invariant_parity(g, boxes)
            assert dtsign.restrict_laurent(g, v)[0] % 2 == parity
            assert dtsign.sign_of(g, boxes) == dtsign.closed_sign(g, boxes)


def test_vertex_char_is_self_conjugate():
    # Q + Q*conj(Q)*F is fixed by conjugation composed with swapping F
    for d in enumerate_diagrams(5):
        boxes = list(d.boxes())
        q = dtsign.laurent_char(boxes)
        qq = dtsign.laurent_mul(q, dtsign.laurent_conj(q))
        assert dtsign.laurent_conj(qq) == qq


bitmask = st.integers(0, 15)


@given(bitmask, bitmask)
@settings(max_examples=100, deadline=None)
def test_klein_ring_is_commutative(u, v):
    g = klein_group()
    assert dtsign.ring_mul(g, u, v) == dtsign.ring_mul(g, v, u)
    assert dtsign.ring_conj(g, u) == u


@given(bitmask)
@settings(max_examples=100, deadline=None)
def test_klein_squares_collapse(u):
    # over GF(2) every Klein-ring square is 0 or the identity element
    g = klein_group()
    want = bin(u).count("1") % 2
    assert dtsign.ring_mul(g, u, u) == want


@given(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31))
@settings(max_examples=60, deadline=None)
def test_ring_associativity(u, v, w):
    g = zn_group(5)
    assert dtsign.ring_mul(g, dtsign.ring_mul(g, u, v), w) == dtsign.ring_mul(
        g, u, dtsign.ring_mul(g, v, w)
    )


def test_signed_series_equals_sign_substitution():
    for g in (zn_group(2), zn_group(3), klein_group()):
        signed = dtsign.signed_series(g, 6)
        assert signed == coloured_series(g, 6).substitute_signs(dt_sign_variables(g))
        assert signed == dt_orbifold(g, 6)
