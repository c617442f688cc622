import itertools

import pytest

from boxcount import dtsign, fock
from boxcount.colouring import colour_index, klein_group, z3diag_group, zn_group
from boxcount.enum3d import coloured_series, enumerate_diagrams
from boxcount.formulas import dt_orbifold, dt_sign_variables
from boxcount.series import Series

GROUPS = [zn_group(2), zn_group(3), zn_group(4), zn_group(5), klein_group(), z3diag_group()]
SIGN_MAP_GROUPS = [zn_group(k) for k in range(1, 8)] + [klein_group(), z3diag_group()]


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


def test_every_parity_mask_matches_the_laurent_route():
    # one box per colour of the mask, a box set rather than a pile: piles of up to 6 boxes
    # reach only 7 of z3diag's 8 masks, and the parity depends on the colours alone
    for g in SIGN_MAP_GROUPS:
        box_of = {}
        for box in itertools.product(range(g.order), repeat=3):
            box_of.setdefault(colour_index(g, *box), box)
        assert len(box_of) == g.order, g
        for q in range(1 << g.order):
            boxes = [box_of[i] for i in range(g.order) if q >> i & 1]
            assert dtsign.restrict_boxes_mod2(g, boxes) == q
            assert dtsign.restrict_laurent(g, dtsign.vertex_char(boxes))[0] % 2 == dtsign.mask_parity(g, q), (g, q)


def test_vertex_char_is_self_conjugate():
    # Q + Q*conj(Q)*F is fixed by conjugation composed with swapping F
    for d in enumerate_diagrams(5):
        boxes = list(d.boxes())
        q = dtsign.laurent_char(boxes)
        qq = dtsign.laurent_mul(q, dtsign.laurent_conj(q))
        assert dtsign.laurent_conj(qq) == qq


def test_signed_series_equals_sign_substitution():
    for g in (zn_group(2), zn_group(3), klein_group()):
        coloured = coloured_series(g, 6)
        signed = dtsign.sign_map(g, coloured)
        assert signed == coloured.substitute_signs(dt_sign_variables(g))
        assert signed == dt_orbifold(g, 6)


def test_sign_map_equals_per_pile_signs():
    # reference: every pile adds its own sign at its colour counts
    for g in SIGN_MAP_GROUPS:
        terms = {}
        for d in enumerate_diagrams(7):
            boxes = list(d.boxes())
            counts = tuple(dtsign.colour_counts(g, boxes))
            terms[counts] = terms.get(counts, 0) + dtsign.sign_of(g, boxes)
        reference = Series.from_terms(g.variables, 7, terms)
        assert dtsign.sign_map(g, coloured_series(g, 7)) == reference, g


def test_sign_map_reads_any_route():
    g = zn_group(3)
    transfer = fock.evaluate(fock.machine("zn:3"), 20)
    assert dtsign.sign_map(g, transfer) == dt_orbifold(g, 20)


def test_sign_table_equals_substitution_on_every_mask():
    # one monomial per parity mask: each colour to the power 0 or 1
    for g in SIGN_MAP_GROUPS[:-1]:
        masks = {tuple((q >> i) & 1 for i in range(g.order)): 1 for q in range(1 << g.order)}
        series = Series.from_terms(g.variables, g.order, masks)
        assert len(series) == 1 << g.order
        assert dtsign.sign_map(g, series) == series.substitute_signs(dt_sign_variables(g)), g


def test_sign_map_rejects_other_variables():
    with pytest.raises(ValueError):
        dtsign.sign_map(klein_group(), coloured_series(zn_group(4), 3))
