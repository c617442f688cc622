"""Acceptance gate: every headline identity, checked end to end.

Each test prints exactly one PASS/FAIL line.  All series comparisons are
exact integer equalities at the stated truncation; the stated wall-clock
budgets are asserted too.
"""

import time

from boxcount import dtsign, fock, formulas, relations, young
from boxcount.colouring import klein_group, z3diag_group, zn_group
from boxcount.enum3d import coloured_series, enumerate_diagrams, volume_counts
from boxcount.fock import bracket, gamma_minus
from boxcount.pyramid import (
    SLICE_COLOUR,
    PyramidPartition,
    colour_index,
    enumerate_pyramids,
    layer_bricks,
    parents,
    pyramid_series,
)
from boxcount.series import Monomial, Series, macmahon, macmahon_tilde


def report(num, label, ok, t0=None, budget=None):
    took = f" [{time.time() - t0:.1f}s]" if t0 is not None else ""
    print(f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}{took}")
    assert ok, f"criterion {num}: {label}"
    if budget is not None:
        assert time.time() - t0 < budget


def test_criterion_01_volume_counts():
    t0 = time.time()
    V = ("q",)
    mac = macmahon(Monomial.one(V), Monomial.var(V, "q"), 14)
    counts = volume_counts(14)
    ok = counts == [mac.coefficient((d,)) for d in range(15)]
    report(1, "volume counts = classical product to degree 14", ok, t0, budget=30)


def test_criterion_02_cyclic_closed_forms():
    t0 = time.time()
    ok = all(coloured_series(zn_group(n), 12) == formulas.closed_zn(n, 12) for n in (2, 3, 4))
    report(2, "cyclic enumeration = closed form to degree 12, n=2,3,4", ok, t0, budget=300)


def test_criterion_03_klein_closed_form():
    t0 = time.time()
    ok = coloured_series(klein_group(), 12) == formulas.closed_klein(12)
    report(3, "klein enumeration = closed form to degree 12", ok, t0, budget=300)


def test_criterion_04_pyramid_closed_form():
    t0 = time.time()
    ok = pyramid_series(12) == formulas.closed_pyramid(12)
    report(4, "pyramid enumeration = closed form to degree 12", ok, t0, budget=300)


def test_criterion_05_pair_identity():
    t0 = time.time()
    N = 14
    V = ("q0", "qa", "qb", "qc")
    factor = macmahon_tilde(
        Monomial.from_exponents(V, {"qa": 1, "qb": 1}),
        Monomial.from_exponents(V, {"q0": 1, "qa": 1, "qb": 1, "qc": 1}),
        N,
    )
    ok = formulas.closed_klein(N) == factor * formulas.closed_pyramid(N)
    report(5, "klein form = paired pyramid form to degree 14", ok, t0, budget=10)


def test_criterion_06_transfer_consistency():
    t0 = time.time()
    def transfer(name, trunc):
        return fock.evaluate(fock.machine(name), trunc)

    ok = all(transfer(f"zn:{n}", 10) == coloured_series(zn_group(n), 10) for n in (1, 2, 3))
    ok = ok and transfer("pyramid", 10) == pyramid_series(10)
    ok = ok and transfer("pyramid", 8) == transfer("pyramid-checkerboard", 8)
    report(6, "transfer machines = enumeration at degree 10; slicings agree at 8", ok, t0)


def test_criterion_07_operator_suite():
    t0 = time.time()
    ok = True
    for name, good, witness in relations.run_all(trunc=8, max_basis=6):
        if not good:
            print(f"  relation {name} failed on {witness}")
            ok = False
    report(7, "operator identity catalogue on bases up to size 6", ok, t0)


def test_criterion_08_skew_brackets():
    t0 = time.time()
    V = ("q",)
    q = Monomial.var(V, "q")
    N = 6
    parts = list(young.partitions_up_to(6))
    ok = True
    for lam in parts:
        for mu in parts:
            d = sum(lam) - sum(mu)
            plain = Series.from_monomial(q ** d, N) if young.interlaces(lam, mu) else Series.zero(V, N)
            ok = ok and bracket(lam, [gamma_minus(q)], mu, V, N) == plain
            primed = (
                Series.from_monomial(q ** d, N)
                if young.interlaces(young.conjugate(lam), young.conjugate(mu))
                else Series.zero(V, N)
            )
            ok = ok and bracket(lam, [gamma_minus(q, primed=True)], mu, V, N) == primed
    report(8, "skew brackets = interlacing indicators up to size 6", ok, t0)


def test_criterion_09_vertex_parity_signs():
    t0 = time.time()
    groups = [zn_group(n) for n in (2, 3, 4, 5)] + [klein_group(), z3diag_group()]
    ok = True
    for d in enumerate_diagrams(8):
        boxes = list(d.boxes())
        for g in groups:
            if dtsign.sign_of(g, boxes) != dtsign.closed_sign(g, boxes):
                ok = False
    report(9, "vertex parity sign = closed sign on all piles up to 8 boxes", ok, t0)


def test_criterion_10_sign_flip():
    t0 = time.time()
    ok = True
    for g in (zn_group(2), zn_group(3), klein_group()):
        coloured = coloured_series(g, 10)
        signed = dtsign.sign_map(g, coloured)
        flipped = coloured.substitute_signs(formulas.dt_sign_variables(g))
        closed = formulas.dt_orbifold(g, 10)
        ok = ok and signed == flipped and flipped == closed and signed == closed
    report(10, "sign table = sign substitution = signed closed form to 10", ok, t0)


def test_criterion_11_pairing_identity():
    t0 = time.time()
    ok = all(formulas.dt_pairing_holds(g, 12) for g in (zn_group(2), zn_group(3), klein_group()))
    report(11, "orbifold form = paired resolution form to degree 12", ok, t0, budget=60)


def test_criterion_12_pyramid_structure():
    t0 = time.time()
    ok = True
    for p in map(PyramidPartition, enumerate_pyramids(8)):
        for x, y, z in p.bricks:
            ok = ok and colour_index((x, y, z)) == SLICE_COLOUR[(x - z) % 4]
        sl = p.slices()
        lo, hi = (min(sl), max(sl)) if sl else (0, -1)
        for s in range(lo - 1, hi + 1):
            a, b = sl.get(s, ()), sl.get(s + 1, ())
            inner, outer = (b, a) if s < 0 else (a, b)
            if s % 2 == 0:
                ok = ok and young.interlaces(inner, outer)
            else:
                ok = ok and young.conjugate_interlaces(inner, outer)
    # words of addable bricks reach exactly the enumerated piles
    frontier = {frozenset()}
    for step in range(6):
        nxt = set()
        for pile in frontier:
            for y in range(step + 1):
                for b in layer_bricks(y):
                    if b not in pile and all(q in pile for q in parents(b)):
                        nxt.add(pile | {b})
        frontier = nxt
    enumerated = {frozenset(p.bricks) for p in map(PyramidPartition, enumerate_pyramids(6)) if p.volume() == 6}
    ok = ok and frontier == enumerated
    report(12, "slice colours, interlacing families, word-model equivalence", ok, t0)
