import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount import fock, relations, young
from boxcount.colouring import colour_index, klein_group, z3diag_group, zn_group
from boxcount.dtsign import sign_map
from boxcount.enum3d import coloured_series
from boxcount.formulas import closed_klein, closed_pyramid, closed_zn
from boxcount.fock import FockState, alpha_op, apply_op, apply_ops, bracket, even_minus, gamma_minus, gamma_plus
from boxcount.pyramid import pyramid_series
from boxcount.series import Monomial, Series

# frozen from tools/oracles/exp_alpha.py (operators rebuilt as exponentials
# of border-strip operators with Fraction coefficients)
ALPHA_STRIPS = {
    (1, (1,), ()): 1, (1, (2,), (1,)): 1, (1, (1, 1), (1,)): 1, (1, (3,), (2,)): 1,
    (1, (2, 1), (2,)): 1, (1, (2, 1), (1, 1)): 1, (1, (1, 1, 1), (1, 1)): 1, (1, (4,), (3,)): 1,
    (1, (3, 1), (3,)): 1, (1, (3, 1), (2, 1)): 1, (1, (2, 2), (2, 1)): 1,
    (1, (2, 1, 1), (2, 1)): 1, (1, (2, 1, 1), (1, 1, 1)): 1, (1, (1, 1, 1, 1), (1, 1, 1)): 1,
    (1, (5,), (4,)): 1, (1, (4, 1), (4,)): 1, (1, (4, 1), (3, 1)): 1, (1, (3, 2), (3, 1)): 1,
    (1, (3, 1, 1), (3, 1)): 1, (1, (3, 2), (2, 2)): 1, (1, (2, 2, 1), (2, 2)): 1,
    (1, (3, 1, 1), (2, 1, 1)): 1, (1, (2, 2, 1), (2, 1, 1)): 1, (1, (2, 1, 1, 1), (2, 1, 1)): 1,
    (1, (2, 1, 1, 1), (1, 1, 1, 1)): 1, (1, (1, 1, 1, 1, 1), (1, 1, 1, 1)): 1, (2, (2,), ()): 1,
    (2, (1, 1), ()): -1, (2, (3,), (1,)): 1, (2, (1, 1, 1), (1,)): -1, (2, (4,), (2,)): 1,
    (2, (2, 2), (2,)): 1, (2, (2, 1, 1), (2,)): -1, (2, (3, 1), (1, 1)): 1,
    (2, (2, 2), (1, 1)): -1, (2, (1, 1, 1, 1), (1, 1)): -1, (2, (5,), (3,)): 1,
    (2, (3, 2), (3,)): 1, (2, (3, 1, 1), (3,)): -1, (2, (4, 1), (2, 1)): 1,
    (2, (2, 1, 1, 1), (2, 1)): -1, (2, (3, 1, 1), (1, 1, 1)): 1, (2, (2, 2, 1), (1, 1, 1)): -1,
    (2, (1, 1, 1, 1, 1), (1, 1, 1)): -1, (2, (6,), (4,)): 1, (2, (4, 2), (4,)): 1,
    (2, (4, 1, 1), (4,)): -1, (2, (5, 1), (3, 1)): 1, (2, (3, 3), (3, 1)): 1,
    (2, (3, 1, 1, 1), (3, 1)): -1, (2, (4, 2), (2, 2)): 1, (2, (3, 3), (2, 2)): -1,
    (2, (2, 2, 2), (2, 2)): 1, (2, (2, 2, 1, 1), (2, 2)): -1, (2, (4, 1, 1), (2, 1, 1)): 1,
    (2, (2, 2, 2), (2, 1, 1)): -1, (2, (2, 1, 1, 1, 1), (2, 1, 1)): -1,
    (2, (3, 1, 1, 1), (1, 1, 1, 1)): 1, (2, (2, 2, 1, 1), (1, 1, 1, 1)): -1,
    (2, (1, 1, 1, 1, 1, 1), (1, 1, 1, 1)): -1, (3, (3,), ()): 1, (3, (2, 1), ()): -1,
    (3, (1, 1, 1), ()): 1, (3, (4,), (1,)): 1, (3, (2, 2), (1,)): -1, (3, (1, 1, 1, 1), (1,)): 1,
    (3, (5,), (2,)): 1, (3, (2, 2, 1), (2,)): -1, (3, (2, 1, 1, 1), (2,)): 1,
    (3, (4, 1), (1, 1)): 1, (3, (3, 2), (1, 1)): -1, (3, (1, 1, 1, 1, 1), (1, 1)): 1,
    (3, (6,), (3,)): 1, (3, (3, 3), (3,)): 1, (3, (3, 2, 1), (3,)): -1,
    (3, (3, 1, 1, 1), (3,)): 1, (3, (5, 1), (2, 1)): 1, (3, (3, 3), (2, 1)): -1,
    (3, (2, 2, 2), (2, 1)): -1, (3, (2, 1, 1, 1, 1), (2, 1)): 1, (3, (4, 1, 1), (1, 1, 1)): 1,
    (3, (3, 2, 1), (1, 1, 1)): -1, (3, (2, 2, 2), (1, 1, 1)): 1,
    (3, (1, 1, 1, 1, 1, 1), (1, 1, 1)): 1, (4, (4,), ()): 1, (4, (3, 1), ()): -1,
    (4, (2, 1, 1), ()): 1, (4, (1, 1, 1, 1), ()): -1, (4, (5,), (1,)): 1, (4, (3, 2), (1,)): -1,
    (4, (2, 2, 1), (1,)): 1, (4, (1, 1, 1, 1, 1), (1,)): -1, (4, (6,), (2,)): 1,
    (4, (3, 3), (2,)): -1, (4, (2, 2, 1, 1), (2,)): 1, (4, (2, 1, 1, 1, 1), (2,)): -1,
    (4, (5, 1), (1, 1)): 1, (4, (4, 2), (1, 1)): -1, (4, (2, 2, 2), (1, 1)): 1,
    (4, (1, 1, 1, 1, 1, 1), (1, 1)): -1,
}

GAMMA_PAIRS = [
    ((), ()), ((1,), ()), ((1,), (1,)), ((1, 1), (1,)), ((1, 1), (1, 1)), ((1, 1, 1), (1, 1)),
    ((1, 1, 1), (1, 1, 1)), ((1, 1, 1, 1), (1, 1, 1)), ((1, 1, 1, 1), (1, 1, 1, 1)), ((2,), ()),
    ((2,), (1,)), ((2,), (2,)), ((2, 1), (1,)), ((2, 1), (1, 1)), ((2, 1), (2,)),
    ((2, 1), (2, 1)), ((2, 1, 1), (1, 1)), ((2, 1, 1), (1, 1, 1)), ((2, 1, 1), (2, 1)),
    ((2, 1, 1), (2, 1, 1)), ((2, 2), (2,)), ((2, 2), (2, 1)), ((2, 2), (2, 2)), ((3,), ()),
    ((3,), (1,)), ((3,), (2,)), ((3,), (3,)), ((3, 1), (1,)), ((3, 1), (1, 1)), ((3, 1), (2,)),
    ((3, 1), (2, 1)), ((3, 1), (3,)), ((3, 1), (3, 1)), ((4,), ()), ((4,), (1,)), ((4,), (2,)),
    ((4,), (3,)), ((4,), (4,)),
]

GAMMA_PRIMED_PAIRS = [
    ((), ()), ((1,), ()), ((1,), (1,)), ((1, 1), ()), ((1, 1), (1,)), ((1, 1), (1, 1)),
    ((1, 1, 1), ()), ((1, 1, 1), (1,)), ((1, 1, 1), (1, 1)), ((1, 1, 1), (1, 1, 1)),
    ((1, 1, 1, 1), ()), ((1, 1, 1, 1), (1,)), ((1, 1, 1, 1), (1, 1)), ((1, 1, 1, 1), (1, 1, 1)),
    ((1, 1, 1, 1), (1, 1, 1, 1)), ((2,), (1,)), ((2,), (2,)), ((2, 1), (1,)), ((2, 1), (1, 1)),
    ((2, 1), (2,)), ((2, 1), (2, 1)), ((2, 1, 1), (1,)), ((2, 1, 1), (1, 1)),
    ((2, 1, 1), (1, 1, 1)), ((2, 1, 1), (2,)), ((2, 1, 1), (2, 1)), ((2, 1, 1), (2, 1, 1)),
    ((2, 2), (1, 1)), ((2, 2), (2, 1)), ((2, 2), (2, 2)), ((3,), (2,)), ((3,), (3,)),
    ((3, 1), (2,)), ((3, 1), (2, 1)), ((3, 1), (3,)), ((3, 1), (3, 1)), ((4,), (3,)),
    ((4,), (4,)),
]

EVEN_MINUS_ENTRIES = {
    ((), ()): 1, ((1,), (1,)): 1, ((1, 1), ()): -1, ((1, 1), (1, 1)): 1, ((1, 1, 1), (1,)): -1,
    ((1, 1, 1), (1, 1, 1)): 1, ((1, 1, 1, 1), (1, 1)): -1, ((1, 1, 1, 1), (1, 1, 1, 1)): 1,
    ((2,), ()): 1, ((2,), (2,)): 1, ((2, 1), (2, 1)): 1, ((2, 1, 1), (2,)): -1,
    ((2, 1, 1), (2, 1, 1)): 1, ((2, 2), ()): 1, ((2, 2), (1, 1)): -1, ((2, 2), (2,)): 1,
    ((2, 2), (2, 2)): 1, ((3,), (1,)): 1, ((3,), (3,)): 1, ((3, 1), ()): -1, ((3, 1), (1, 1)): 1,
    ((3, 1), (3, 1)): 1, ((4,), ()): 1, ((4,), (2,)): 1, ((4,), (4,)): 1,
}


V = ("x",)
X = Monomial.var(V, "x")
N = 8
PARTS = list(young.partitions_up_to(4))


def xpow(k):
    return Series.from_monomial(X ** k, N)


def test_gamma_matrix_matches_exponential_oracle():
    pairs = set(GAMMA_PAIRS)
    for lam in PARTS:
        for mu in PARTS:
            want = xpow(sum(lam) - sum(mu)) if (lam, mu) in pairs else Series.zero(V, N)
            assert bracket(lam, [gamma_minus(X)], mu, V, N) == want


def test_primed_gamma_matrix_matches_exponential_oracle():
    pairs = set(GAMMA_PRIMED_PAIRS)
    for lam in PARTS:
        for mu in PARTS:
            want = xpow(sum(lam) - sum(mu)) if (lam, mu) in pairs else Series.zero(V, N)
            assert bracket(lam, [gamma_minus(X, primed=True)], mu, V, N) == want


def test_even_part_matrix_matches_exponential_oracle():
    for lam in PARTS:
        for mu in PARTS:
            c = EVEN_MINUS_ENTRIES.get((lam, mu), 0)
            want = xpow(sum(lam) - sum(mu)) * c if c else Series.zero(V, N)
            assert bracket(lam, even_minus(X), mu, V, N) == want


def test_oracle_support_is_interlacing():
    assert set(GAMMA_PAIRS) == {
        (l, m) for l in PARTS for m in PARTS if young.interlaces(l, m)
    }
    assert set(GAMMA_PRIMED_PAIRS) == {
        (l, m) for l in PARTS for m in PARTS if young.conjugate_interlaces(l, m)
    }


def test_alpha_strips_match_oracle():
    one = Series.one(V, N)
    for (n, lam, mu), sign in ALPHA_STRIPS.items():
        assert bracket(lam, [alpha_op(-n)], mu, V, N) == one * sign
    # and nothing beyond the oracle entries
    for n in range(1, 5):
        for mu in PARTS:
            if sum(mu) + n > 6:
                continue
            st_ = apply_op(FockState.basis(mu, V, N), alpha_op(-n))
            got = {lam for lam, amp in st_.amps.items() if amp}
            assert got == {lam for (nn, lam, m) in ALPHA_STRIPS if nn == n and m == mu}


def test_alpha_adjointness():
    for n in range(1, 4):
        for lam in PARTS:
            for mu in PARTS:
                assert bracket(lam, [alpha_op(n)], mu, V, N) == bracket(mu, [alpha_op(-n)], lam, V, N)


def test_gamma_adjointness():
    for lam in PARTS:
        for mu in PARTS:
            for primed in (False, True):
                assert bracket(lam, [gamma_plus(X, primed=primed)], mu, V, N) == bracket(
                    mu, [gamma_minus(X, primed=primed)], lam, V, N
                )


def test_state_algebra():
    vac = FockState.vacuum(V, N)
    assert vac.amplitude(()) == Series.one(V, N)
    assert vac.amplitude((1,)).is_zero()
    two = vac + vac
    assert two.amplitude(()) == Series.one(V, N) * 2
    assert (vac + vac.scale(-Monomial.one(V))).is_zero()
    with pytest.raises(ValueError):
        vac.scale(Series.one(("y",), N))


def test_gamma_degree_pruning_matches_plain_application():
    # the size cap only removes states that cannot contribute at this truncation
    state = apply_ops(FockState.vacuum(V, 4), [gamma_minus(X)] * 3, size_cap=4)
    for lam in young.partitions_up_to(4):
        amp = state.amplitude(lam)
        assert amp == bracket(lam, [gamma_minus(X)] * 3, (), V, 4)


def test_relation_catalogue_smoke():
    for name, ok, witness in relations.run_all(trunc=5, max_basis=3):
        assert ok, (name, witness)


def test_catalogue_scalars_follow_the_exchange_rule(monkeypatch):
    # (u, e) -> (-u, -e) swaps the rule's two cases, (1 - xy)^-1 and (1 + xy).  The two
    # agree to first order and every block factor has degree >= 3, so the swap first
    # shows in the block at degree 6
    rule = relations.exchange_factors
    monkeypatch.setattr(relations, "exchange_factors", lambda plus, minus: [(-u, -e) for u, e in rule(plus, minus)])
    failed = {name for name, ok, _ in relations.run_all(trunc=6, max_basis=3) if not ok}
    assert failed == {"gamma-commutators", "even-part", "block-commutator"}


def transfer(name, trunc):
    return fock.evaluate(fock.machine(name), trunc)


def test_transfer_machines_match_enumeration():
    assert transfer("zn:2", 6) == coloured_series(zn_group(2), 6)
    assert transfer("z2z2", 6) == coloured_series(klein_group(), 6)
    assert transfer("pyramid", 6) == pyramid_series(6)
    assert transfer("pyramid-checkerboard", 6) == pyramid_series(6)


# every slice table, plain and primed
MACHINE_NAMES = ["zn:1", "zn:2", "zn:3", "z3diag", "klein", *fock.MACHINES]


def unpruned_machine(machine, trunc):
    """The slice table as one plain operator word, pruned only by size_cap."""
    one = Monomial.one(machine.vars)
    ops = []
    for s in range(-trunc - 1, trunc + 1):
        weight, primed = machine.slices(s)
        ops.append(weight)
        ops.append(gamma_minus(one, primed) if s >= 0 else gamma_plus(one, primed))
    return apply_ops(FockState.vacuum(machine.vars, trunc), ops, size_cap=trunc).amplitude(())


@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_degree_budget_pruning_is_exact(name):
    # a bound that drops live terms (such as a row-tail bound on the primed
    # pyramid slices) changes some coefficient here
    machine = fock.machine(name)
    for trunc in range(9):
        assert fock.evaluate(machine, trunc) == unpruned_machine(machine, trunc), trunc


def test_transfer_machines_match_closed_forms_at_depth():
    N = 24
    assert transfer("zn:2", N) == closed_zn(2, N)
    assert transfer("zn:3", N) == closed_zn(3, N)
    assert transfer("z2z2", N) == closed_klein(N)
    pyramid = closed_pyramid(N)
    assert transfer("pyramid", N) == pyramid
    assert transfer("pyramid-checkerboard", N) == pyramid


COLOURED_GROUPS = [zn_group(n) for n in range(1, 8)] + [klein_group(), z3diag_group()]


@pytest.mark.parametrize("group", COLOURED_GROUPS, ids=str)
def test_machine_cell_colours_equal_box_colours(group):
    # the machine reads its colours from the characters; colour_index is the
    # independent per-box reference.  Cell (i, j) of slice s is the box
    # (i+s, i, j) for s >= 0 and (i, i-s, j) below.
    machine = fock.machine(str(group))
    assert machine.vars == group.variables and machine.group == group
    for s in range(-8, 9):
        (kind, colours), primed = machine.slices(s)
        assert kind == "weight" and not primed
        for i in range(8):
            for j in range(8):
                box = (i + s, i, j) if s >= 0 else (i, i - s, j)
                assert colours[(j - i) % len(colours)] == colour_index(group, *box), (s, i, j)


def test_z3diag_transfer_matches_enumeration():
    # [C^3/Z3] with weights (1, 1, 1) has no closed form to check against
    group = z3diag_group()
    N = 12
    via_transfer = transfer("z3diag", N)
    enumerated = coloured_series(group, N)
    assert via_transfer == enumerated
    assert sign_map(group, via_transfer) == sign_map(group, enumerated)


def test_enumeration_meets_the_other_routes_at_depth():
    # deeper than the N <= 12 enumeration checks; about 1 s on a 2-core box
    N = 18
    assert coloured_series(zn_group(2), N) == closed_zn(2, N)
    assert coloured_series(zn_group(3), N) == closed_zn(3, N)
    assert coloured_series(klein_group(), N) == closed_klein(N)
    assert pyramid_series(N) == closed_pyramid(N)
    assert coloured_series(z3diag_group(), N) == transfer("z3diag", N)
