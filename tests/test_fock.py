import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcount import _kernels, fock, relations, young
from boxcount.colouring import KLEIN_VARS, colour_index, klein_group, z3diag_group, zn_group
from boxcount.dtsign import sign_map
from boxcount.enum3d import coloured_series
from boxcount.formulas import closed_klein, closed_pyramid, closed_zn
from boxcount.fock import FockState, apply_op, bracket, even_minus, gamma_minus, gamma_plus
from boxcount.pyramid import pyramid_series
from boxcount.series import Monomial, Series

# frozen from tools/oracles/exp_alpha.py (operators rebuilt as exponentials
# of border-strip operators with Fraction coefficients)
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
    two = vac.scale(Series.one(V, N) * 2)
    assert two.amplitude(()) == Series.one(V, N) * 2
    assert vac.scale(-Monomial.one(V)).scale(-Monomial.one(V)) == vac
    assert vac.scale(Series.zero(V, N)).is_zero()
    with pytest.raises(ValueError):
        vac.scale(Series.one(("y",), N))
    # a plain record: equal fields are equal states, and no field can be rebound
    assert vac == FockState(V, N, {(): {0: 1}}) and vac != FockState(V, N + 1, {(): {0: 1}})
    for name in ("vars", "trunc", "amps"):
        with pytest.raises(AttributeError):
            setattr(vac, name, None)
    assert not hasattr(vac, "__dict__")
    assert repr(two) == f"FockState(1 partitions; N={N})"


@pytest.mark.parametrize(
    "vars, trunc", [(("x",), 300), (("x", "x"), 3), (("x",), True)], ids=["trunc past the lanes", "repeated name", "trunc bool"]
)
def test_states_refuse_the_rings_series_refuse(vars, trunc):
    for build in (Series.zero, FockState.vacuum, lambda v, t: FockState.basis((1,), v, t)):
        with pytest.raises(ValueError):
            build(vars, trunc)


V2 = ("x", "y")
ARGS2 = [Monomial.var(V2, "x"), -Monomial.var(V2, "x"), -Monomial.var(V2, "y"), Monomial.one(V2)]
mixed_ops = st.one_of(
    st.builds(gamma_minus, st.sampled_from(ARGS2), st.booleans()),
    st.builds(gamma_plus, st.sampled_from(ARGS2), st.booleans()),
    st.builds(lambda cs: fock.weight_op(*cs), st.lists(st.integers(0, 1), min_size=1, max_size=3)),
)


@given(
    st.integers(0, 5).flatmap(lambda n: st.sampled_from(list(young.partitions_of(n)))),
    st.integers(0, 6),
    st.lists(mixed_ops, max_size=6),
)
@settings(max_examples=120, deadline=None)
def test_no_state_holds_an_empty_amplitude(mu, trunc, word):
    # the invariant that makes field equality the state equality: every
    # operator and scaling drops the amplitudes that cancel
    state = FockState.basis(mu, V2, trunc)
    for op in reversed(word):
        # a partition owes at least its own boxes, which bounds every raising step
        state = apply_op(state, op, owed=sum)
        zero = state.scale(Series.zero(V2, trunc))
        for s in (state, zero, state.scale(-Monomial.one(V2)), state.scale(Monomial.var(V2, "y", 2 * trunc))):
            assert all(s.amps.values()) and all(all(amp.values()) for amp in s.amps.values())
            assert s.is_zero() == (not s.amps) == all(s.amplitude(lam).is_zero() for lam in s.amps)
        assert zero.is_zero()
        assert state.scale(-Monomial.one(V2)).scale(-Monomial.one(V2)) == state


def test_weight_colours_must_name_variables_of_the_state():
    state = FockState.basis((2, 1), KLEIN_VARS, 6)
    assert apply_op(state, fock.weight_op(1)).amplitude((2, 1)) == Series.from_monomial(
        Monomial.var(KLEIN_VARS, "qa", 3), 6
    )
    # an index past either end would be the key of the monomial 1
    for colour in (len(KLEIN_VARS), -1):
        with pytest.raises(ValueError, match="variable index"):
            apply_op(state, fock.weight_op(colour))
    with pytest.raises(ValueError, match="at least one colour"):
        fock.weight_op()


@pytest.mark.parametrize("colour", [1.7, True, "2", 1.0])
def test_weight_colours_must_be_ints(colour):
    # int() would read each of these as a colour
    with pytest.raises(ValueError, match="colours must be ints"):
        fock.weight_op(0, colour)


def test_degree_zero_raising_needs_a_positive_owed_bound():
    # nothing but the bound limits the partitions a degree-0 raising step creates
    raise_one = gamma_minus(Monomial.one(V2))
    with pytest.raises(ValueError, match="positive owed bound"):
        apply_op(FockState.vacuum(V2, 3), raise_one)
    with pytest.raises(ValueError, match="positive owed bound"):
        apply_op(FockState.vacuum(V2, 3), raise_one, owed=lambda lam: 0)
    # from the vacuum it makes the rows (k,), each owing its k boxes
    assert set(apply_op(FockState.vacuum(V2, 3), raise_one, owed=sum).amps) == {(), (1,), (2,), (3,)}


def test_relation_catalogue_smoke():
    for name, ok, witness in relations.run_all(trunc=relations.MIN_TRUNC, max_basis=3):
        assert ok, (name, witness)


@pytest.mark.parametrize("wrong", [{"x": 1, "g": 2}, {"x": 1, "h": 2}], ids=["xg^2", "xh^2"])
def test_even_weight_row_rejects_a_wrong_displacement(wrong):
    # two weights move an even part from x to x*g*h; displaced to x*g^2 or x*h^2
    # instead, each case fails at MIN_TRUNC, and one degree lower none does
    V, cases = relations.CATALOGUE["even-weight"]
    xgh = Monomial.from_exponents(V, {"x": 1, "g": 1, "h": 1})
    bad = Monomial.from_exponents(V, wrong)

    def mutate(word):
        swap = {xgh: bad, -xgh: -bad}
        return [op[:3] + (swap[op[3]],) if op[0] == "gamma" and op[3] in swap else op for op in word]

    for case, left, right, _ in cases:
        assert mutate(right) != right, case
        assert fock.check_relation(V, relations.MIN_TRUNC, left, right, max_basis=3)[0], case
        assert not fock.check_relation(V, relations.MIN_TRUNC, left, mutate(right), max_basis=3)[0], case
        assert fock.check_relation(V, relations.MIN_TRUNC - 1, left, mutate(right), max_basis=3)[0], case


def test_catalogue_scalars_follow_the_exchange_rule(monkeypatch):
    # (u, e) -> (-u, -e) swaps the rule's two cases, (1 - xy)^-1 and (1 + xy).  The two
    # agree to first order and every block factor has degree >= 3, so the swap first
    # shows in the block at degree 6, the catalogue's derived lowest telling truncation
    assert relations.MIN_TRUNC == 6
    rule = relations.exchange_factors
    monkeypatch.setattr(relations, "exchange_factors", lambda plus, minus: [(-u, -e) for u, e in rule(plus, minus)])
    failed = {name for name, ok, _ in relations.run_all(trunc=relations.MIN_TRUNC, max_basis=3) if not ok}
    assert failed == {"gamma-commutators", "even-part", "block-commutator"}
    # one degree lower the block passes with the wrong rule, which is why verify-ops refuses it
    failed = {name for name, ok, _ in relations.run_all(trunc=relations.MIN_TRUNC - 1, max_basis=3) if not ok}
    assert failed == {"gamma-commutators", "even-part"}


def test_catalogue_bound_counts_the_rows_without_a_scalar():
    # an even-part row on x^4 shows a wrong argument only from x^8, so it raises the bound
    # to 8: there a displacement to x^5 fails, and one degree lower it passes
    assert relations.least_telling_trunc(relations.CATALOGUE) == relations.MIN_TRUNC
    V = ("x",)
    x4, x5 = Monomial.var(V, "x", 4), Monomial.var(V, "x", 5)
    left = [gamma_minus(x4)]
    right = [gamma_minus(x4, primed=True)] + even_minus(x4)
    row = {"even-part-x4": (V, [("factor", left, right, None)])}
    assert relations.least_telling_trunc({**relations.CATALOGUE, **row}) == 8
    wrong = [gamma_minus(x4, primed=True)] + even_minus(x5)
    assert fock.check_relation(V, 8, left, right, max_basis=2)[0]
    assert not fock.check_relation(V, 8, left, wrong, max_basis=2)[0]
    assert fock.check_relation(V, 7, left, wrong, max_basis=2)[0]


def transfer(name, trunc):
    return fock.evaluate(fock.machine(name), trunc)


def test_transfer_machines_match_enumeration():
    assert transfer("zn:2", 6) == coloured_series(zn_group(2), 6)
    assert transfer("z2z2", 6) == coloured_series(klein_group(), 6)
    assert transfer("pyramid", 6) == pyramid_series(6)
    assert transfer("pyramid-checkerboard", 6) == pyramid_series(6)


# every slice table, plain and primed
MACHINE_NAMES = ["zn:1", "zn:2", "zn:3", "zn:7", "z3diag", "klein", *fock.MACHINES]


def unpruned_machine(machine, trunc):
    """The slice table's word applied record by record, pruned only by each partition's own size.

    A creator's partition is weighed by its own slice at once, so it owes at
    least its size; the reference never reads the word's bound `_least_owed`.
    """
    one = Monomial.one(machine.vars)
    state = FockState.vacuum(machine.vars, trunc)
    for _, raising, primed, weight in fock.word(machine, trunc):
        state = apply_op(state, ("gamma", raising, primed, one), owed=sum)
        state = apply_op(state, weight)
    return state.amplitude(())


@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_degree_budget_pruning_is_exact(name):
    # a bound that drops live terms (such as a row-tail bound on the primed
    # pyramid slices) changes some coefficient here
    machine = fock.machine(name)
    for trunc in range(9):
        assert fock.evaluate(machine, trunc) == unpruned_machine(machine, trunc), trunc


def owing_more(monkeypatch, extra):
    # evaluate calls apply_op through the module; unpruned_machine calls the unpatched one
    exact = fock.apply_op

    def too_strong(state, op, owed=None):
        return exact(state, op, owed and (lambda lam: owed(lam) + extra(lam)))

    monkeypatch.setattr(fock, "apply_op", too_strong)


@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_pruning_check_catches_a_reserve_one_weight_too_strong(monkeypatch, name):
    # the bound owes one more weight of every partition a creator makes
    owing_more(monkeypatch, sum)
    machine = fock.machine(name)
    assert any(fock.evaluate(machine, trunc) != unpruned_machine(machine, trunc) for trunc in range(9))


@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_pruning_check_catches_a_tail_one_box_too_strong(monkeypatch, name):
    # the bound owes one box more for every non-empty partition a creator makes
    owing_more(monkeypatch, lambda lam: 1 if lam else 0)
    machine = fock.machine(name)
    assert any(fock.evaluate(machine, trunc) != unpruned_machine(machine, trunc) for trunc in range(9))


@pytest.mark.parametrize("name", MACHINE_NAMES)
def test_every_meeting_slice_is_exact(monkeypatch, name):
    # meeting at or below -trunc leaves the upward walk empty (no meeting), and
    # meeting at trunc leaves the downward one empty
    machine = fock.machine(name)
    for trunc in range(9):
        want = unpruned_machine(machine, trunc)
        for meet in range(-trunc - 1, trunc + 1):
            monkeypatch.setattr(fock, "_meeting_slice", lambda t, meet=meet: meet)
            assert fock.evaluate(machine, trunc) == want, (trunc, meet)


def test_transfer_walks_meet_below_slice_zero(monkeypatch):
    # every gamma and the join's sum call the kernel through the module, so the
    # wrapper sees every term read; the walk down the whole window read 55,723
    fed = []
    kernel = _kernels.scale_accumulate

    def counting(dst, src, *args):
        fed.append(len(src))
        return kernel(dst, src, *args)

    monkeypatch.setattr(_kernels, "scale_accumulate", counting)
    series = fock.evaluate(fock.machine("z2z2"), 15)
    assert sum(fed) <= 55_723 // 2
    assert series == closed_klein(15)


def test_transfer_machines_match_closed_forms_at_depth():
    N = 24
    assert transfer("zn:2", N) == closed_zn(2, N)
    assert transfer("zn:3", N) == closed_zn(3, N)
    assert transfer("zn:7", N) == closed_zn(7, N)
    assert transfer("z2z2", N) == closed_klein(N)
    pyramid = closed_pyramid(N)
    assert transfer("pyramid", N) == pyramid
    assert transfer("pyramid-checkerboard", N) == pyramid


COLOURED_GROUPS = [zn_group(n) for n in range(1, 8)] + [klein_group(), z3diag_group()]


@pytest.mark.parametrize("group", COLOURED_GROUPS, ids=str)
def test_machine_cell_colours_equal_box_colours(group):
    # the machine reads one colour per content j - i, that of the box
    # (max(s, 0), max(-s, 0), j - i); cell (i, j) of slice s is the box
    # (i+s, i, j) on the raising slices s >= 0 and (i, i-s, j) below.
    machine = fock.machine(str(group))
    assert machine.vars == group.variables and machine.group == group
    for s, raising, primed, (kind, colours) in fock.word(machine, 8):
        assert kind == "weight" and not primed
        for i in range(8):
            for j in range(8):
                box = (i + s, i, j) if raising else (i, i - s, j)
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
