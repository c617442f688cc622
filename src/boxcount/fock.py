"""Half-infinite wedge calculus on partitions, with exact series amplitudes.

A state, `FockState`, is a plain record giving each partition a non-empty
amplitude in the truncated series ring: operations drop the amplitudes that
cancel, so equal states have equal fields.  The operators act slice-wise:
the raising and lowering operators move between interlacing partitions
(their primed variants conjugate first), weight operators read off a colour
for each cell of a partition, and the mode operators add or remove border
strips with alternating signs.  Each only lists where a partition moves,
with which monomial, sign and degree cap; one loop, `_act`, applies them.

Composing weight and raising/lowering operators across a window of slices
evaluates the coloured generating series of box piles and pyramid piles;
those transfer evaluations are independent of both the direct enumeration
and the closed product formulas.

There is one weight operator.  `weight_op(*colours)` gives the cell in row
i, column j the colour colours[(j - i) mod len(colours)], and multiplies a
partition by the product of its cells' colour variables.

Transfer machines are data.  A `Machine` is a slice table: its series
variables, the box-pile colouring it counts (None for pyramid piles), and a
function taking a slice index s to (weight operator, primed).  `word`
alone decides the window s = N-1, ..., -N and each slice's creator: it
lists the records (s, raising, primed, weight), raising for s >= 0.  The
one evaluator, `evaluate`, computes the word applied from the vacuum, each
record's creator (argument 1, conjugating first when primed) then its
weight, read back on the vacuum.  `MACHINES` holds the pyramid tables, and
`machine(name)` builds every box-pile table from its group.

A box-pile machine reads its colours through `colouring.colour_index`.
Cell (row i, column j) of slice s is the box (i+s, i, j) for s >= 0 and
(i, i-s, j) below.  A character's digit is linear in the coordinates,
with coefficients summing to 0 mod n, so that box has the colour of the
box (max(s, 0), max(-s, 0), j - i), and each slice's colour is a function
of the cell content j - i modulo the additive order of the colour of the
box (0, 0, 1).

The walk is pruned by one bound read off the word.  After a creator makes
a partition lam, the least path down the rest of the word drops lam's
first row at each plain lowering step, its first column at each primed
one, and keeps it at each raising step; each weight adds the size of the
partition the path has reached.  A lowering step of either kind reaches a
partition containing that least partner, a raising step one containing
lam, and each least partner is monotone under containment, so no path
weighs less: lam still owes at least that many boxes, |lam| of them at its
own slice.  A term whose degree plus what lam owes exceeds N cannot reach
a coefficient of degree <= N, so the creator never produces it.  A lone
box is owed once per weight before the first lowering step, so every box
of a partner owes at least that often, which limits how large a raising
creator's partners can be.  A bound blind to primedness, dropping a
row at every lowering step, would overstate what the primed pyramid slices
owe and drop live terms.

The walk meets in the middle.  The top of the word, slices N-1 down to a
meeting slice m <= 0, is applied from the vacuum as it stands.  The bottom
is read upward with the adjoint word: from the vacuum at slice -N, each
record's weight (diagonal) and then its creator transposed, which is the
creator of the other direction with the same primedness.  Going up, a
raising record's least partner drops a row or column and a lowering one
keeps lam, so the same bound prunes both walks.  The result is the sum over
the partitions mu alive at m of the top amplitude times the bottom one.
Below slice 0 a few partitions carry almost every amplitude, so walking
them up from the vacuum and joining near slice 0 saves most of the work of
carrying them down; m is a measured function of N.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Callable, NamedTuple

from boxcount import _kernels, young
from boxcount.colouring import KLEIN_VARS, SLICE_COLOUR, Group, colour_index, klein_group, parse_group
from boxcount.series import Monomial, Series, check_trunc, check_vars, degree_shift, var_key


class FockState(NamedTuple):
    """Finitely many partitions with series-valued amplitudes: a plain record.

    `amps` holds no empty amplitude (every operation drops those that
    cancel), so equal states have equal fields and the zero state is {}.
    """

    vars: tuple
    trunc: int
    amps: dict  # partition -> non-empty packed-key term dict

    @classmethod
    def vacuum(cls, vars, trunc):
        return cls.basis((), vars, trunc)

    @classmethod
    def basis(cls, lam, vars, trunc):
        young.check_partition(lam)
        check_vars(vars)
        check_trunc(trunc)
        return cls(vars, trunc, {lam: {0: 1}})

    def amplitude(self, lam):
        return Series(self.vars, self.trunc, dict(self.amps.get(lam, {})))

    def scale(self, series):
        """Multiply every amplitude by a series (or monomial) factor."""
        if isinstance(series, Monomial):
            series = Series.from_monomial(series, self.trunc)
        if series.vars != self.vars:
            raise ValueError("variable sets differ")
        shift = degree_shift(len(self.vars))
        out = {}
        for lam, amp in self.amps.items():
            prod = _kernels.mul_terms(amp, series._terms, self.trunc, shift)
            if prod:
                out[lam] = prod
        return FockState(self.vars, self.trunc, out)

    def __add__(self, other):
        if not isinstance(other, FockState):
            return NotImplemented
        if other.vars != self.vars or other.trunc != self.trunc:
            raise ValueError("states live in different rings")
        shift = degree_shift(len(self.vars))
        out = {lam: dict(amp) for lam, amp in self.amps.items()}
        for lam, amp in other.amps.items():
            _kernels.scale_accumulate(out.setdefault(lam, {}), amp, 0, 1, self.trunc, shift)
        return FockState(self.vars, self.trunc, {l: a for l, a in out.items() if a})

    def is_zero(self):
        return not self.amps

    def __repr__(self):
        return f"FockState({len(self.amps)} partitions; N={self.trunc})"


# -- operators ---------------------------------------------------------------
#
# An operator is a small tuple:
#   ("gamma", grow, primed, arg)   raising (grow=True) / lowering, arg a Monomial
#   ("weight", colours)            multiply by q_c for each cell, c its colour
#   ("alpha", n)                   n < 0 adds |n|-strips, n > 0 removes, signed
#
# The even parts are words, not operators: gamma(arg) o gamma(-arg).


def gamma_minus(arg, primed=False):
    return ("gamma", True, primed, arg)


def gamma_plus(arg, primed=False):
    return ("gamma", False, primed, arg)


def weight_op(*colours):
    """Cell (i, j) gets the colour colours[(j - i) mod len(colours)]."""
    if not colours:
        raise ValueError("a weight operator needs at least one colour")
    if any(type(c) is not int for c in colours):
        raise ValueError(f"colours must be ints, got {colours!r}")
    return ("weight", colours)


def alpha_op(n):
    if type(n) is not int or n == 0:
        raise ValueError(f"mode index must be a non-zero int, got {n!r}")
    return ("alpha", n)


def even_minus(arg):
    return [gamma_minus(arg), gamma_minus(-arg)]


def even_plus(arg):
    return [gamma_plus(arg), gamma_plus(-arg)]


@lru_cache(maxsize=None)
def _partners_above(mu, max_size, primed):
    if primed:
        return tuple(
            (young.conjugate(lam), d)
            for lam, d in _partners_above(young.conjugate(mu), max_size, False)
        )
    return tuple(
        (lam, sum(lam) - sum(mu)) for lam in young.interlacing_above(mu, max_size)
    )


@lru_cache(maxsize=None)
def _partners_below(mu, primed):
    if primed:
        return tuple(
            (young.conjugate(lam), d)
            for lam, d in _partners_below(young.conjugate(mu), False)
        )
    return tuple(
        (lam, sum(mu) - sum(lam)) for lam in young.interlacing_below(mu)
    )


def _nothing_owed(lam):
    return 0


def _act(state, moves):
    """The one loop every operator runs through.

    For each (lam, key, coef, cap) in moves(mu, amp), coef times x^key times
    mu's amplitude amp is added into lam's, keeping degrees <= cap.
    """
    shift = degree_shift(len(state.vars))
    out = {}
    for mu, amp in state.amps.items():
        for lam, key, coef, cap in moves(mu, amp):
            _kernels.scale_accumulate(out.setdefault(lam, {}), amp, key, coef, cap, shift)
    return FockState(state.vars, state.trunc, {lam: amp for lam, amp in out.items() if amp})


def apply_op(state, op, owed=None):
    """Apply one operator: each kind only lists its moves for `_act`.

    `owed`, for a gamma operator, maps a partition it could create to the
    least number of boxes that partition and the slices after it still add
    (`evaluate` reads it off the word); terms that could then no longer stay
    within the truncation are never created.  A raising operator with a
    degree-0 argument needs an `owed` positive on a lone box, since nothing
    else bounds the partitions it creates.
    """
    kind = op[0]
    cap = state.trunc
    if kind == "gamma":
        _, grow, primed, arg = op
        if arg.vars != state.vars:
            raise ValueError("argument variables differ from the state's")
        if owed is None:
            owed = _nothing_owed
        shift = degree_shift(len(state.vars))
        key_arg = arg.packed()
        degree = arg.degree
        # each box of a partner is owed at least as often as a lone box, so a partner
        # delta boxes larger than mu costs at least per_box * delta more
        lone = owed((1,))
        per_box = degree + lone
        if grow and per_box <= 0:
            raise ValueError("raising with a degree-0 argument needs a positive owed bound")

        def moves(mu, amp):
            # the least key has the least degree, since the degree lane is the most significant
            low = min(amp) >> shift
            if not grow:
                partners = _partners_below(mu, primed)
            else:
                size = sum(mu)
                room = cap - low - lone * size
                if room < 0:
                    return ()
                partners = _partners_above(mu, size + room // per_box, primed)
            out = []
            for lam, delta in partners:
                lam_cap = cap - owed(lam)
                if low + degree * delta <= lam_cap:
                    out.append((lam, delta * key_arg, arg.sign if delta % 2 else 1, lam_cap))
            return out

    elif kind == "weight":
        # a cell of colour c multiplies by q_c: its key is added once per cell
        units = [var_key(len(state.vars), c) for c in op[1]]

        def moves(mu, amp):
            return [(mu, sum(map(mul, young.content_counts(mu, len(units)), units)), 1, cap)]

    elif kind == "alpha":
        n = op[1]
        strips = young.add_border_strip if n < 0 else young.remove_border_strip

        def moves(mu, amp):
            # a strip spanning h rows carries the sign (-1)^(h-1)
            return [(lam, 0, 1 if h % 2 else -1, cap) for lam, h in strips(mu, abs(n))]

    else:
        raise ValueError(f"unknown operator {op!r}")
    return _act(state, moves)


def apply_ops(state, ops):
    """Apply a left-to-right operator word: the rightmost acts first."""
    for op in reversed(list(ops)):
        state = apply_op(state, op)
    return state


def bracket(lam, ops, mu, vars, trunc):
    """The lam-amplitude of the operator word applied to the basis state mu."""
    return apply_ops(FockState.basis(mu, vars, trunc), ops).amplitude(lam)


def check_relation(vars, trunc, left_ops, right_ops, max_basis, scalar=None):
    """Exact equality of two operator words on all partitions up to max_basis.

    The right word may carry a scalar series factor.  Returns (ok, witness):
    the first failing basis partition, or None.
    """
    for mu in young.partitions_up_to(max_basis):
        left = apply_ops(FockState.basis(mu, vars, trunc), left_ops)
        right = apply_ops(FockState.basis(mu, vars, trunc), right_ops)
        if scalar is not None:
            right = right.scale(scalar)
        if left != right:
            return False, mu
    return True, None


# -- transfer machines -------------------------------------------------------


class Machine(NamedTuple):
    """A slice table; the module docstring describes the walk."""

    vars: tuple
    slices: Callable  # slice index -> (weight operator, creator primed?)
    group: Group | None  # colouring of the box piles counted; None: pyramid


def group_machine(group):
    """The box-pile slice table of a group, coloured through `colour_index`."""
    # the additive order of the colour of the box (0, 0, 1): the box (0, 0, p) has p times that colour
    period = next(p for p in range(1, group.order + 1) if not colour_index(group, 0, 0, p))

    def slices(s):
        colours = [colour_index(group, max(s, 0), max(-s, 0), t) for t in range(period)]
        return weight_op(*colours), False

    return Machine(group.variables, slices, group)


_KLEIN = group_machine(klein_group())

MACHINES = {
    # pyramid piles on diagonal slices, 4-periodic colours
    "pyramid": Machine(KLEIN_VARS, lambda s: (weight_op(SLICE_COLOUR[s % 4]), s % 2 != 0), None),
    # pyramid piles sliced by x + z: klein's slice colours, odd slices primed
    "pyramid-checkerboard": Machine(KLEIN_VARS, lambda s: (_KLEIN.slices(s)[0], s % 2 != 0), None),
    # parity-coloured box piles: klein's machine under its plane-partition name
    "z2z2": _KLEIN,
}


def machine(name):
    """The slice table called `name`: a key of MACHINES, or a group name."""
    if name in MACHINES:
        return MACHINES[name]
    return group_machine(parse_group(name))


def word(machine, trunc):
    """A slice table's window [-trunc, trunc-1], top slice first, as (s, raising, primed, weight) records.

    Slice s's creator raises for s >= 0 and lowers below.  A pile with a
    cell on slice s has at least |s| + 1 cells: for box piles, cell (i, j)
    of slice s is the box (i+s, i, j) or (i, i-s, j), which sits on the
    boxes (t, 0, 0) for t <= s, or (0, t, 0) for t <= -s; for pyramid piles,
    the diagonal x - z = s holds bricks of layers y >= |s| only, and each
    brick rests on one brick of every layer below it.  So at this truncation
    slices trunc and -trunc are empty: the walk starts from the vacuum above
    slice trunc-1 and closes on slice -trunc.
    """
    return tuple(
        (s, s >= 0, primed, weight) for s in range(trunc - 1, -trunc - 1, -1) for weight, primed in [machine.slices(s)]
    )


def _drop(lam, primed):
    """The least partition a lowering step reaches: lam less its first row, or column when primed."""
    return tuple(r - 1 for r in lam if r > 1) if primed else lam[1:]


def _least_owed(ops):
    """owed(lam, p): the least number of boxes the weights after ops[p] add to a partition lam there.

    Along the greedy least path a weight adds the current partition's size,
    a lowering gamma drops its first row (column when primed) and a raising
    gamma keeps it.  Every such least partner is monotone under containment,
    so no path after ops[p] weighs less.
    """
    ahead = []
    weights, lower = 0, None
    for p in range(len(ops) - 1, -1, -1):
        ahead.append((weights, lower))
        op = ops[p]
        if op[0] == "weight":
            weights += 1
        elif not op[1]:
            weights, lower = 0, p
    ahead.reverse()

    @lru_cache(maxsize=None)
    def owed(lam, p):
        weights, q = ahead[p]
        rest = owed(_drop(lam, ops[q][2]), q) if q is not None and lam else 0
        return weights * sum(lam) + rest

    return owed


def _meeting_slice(trunc):
    """The slice m where `evaluate`'s two walks meet: the top walk ends at m, the bottom one just below.

    Chosen from in-process CPU times on a 2-core box at N = 15 to 40.  The
    best meeting lay between -1 and -6, deeper for larger N and shallower for
    zn:7, whose seven-colour amplitudes make the join dear.  Meeting at 0
    took up to 2.2x the best (klein, N = 36), not meeting up to 4.6x (zn:7,
    N = 28).
    """
    return -(trunc // 10)


def _walk(vars, trunc, ops, stop):
    """Apply ops[:stop] to the vacuum, each gamma pruned by what the ops after it still owe."""
    owed = _least_owed(ops)
    state = FockState.vacuum(vars, trunc)
    for p, op in enumerate(ops[:stop]):
        if op[0] == "gamma":
            state = apply_op(state, op, owed=lambda lam, p=p: owed(lam, p))
        else:
            state = apply_op(state, op)
    return state


def evaluate(machine, trunc):
    """Meet a walk down the word from the top and one up it from the bottom (module docstring)."""
    one = Monomial.one(machine.vars)
    records = word(machine, trunc)
    down = [op for _, raising, primed, weight in records for op in (("gamma", raising, primed, one), weight)]
    # the adjoint word: weights are diagonal and the transpose of a creator flips its direction
    up = [op for _, raising, primed, weight in reversed(records) for op in (weight, ("gamma", not raising, primed, one))]
    meet = _meeting_slice(trunc)
    split = 2 * sum(s >= meet for s, _, _, _ in records)
    top = _walk(machine.vars, trunc, down, split).amps
    bottom = _walk(machine.vars, trunc, up, len(up) - split).amps
    shift = degree_shift(len(machine.vars))
    out = {}
    for mu, amp in top.items():
        if mu in bottom:
            _kernels.scale_accumulate(out, _kernels.mul_terms(amp, bottom[mu], trunc, shift), 0, 1, trunc, shift)
    return Series(machine.vars, trunc, out)
