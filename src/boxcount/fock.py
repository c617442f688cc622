"""Half-infinite wedge calculus on partitions, with exact series amplitudes.

A state assigns each partition an amplitude in the truncated series ring.
The operators here act slice-wise: the raising and lowering operators move
between interlacing partitions (their primed variants conjugate first),
weight operators read off a colour for each cell of a partition, and the
mode operators add or remove border strips with alternating signs.

Composing weight and raising/lowering operators across a window of slices
evaluates the coloured generating series of box piles and pyramid piles;
those transfer evaluations are independent of both the direct enumeration
and the closed product formulas.

There is one weight operator.  `weight_op(*colours)` gives the cell in row
i, column j the colour colours[(j - i) mod len(colours)], and multiplies a
partition by the product of its cells' colour variables.

Transfer machines are data.  A `Machine` is a slice table: its series
variables, the box-pile colouring it counts (None for pyramid piles), and a
function taking a slice index s to (weight operator, primed).  `evaluate`
is the one evaluator: it walks s from N down to -N-1, applying slice s's
creator (raising for s >= 0, lowering below, conjugating first when primed,
argument 1) and then slice s's weight.  `MACHINES` holds the pyramid
tables, and `machine(name)` builds every box-pile table from its group.

A box-pile machine reads its colours from the group's characters alone.
Cell (row i, column j) of slice s is the box (i+s, i, j) for s >= 0 and
(i, i-s, j) below.  A character (n, (a, b, c)) with a + b + c = 0 mod n
gives it the digit (c*(j-i) + a*s) mod n for s >= 0 and
(c*(j-i) + b*|s|) mod n below, so each slice's colour is a function of the
cell content j - i modulo the lcm of the moduli with c != 0 mod n.

The walk is pruned by a degree budget.  Right after slice s's creator, a
partition lam still owes its own weight |lam|.  For s >= 0 the creators up
to slice 0 only raise, and a step of either kind, plain or primed, yields a
partition containing the one before it; so slices s, ..., 0 each weigh at
least |lam|, and at least (s+1)|lam| more boxes are still to be weighted.
For s < 0 slice s itself weighs |lam|.  A term whose half-degree plus twice
that bound exceeds 2N cannot reach a coefficient of degree <= N, so the
creator never produces it, nor any partner too large to fit the budget.

No tail bound is used.  A plain lowering step keeps lam_(i+1) boxes in row
i, so along plain slices below 0 the remaining weight is also at least
sum((i-1) * lam_i).  A primed step removes a vertical strip instead and can
shorten every row at once, so on the alternating plain/primed pyramid
tables that bound overstates the remaining weight and drops live terms.
Only the containment bound holds for both kinds of step.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import mul
from typing import Callable, NamedTuple

from boxcount import _kernels, young
from boxcount.colouring import Group, klein_group, parse_group
from boxcount.pyramid import KLEIN_VARS, SLICE_COLOUR
from boxcount.series import Monomial, Series, degree_shift, var_key


class FockState:
    """Finitely many partitions with series-valued amplitudes."""

    __slots__ = ("vars", "trunc", "amps")

    def __init__(self, vars, trunc, amps):
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "amps", amps)

    def __setattr__(self, name, value):
        raise AttributeError("FockState is immutable")

    @classmethod
    def vacuum(cls, vars, trunc):
        return cls.basis((), vars, trunc)

    @classmethod
    def basis(cls, lam, vars, trunc):
        young.check_partition(lam)
        return cls(vars, trunc, {lam: {0: 1}})

    def amplitude(self, lam):
        return Series(self.vars, self.trunc, dict(self.amps.get(lam, {})), _trusted=True)

    def scale(self, series):
        """Multiply every amplitude by a series (or monomial) factor."""
        if isinstance(series, Monomial):
            series = Series.from_monomial(series, self.trunc)
        if series.vars != self.vars:
            raise ValueError("variable sets differ")
        cap = 2 * self.trunc
        shift = degree_shift(len(self.vars))
        out = {}
        for lam, amp in self.amps.items():
            prod = _kernels.mul_terms(amp, series._terms, cap, shift)
            if prod:
                out[lam] = prod
        return FockState(self.vars, self.trunc, out)

    def __add__(self, other):
        if not isinstance(other, FockState):
            return NotImplemented
        if other.vars != self.vars or other.trunc != self.trunc:
            raise ValueError("states live in different rings")
        out = {lam: dict(amp) for lam, amp in self.amps.items()}
        for lam, amp in other.amps.items():
            dst = out.setdefault(lam, {})
            for k, c in amp.items():
                nc = dst.get(k, 0) + c
                if nc:
                    dst[k] = nc
                elif k in dst:
                    del dst[k]
        return FockState(self.vars, self.trunc, {l: a for l, a in out.items() if a})

    def __eq__(self, other):
        if not isinstance(other, FockState):
            return NotImplemented
        if self.vars != other.vars or self.trunc != other.trunc:
            return False
        a = {l: amp for l, amp in self.amps.items() if amp}
        b = {l: amp for l, amp in other.amps.items() if amp}
        return a == b

    def is_zero(self):
        return all(not amp for amp in self.amps.values())

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
    return ("weight", tuple(int(c) for c in colours))


def alpha_op(n):
    if n == 0:
        raise ValueError("mode index must be non-zero")
    return ("alpha", int(n))


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


def _apply_gamma(state, grow, primed, arg, size_cap, reserve=0):
    if arg.vars != state.vars:
        raise ValueError("argument variables differ from the state's")
    cap = 2 * state.trunc
    shift = degree_shift(len(state.vars))
    key_arg = arg.packed()
    deg_arg = arg.degree_halves
    # half-degree an added box costs: its own argument power, plus one box
    # in each of the `reserve` weights still to come
    per_box = deg_arg + 2 * reserve
    out = {}
    for mu, amp in state.amps.items():
        if not amp:
            continue
        size = sum(mu)
        mindeg = min(k >> shift for k in amp)
        room = cap - mindeg
        if grow:
            if per_box > 0:
                budget = room - 2 * reserve * size
                if budget < 0:
                    continue
                limit = size + budget // per_box
                if size_cap is not None:
                    limit = min(limit, size_cap)
            elif size_cap is not None:
                limit = size_cap
            else:
                raise ValueError("raising with a degree-0 argument needs a size cap")
            partners = _partners_above(mu, limit, primed)
        else:
            partners = _partners_below(mu, primed)
        for lam, delta in partners:
            lam_cap = cap - 2 * reserve * (size + delta if grow else size - delta)
            if deg_arg * delta > lam_cap - mindeg:
                continue
            coef = -1 if (arg.sign < 0 and delta % 2) else 1
            dst = out.setdefault(lam, {})
            _kernels.scale_accumulate(dst, amp, delta * key_arg, coef, lam_cap, shift)
    return FockState(state.vars, state.trunc, {l: a for l, a in out.items() if a})


def _apply_weight_key(state, key_of):
    cap = 2 * state.trunc
    shift = degree_shift(len(state.vars))
    out = {}
    for lam, amp in state.amps.items():
        dst = {}
        _kernels.scale_accumulate(dst, amp, key_of(lam), 1, cap, shift)
        if dst:
            out[lam] = dst
    return FockState(state.vars, state.trunc, out)


def _apply_alpha(state, n):
    out = {}
    for mu, amp in state.amps.items():
        if not amp:
            continue
        if n < 0:
            moves = young.add_border_strip(mu, -n)
        else:
            moves = young.remove_border_strip(mu, n)
        for lam, height in moves:
            coef = 1 if height % 2 == 1 else -1
            dst = out.setdefault(lam, {})
            for k, c in amp.items():
                nc = dst.get(k, 0) + coef * c
                if nc:
                    dst[k] = nc
                elif k in dst:
                    del dst[k]
    return FockState(state.vars, state.trunc, {l: a for l, a in out.items() if a})


def apply_op(state, op, size_cap=None, reserve=0):
    """Apply one operator.

    `size_cap` bounds the partitions a raising operator creates.  A positive
    `reserve` tells a gamma operator that `reserve` more weight operators
    will each add at least the size of each partition it creates; terms
    that could then no longer stay within the truncation are never created.
    """
    kind = op[0]
    if kind == "gamma":
        _, grow, primed, arg = op
        return _apply_gamma(state, grow, primed, arg, size_cap, reserve)
    if kind == "weight":
        colours = op[1]
        # a cell of colour c multiplies by q_c: its key is added once per cell
        units = [var_key(len(state.vars), c) for c in colours]

        def key_of(lam, units=units):
            return sum(map(mul, young.content_counts(lam, len(units)), units))

        return _apply_weight_key(state, key_of)
    if kind == "alpha":
        return _apply_alpha(state, op[1])
    raise ValueError(f"unknown operator {op!r}")


def apply_ops(state, ops, size_cap=None):
    """Apply a left-to-right operator word: the rightmost acts first."""
    for op in reversed(list(ops)):
        state = apply_op(state, op, size_cap)
    return state


def bracket(lam, ops, mu, vars, trunc, size_cap=None):
    """The lam-amplitude of the operator word applied to the basis state mu."""
    return apply_ops(FockState.basis(mu, vars, trunc), ops, size_cap).amplitude(lam)


def check_relation(vars, trunc, left_ops, right_ops, scalar=None, max_basis=6):
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
    """The box-pile slice table of a group, coloured by its characters."""
    period = lcm(*(n for n, _, _, c, _ in group.digits if c % n))

    def slices(s):
        colours = [
            sum((c * t + (a * s if s >= 0 else -b * s)) % n * place for n, a, b, c, place in group.digits)
            for t in range(period)
        ]
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


def evaluate(machine, trunc):
    """Evaluate a slice table over the window [-trunc-1, trunc].

    The walk runs from slice trunc down to -trunc-1; each slice applies its
    creator, then its weight.  The extra lowest slice closes the walk so the
    last weighted slice may be non-empty.  Any pile with a non-empty slice
    outside the window has more than `trunc` boxes, so the window is
    exhaustive at this truncation.

    Each creator is told how many weights, counting its own slice's, will
    each add at least the size of the partition it creates (the module
    docstring gives the bound); terms that cannot stay within the
    truncation are never created.
    """
    one = Monomial.one(machine.vars)
    state = FockState.vacuum(machine.vars, trunc)
    for s in range(trunc, -trunc - 2, -1):
        weight, primed = machine.slices(s)
        if s >= 0:
            state = apply_op(state, gamma_minus(one, primed), reserve=s + 1)
        else:
            state = apply_op(state, gamma_plus(one, primed), reserve=1)
        state = apply_op(state, weight)
    return state.amplitude(())

