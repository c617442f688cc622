"""Catalogue of exact operator identities, checked on finite bases.

Every identity the transfer machines rely on is listed here as a named
check.  Each check verifies an operator word equality on all partition
basis states up to a size bound, with truncated series coefficients, and
returns (ok, witness): the first failing basis partition, or None.

The checks take a truncation and a basis bound so callers can trade time
for coverage; the defaults are quick smoke settings.
"""

from __future__ import annotations

from boxcount import fock, young
from boxcount.fock import (
    FockState,
    alpha_op,
    apply_ops,
    even_minus,
    even_plus,
    gamma_minus,
    gamma_plus,
    weight_op,
)
from boxcount.series import Monomial, Series


def _geom(vars, trunc, mono):
    """(1 - mono)^-1 as a series."""
    return (Series.one(vars, trunc) - Series.from_monomial(mono, trunc)).inverse()


def heisenberg(trunc=1, max_basis=8, max_mode=4):
    """[alpha_m, alpha_n] = m * delta(m+n) * Id on all small basis states."""
    V = ("q",)
    one = Monomial.one(V)
    for m in range(-max_mode, max_mode + 1):
        for n in range(-max_mode, max_mode + 1):
            if m == 0 or n == 0:
                continue
            for mu in young.partitions_up_to(max_basis):
                base = FockState.basis(mu, V, trunc)
                left = apply_ops(base, [alpha_op(m), alpha_op(n)])
                right = apply_ops(base, [alpha_op(n), alpha_op(m)])
                diff = left + right.scale(-one)
                want = base.scale(Series.one(V, trunc) * m) if m + n == 0 else FockState(V, trunc, {})
                if diff != want:
                    return False, (m, n, mu)
    return True, None


def gamma_commutators(trunc=8, max_basis=6):
    """The four gamma cross-commutators, primed and plain."""
    V = ("x", "y")
    x = Monomial.var(V, "x")
    y = Monomial.var(V, "y")
    inv = _geom(V, trunc, x * y)
    plus = Series.one(V, trunc) + Series.from_monomial(x * y, trunc)
    cases = [
        ("plain-plain", gamma_plus(x), gamma_minus(y), inv),
        ("primed-primed", gamma_plus(x, primed=True), gamma_minus(y, primed=True), inv),
        ("plain-primed", gamma_plus(x), gamma_minus(y, primed=True), plus),
        ("primed-plain", gamma_plus(x, primed=True), gamma_minus(y), plus),
    ]
    for name, up, down, scalar in cases:
        ok, mu = fock.check_relation(V, trunc, [up, down], [down, up], scalar, max_basis)
        if not ok:
            return False, (name, mu)
    return True, None


def weight_displays(trunc=8, max_basis=6):
    """Moving a weight operator past a gamma rescales its argument."""
    V = ("x", "g")
    x = Monomial.var(V, "x")
    xg = x * Monomial.var(V, "g")
    W = weight_op(1)
    for primed in (False, True):
        cases = [
            ("plus", [gamma_plus(x, primed=primed), W], [W, gamma_plus(xg, primed=primed)]),
            ("minus", [W, gamma_minus(x, primed=primed)], [gamma_minus(xg, primed=primed), W]),
        ]
        for name, left, right in cases:
            ok, mu = fock.check_relation(V, trunc, left, right, None, max_basis)
            if not ok:
                return False, (name, primed, mu)
    return True, None


def even_part_relations(trunc=8, max_basis=6):
    """The even-part factorisation and its five exchange rules."""
    V = ("x", "y")
    x = Monomial.var(V, "x")
    y = Monomial.var(V, "y")
    xyxy = (x * y) ** 2
    inv2 = _geom(V, trunc, xyxy)
    fwd2 = Series.one(V, trunc) - Series.from_monomial(xyxy, trunc)
    cases = [
        ("factor", [gamma_minus(x)], [gamma_minus(x, primed=True), even_minus(x)], None),
        ("commute-minus", [even_minus(x), gamma_minus(y)], [gamma_minus(y), even_minus(x)], None),
        ("commute-plus", [even_plus(x), gamma_plus(y)], [gamma_plus(y), even_plus(x)], None),
        ("cross-even-up", [even_plus(x), gamma_minus(y)], [gamma_minus(y), even_plus(x)], inv2),
        ("cross-gamma-up", [gamma_plus(x), even_minus(y)], [even_minus(y), gamma_plus(x)], inv2),
        ("cross-primed-up", [gamma_plus(x, primed=True), even_minus(y)], [even_minus(y), gamma_plus(x, primed=True)], fwd2),
    ]
    for name, left, right, scalar in cases:
        ok, mu = fock.check_relation(V, trunc, left, right, scalar, max_basis)
        if not ok:
            return False, (name, mu)
    return True, None


def even_weight_displays(trunc=8, max_basis=6):
    """A two-colour weight moves through an even part at the geometric mean."""
    V = ("x", "g", "h")
    x = Monomial.var(V, "x")
    xsqrt = Monomial.from_half_exponents(V, {"x": 2, "g": 1, "h": 1})
    W = weight_op(1, 2)
    cases = [
        ("minus", [W, even_minus(x)], [even_minus(xsqrt), W]),
        ("plus", [even_plus(x), W], [W, even_plus(xsqrt)]),
    ]
    for name, left, right in cases:
        ok, mu = fock.check_relation(V, trunc, left, right, None, max_basis)
        if not ok:
            return False, (name, mu)
    return True, None


def block_commutator(trunc=6, max_basis=4):
    """The full four-factor block exchange behind the pyramid evaluation.

    Variables are (x, y, q0, qa, qb, qc); writing q for the product of the
    four colour variables keeps every scalar factor polynomial.
    """
    V = ("x", "y", "q0", "qa", "qb", "qc")

    def mono(**exps):
        return Monomial.from_exponents(V, exps)

    a_plus = [
        gamma_plus(mono(x=1, q0=1, qa=1, qb=1, qc=1)),
        gamma_plus(mono(x=1, q0=1, qa=1, qc=1), primed=True),
        gamma_plus(mono(x=1, q0=1, qa=1)),
        gamma_plus(mono(x=1, q0=1), primed=True),
    ]
    a_minus = [
        gamma_minus(mono(y=1)),
        gamma_minus(mono(y=1, qb=1), primed=True),
        gamma_minus(mono(y=1, qb=1, qc=1)),
        gamma_minus(mono(y=1, qa=1, qb=1, qc=1), primed=True),
    ]
    one = Series.one(V, trunc)
    scalar = one
    # numerator factors (1 + x y q * m), with q * m cleared of inverses
    for exps in [
        dict(x=1, y=1, q0=1, qa=1, qb=2, qc=1),
        dict(x=1, y=1, q0=1, qa=2, qb=2, qc=2),
        dict(x=1, y=1, q0=1, qa=1, qc=1),
        dict(x=1, y=1, q0=1, qa=1, qb=1, qc=2),
        dict(x=1, y=1, q0=1, qa=1, qb=1),
        dict(x=1, y=1, q0=1, qa=2, qb=1, qc=1),
        dict(x=1, y=1, q0=1),
        dict(x=1, y=1, q0=1, qb=1, qc=1),
    ]:
        scalar = scalar + scalar.mul_monomial(mono(**exps))
    # denominator factors (1 - x y q * m)
    for exps, power in [
        (dict(x=1, y=1, q0=1, qa=1, qb=1, qc=1), 4),
        (dict(x=1, y=1, q0=1, qa=1, qb=2, qc=2), 1),
        (dict(x=1, y=1, q0=1, qa=2, qb=1, qc=2), 1),
        (dict(x=1, y=1, q0=1, qa=1), 1),
        (dict(x=1, y=1, q0=1, qb=1), 1),
    ]:
        scalar = scalar * _geom(V, trunc, mono(**exps)) ** power
    return fock.check_relation(V, trunc, a_plus + a_minus, a_minus + a_plus, scalar, max_basis)


ALL_CHECKS = [
    ("heisenberg", heisenberg),
    ("gamma-commutators", gamma_commutators),
    ("weight-displays", weight_displays),
    ("even-part", even_part_relations),
    ("even-weight", even_weight_displays),
    ("block-commutator", block_commutator),
]


def run_all(trunc=6, max_basis=4):
    """Yield (name, ok, witness) for every catalogued identity."""
    for name, fn in ALL_CHECKS:
        if name == "heisenberg":
            ok, witness = fn(max_basis=max_basis + 2)
        else:
            ok, witness = fn(trunc, max_basis)
        yield name, ok, witness
