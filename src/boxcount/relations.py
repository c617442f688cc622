"""Catalogue of exact operator identities, checked on finite bases.

Each identity is an equality of two operator words, checked on every
partition basis state up to a size bound, with truncated series
coefficients; callers trade time for coverage through both bounds.

One rule gives every scalar (Okounkov-Reshetikhin-Vafa, hep-th/0309208):
moving a lowering Gamma_+(x) past a raising Gamma_-(y) costs (1 - xy)^-1
when both are plain or both primed, and (1 + xy) = (1 - (-xy))^1 when
exactly one is primed.  `exchange_factors` applies it to every pair of two
gamma words, as a factor list for `series.euler_product`.

The identities are one table.  `CATALOGUE` maps a check's name to its
variables and cases; a case is (case name, left word, right word, split),
where split is the (plus, minus) pair of gamma words whose exchange scalar
multiplies the right word, or None when the words are equal outright.
`check` runs a row and returns (ok, witness), the witness being (case
name, first failing partition) or None.
"""

from boxcount import fock
from boxcount.fock import even_minus, even_plus, gamma_minus, gamma_plus, weight_op
from boxcount.series import Monomial, euler_product


def exchange_factors(plus, minus):
    """The (u, e) factors of the scalar c with plus + minus = c * (minus + plus).

    `plus` is a word of lowering gammas and `minus` a word of raising ones;
    each pair (Gamma_+(x), Gamma_-(y)) contributes (1 - xy)^-1 when their
    primedness matches and (1 + xy) otherwise.
    """
    return [
        (x * y, 1) if primed_x == primed_y else (-(x * y), -1)
        for _, _, primed_x, x in plus
        for _, _, primed_y, y in minus
    ]


def _exchange(name, plus, minus):
    """The case moving the lowering word `plus` past the raising word `minus`."""
    return (name, plus + minus, minus + plus, (plus, minus))


def _gamma_commutators():
    """The four gamma cross-commutators, primed and plain."""
    V = ("x", "y")
    x = Monomial.var(V, "x")
    y = Monomial.var(V, "y")
    return V, [
        _exchange("plain-plain", [gamma_plus(x)], [gamma_minus(y)]),
        _exchange("primed-primed", [gamma_plus(x, primed=True)], [gamma_minus(y, primed=True)]),
        _exchange("plain-primed", [gamma_plus(x)], [gamma_minus(y, primed=True)]),
        _exchange("primed-plain", [gamma_plus(x, primed=True)], [gamma_minus(y)]),
    ]


def _weight_displays():
    """Moving a weight operator past a gamma rescales its argument."""
    V = ("x", "g")
    x = Monomial.var(V, "x")
    xg = x * Monomial.var(V, "g")
    W = weight_op(1)
    cases = []
    for primed in (False, True):
        tag = "-primed" if primed else ""
        cases += [
            ("plus" + tag, [gamma_plus(x, primed), W], [W, gamma_plus(xg, primed)], None),
            ("minus" + tag, [W, gamma_minus(x, primed)], [gamma_minus(xg, primed), W], None),
        ]
    return V, cases


def _even_part():
    """The even-part factorisation and its five exchange rules."""
    V = ("x", "y")
    x = Monomial.var(V, "x")
    y = Monomial.var(V, "y")
    return V, [
        ("factor", [gamma_minus(x)], [gamma_minus(x, primed=True)] + even_minus(x), None),
        ("commute-minus", even_minus(x) + [gamma_minus(y)], [gamma_minus(y)] + even_minus(x), None),
        ("commute-plus", even_plus(x) + [gamma_plus(y)], [gamma_plus(y)] + even_plus(x), None),
        _exchange("cross-even-up", even_plus(x), [gamma_minus(y)]),
        _exchange("cross-gamma-up", [gamma_plus(x)], even_minus(y)),
        _exchange("cross-primed-up", [gamma_plus(x, primed=True)], even_minus(y)),
    ]


def _even_weight_displays():
    """A two-colour weight moves through an even part at the geometric mean
    of its colours; applied twice, it displaces the argument by their product."""
    V = ("x", "g", "h")
    x = Monomial.var(V, "x")
    xgh = Monomial.from_exponents(V, {"x": 1, "g": 1, "h": 1})
    WW = [weight_op(1, 2)] * 2
    return V, [
        ("minus", WW + even_minus(x), even_minus(xgh) + WW, None),
        ("plus", even_plus(x) + WW, WW + even_plus(xgh), None),
    ]


def _block_commutator():
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
    return V, [_exchange("block", a_plus, a_minus)]


CATALOGUE = {
    "gamma-commutators": _gamma_commutators(),
    "weight-displays": _weight_displays(),
    "even-part": _even_part(),
    "even-weight": _even_weight_displays(),
    "block-commutator": _block_commutator(),
}

def least_telling_trunc(catalogue):
    """The least truncation at which every case of `catalogue` shows its faults.

    An exchange case shows a swapped rule from twice its lowest factor degree:
    (1 - u)^-1 and 1 + u first differ at u^2.  A case with no scalar shows a
    wrongly displaced argument a from twice the largest argument degree of its
    gammas: an even part's first term is a^2.
    """

    def case_trunc(left, right, split):
        if split is not None:
            return 2 * min(u.degree for u, _ in exchange_factors(*split))
        return 2 * max(op[3].degree for op in left + right if op[0] == "gamma")

    return max(case_trunc(*case) for _, cases in catalogue.values() for _, *case in cases)


MIN_TRUNC = least_telling_trunc(CATALOGUE)


def check(name, trunc, max_basis):
    """Check every case of the catalogue row `name`; returns (ok, witness)."""
    V, cases = CATALOGUE[name]
    for case, left, right, split in cases:
        scalar = None if split is None else euler_product(V, trunc, exchange_factors(*split))
        ok, mu = fock.check_relation(V, trunc, left, right, max_basis, scalar)
        if not ok:
            return False, (case, mu)
    return True, None


def run_all(trunc, max_basis):
    """Yield (name, ok, witness) for every catalogued identity."""
    for name in CATALOGUE:
        yield (name, *check(name, trunc, max_basis))
