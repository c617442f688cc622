"""Closed product formulas for the coloured box-counting series.

Every closed form is a product of generalized MacMahon functions, and is
written here as data: a list of rows (x, q, p, two_sided), each standing
for M(x, q)**p, or for the two-sided M~(x, q)**p when two_sided is set
(boxcount.series.macmahon and macmahon_tilde).  A negative power p is a
denominator.  `evaluate` expands every row into its factor pairs (u, m*p)
and hands the whole list to boxcount.series.euler_product, which merges
equal factors and multiplies in (1 - u)**(-e) one factor at a time, by
whichever of two exact expansions feeds the kernel fewer terms: the
binomial series, whose coefficients C(e+k-1, k) are integers, or, for
e > 0, e divisions by (1 - u), each one upward pass f[D + deg u] += u*f[D]
over the parts by half-degree, exact because every part holds its
quotient when it is read.  The divisions are taken when e times the size
of the parts is below the binomial series' count of terms read; no series
is inverted or raised to a power on the way.

Each group kind with a closed form is one `ClosedForm` record: its curve
classes beta (the colour variables beta covers, and its multiplicity n),
its sign variables and its curve-variable names.  `closed_form(group)`
looks the record up, and is the one place that reads a group's kind.  One
row builder, `_rows`, turns a class list into every table:

* orbifold: M(1, q)**|G| times M~(eps*beta, q)**n per class, with q the
  regular monomial and eps = -1 exactly when beta covers an odd number of
  sign variables;
* resolution: M(1, -q)**|G| times M(v_beta, -q)**n, on (q, v...);
* paired: the resolution rows on the colour variables, two-sided.

Substituting q -> -q for the sign variables carries each orbifold row to
its paired row, which is the pairing across the wall.  The pyramid series
has its own hand-written class list, so that `verify pair` compares two
independent tables.  The enumeration and transfer modules compute the same
series by entirely different means, and the tests compare them exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from boxcount.colouring import klein_group, zn_group
from boxcount.series import Monomial, euler_product, macmahon_factors
from boxcount.series import macmahon, macmahon_tilde  # noqa: F401  (re-exported: perfbench/tracer.py probes them here)


class ClosedForm(NamedTuple):
    classes: tuple  # (colour variables a curve class covers, multiplicity) pairs; none covers q0
    signs: tuple  # colour variables whose sign flip turns box counting into its signed version
    curves: tuple  # the curve variable standing in for each colour variable after q0


KLEIN = ClosedForm(
    classes=(
        (("qa", "qb"), 1), (("qa", "qc"), 1), (("qb", "qc"), 1),
        (("qa",), -1), (("qb",), -1), (("qc",), -1), (("qa", "qb", "qc"), -1),
    ),
    signs=("qa", "qb", "qc"),
    curves=("va", "vb", "vc"),
)
# the pyramid piles' classes, on the klein variables and read with the klein signs
PYRAMID_CLASSES = (
    (("qa", "qc"), 1), (("qb", "qc"), 1),
    (("qa",), -1), (("qb",), -1), (("qc",), -1), (("qa", "qb", "qc"), -1),
)


def closed_form(group):
    """The closed-form record of the group; ValueError for a group without one."""
    match group.kind:
        case "zn":
            n, vars = group.order, group.variables
            # one class per interval q_a ... q_b of the nontrivial colours
            classes = tuple((vars[a : b + 1], 1) for a in range(1, n) for b in range(a, n))
            return ClosedForm(classes, ("q0",), tuple(f"v{i}" for i in range(1, n)))
        case "klein":
            return KLEIN
    raise ValueError(f"no closed form for group {group}")


def regular_monomial(group):
    """The product of all colour variables (one full orbit of boxes)."""
    return Monomial.from_exponents(group.variables, {v: 1 for v in group.variables})


def evaluate(rows, trunc):
    """The product of the MacMahon rows (x, q, p, two_sided), to degree `trunc`."""
    factors = [
        (u, m * p)
        for x, q, p, two_sided in rows
        for u, m in macmahon_factors(x, q, trunc, two_sided)
    ]
    return euler_product(rows[0][1].vars, trunc, factors)


def _rows(q, classes, two_sided, signs=()):
    """M(1, q)**|G|, then M(eps*beta, q)**n per class (beta, n), two-sided if
    asked, with eps = -1 exactly when beta covers an odd number of `signs`.

    There is one variable per group element on either side of the wall, so
    |G|, the Euler number of the resolution, is the variable count.
    """
    vars = q.vars
    rows = [(Monomial.one(vars), q, len(vars), False)]
    for cover, mult in classes:
        sign = -1 if len(set(cover) & set(signs)) % 2 else 1
        rows.append((Monomial.from_exponents(vars, dict.fromkeys(cover, 1), sign), q, mult, two_sided))
    return rows


def orbifold_rows(group):
    """The rows of the closed form of the group action's box-counting series."""
    form = closed_form(group)
    return _rows(regular_monomial(group), form.classes, True, form.signs)


def pyramid_rows():
    """The rows of the pyramid series on the variables (q0, qa, qb, qc)."""
    return _rows(regular_monomial(klein_group()), PYRAMID_CLASSES, True, KLEIN.signs)


def pair_rows():
    """The pyramid rows times M~(qa qb, q): the klein series, by the pair identity."""
    return _rows(regular_monomial(klein_group()), PYRAMID_CLASSES + ((("qa", "qb"), 1),), True, KLEIN.signs)


def closed_orbifold(group, trunc):
    """Closed form of the coloured box-counting series of the group action."""
    return evaluate(orbifold_rows(group), trunc)


def closed_zn(n, trunc):
    return closed_orbifold(zn_group(n), trunc)


def closed_klein(trunc):
    return closed_orbifold(klein_group(), trunc)


def closed_pyramid(trunc):
    """Closed form of the pyramid series on the variables (q0, qa, qb, qc)."""
    return evaluate(pyramid_rows(), trunc)


def dt_sign_variables(group):
    """Variables whose sign flip turns box counting into its signed version."""
    return closed_form(group).signs


def dt_orbifold(group, trunc):
    """The signed orbifold series: the closed form with flipped variables."""
    return closed_orbifold(group, trunc).substitute_signs(dt_sign_variables(group))


def resolution_variables(group):
    return ("q",) + closed_form(group).curves


def resolution_rows(group, paired=False):
    """M(1, -q)**|G|, then M(beta, -q)**n per curve class beta.

    Unpaired, the rows live on the resolution variables (q, v...): q is the
    box variable, and each class moves from the i-th colour variable to the
    i-th curve variable (no class covers q0, whose place q takes).  Paired,
    they stay on the colour variables, q is the regular monomial, and each
    curve row is two-sided.
    """
    form = closed_form(group)
    if paired:
        return _rows(-regular_monomial(group), form.classes, True)
    curve = dict(zip(group.variables[1:], form.curves))
    classes = [(tuple(curve[v] for v in cover), mult) for cover, mult in form.classes]
    return _rows(-Monomial.var(("q",) + form.curves, "q"), classes, False)


def dt_resolution(group, trunc):
    """Signed box counting on the resolved space, in box and curve variables.

    The curve classes carry the variables v; the box class carries q with
    alternating signs.
    """
    return evaluate(resolution_rows(group), trunc)


def dt_resolution_paired(group, trunc):
    """The resolution series paired with its curve-inverted mirror.

    Each curve factor and its mirror combine into a two-sided product in the
    colour variables (under the dictionary matching the i-th curve variable
    with the i-th colour variable), and the pairing absorbs one copy of the
    degree-zero normalization, leaving a single signed MacMahon prefactor.
    """
    return evaluate(resolution_rows(group, paired=True), trunc)


def dt_pairing_holds(group, trunc):
    """Exact equality of the signed orbifold series and the paired resolution."""
    return dt_orbifold(group, trunc) == dt_resolution_paired(group, trunc)
