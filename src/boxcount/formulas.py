"""Closed product formulas for the coloured box-counting series.

Every closed form is a product of generalized MacMahon functions, and is
written here as data: a list of rows (x, q, p, two_sided), each standing
for M(x, q)**p, or for the two-sided M~(x, q)**p when two_sided is set
(boxcount.series.macmahon and macmahon_tilde).  A negative power p is a
denominator.  `evaluate` expands every row into its factor pairs (u, m*p)
and hands the whole list to boxcount.series.euler_product, which merges
equal factors and multiplies in the binomial series of (1 - u)**(-e) one
factor at a time; no series is inverted or raised to a power on the way.

The signed forms on the resolved side read one table of curve classes.
`dt_resolution` puts each class on the curve variables, and
`dt_resolution_paired` puts the same class on the colour variables as a
two-sided row, which is the pairing across the wall.  The enumeration and
transfer modules compute the same series by entirely different means, and
the tests compare them exactly.
"""

from __future__ import annotations

from boxcount.colouring import klein_group, zn_group
from boxcount.pyramid import KLEIN_VARS
from boxcount.series import Monomial, euler_product, macmahon_factors
from boxcount.series import macmahon, macmahon_tilde  # noqa: F401  (re-exported: perfbench/tracer.py probes them here)


def regular_monomial(group):
    """The product of all colour variables (one full orbit of boxes)."""
    return Monomial.from_exponents(group.variables, {v: 1 for v in group.variables})


def euler_number(group):
    """Topological Euler number of the crepant resolution: the group order."""
    if group.kind not in ("zn", "klein"):
        raise ValueError(f"no resolution data for group {group}")
    return group.order


def _interval(vars, a, b):
    return Monomial.from_exponents(vars, {vars[i]: 1 for i in range(a, b + 1)})


def evaluate(rows, trunc):
    """The product of the MacMahon rows (x, q, p, two_sided), to degree `trunc`."""
    factors = [
        (u, m * p)
        for x, q, p, two_sided in rows
        for u, m in macmahon_factors(x, q, trunc, two_sided)
    ]
    return euler_product(rows[0][1].vars, trunc, factors)


def _curve_classes(group):
    """(beta monomial on the colour variables, multiplicity) pairs."""
    vars = group.variables
    if group.kind == "zn":
        return [(_interval(vars, a, b), 1) for a in range(1, group.order) for b in range(a, group.order)]
    if group.kind == "klein":
        qa = Monomial.var(vars, "qa")
        qb = Monomial.var(vars, "qb")
        qc = Monomial.var(vars, "qc")
        return [
            (qa * qb, 1),
            (qa * qc, 1),
            (qb * qc, 1),
            (qa, -1),
            (qb, -1),
            (qc, -1),
            (qa * qb * qc, -1),
        ]
    raise ValueError(f"no resolution data for group {group}")


def orbifold_rows(group):
    """The rows of the closed form of the group action's box-counting series."""
    vars = group.variables
    q = regular_monomial(group)
    one = Monomial.one(vars)
    if group.kind == "zn":
        n = group.order
        return [(one, q, n, False)] + [
            (_interval(vars, a, b), q, 1, True) for a in range(1, n) for b in range(a, n)
        ]
    if group.kind == "klein":
        qa = Monomial.var(vars, "qa")
        qb = Monomial.var(vars, "qb")
        qc = Monomial.var(vars, "qc")
        return [
            (one, q, 4, False),
            (qa * qb, q, 1, True),
            (qa * qc, q, 1, True),
            (qb * qc, q, 1, True),
            (-qa, q, -1, True),
            (-qb, q, -1, True),
            (-qc, q, -1, True),
            (-(qa * qb * qc), q, -1, True),
        ]
    raise ValueError(f"no closed orbifold formula for group {group}")


def pyramid_rows():
    """The rows of the pyramid series on the variables (q0, qa, qb, qc)."""
    vars = KLEIN_VARS
    q = Monomial.from_exponents(vars, {v: 1 for v in vars})
    qa = Monomial.var(vars, "qa")
    qb = Monomial.var(vars, "qb")
    qc = Monomial.var(vars, "qc")
    return [
        (Monomial.one(vars), q, 4, False),
        (qa * qc, q, 1, True),
        (qb * qc, q, 1, True),
        (-qa, q, -1, True),
        (-qb, q, -1, True),
        (-qc, q, -1, True),
        (-(qa * qb * qc), q, -1, True),
    ]


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
    if group.kind == "zn":
        return ("q0",)
    if group.kind == "klein":
        return ("qa", "qb", "qc")
    raise ValueError(f"no sign convention for group {group}")


def dt_orbifold(group, trunc):
    """The signed orbifold series: the closed form with flipped variables."""
    return closed_orbifold(group, trunc).substitute_signs(dt_sign_variables(group))


def resolution_variables(group):
    if group.kind == "zn":
        return ("q",) + tuple(f"v{i}" for i in range(1, group.order))
    if group.kind == "klein":
        return ("q", "va", "vb", "vc")
    raise ValueError(f"no resolution data for group {group}")


def resolution_rows(group, paired=False):
    """M(1, -q)**e, with e the Euler number, then one row M(beta, -q)**n for
    each curve class beta of multiplicity n.

    Unpaired, the rows live on the resolution variables (q, v...): q is the
    box variable, and each class moves from the i-th colour variable to the
    i-th curve variable (no class involves q0, whose place q takes).  Paired,
    the same rows stay on the colour variables, q is the regular monomial,
    and each curve row is two-sided.
    """
    if paired:
        vars, q = group.variables, regular_monomial(group)
    else:
        vars = resolution_variables(group)
        q = Monomial.var(vars, "q")
    rows = [(Monomial.one(vars), -q, euler_number(group), False)]
    for beta, mult in _curve_classes(group):
        rows.append((Monomial(vars, beta.halves, beta.sign), -q, mult, paired))
    return rows


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
