"""Command line front end.

Every series-producing route is exposed directly (enum, pyramid, formula,
transfer, sign, dt), and `verify` cross-checks any two independent routes
for the same counting problem, exiting 1 with the first differing monomial
on a mismatch.  Exit codes: 0 agreement, 1 mismatch, 2 usage.
"""

from __future__ import annotations

import argparse
import sys

from boxcount import colouring
from boxcount.series import MAX_TRUNC, Monomial

# --threads is range-checked against this and otherwise ignored: enumeration is serial
MAX_THREADS = 64
# upper bound of verify-ops --basis: with the default -N 6 the catalogue takes ~4 s at 8 on a 2-core box
MAX_BASIS = 8
# upper bound of verify-ops -N: --basis 8 -N 8 takes ~6 s on a 2-core box, -N 12 took 16 s
MAX_OPS_TRUNC = 8
# upper bound of -N on every route that enumerates piles (enum, pyramid, sign, and verify's
# group, pyramid, transfer: and sign: targets); see README for the slowest accepted case
MAX_ENUM_TRUNC = 24


def _emit(series, fmt, max_terms):
    if fmt == "json":
        print(series.to_json())
    elif fmt == "csv":
        print(series.to_csv(), end="")
    else:
        print(series.pretty(max_terms=max_terms))


def _report(name_a, a, name_b, b):
    d = a.diff(b)
    if d is None:
        print(f"ok: {name_a} == {name_b} up to degree {min(a.trunc, b.trunc)}")
        return 0
    halves, ca, cb = d
    mono = Monomial(a.vars, halves, 1)
    print(f"MISMATCH at {mono}: {name_a} has {ca}, {name_b} has {cb}")
    return 1


def _group(parser, text, *needs):
    """Parse a group name, then look up each of `needs` (functions of the
    group, such as its closed-form rows) so that a group lacking one is a
    usage error before any work starts."""
    try:
        group = colouring.parse_group(text)
        for need in needs:
            need(group)
    except ValueError as exc:
        parser.error(str(exc))
    return group


def _enumerable(parser, trunc):
    """Reject a truncation too deep to enumerate, once the verify target has parsed."""
    if trunc > MAX_ENUM_TRUNC:
        parser.error(f"argument -N/--trunc: this verify target enumerates, so -N must be in [0, {MAX_ENUM_TRUNC}], got {trunc}")


def _transfer_machine(parser, which):
    from boxcount import fock

    try:
        return fock.machine(which)
    except ValueError as exc:
        parser.error(str(exc))


def _int_in(what, lo, hi=None):
    """argparse type for an integer `what` in [lo, hi] (unbounded above when hi is None)."""

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}") from None
        if n < lo or (hi is not None and n > hi):
            bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"{what} must be {bound}, got {n}")
        return n

    return parse


# every -N
_trunc = _int_in("truncation", 0, MAX_TRUNC)
# -N of the commands that enumerate piles
_enum_trunc = _int_in("enumeration truncation", 0, MAX_ENUM_TRUNC)
# every --threads
_threads = _int_in("thread count", 1, MAX_THREADS)


def _add_threads(sub):
    sub.add_argument(
        "--threads",
        type=_threads,
        default=1,
        help=f"accepted for compatibility, 1..{MAX_THREADS}; has no effect",
    )


def _add_series_opts(sub, trunc=_trunc):
    sub.add_argument("-N", "--trunc", type=trunc, required=True, help="truncation degree")
    sub.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
    sub.add_argument(
        "--max-terms", type=_int_in("term cap", 0), default=20, help="term cap for pretty output, >= 0"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(prog="boxcount", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="coloured box-pile series by direct enumeration")
    p.add_argument("group", help="zn:K, klein, or z3diag")
    _add_series_opts(p, _enum_trunc)
    _add_threads(p)

    p = sub.add_parser("pyramid", help="pyramid-partition series by direct enumeration")
    _add_series_opts(p, _enum_trunc)
    _add_threads(p)

    p = sub.add_parser("formula", help="closed product formula")
    p.add_argument("which", help="zn:K, klein, or pyramid")
    _add_series_opts(p)

    p = sub.add_parser("transfer", help="transfer-operator evaluation")
    p.add_argument("which", help="a group (zn:K, klein, z3diag), pyramid, pyramid-checkerboard, or z2z2 (= klein)")
    _add_series_opts(p)

    p = sub.add_parser("sign", help="signed box counting via vertex-character parity")
    p.add_argument("group", help="zn:K, klein, or z3diag")
    _add_series_opts(p, _enum_trunc)
    _add_threads(p)

    p = sub.add_parser("dt", help="closed signed forms")
    p.add_argument("group", help="zn:K or klein")
    p.add_argument("--side", choices=("orbifold", "resolution", "paired"), default="orbifold")
    _add_series_opts(p)

    p = sub.add_parser("verify", help="cross-check two independent routes")
    p.add_argument(
        "target",
        help="zn:K | klein | pyramid | pair | transfer:{zn:K,klein,z3diag,pyramid,pyramid-checkerboard,z2z2}"
        " | sign:{zn:K,klein} | pairing:{zn:K,klein}",
    )
    p.add_argument(
        "-N", "--trunc", type=_trunc, required=True,
        help=f"truncation degree, 0..{MAX_TRUNC}; 0..{MAX_ENUM_TRUNC} for targets that enumerate (all but pair and pairing:)",
    )
    _add_threads(p)

    p = sub.add_parser("verify-ops", help="check the operator-identity catalogue")
    p.add_argument(
        "-N", "--trunc", type=_int_in("truncation", 0, MAX_OPS_TRUNC), default=6, help=f"truncation degree, 0..{MAX_OPS_TRUNC}"
    )
    p.add_argument(
        "--basis", type=_int_in("basis size", 0, MAX_BASIS), default=4, help=f"largest basis partition size, 0..{MAX_BASIS}"
    )

    args = parser.parse_args(argv)
    return COMMANDS[args.command](parser, args)


def _cmd_enum(parser, args):
    from boxcount.enum3d import coloured_series

    group = _group(parser, args.group)
    _emit(coloured_series(group, args.trunc), args.format, args.max_terms)
    return 0


def _cmd_pyramid(parser, args):
    from boxcount.pyramid import pyramid_series

    _emit(pyramid_series(args.trunc), args.format, args.max_terms)
    return 0


def _cmd_formula(parser, args):
    from boxcount import formulas

    if args.which == "pyramid":
        series = formulas.closed_pyramid(args.trunc)
    else:
        series = formulas.closed_orbifold(_group(parser, args.which, formulas.orbifold_rows), args.trunc)
    _emit(series, args.format, args.max_terms)
    return 0


def _cmd_transfer(parser, args):
    from boxcount import fock

    machine = _transfer_machine(parser, args.which)
    _emit(fock.evaluate(machine, args.trunc), args.format, args.max_terms)
    return 0


def _cmd_sign(parser, args):
    from boxcount.dtsign import sign_map
    from boxcount.enum3d import coloured_series

    group = _group(parser, args.group)
    _emit(sign_map(group, coloured_series(group, args.trunc)), args.format, args.max_terms)
    return 0


def _cmd_dt(parser, args):
    from boxcount import formulas

    if args.side == "orbifold":
        group = _group(parser, args.group, formulas.orbifold_rows, formulas.dt_sign_variables)
        series = formulas.dt_orbifold(group, args.trunc)
    else:
        group = _group(parser, args.group, formulas.resolution_rows)
        side = formulas.dt_resolution if args.side == "resolution" else formulas.dt_resolution_paired
        series = side(group, args.trunc)
    _emit(series, args.format, args.max_terms)
    return 0


def _cmd_verify(parser, args):
    from boxcount import fock, formulas
    from boxcount.dtsign import sign_map
    from boxcount.enum3d import coloured_series
    from boxcount.pyramid import pyramid_series

    target = args.target
    N = args.trunc
    if target == "pyramid":
        _enumerable(parser, N)
        return _report("enumeration", pyramid_series(N), "closed formula", formulas.closed_pyramid(N))
    if target == "pair":
        # the pyramid rows and the one two-sided row M~(qa qb, q), as one factor list
        rows = formulas.pyramid_rows()
        q = rows[0][1]
        qa_qb = Monomial.from_exponents(q.vars, {"qa": 1, "qb": 1})
        paired = formulas.evaluate(rows + [(qa_qb, q, 1, True)], N)
        return _report("klein formula", formulas.closed_klein(N), "paired pyramid formula", paired)
    if target == "klein" or target.startswith("zn:"):
        group = _group(parser, target)
        _enumerable(parser, N)
        return _report(
            "enumeration",
            coloured_series(group, N),
            "closed formula",
            formulas.closed_orbifold(group, N),
        )
    if target.startswith("transfer:"):
        machine = _transfer_machine(parser, target[len("transfer:") :])
        _enumerable(parser, N)
        if machine.group is None:
            enumerated = pyramid_series(N)
        else:
            enumerated = coloured_series(machine.group, N)
        return _report("transfer machine", fock.evaluate(machine, N), "enumeration", enumerated)
    if target.startswith("sign:"):
        group = _group(parser, target[len("sign:") :], formulas.orbifold_rows, formulas.dt_sign_variables)
        _enumerable(parser, N)
        coloured = coloured_series(group, N)
        signed = sign_map(group, coloured)
        subst = coloured.substitute_signs(formulas.dt_sign_variables(group))
        rc = _report("sign table", signed, "sign substitution", subst)
        return rc or _report("sign table", signed, "signed closed formula", formulas.dt_orbifold(group, N))
    if target.startswith("pairing:"):
        group = _group(
            parser, target[len("pairing:") :], formulas.orbifold_rows, formulas.dt_sign_variables, formulas.resolution_rows
        )
        return _report(
            "signed orbifold formula",
            formulas.dt_orbifold(group, N),
            "paired resolution formula",
            formulas.dt_resolution_paired(group, N),
        )
    parser.error(f"unknown verify target {target!r}")


def _cmd_verify_ops(parser, args):
    from boxcount import relations

    failed = 0
    for name, ok, witness in relations.run_all(trunc=args.trunc, max_basis=args.basis):
        line = f"{'ok' if ok else 'FAIL'}: {name}"
        if not ok:
            line += f"  (witness {witness})"
            failed += 1
        print(line)
    return 1 if failed else 0


COMMANDS = {
    "enum": _cmd_enum,
    "pyramid": _cmd_pyramid,
    "formula": _cmd_formula,
    "transfer": _cmd_transfer,
    "sign": _cmd_sign,
    "dt": _cmd_dt,
    "verify": _cmd_verify,
    "verify-ops": _cmd_verify_ops,
}


if __name__ == "__main__":
    sys.exit(main())
