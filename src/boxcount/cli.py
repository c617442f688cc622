"""Command line front end.

One route table serves every command.  `route(command, which, side)`
builds the route a series subcommand names (enum, pyramid, formula,
transfer, sign, dt), and `verify_routes(target)` lists the routes a
`verify` target compares: those same routes, plus `pair`.  `main` builds
the routes before any work and checks the enumeration cap once on all of
them.  Then it prints the route, or compares the first route with each of
the others and exits 1 with the first differing monomial.  Exit codes: 0
agreement, 1 mismatch, 2 usage, 141 (128 + SIGPIPE) when the reader of
stdout closes it early.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import lru_cache
from typing import Callable, NamedTuple

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


class Route(NamedTuple):
    label: str  # what `verify` calls it
    enumerates: bool  # walks the piles, so -N is capped at MAX_ENUM_TRUNC
    series: Callable  # truncation -> Series


def route(command, which=None, side="orbifold"):
    """The route of a series subcommand; ValueError for a name it cannot take.

    Probed functions are called through their modules, so that a probe
    installed on the module attribute sees the call, and each route imports
    only the modules it runs.
    """
    if command == "pyramid":
        from boxcount import pyramid

        return Route("enumeration", True, lambda N: pyramid.pyramid_series(N))
    if command == "transfer":
        from boxcount import fock

        machine = fock.machine(which)
        return Route("transfer machine", False, lambda N: fock.evaluate(machine, N))
    if command == "formula" and which == "pyramid":
        from boxcount import formulas

        return Route("closed formula", False, lambda N: formulas.closed_pyramid(N))
    group = colouring.parse_group(which)
    if command == "enum":
        from boxcount import enum3d

        return Route("enumeration", True, lambda N: enum3d.coloured_series(group, N))
    if command == "sign":
        from boxcount import dtsign

        coloured = route("enum", which).series
        return Route("sign table", True, lambda N: dtsign.sign_map(group, coloured(N)))
    from boxcount import formulas

    formulas.closed_form(group)  # rejects a group without closed forms
    if command == "formula":
        return Route("closed formula", False, lambda N: formulas.closed_orbifold(group, N))
    if command == "dt" and side == "orbifold":
        return Route("signed orbifold formula", False, lambda N: formulas.dt_orbifold(group, N))
    if command == "dt" and side == "resolution":
        return Route("resolution formula", False, lambda N: formulas.dt_resolution(group, N))
    if command == "dt" and side == "paired":
        return Route("paired resolution formula", False, lambda N: formulas.dt_resolution_paired(group, N))
    raise ValueError(f"no route {command!r} for {which!r}")


def verify_routes(target):
    """The routes `verify target` compares: the first against each of the others."""
    kind, _, name = target.partition(":")
    if target == "pyramid":
        return [route("pyramid"), route("formula", "pyramid")]
    if target == "pair":
        from boxcount import formulas

        paired = Route("paired pyramid formula", False, lambda N: formulas.evaluate(formulas.pair_rows(), N))
        return [route("formula", "klein")._replace(label="klein formula"), paired]
    if kind == "transfer":
        from boxcount import fock

        group = fock.machine(name).group
        return [route("transfer", name), route("pyramid") if group is None else route("enum", group.name)]
    if kind == "sign":
        from boxcount import dtsign, formulas

        closed = route("dt", name)._replace(label="signed closed formula")
        group = colouring.parse_group(name)
        flipped = formulas.dt_sign_variables(group)
        # the table and the substitution sign one enumeration
        coloured = lru_cache(maxsize=1)(route("enum", name).series)
        table = Route("sign table", True, lambda N: dtsign.sign_map(group, coloured(N)))
        return [table, Route("sign substitution", True, lambda N: coloured(N).substitute_signs(flipped)), closed]
    if kind == "pairing":
        return [route("dt", name), route("dt", name, "paired")]
    if kind in ("zn", "klein", "z3diag"):
        return [route("enum", target), route("formula", target)]
    raise ValueError(f"unknown verify target {target!r}")


def _emit(series, fmt, max_terms):
    if fmt == "json":
        series.to_json(sys.stdout)
        sys.stdout.write("\n")
    elif fmt == "csv":
        series.to_csv(sys.stdout)
    else:
        print(series.pretty(max_terms=max_terms))


def _report(name_a, a, name_b, b):
    d = a.diff(b)
    if d is None:
        print(f"ok: {name_a} == {name_b} up to degree {min(a.trunc, b.trunc)}")
        return 0
    exps, ca, cb = d
    mono = Monomial(a.vars, exps, 1)
    print(f"MISMATCH at {mono}: {name_a} has {ca}, {name_b} has {cb}")
    return 1


def _int_in(what, lo, hi=None):
    """argparse type for an integer `what` in [lo, hi] (unbounded above when hi is None).

    Only the integer as Python prints it is accepted: int() alone would also
    read '+3', ' 3', '1_0', '03' and non-ASCII digits.
    """

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or str(n) != text:
            raise argparse.ArgumentTypeError(f"{what} must be a plain decimal integer, got {text!r}")
        if n < lo or (hi is not None and n > hi):
            bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"{what} must be {bound}, got {n}")
        return n

    return parse


def _ops_trunc(text):
    # imported here, so that only verify-ops loads the catalogue
    from boxcount import relations

    return _int_in("truncation", relations.MIN_TRUNC, MAX_OPS_TRUNC)(text)


# (command, help, positional argument name and help or None, takes --threads)
SUBCOMMANDS = (
    ("enum", "coloured box-pile series by direct enumeration", ("group", "zn:K, klein, or z3diag"), True),
    ("pyramid", "pyramid-partition series by direct enumeration", None, True),
    ("formula", "closed product formula", ("which", "zn:K, klein, or pyramid"), False),
    ("transfer", "transfer-operator evaluation",
     ("which", "a group (zn:K, klein, z3diag), pyramid, pyramid-checkerboard, or z2z2 (= klein)"), False),
    ("sign", "signed box counting via vertex-character parity", ("group", "zn:K, klein, or z3diag"), True),
    ("dt", "closed signed forms", ("group", "zn:K or klein"), False),
    ("verify", "cross-check two independent routes",
     ("target", "zn:K | klein | pyramid | pair | transfer:{zn:K,klein,z3diag,pyramid,pyramid-checkerboard,z2z2}"
      " | sign:{zn:K,klein} | pairing:{zn:K,klein}"), True),
)


def main(argv=None):
    try:
        code = _main(argv)
        # flushed here, so that a closed pipe is caught below and not at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: as the Python `signal` docs advise, stdout goes to devnull so
        # that the exit flush fails no more, and the exit code is 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _main(argv):
    parser = argparse.ArgumentParser(prog="boxcount", description=__doc__.split("\n")[0])
    parser.set_defaults(which=None, side="orbifold")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, about, positional, threads in SUBCOMMANDS:
        p = sub.add_parser(command, help=about)
        if positional:
            p.add_argument("which", metavar=positional[0], help=positional[1])
        p.add_argument(
            "-N", "--trunc", type=_int_in("truncation", 0, MAX_TRUNC), required=True,
            help=f"truncation degree, 0..{MAX_TRUNC}; 0..{MAX_ENUM_TRUNC} on a route that enumerates piles",
        )
        if threads:
            p.add_argument(
                "--threads", type=_int_in("thread count", 1, MAX_THREADS), default=1,
                help=f"accepted for compatibility, 1..{MAX_THREADS}; has no effect",
            )
        if command == "dt":
            p.add_argument("--side", choices=("orbifold", "resolution", "paired"), default="orbifold")
        if command != "verify":
            p.add_argument("--format", choices=("pretty", "json", "csv"), default="pretty")
            p.add_argument(
                "--max-terms", type=_int_in("term cap", 0), default=20, help="term cap for pretty output, >= 0"
            )

    p = sub.add_parser("verify-ops", help="check the operator-identity catalogue")
    p.add_argument(
        "-N", "--trunc", type=_ops_trunc, default=6,
        help=f"truncation degree, from the least that tells a swapped exchange rule apart up to {MAX_OPS_TRUNC}",
    )
    p.add_argument(
        "--basis", type=_int_in("basis size", 0, MAX_BASIS), default=4, help=f"largest basis partition size, 0..{MAX_BASIS}"
    )

    args = parser.parse_args(argv)
    if args.command == "verify-ops":
        from boxcount import relations

        failed = 0
        for name, ok, witness in relations.run_all(trunc=args.trunc, max_basis=args.basis):
            print(f"ok: {name}" if ok else f"FAIL: {name}  (witness {witness})")
            failed += not ok
        return 1 if failed else 0

    usage_error = sub.choices[args.command].error  # its usage line names the subcommand
    try:
        routes = verify_routes(args.which) if args.command == "verify" else [route(args.command, args.which, args.side)]
    except ValueError as exc:
        usage_error(str(exc))
    N = args.trunc
    if N > MAX_ENUM_TRUNC and any(r.enumerates for r in routes):
        usage_error(f"argument -N/--trunc: a route that enumerates piles needs -N in [0, {MAX_ENUM_TRUNC}], got {N}")
    first, *others = routes
    series = first.series(N)
    if args.command != "verify":
        _emit(series, args.format, args.max_terms)
        return 0
    for other in others:
        if _report(first.label, series, other.label, other.series(N)):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
