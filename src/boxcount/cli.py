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

`parse` reads the command line off the `SUBCOMMANDS` table, whose rows
also write each command's help and the usage line of each usage error.
"""

from __future__ import annotations

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
    """Converter of an integer `what` in [lo, hi] (unbounded above when hi is None).

    Only the integer as Python prints it is accepted: int() alone would also
    read '+3', ' 3', '1_0', '03' and non-ASCII digits.
    """

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or str(n) != text:
            raise ValueError(f"{what} must be a plain decimal integer, got {text!r}")
        if n < lo or (hi is not None and n > hi):
            bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise ValueError(f"{what} must be {bound}, got {n}")
        return n

    return parse


def _ops_trunc(text):
    # imported here, so that only verify-ops loads the catalogue
    from boxcount import relations

    return _int_in("truncation", relations.MIN_TRUNC, MAX_OPS_TRUNC)(text)


class Option(NamedTuple):
    flags: tuple  # its spellings, each also taken as flag=value, and a one-letter one as -Nvalue
    dest: str
    convert: Callable | tuple  # text -> value, raising ValueError with the message; or the words it takes
    default: object  # None: the option is required
    help: str


TRUNC = Option(
    ("-N", "--trunc"), "trunc", _int_in("truncation", 0, MAX_TRUNC), None,
    f"truncation degree, 0..{MAX_TRUNC}; 0..{MAX_ENUM_TRUNC} on a route that enumerates piles",
)
THREADS = Option(
    ("--threads",), "threads", _int_in("thread count", 1, MAX_THREADS), 1,
    f"accepted for compatibility, 1..{MAX_THREADS}; has no effect",
)
OUTPUT = (
    Option(("--format",), "format", ("pretty", "json", "csv"), "pretty", "output format"),
    Option(("--max-terms",), "max_terms", _int_in("term cap", 0), 20, "term cap for pretty output, >= 0"),
)

# (command, help, positional argument name and help or None, options)
SUBCOMMANDS = (
    ("enum", "coloured box-pile series by direct enumeration", ("group", "zn:K, klein, or z3diag"),
     (TRUNC, THREADS, *OUTPUT)),
    ("pyramid", "pyramid-partition series by direct enumeration", None, (TRUNC, THREADS, *OUTPUT)),
    ("formula", "closed product formula", ("which", "zn:K, klein, or pyramid"), (TRUNC, *OUTPUT)),
    ("transfer", "transfer-operator evaluation",
     ("which", "a group (zn:K, klein, z3diag), pyramid, pyramid-checkerboard, or z2z2 (= klein)"), (TRUNC, *OUTPUT)),
    ("sign", "signed box counting via vertex-character parity", ("group", "zn:K, klein, or z3diag"),
     (TRUNC, THREADS, *OUTPUT)),
    ("dt", "closed signed forms", ("group", "zn:K or klein"), (
        TRUNC,
        Option(("--side",), "side", ("orbifold", "resolution", "paired"), "orbifold",
               "orbifold signed form, resolution form, or the resolution form paired with its mirror"),
        *OUTPUT,
    )),
    ("verify", "cross-check two independent routes",
     ("target", "zn:K | klein | pyramid | pair | transfer:{zn:K,klein,z3diag,pyramid,pyramid-checkerboard,z2z2}"
      " | sign:{zn:K,klein} | pairing:{zn:K,klein}"), (TRUNC, THREADS)),
    ("verify-ops", "check the operator-identity catalogue", None, (
        Option(("-N", "--trunc"), "trunc", _ops_trunc, 6,
               f"truncation degree, from the least that tells a swapped exchange rule apart up to {MAX_OPS_TRUNC}"),
        Option(("--basis",), "basis", _int_in("basis size", 0, MAX_BASIS), 4,
               f"largest basis partition size, 0..{MAX_BASIS}"),
    )),
)
HELP = ("-h", "--help")
DESCRIPTION = "exact coloured box counting: enumeration, transfer operators and closed product formulas"


def _metavar(option):
    return "{" + ",".join(option.convert) + "}" if type(option.convert) is tuple else option.dest.upper()


def _usage(row):
    """The usage line of a subcommand's row, or of boxcount itself when row is None."""
    if row is None:
        return "usage: boxcount [-h] {" + ",".join(r[0] for r in SUBCOMMANDS) + "} ..."
    command, _, positional, options = row
    words = ["[-h]"]
    for option in options:
        word = f"{option.flags[0]} {_metavar(option)}"
        words.append(word if option.default is None else f"[{word}]")
    if positional:
        words.append(positional[0])
    return " ".join(["usage: boxcount", command, *words])


def _help(row):
    def item(name, text):
        return f"  {name:<20}  {text}" if len(name) <= 20 else f"  {name}\n{'':24}{text}"

    if row is None:
        about, positional, options = DESCRIPTION, None, ()
    else:
        _, about, positional, options = row
    lines = [_usage(row), "", about, ""]
    if positional:
        lines += ["positional arguments:", item(*positional), ""]
    if row is None:
        lines += ["commands:", *(item(r[0], r[1]) for r in SUBCOMMANDS), ""]
    lines += ["options:", item(", ".join(HELP), "show this help message and exit")]
    for option in options:
        default = "" if option.default is None else f" (default: {option.default})"
        lines.append(item(", ".join(f"{f} {_metavar(option)}" for f in option.flags), option.help + default))
    return "\n".join(lines)


def _fail(row, message):
    """Exit 2 on a usage error, after the usage line of `row` (None: boxcount's own)."""
    prog = "boxcount" if row is None else f"boxcount {row[0]}"
    sys.stderr.write(f"{_usage(row)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _convert(row, option, text):
    name = "/".join(option.flags)
    if text is None:
        _fail(row, f"argument {name}: expected one argument")
    if type(option.convert) is not tuple:
        try:
            return option.convert(text)
        except ValueError as exc:
            _fail(row, f"argument {name}: {exc}")
    if text not in option.convert:
        choices = ", ".join(map(repr, option.convert))
        _fail(row, f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    return text


def parse(argv):
    """(row, {dest: value}) of a command line, or None once help is printed.

    The command comes first; its positional and options follow in any order,
    each option as `-N 5`, `-N5`, `-N=5`, `--trunc 5` or `--trunc=5`, the last
    of a repeated option winning.  `--` ends the options.  An option is never
    abbreviated.
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    if argv[0] in HELP:
        print(_help(None))
        return None
    row = next((r for r in SUBCOMMANDS if r[0] == argv[0]), None)
    if row is None:
        choices = ", ".join(repr(r[0]) for r in SUBCOMMANDS)
        _fail(None, f"argument command: invalid choice: {argv[0]!r} (choose from {choices})")
    _, _, positional, options = row
    by_flag = {flag: option for option in options for flag in option.flags}
    values = {option.dest: option.default for option in options}
    words = []
    args = iter(argv[1:])
    for arg in args:
        if arg in HELP:
            print(_help(row))
            return None
        if arg == "--":
            words += args
        elif arg[:1] != "-" or arg == "-":
            words.append(arg)
        else:
            flag, eq, text = arg.partition("=")
            if not eq and flag not in by_flag and flag[1] != "-":
                flag, text = arg[:2], arg[2:]
            if flag not in by_flag:
                _fail(row, f"unrecognized arguments: {arg}")
            option = by_flag[flag]
            values[option.dest] = _convert(row, option, text if eq or text else next(args, None))
    if len(words) > bool(positional):
        _fail(row, f"unrecognized arguments: {' '.join(words[bool(positional):])}")
    missing = [positional[0]] if positional and not words else []
    missing += ["/".join(o.flags) for o in options if values[o.dest] is None]
    if missing:
        _fail(row, f"the following arguments are required: {', '.join(missing)}")
    values["which"] = words[0] if words else None
    return row, values


def main(argv=None):
    """Run one command line (sys.argv[1:] when argv is None) and return its exit code."""
    try:
        code = _main(sys.argv[1:] if argv is None else argv)
        # flushed here, so that a closed pipe is caught below and not at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: as the Python `signal` docs advise, stdout goes to devnull so
        # that the exit flush fails no more, and the exit code is 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _main(argv):
    parsed = parse(argv)
    if parsed is None:
        return 0
    row, args = parsed
    command = row[0]
    if command == "verify-ops":
        from boxcount import relations

        failed = 0
        for name, ok, witness in relations.run_all(trunc=args["trunc"], max_basis=args["basis"]):
            print(f"ok: {name}" if ok else f"FAIL: {name}  (witness {witness})")
            failed += not ok
        return 1 if failed else 0

    which = args["which"]
    try:
        routes = verify_routes(which) if command == "verify" else [route(command, which, args.get("side", "orbifold"))]
    except ValueError as exc:
        _fail(row, str(exc))
    N = args["trunc"]
    if N > MAX_ENUM_TRUNC and any(r.enumerates for r in routes):
        _fail(row, f"argument -N/--trunc: a route that enumerates piles needs -N in [0, {MAX_ENUM_TRUNC}], got {N}")
    first, *others = routes
    series = first.series(N)
    if command != "verify":
        _emit(series, args["format"], args["max_terms"])
        return 0
    for other in others:
        if _report(first.label, series, other.label, other.series(N)):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
