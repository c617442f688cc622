import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import boxcount
from boxcount import cli, enum3d, fock, formulas, pyramid, relations
from boxcount.colouring import klein_group, zn_group
from boxcount.enum3d import coloured_series
from boxcount.formulas import closed_zn
from boxcount.series import Series


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_enum_json(capsys):
    code, out = run(capsys, "enum", "zn:2", "-N", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["vars"] == ["q0", "q1"]
    assert data["trunc"] == 5
    assert coloured_series(zn_group(2), 5).to_json() == out.strip()


def test_formula_csv(capsys):
    code, out = run(capsys, "formula", "zn:2", "-N", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "degree,exponent_q0,exponent_q1,coefficient"
    assert closed_zn(2, 4).to_csv() == out


def test_pretty_output_default(capsys):
    code, out = run(capsys, "transfer", "zn:1", "-N", "4")
    assert code == 0
    assert out.strip() == "1 + q0 + 3*q0^2 + 6*q0^3 + 13*q0^4"


def test_pyramid_and_sign_and_dt(capsys):
    assert run(capsys, "pyramid", "-N", "4")[0] == 0
    assert run(capsys, "sign", "zn:2", "-N", "4")[0] == 0
    assert run(capsys, "dt", "klein", "-N", "4", "--side", "paired")[0] == 0


@pytest.mark.parametrize(
    "target",
    ["zn:2", "pyramid", "pair", "transfer:zn:2", "transfer:pyramid",
     "transfer:pyramid-checkerboard", "transfer:z2z2", "transfer:klein", "transfer:z3diag",
     "sign:zn:2", "pairing:klein"],
)
def test_verify_targets_agree(capsys, target):
    code, out = run(capsys, "verify", target, "-N", "5")
    assert code == 0
    assert out.startswith("ok:")


def test_verify_pyramid_at_the_enumeration_cap(capsys):
    # the brick walk backtracks deepest here
    code, out = run(capsys, "verify", "pyramid", "-N", str(cli.MAX_ENUM_TRUNC))
    assert code == 0
    assert out.startswith("ok:")


def test_verify_ops(capsys):
    code, out = run(capsys, "verify-ops", "-N", str(relations.MIN_TRUNC), "--basis", "2")
    assert code == 0
    assert out.splitlines() == [f"ok: {name}" for name in relations.CATALOGUE]


def test_usage_errors_exit_2(capsys):
    for argv in (["formula", "nope", "-N", "3"],
                 ["transfer", "nope", "-N", "3"],
                 ["enum", "so3", "-N", "3"],
                 ["verify", "nope", "-N", "3"],
                 # -N outside [0, 63], in every subcommand
                 ["transfer", "z2z2", "-N", "64"],
                 ["transfer", "z2z2", "-N", "-1"],
                 ["transfer", "z2z2", "-N", "x"],
                 ["verify", "transfer:z2z2", "-N", "64"],
                 ["formula", "klein", "-N", "64"],
                 ["enum", "klein", "-N", "64"],
                 ["pyramid", "-N", "-1"],
                 ["verify-ops", "-N", "64"],
                 # machine and group names that do not parse
                 ["transfer", "zn:0", "-N", "3"],
                 ["transfer", "zn:abc", "-N", "3"],
                 ["transfer", "zn:8", "-N", "3"],
                 ["verify", "transfer:zn:0", "-N", "3"],
                 ["verify", "transfer:zn:abc", "-N", "3"],
                 ["formula", "zn:abc", "-N", "3"],
                 ["formula", "zn:8", "-N", "3"],
                 ["enum", "zn:8", "-N", "3"],
                 # names and integers that int() reads but that are not written as printed
                 ["formula", "zn:+2", "-N", "3"],
                 ["formula", "zn:02", "-N", "3"],
                 ["enum", "zn: 2", "-N", "3"],
                 ["verify", "zn:\u0663", "-N", "3"],
                 ["verify", "transfer:zn:1_0", "-N", "3"],
                 ["verify", "sign:zn:03", "-N", "3"],
                 ["formula", "zn:2", "-N", "1_0"],
                 ["formula", "zn:2", "-N", "+3"],
                 ["formula", "zn:2", "-N", " 3"],
                 ["formula", "zn:2", "-N", "03"],
                 ["formula", "zn:2", "-N", "\u0663"],
                 ["enum", "klein", "-N", "3", "--threads", "+2"],
                 ["enum", "klein", "-N", "3", "--threads", "0_2"],
                 ["verify-ops", "--basis", "\uff12"],
                 ["transfer", "z2z2", "-N", "3", "--max-terms", "1_0"],
                 # enumeration deeper than MAX_ENUM_TRUNC, rejected before any work; one
                 # past the cap, so that a lost check fails in seconds rather than hangs
                 ["enum", "klein", "-N", str(cli.MAX_ENUM_TRUNC + 1)],
                 ["enum", "z3diag", "-N", str(cli.MAX_ENUM_TRUNC + 1)],
                 ["pyramid", "-N", str(cli.MAX_ENUM_TRUNC + 1)],
                 ["sign", "zn:3", "-N", str(cli.MAX_ENUM_TRUNC + 1)],
                 ["verify", "transfer:z2z2", "-N", str(cli.MAX_ENUM_TRUNC + 1)],
                 ["verify", "transfer:pyramid", "-N", str(cli.MAX_ENUM_TRUNC + 1)],
                 ["verify", "klein", "-N", str(cli.MAX_ENUM_TRUNC + 1)],
                 ["verify", "pyramid", "-N", str(cli.MAX_ENUM_TRUNC + 1)],
                 ["verify", "sign:zn:3", "-N", str(cli.MAX_ENUM_TRUNC + 1)],
                 # groups without a closed form, rejected before any work
                 ["formula", "z3diag", "-N", "3"],
                 ["dt", "z3diag", "-N", "3"],
                 ["dt", "z3diag", "-N", "3", "--side", "resolution"],
                 ["dt", "z3diag", "-N", "3", "--side", "paired"],
                 ["verify", "pairing:z3diag", "-N", "3"],
                 ["verify", "sign:z3diag", "-N", "3"],
                 # worker counts outside [1, 64]
                 ["enum", "klein", "-N", "3", "--threads", "0"],
                 ["enum", "klein", "-N", "3", "--threads", "-1"],
                 ["enum", "klein", "-N", "3", "--threads", "65"],
                 ["enum", "klein", "-N", "3", "--threads", "x"],
                 ["sign", "zn:2", "-N", "3", "--threads", "0"],
                 ["sign", "zn:2", "-N", "3", "--threads", "-2"],
                 ["pyramid", "-N", "3", "--threads", "0"],
                 ["pyramid", "-N", "3", "--threads", "-1"],
                 ["verify", "zn:2", "-N", "3", "--threads", "0"],
                 ["verify", "zn:2", "-N", "3", "--threads", "-1"],
                 # verify-ops basis outside [0, 8]
                 ["verify-ops", "--basis", "-3"],
                 ["verify-ops", "--basis", "-1"],
                 ["verify-ops", "--basis", "9"],
                 ["verify-ops", "--basis", "18"],
                 ["verify-ops", "--basis", "x"],
                 # verify-ops truncation outside [relations.MIN_TRUNC, 8]
                 ["verify-ops", "-N", "0"],
                 ["verify-ops", "-N", "5"],
                 ["verify-ops", "-N", "9"],
                 ["verify-ops", "-N", "12"],
                 ["verify-ops", "-N", "63"],
                 # negative pretty-output term caps
                 ["formula", "klein", "-N", "3", "--max-terms", "-2"],
                 ["enum", "klein", "-N", "3", "--max-terms", "-1"],
                 ["transfer", "z2z2", "-N", "3", "--max-terms", "x"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize(
    "argv, usage",
    [(["transfer", "nope", "-N", "3"], "usage: boxcount transfer "),
     (["enum", "klein", "-N", str(cli.MAX_ENUM_TRUNC + 1)], "usage: boxcount enum ")],
)
def test_route_and_cap_errors_name_the_subcommand(capsys, argv, usage):
    # as the parser's own errors on the subcommand's arguments do
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith(usage)


@pytest.mark.parametrize("row", cli.SUBCOMMANDS, ids=[row[0] for row in cli.SUBCOMMANDS])
def test_help_names_every_option_of_its_row(capsys, row):
    command, about, positional, options = row
    for flag in ("-h", "--help"):
        assert cli.main([command, flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: boxcount {command} ") and about in out
        assert all(f in out for option in options for f in option.flags), out
        assert positional is None or positional[0] in out


def test_top_level_help_names_every_command(capsys):
    for flag in ("-h", "--help"):
        assert cli.main([flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: boxcount ")
        assert all(f"  {row[0]} " in out for row in cli.SUBCOMMANDS), out


@pytest.mark.parametrize(
    "argv",
    [["transfer", "z2z2", "--trunc=5"], ["transfer", "z2z2", "-N5"], ["transfer", "z2z2", "-N=5"],
     ["transfer", "-N", "5", "z2z2"], ["transfer", "--trunc", "5", "z2z2"], ["transfer", "-N", "5", "--", "z2z2"],
     # the last of a repeated option wins
     ["transfer", "z2z2", "-N", "3", "-N", "5"], ["transfer", "z2z2", "-N", "63", "--trunc=5"]],
)
def test_option_spellings_print_the_same_output(capsys, argv):
    expected = run(capsys, "transfer", "z2z2", "-N", "5", "--format", "json")
    command, *rest = argv
    assert run(capsys, command, "--format", "json", *rest) == expected
    assert run(capsys, command, "--format=csv", "--format", "json", *rest) == expected


@pytest.mark.parametrize(
    "argv",
    [["transfer", "z2z2", "-N", "5", "--form", "json"], ["transfer", "z2z2", "--tr", "5"],
     ["dt", "klein", "-N", "5", "--si", "paired"], ["enum", "klein", "-N", "5", "--thr", "2"],
     ["verify-ops", "--bas", "2"], ["transfer", "z2z2", "-N", "5", "--max", "3"]],
)
def test_abbreviated_options_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["formula", "klein", "-N", "30"], ["transfer", "zn:2", "-N", "30"], ["dt", "zn:2", "-N", "30"],
     ["verify", "pair", "-N", "30"], ["verify", "pairing:zn:2", "-N", "30"]],
)
def test_routes_that_do_not_enumerate_keep_the_full_range(capsys, argv):
    assert int(argv[-1]) > cli.MAX_ENUM_TRUNC
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("argv", [["enum", "klein", "-N", "6"], ["pyramid", "-N", "6"], ["sign", "zn:3", "-N", "6"]])
def test_threads_flag_has_no_effect(capsys, argv):
    # the benchmark's --threads 2 operations rely on this
    one = run(capsys, *argv, "--format", "json", "--threads", "1")
    two = run(capsys, *argv, "--format", "json", "--threads", "2")
    assert one[0] == two[0] == 0
    assert one[1] == two[1]


def test_mismatch_reporting(capsys):
    # same machinery the verify paths use, exercised on unequal inputs
    a = closed_zn(2, 5)
    b = coloured_series(zn_group(2), 5) + coloured_series(zn_group(2), 5)
    code = cli._report("left", a, "right", b)
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("MISMATCH at 1:") and "left has 1" in out and "right has 2" in out
    # past the constant term the report names the monomial diff's exponents give
    a = Series.from_terms(("q",), 4, {(0,): 1, (1,): 2, (2,): 5})
    b = Series.from_terms(("q",), 4, {(0,): 1, (1,): 2, (2,): 6})
    assert cli._report("left", a, "right", b) == 1
    assert capsys.readouterr().out == "MISMATCH at q^2: left has 5, right has 6\n"
    c = Series.from_terms(("x", "y"), 4, {(1, 2): 3})
    assert cli._report("left", c, "right", Series.zero(("x", "y"), 4)) == 1
    assert capsys.readouterr().out == "MISMATCH at x*y^2: left has 3, right has 0\n"


# a lost range check would start the whole computation, so these run in a
# fresh process with a time limit rather than in-process
@pytest.mark.parametrize(
    "argv",
    [[], ["nope", "-N", "3"], ["transfer", "z2z2", "-N", "64"],
     *([*target, "-N", str(cli.MAX_ENUM_TRUNC + 1)] for target in (
         ["enum", "klein"], ["enum", "z3diag"], ["pyramid"], ["sign", "zn:3"], ["verify", "klein"],
         ["verify", "zn:3"], ["verify", "pyramid"], ["verify", "transfer:z2z2"], ["verify", "transfer:pyramid"],
         ["verify", "transfer:pyramid-checkerboard"], ["verify", "transfer:z3diag"], ["verify", "sign:zn:3"],
         ["verify", "sign:klein"])),
     pytest.param(["verify-ops", "--basis", str(cli.MAX_BASIS + 1)], id="verify-ops-basis-above-max"),
     pytest.param(["verify-ops", "-N", str(cli.MAX_OPS_TRUNC + 1)], id="verify-ops-N-above-max"),
     pytest.param(["verify-ops", "-N", str(relations.MIN_TRUNC - 1)], id="verify-ops-N-below-min")],
    ids=lambda argv: "-".join(argv[:-2]) or "no-arguments",
)
def test_out_of_range_truncation_is_rejected_before_any_work(argv):
    src = str(Path(boxcount.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "boxcount.cli", *argv],
        env=env, capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2, proc.stderr
    assert time.monotonic() - start < 5
    assert "Traceback" not in proc.stderr


@pytest.fixture
def no_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("a route ran while its table entry was built")

    monkeypatch.setattr(enum3d, "coloured_series", refuse)
    monkeypatch.setattr(pyramid, "pyramid_series", refuse)


@pytest.mark.parametrize(
    "command, which, side",
    [("enum", "nope", None), ("enum", "zn:0", None), ("enum", "zn:8", None), ("sign", "zn:8", None),
     ("transfer", "nope", None), ("transfer", "zn:0", None), ("formula", "nope", None), ("formula", "zn:8", None),
     ("formula", "z3diag", None), ("dt", "z3diag", "orbifold"), ("dt", "z3diag", "resolution"),
     ("dt", "z3diag", "paired"), ("dt", "klein", "nope"), ("nope", "klein", None)],
)
def test_route_refuses_a_name_it_cannot_take(no_enumeration, command, which, side):
    with pytest.raises(ValueError):
        cli.route(command, which, side)


@pytest.mark.parametrize(
    "target",
    ["nope", "zn:0", "zn:8", "z3diag", "transfer:nope", "transfer:zn:0", "transfer:zn:8",
     "sign:nope", "sign:zn:8", "sign:z3diag", "pairing:nope", "pairing:zn:0", "pairing:z3diag"],
)
def test_verify_routes_refuse_a_target_they_cannot_take(no_enumeration, target):
    with pytest.raises(ValueError):
        cli.verify_routes(target)


def test_routes_are_built_without_running(no_enumeration):
    for target in ("klein", "zn:3", "pyramid", "pair", "transfer:z2z2", "transfer:pyramid", "sign:klein"):
        assert len(cli.verify_routes(target)) >= 2


@pytest.mark.parametrize(
    "make",
    [klein_group, lambda: cli.route("transfer", "z2z2"), lambda: cli.TRUNC,
     lambda: fock.FockState.vacuum(("q0",), 2), lambda: fock.MACHINES["z2z2"], lambda: formulas.KLEIN],
    ids=["Group", "Route", "Option", "FockState", "Machine", "ClosedForm"],
)
def test_records_are_immutable(make):
    # a subclass without `__slots__ = ()` would grow a __dict__ and take new attributes
    record = make()
    with pytest.raises(AttributeError):
        record.note = 1
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    assert type(record._replace()) is type(record)


def test_verify_sign_enumerates_once(capsys, monkeypatch):
    calls = []
    walk = enum3d.coloured_series
    monkeypatch.setattr(enum3d, "coloured_series", lambda group, N: calls.append(N) or walk(group, N))
    code, out = run(capsys, "verify", "sign:klein", "-N", "6")
    assert code == 0 and out.count("ok:") == 2
    assert calls == [6]


# the boxcount modules each series subcommand loads, beyond boxcount, _kernels, cli, colouring and series
SUBCOMMAND_MODULES = {
    "enum klein": {"enum3d", "ideals", "young"},
    "pyramid": {"pyramid", "ideals", "young"},
    "formula klein": {"formulas"},
    "formula pyramid": {"formulas"},
    "transfer z2z2": {"fock", "young"},
    "transfer pyramid": {"fock", "young"},
    "sign zn:3": {"dtsign", "enum3d", "ideals", "young"},
    "dt klein": {"formulas"},
}


# what argparse loads: itself, gettext for its messages and, on the first lookup, locale
UNLOADED_BY_THE_PARSER = {"argparse", "gettext", "locale"}


def loaded_modules(*args, code):
    """sys.modules after `code` ran in a fresh interpreter, one name a line."""
    src = str(Path(boxcount.__file__).resolve().parent.parent)
    probe = f"import sys\n{code}\nprint(*sorted(sys.modules), sep='\\n', file=sys.stderr)"
    proc = subprocess.run([sys.executable, *args, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines())


def test_enumeration_loads_no_closed_form_or_transfer_module():
    # every series subcommand, not only enumeration, loads just the modules its
    # route runs, and no format, not even json, imports json
    for command, own in SUBCOMMAND_MODULES.items():
        expected = {"boxcount", *(f"boxcount.{m}" for m in ("_kernels", "cli", "colouring", "series", *own))}
        for fmt in ("pretty", "json", "csv"):
            argv = [*command.split(), "-N", "3", "--format", fmt]
            loaded = loaded_modules(code=f"from boxcount import cli; cli.main({argv!r})")
            assert {m for m in loaded if m.split(".")[0] == "boxcount"} == expected, argv
            assert sorted(loaded & {"json", *UNLOADED_BY_THE_PARSER}) == [], argv


@pytest.mark.parametrize("argv", [["verify", "transfer:z2z2", "-N", "3"], ["verify-ops", "--basis", "1"], ["dt", "-h"]])
def test_verify_and_help_load_no_parser_module(argv):
    loaded = loaded_modules(code=f"from boxcount import cli; cli.main({argv!r})")
    assert sorted(loaded & UNLOADED_BY_THE_PARSER) == []


def test_startup_imports_no_typing_dataclasses_or_inspect():
    # without site, what is left is what boxcount itself imports; the
    # benchmark's setup command imports these modules in every pass.  The
    # records are named tuples, so neither typing nor __future__ loads
    loaded = loaded_modules(
        "-S",
        code="import boxcount.cli, boxcount.enum3d, boxcount.pyramid, boxcount.dtsign, boxcount.fock, boxcount.formulas\n"
             "boxcount.cli.main(['sign', 'zn:3', '-N', '4', '--format', 'json'])",
    )
    assert {"boxcount.fock", "boxcount.formulas"} <= loaded
    assert sorted(loaded & {"__future__", "typing", "dataclasses", "inspect", "json", *UNLOADED_BY_THE_PARSER}) == []


def fresh_cli(*argv, stdout, stderr=subprocess.PIPE):
    """A `python -m boxcount.cli` process, its stderr piped unless given."""
    src = str(Path(boxcount.__file__).resolve().parent.parent)
    return subprocess.Popen([sys.executable, "-m", "boxcount.cli", *argv], env=dict(os.environ, PYTHONPATH=src),
                            stdout=stdout, stderr=stderr)


def test_closed_pipe_exits_141_quietly():
    # the reader takes 10 bytes of a 290 kB document and closes the pipe; or it
    # closes the pipe at once, before verify's one line, written by the final flush
    for argv, head in (["formula", "klein", "-N", "30", "--format", "json"], b'{"vars": ['), \
                      (["verify", "klein", "-N", "6"], b""):
        proc = fresh_cli(*argv, stdout=subprocess.PIPE)
        try:
            assert proc.stdout.read(len(head)) == head
            proc.stdout.close()
            assert proc.wait(timeout=20) == 141, argv
            assert proc.stderr.read() == b"", argv
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
            proc.stderr.close()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["formula", "klein", "-N", "30", "--format", "json"], ["verify", "klein", "-N", "4"]],
                         ids=["formula", "verify"])
def test_unwritable_stdout_exits_74_with_one_line(argv):
    with open("/dev/full", "wb") as full:
        proc = fresh_cli(*argv, stdout=full)
        _, err = proc.communicate(timeout=20)
    assert proc.returncode == 74
    assert err.decode().splitlines() == ["boxcount: error: cannot write output: No space left on device"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, full_stdout, code", [
    (["nope"], False, 2),
    (["enum", "klein", "-N", "99"], False, 2),
    (["formula", "klein", "-N", "3"], True, 74),
], ids=["usage-error", "cap-error", "unwritable-stdout"])
def test_unwritable_stderr_keeps_the_exit_code(argv, full_stdout, code):
    # the message that cannot be written is dropped: a usage error still exits 2 and a
    # failed write to stdout 74, where the failed message write made both exit 1
    with open("/dev/full", "wb") as full:
        proc = fresh_cli(*argv, stdout=full if full_stdout else subprocess.PIPE, stderr=full)
        out, _ = proc.communicate(timeout=20)
    assert proc.returncode == code
    assert out in (None, b"")


# run as `python -m boxcount.cli` runs it, after registering an exit handler
FAST_EXIT_PROBE = """import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("atexit ran\\n"))
sys.argv = ["boxcount", *{argv!r}]
runpy.run_module("boxcount.cli", run_name="__main__")
"""


@pytest.mark.parametrize("argv, code", [(["enum", "zn:2", "-N", "3"], 0), (["enum", "zn:2", "-N", "x"], 2), (["-h"], 0)],
                         ids=["output", "usage-error", "help"])
def test_a_process_ends_without_interpreter_teardown(capsys, argv, code):
    src = str(Path(boxcount.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", FAST_EXIT_PROBE.format(argv=argv)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=20)
    assert proc.returncode == code, proc.stderr
    assert "atexit ran" not in proc.stderr
    if code == 0:
        assert run(capsys, *argv) == (0, proc.stdout)
    else:
        assert "boxcount enum: error:" in proc.stderr


class Exited(Exception):
    pass


@pytest.fixture
def exits(monkeypatch):
    """The codes handed to os._exit, which raises Exited in place of ending the process."""
    codes = []

    def exit_(code):
        codes.append(code)
        raise Exited

    monkeypatch.setattr(os, "_exit", exit_)
    return codes


@pytest.mark.parametrize("code", [0, 1, 141])
def test_run_exits_with_the_code_main_returns(monkeypatch, exits, code):
    monkeypatch.setattr(cli, "main", lambda: code)
    with pytest.raises(Exited):
        cli.run()
    assert exits == [code]


def test_run_exits_2_on_a_usage_error(monkeypatch, capsys, exits):
    monkeypatch.setattr(sys, "argv", ["boxcount", "enum", "zn:2", "-N", "x"])
    with pytest.raises(Exited):
        cli.run()
    assert exits == [2]
    assert "boxcount enum: error:" in capsys.readouterr().err


def test_run_lets_other_exceptions_propagate(monkeypatch, exits):
    def fail():
        raise ValueError("not a usage error")

    monkeypatch.setattr(cli, "main", fail)
    with pytest.raises(ValueError, match="not a usage error"):
        cli.run()
    assert exits == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_run_reports_output_its_own_flush_cannot_write(monkeypatch, capsys, exits):
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        monkeypatch.setattr(cli, "main", lambda: print("left in the buffer") or 0)
        with pytest.raises(Exited):
            cli.run()
    assert exits == [74]
    assert capsys.readouterr().err == "boxcount: error: cannot write output: No space left on device\n"


def test_the_console_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    module, _, name = tomllib.loads(pyproject.read_text())["project"]["scripts"]["boxcount"].partition(":")
    assert module == "boxcount.cli" and getattr(cli, name) is cli.run
