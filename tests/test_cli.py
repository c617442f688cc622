import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import boxcount
from boxcount import cli
from boxcount.colouring import zn_group
from boxcount.enum3d import coloured_series
from boxcount.formulas import closed_zn


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


def test_verify_ops(capsys):
    code, out = run(capsys, "verify-ops", "-N", "4", "--basis", "2")
    assert code == 0
    assert out.count("ok:") == 6


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
                 # verify-ops truncation outside [0, 8]
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


# a lost range check would start the whole computation, so these run in a
# fresh process with a time limit rather than in-process
@pytest.mark.parametrize(
    "argv",
    [["transfer", "z2z2", "-N", "64"],
     *([*target, "-N", str(cli.MAX_ENUM_TRUNC + 1)] for target in (
         ["enum", "klein"], ["pyramid"], ["sign", "zn:3"], ["verify", "klein"], ["verify", "pyramid"],
         ["verify", "transfer:pyramid"], ["verify", "sign:zn:3"]))],
    ids=lambda argv: "-".join(argv[:-2]),
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
