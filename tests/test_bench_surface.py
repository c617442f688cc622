"""What the benchmark in perfbench/ reads from boxcount must keep working.

The runner imports boxcount in-process to compute reference series, the
tracer wraps functions it finds by name, and every operation is a CLI
invocation.  These tests derive all three from perfbench's own lists, so a
change that renames or removes something the benchmark uses fails here
rather than in a benchmark run.  Nothing under perfbench/ is modified.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from boxcount import _kernels, cli  # noqa: E402


def _module(modname):
    return importlib.import_module(f"boxcount.{modname}")


@pytest.mark.parametrize("modname, path, name, kind", tracer.PROBES)
def test_probe_targets_resolve(modname, path, name, kind):
    assert tracer._resolve(_module(modname), path) is not None, f"{modname}.{path}"


@pytest.mark.parametrize("modname, attr, name", tracer.CACHES)
def test_cache_targets_have_cache_info(modname, attr, name):
    assert callable(getattr(getattr(_module(modname), attr, None), "cache_info", None)), f"{modname}.{attr}"


@pytest.fixture(scope="module")
def checker():
    return workloads.Checker()


@pytest.mark.parametrize("op", workloads.CONTROLS.values(), ids=lambda op: op.label)
def test_control_operations_pass_the_checker(capsys, checker, op):
    code = cli.main([*op.args, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert checker.check(op, out) is None


def test_every_reference_kind_computes():
    # every reference a workload names, digest recomputations included, at a
    # small N (the last argument of a reference is always its truncation)
    for ops in workloads.WORKLOADS.values():
        for op in ops:
            kind, *args = op.reference
            if kind == "digest":
                kind, *args = args[1:]
            series = workloads._REFERENCES[kind](*args[:-1], 2)
            assert series.trunc == 2, op.label


def test_backend_is_a_string():
    assert isinstance(_kernels.BACKEND, str)


def test_traced_controls_yield_every_layer_metric(tmp_path):
    # a probe or cache whose target no longer resolves drops its metrics from
    # the per-layer report; zeros are fine, absence is not
    raws = []
    for i, op in enumerate(workloads.CONTROLS.values()):
        trace_file = tmp_path / f"op{i}.json"
        argv = run.traced_argv(op, trace_file)
        proc = subprocess.run(argv, cwd=ROOT, env=run.CHILD_ENV, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, (op.label, proc.stderr)
        raws.append(json.loads(trace_file.read_text())["raw"])
    values = tracer.layer_values(tracer.merge(raws))
    # measured by the runner, not inside the traced process
    runner_side = {"cli.output_bytes", "trace.overhead"}
    missing = [name for name, _ in tracer.LAYER_METRICS if name not in runner_side and name not in values]
    assert not missing


def test_setup_command_runs_in_the_child_environment():
    proc = subprocess.run(run.SETUP_ARGV, cwd=ROOT, env=run.CHILD_ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr

