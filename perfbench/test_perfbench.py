"""Tests of the benchmark itself: metric lists, work counters, probes, checks.

Run from the repository root:  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from run import E2E_METRICS  # noqa: E402


def traced_raw(tmp_path, *args):
    """Raw trace totals of one traced CLI invocation."""
    out = tmp_path / f"trace-{len(list(tmp_path.iterdir()))}.json"
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": "src", "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(out), *args, "--format", "json"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())["raw"]


def coefficient_sum(series):
    return sum(c for _, c in series.items())


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == E2E_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_runs_every_route():
    for ops in workloads.WORKLOADS.values():
        assert {op.route for op in ops} == set(workloads.ROUTES)


@pytest.mark.parametrize(
    "args, metric, closed, expected",
    [
        (("enum", "klein", "-N", "10"), "enum3d.piles", ("klein", 10), 1124),
        (("pyramid", "-N", "10"), "pyramid.piles", ("pyramid", 10), 720),
        (("enum", "klein", "-N", "16"), "enum3d.piles", ("klein", 16), 28290),
    ],
)
def test_pile_counts_equal_closed_form_coefficient_sums(tmp_path, args, metric, closed, expected):
    values = tracer.layer_values(tracer.merge([traced_raw(tmp_path, *args)]))
    assert values[metric] == expected
    assert coefficient_sum(workloads._closed(*closed)) == expected


def test_counts_repeat_exactly(tmp_path):
    ops = [
        ("enum", "klein", "-N", "9", "--threads", "2"),
        ("sign", "zn:3", "-N", "7"),
        ("pyramid", "-N", "8"),
        ("transfer", "pyramid", "-N", "7"),
        ("formula", "klein", "-N", "10"),
        ("dt", "klein", "-N", "10", "--side", "resolution"),
    ]
    units = dict(tracer.LAYER_METRICS)
    runs = []
    for _ in range(2):
        raws = [traced_raw(tmp_path, *args) for args in ops]
        values = tracer.layer_values(tracer.merge(raws))
        runs.append({k: v for k, v in values.items() if units[k] in ("count", "bytes")})
    assert runs[0] == runs[1]
    assert all(v > 0 for v in runs[0].values()), runs[0]


def test_missing_probe_targets_report_absent(monkeypatch):
    from boxcount import enum3d, fock

    # register every target with monkeypatch so the wrappers are undone
    for modname, path, _name, _kind in tracer.PROBES:
        module = __import__(f"boxcount.{modname}", fromlist=["_"])
        owner, attr = tracer._resolve(module, path)
        monkeypatch.setattr(owner, attr, getattr(owner, attr))
    monkeypatch.delattr(enum3d, "_descending_chains")
    monkeypatch.delattr(fock, "apply_op")
    t = tracer.Tracer()
    missing = tracer.install(t)
    tracer.read_caches(t)
    assert missing == ["fock.apply_op"]
    raw, _ = t.raw()
    values = tracer.layer_values(tracer.merge([raw]))
    assert "enum3d.chain_cache.hits" not in values
    assert "fock.apply_op.calls" not in values
    assert "fock.partner_cache.misses" in values
    assert "kernels.mul_terms.calls" in values


def test_checker_reports_first_differing_monomial():
    from boxcount.formulas import closed_klein

    op = workloads.CONTROLS["transfer_s"]
    data = closed_klein(8).to_json_dict()
    checker = workloads.Checker()
    assert checker.check(op, json.dumps(data)) is None
    data["terms"][5]["coef"] = str(int(data["terms"][5]["coef"]) + 1)
    assert "first mismatch at" in checker.check(op, json.dumps(data))
    assert checker.check(op, "not json").startswith("unparsable output")


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
