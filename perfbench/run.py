"""End-to-end benchmark of the boxcount CLI, with an optional traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload enumerate|transfer|closed|all \\
        --seed N --seconds S --trace 0|1

Every operation is a fresh ``python -m boxcount.cli ... --format json``
process, run one at a time (a closed loop with one client), so each one pays
interpreter start-up and cold caches as a user does.  Operations run in
passes over the workload's list, in an order shuffled by the seed, until
``--seconds`` have elapsed; each pass's output is checked after the pass,
outside the timed region.  End-to-end times are scaled to a reference
machine speed, measured by perfbench/calibrate.py during the run (see
perfbench/README.md).

With ``--trace 1`` every operation runs twice per pass, untraced and then
under perfbench/tracer.py, and the per-layer metrics are reported instead of
the end-to-end ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
# the runner imports boxcount itself to compute reference series
sys.path[:0] = [str(Path(__file__).resolve().parent), str(ROOT / "src")]

from tracer import LAYER_METRICS, layer_values, merge  # noqa: E402
from workloads import ROUTES, WORKLOADS, Checker  # noqa: E402

OUT = ROOT / ".perfbench_out"
TRACER = Path(__file__).with_name("tracer.py")
LAUNCHER = Path(__file__).with_name("launcher.py")
CALIBRATE_ARGV = [sys.executable, str(Path(__file__).with_name("calibrate.py"))]
# Median calibration time on the reference machine (2 cores, Python 3.11.7);
# end-to-end times are reported at this machine speed.
CAL_REF_S = 0.12

E2E_METRICS = [("setup_s", "s"), ("wall_s", "s")] + [(r, "s") for r in ROUTES] + [("peak_rss_mib", "MiB")]
SETUP_PER_PASS = 3
SETUP_ARGV = [
    sys.executable, "-c",
    "import boxcount.cli, boxcount.enum3d, boxcount.pyramid, "
    "boxcount.dtsign, boxcount.fock, boxcount.formulas",
]
OP_TIMEOUT_S = 120

# Every child gets exactly this environment: no BOXCOUNT_THREADS (it would
# reshard every enumeration) and a fixed hash seed.
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": "src",
    "PYTHONHASHSEED": "0",
}


class Spawned:
    __slots__ = ("wall", "code", "stdout", "maxrss_kib", "stderr")


class Launcher:
    """The launcher process (perfbench/launcher.py) and its request pipe."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], cwd=ROOT, env=CHILD_ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def spawn(self, argv):
        """Run one child to completion; wall time covers spawn to reaping."""
        stderr = OUT / "stderr.txt"
        req = {"argv": argv, "stderr": str(stderr), "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req).encode() + b"\n")
        self.proc.stdin.flush()
        head = self.proc.stdout.readline()
        if not head:
            raise RuntimeError("the launcher exited")
        head = json.loads(head)
        res = Spawned()
        res.wall, res.code, res.maxrss_kib = head["wall"], head["code"], head["maxrss_kib"]
        res.stdout = self.proc.stdout.read(head["nbytes"])
        res.stderr = stderr.read_text(errors="replace") if res.code else ""
        return res

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def cli_argv(op):
    return [sys.executable, "-m", "boxcount.cli", *op.args, "--format", "json"]


def traced_argv(op, trace_file):
    return [sys.executable, str(TRACER), str(trace_file), *op.args, "--format", "json"]


def environment(launcher, seed, workload, trace):
    """What a result depends on besides the code: recorded with every result."""
    probe = launcher.spawn([
        sys.executable, "-c",
        "import json, sys; from boxcount import _kernels; "
        "print(json.dumps({'backend': _kernels.BACKEND, 'python': sys.version.split()[0]}))",
    ])
    if probe.code != 0:
        raise SystemExit(f"cannot import boxcount from src/:\n{probe.stderr}")
    env = json.loads(probe.stdout)
    env.update(
        nproc=len(os.sched_getaffinity(0)),
        git_commit=git_commit(),
        source_sha256=source_digest(),
        seed=seed,
        workload=workload,
        trace=trace,
        child_env=CHILD_ENV,
    )
    return env


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- passes ---------------------------------------------------------------------


class Pass:
    def __init__(self):
        self.route_s = {r: 0.0 for r in ROUTES}
        self.wall_s = 0.0
        self.peak_rss_mib = 0.0
        self.outputs = []  # (op, Spawned) for checking after the pass
        self.traced_s = 0.0
        self.ratios = []  # (op label, traced / untraced)
        self.raws = []
        self.output_bytes = 0
        self.setup_s = []
        self.cal_s = []


def run_pass(launcher, order, trace, trace_dir, index):
    p = Pass()
    # machine-speed samples, spread over the pass
    samples_at = {len(order) * k // SETUP_PER_PASS for k in range(SETUP_PER_PASS)}
    for i, op in enumerate(order):
        if not trace and i in samples_at:
            p.setup_s.append(launcher.spawn(SETUP_ARGV).wall)
            p.cal_s.append(launcher.spawn(CALIBRATE_ARGV).wall)
        res = launcher.spawn(cli_argv(op))
        p.outputs.append((op, res))
        p.route_s[op.route] += res.wall
        p.wall_s += res.wall
        p.peak_rss_mib = max(p.peak_rss_mib, res.maxrss_kib / 1024)
        if trace:
            trace_file = trace_dir / f"pass{index}-op{i}.json"
            traced = launcher.spawn(traced_argv(op, trace_file))
            p.outputs.append((op, traced))
            p.traced_s += traced.wall
            p.ratios.append((op.label, traced.wall / res.wall))
            p.output_bytes += len(traced.stdout)
            if traced.code == 0:
                p.raws.append(json.loads(trace_file.read_text())["raw"])
    return p


def check_pass(p, checker):
    """Check every output of a pass; return the number that failed."""
    failed = 0
    for op, res in p.outputs:
        if res.code != 0:
            reason = f"exit code {res.code}: {res.stderr.strip()[-500:]}"
        else:
            reason = checker.check(op, res.stdout)
        if reason:
            failed += 1
            print(f"FAIL {op.label}: {reason}")
    p.outputs = []
    return failed


# -- statistics -----------------------------------------------------------------


def summary(values):
    """(median, first quartile, third quartile, sample count)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def show(name, unit, values, measured=None):
    med, q1, q3, n = summary(values)
    line = f"  {name:34s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={n}"
    if measured is not None:
        line += f"  (measured {statistics.median(measured):.6g})"
    print(line)
    return med


def speed_scales(passes):
    """Per pass, the factor from the machine's speed to the reference speed.

    The machine speed of a pass is the median calibration time over it and
    its neighbours: about ten seconds, shorter than the machine's states.
    """
    scales = []
    for k in range(len(passes)):
        window = passes[max(0, k - 1):k + 2]
        scales.append(CAL_REF_S / statistics.median(c for p in window for c in p.cal_s))
    return scales


def end_to_end(passes):
    """Medians over passes of times scaled to the reference machine speed."""
    show("calibration_s", "s", [c for p in passes for c in p.cal_s])
    scales = speed_scales(passes)
    metrics = {}
    for name, unit in E2E_METRICS:
        if name == "setup_s":
            pairs = [(s, k) for p, k in zip(passes, scales) for s in p.setup_s]
        elif name == "wall_s":
            pairs = [(p.wall_s, k) for p, k in zip(passes, scales)]
        elif name == "peak_rss_mib":
            pairs = [(p.peak_rss_mib, 1.0) for p in passes]
        else:
            pairs = [(p.route_s[name], k) for p, k in zip(passes, scales)]
        raw = [v for v, _ in pairs]
        if unit == "s":
            value = show(name, unit, [v * k for v, k in pairs], measured=raw)
        else:
            value = show(name, unit, raw)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def per_layer(passes):
    per_pass = []
    for p in passes:
        values = layer_values(merge(p.raws))
        values["cli.output_bytes"] = p.output_bytes
        values["trace.overhead"] = p.traced_s / p.wall_s
        per_pass.append(values)
    metrics = {}
    for name, unit in LAYER_METRICS:
        seen = [v[name] for v in per_pass if name in v]
        if len(seen) < len(per_pass):
            print(f"  {name:34s} absent (its probe target was not found)")
            continue
        value = show(name, unit, seen)
        if unit in ("count", "bytes"):
            # work counts repeat exactly; report the count itself
            if len(set(seen)) > 1:
                print(f"  WARNING: {name} differs between passes: {seen}")
            value = seen[0]
        metrics[name] = {"value": value, "unit": unit}
    for label, ratio in passes[0].ratios:
        print(f"  trace.overhead[{label}] = {ratio:.3f}")
    return metrics


# -- driver ----------------------------------------------------------------------


def run_workload(launcher, workload, seed, seconds, trace):
    ops = WORKLOADS[workload]
    env = environment(launcher, seed, workload, trace)
    checker = Checker()
    checker.prepare(ops)
    trace_dir = OUT / f"trace-{workload}"
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    launcher.spawn(SETUP_ARGV)  # writes the bytecode caches

    rng = random.Random(seed)
    passes = []
    attempted = failed = 0
    start = perf_counter()
    last = 0.0
    # a new pass starts while it would end, at the last pass's length, no
    # more than half a pass after the deadline
    while not passes or perf_counter() - start + last / 2 < seconds:
        t0 = perf_counter()
        order = rng.sample(ops, len(ops))
        p = run_pass(launcher, order, trace, trace_dir, len(passes))
        last = perf_counter() - t0
        attempted += len(p.outputs)
        failed += check_pass(p, checker)
        passes.append(p)

    env["passes"] = len(passes)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {workload}: {len(passes)} passes of {len(ops)} operations, "
          f"fail_rate {failed / attempted:.6g} ({failed}/{attempted})")
    metrics = per_layer(passes) if trace else end_to_end(passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "boxcount" / "cli.py").is_file():
        print(f"no boxcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    with Launcher() as launcher:
        results = {w: run_workload(launcher, w, args.seed, args.seconds, args.trace) for w in names}
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {w: r["metrics"] for w, r in results.items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
