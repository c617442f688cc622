"""Run perfbench/run.py in pairs on two source trees and compare their end-to-end metrics.

Usage (from the repository root):

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --pairs N --seconds S

W is one workload of BENCHMARK.json; "all" is refused, since perfbench
nests the metrics of such a run by workload.  Each tree is a checkout
holding perfbench/run.py and src/boxcount.  Pair i runs
`perfbench/run.py --workload W --seed i --seconds S` once in each tree, one
run at a time; the parent goes first in odd pairs and the change in even
ones, so that neither side always runs on the warmer machine.  The last
line of each run's output is its JSON result.

For each end-to-end metric of BENCHMARK.json it prints every pair's two
values, then the two medians, how many pairs the change won (its value
better in the metric's direction) and the spread between the quartiles of
the parent's values.  A claimed gain holds when the change wins nearly
every pair and the medians differ by more than that spread.  It also
prints each side's failed operations, summed over its runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds):
    """The JSON result of one perfbench run in `tree`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{tree}: perfbench/run.py exited {proc.returncode} without a result\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values):
    """The distance between the first and third quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="the parent's source tree")
    parser.add_argument("change", type=Path, help="the change's source tree")
    bench = json.loads(BENCHMARK.read_text())
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent, args.change)))
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]

    results = {side: [] for side in SIDES}
    for i in range(1, args.pairs + 1):
        order = SIDES if i % 2 else SIDES[::-1]
        for side in order:
            results[side].append(run_once(trees[side], args.workload, i, args.seconds))
        walls = "  ".join(f"{side} {results[side][-1]['metrics']['wall_s']['value']:.4f}" for side in SIDES)
        print(f"pair {i} (seed {i}, {order[0]} first): wall_s {walls}", file=sys.stderr, flush=True)

    print(f"workload {args.workload}: {args.pairs} pairs of {args.seconds:g} s runs")
    for name, better in metrics:
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(results["parent"], results["change"])
                 if name in p["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        parent, change = zip(*pairs)
        wins = sum(c < p if better == "lower" else c > p for p, c in pairs)
        mp, mc = statistics.median(parent), statistics.median(change)
        print(f"{name:14s} median {mp:.4f} -> {mc:.4f} ({(mc - mp) / mp:+.1%}), change better in "
              f"{wins}/{len(pairs)}, parent quartile spread {spread(parent):.4f}")
        print("    pairs " + ", ".join(f"{p:.4f}->{c:.4f}" for p, c in pairs))
    for side in SIDES:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"{side} failed {failed} of {attempted} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
