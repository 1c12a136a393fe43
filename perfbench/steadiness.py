"""Steadiness check: run workloads under several seeds and print each spread.

    python3 perfbench/steadiness.py [--runs 10] [--seed 1] WORKLOAD ...

Runs ``run.py`` once per seed (``--seed``, ``--seed`` + 1, ...) at the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it prints
the median over the runs and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median.  A spread that is not below a third of the metric's bound is
flagged.  The raw seconds that the run prints beside its result
(``grid_s`` and the like) get a spread too, for comparison with the
``*_ref`` metrics.  The exit code is 1 if any run failed its correctness
gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import RAW

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = [name for name, _ in RAW]
    status = 0
    for workload in args.workloads:
        values = {name: [] for name in (*bounds, *raw)}
        for seed in range(args.seed, args.seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if done.returncode:
                print(f"{workload} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                status = 1
                continue
            lines = done.stdout.splitlines()
            result = json.loads(lines[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for line in lines[:-1]:
                fields = line.split()
                if fields and fields[0] in raw:
                    values[fields[0]].append(float(fields[1]))
        print(f"{workload}: {args.runs} runs, seeds {args.seed}.."
              f"{args.seed + args.runs - 1}")
        for name, series in values.items():
            if len(series) < 2:
                print(f"  {name:16} too few successful runs")
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            if name in bounds:
                flag = ("" if spread < bounds[name] / 3
                        else "  above bound/3")
                tail = f"  bound {bounds[name]}{flag}"
            else:
                tail = "  (printed only)"
            print(f"  {name:17} median {median:10.5g}  spread {spread:.4f}"
                  f"{tail}")
        print("  values " + json.dumps(values), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
