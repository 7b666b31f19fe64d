"""Run the benchmark over seeds 1-10 and summarize each metric's spread.

    python3 perfbench/spread.py [--trace 1]

Runs `perfbench/run.py` once per (workload, seed), one run at a time, from
the root of the checkout, with the workloads and run length of
`BENCHMARK.json`.  Prints one JSON line per run, then a Markdown table per
workload: median, first and third quartile
(`statistics.quantiles(values, n=4)`) and spread = (q3 - q1) / median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run([sys.executable, *bench["command"][1:], *argv], cwd=ROOT, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(json.dumps({"workload": workload, "seed": seed, **result}), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}\n\n| metric | median | q1 | q3 | spread |\n|---|---|---|---|---|")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
