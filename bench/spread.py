"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload verify-auto [--runs 10]

Runs run.py once per seed (1, 2, ..., runs) with the
run_seconds of BENCHMARK.json, and prints for each end-to-end metric the
median, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median and the metric's bound.  Run it from the root of a
checkout, like run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    values = {}
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, timeout=900, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print("seed %d: %s" % (seed, json.dumps(
            {k: round(v["value"], 4) for k, v in result["metrics"].items()})), flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print("%-12s %10s %10s %10s %8s %6s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print("%-12s %10.4f %10.4f %10.4f %8.4f %6.2f"
              % (m["name"], med, q1, q3, (q3 - q1) / med, m["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
