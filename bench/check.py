"""The benchmark's own check: is the traced run repeatable?

    python3 bench/check.py

For each workload it makes two traced runs of SECONDS on seed SEED and one on
SEED + 1.  The two runs on one seed must report exactly the same counts (every per-layer
metric named *_calls, *_terms*, *_cells, and every coeffield.* counter), and
the second seed must keep the same top self-time layer.  Exits 1 on any
difference.  It then runs the jobs that formforge answers wrongly today
(workloads.known_defect_jobs) and reports whether each still fails.  Run it
from the root of a checkout, like run.py.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 1
SECONDS = 4


def is_count(name: str) -> bool:
    return (name.endswith("_calls") or "_terms" in name or name.endswith("_cells")
            or name.startswith("coeffield."))


def traced_run(workload: str, seed: int):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=900, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])["metrics"]


def report_known_defects():
    sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]
    import workloads
    from formforge import cli
    from run import Checker, _run_job

    checker = Checker(workloads.check_output)
    os.makedirs(".bench_work", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_work") as workdir:
        jobs = workloads.known_defect_jobs(workdir)
        for job in jobs:
            checker.check(job, *_run_job(cli, job)[1:])
    with contextlib.suppress(OSError):
        os.rmdir(".bench_work")
    for job in jobs:
        print("known defect %s: %s" % (
            job.id, checker.reasons.get(job.id, "now passes; move it back into its workloads")))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    ok = True
    for workload in workloads:
        info_a, a = traced_run(workload, SEED)
        _, b = traced_run(workload, SEED)
        info_c, _ = traced_run(workload, SEED + 1)
        diffs = [k for k in a if is_count(k) and a[k]["value"] != b[k]["value"]]
        for k in diffs:
            print("%s: %s differs between runs on seed %d: %s vs %s"
                  % (workload, k, SEED, a[k]["value"], b[k]["value"]))
        same_top = info_a["top_layer"] == info_c["top_layer"]
        print("%s: %d counts compared, %d differ; top self-time layer %s on seed %d, %s on seed %d"
              % (workload, sum(map(is_count, a)), len(diffs), info_a["top_layer"], SEED,
                 info_c["top_layer"], SEED + 1))
        ok = ok and not diffs and same_top
    print("check %s" % ("passed" if ok else "FAILED"))
    report_known_defects()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
