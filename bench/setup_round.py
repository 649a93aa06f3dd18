"""One set-up round in a fresh interpreter, as a user pays it.

    python3 bench/setup_round.py WORKLOAD SEED OUTDIR SRC

Imports formforge and sympy, fills the memoised recipes, writes the workload's
input files and a jobs.json manifest into OUTDIR, and prints one JSON line:
the raw seconds, the probe's own seconds inside them, and the median probe
duration (probe.py), so that run.py can correct the round for host contention.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    workload, seed, outdir, src = argv[0], int(argv[1]), argv[2], argv[3]
    sys.path.insert(0, HERE)
    from probe import Probe

    with Probe() as probe:
        t0 = perf_counter()
        sys.path.insert(0, src)
        import formforge.cli  # noqa: F401
        import sympy  # noqa: F401
        import workloads

        workloads.fill_memoised_recipes()
        jobs = workloads.build_workload(workload, seed, outdir)
        t1 = perf_counter()
    with open(os.path.join(outdir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump([vars(job) for job in jobs], fh)
    overhead, median = probe.window(t0, t1)
    print(json.dumps({"seconds": t1 - t0, "probe_s": overhead, "probe_median_s": median}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
