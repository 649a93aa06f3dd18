"""Time-to-verdict benchmark for formforge.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify-auto --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: each job
is one in-process ``formforge.cli.main([...])`` call, issued when the previous
one has returned.  The job list is generated from ``--seed``; every job carries
its expected answer (see workloads.py).  Passes over the job list repeat while
the next one is expected to end within ``--seconds``, and until there are
MIN_PASSES passes and MIN_SAMPLES job samples.  Set-up runs SETUP_ROUNDS times
in fresh interpreters (setup_round.py).  Every time reported is corrected for
host contention (probe.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs untraced
passes for half the time, then one traced pass, and prints the per-layer
metrics (tracer.py); the spans are written to .bench_trace/.

The last line of stdout is the result object; the line before it holds the
machine facts and run details.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from probe import REFERENCE_S, Probe

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_ROUNDS = 3
MIN_PASSES = 3
MIN_SAMPLES = 100  # so that at least 10 job samples lie beyond the 90th percentile


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _machine_facts(seed: int) -> dict:
    import sympy
    from sympy.external.gmpy import GROUND_TYPES
    import importlib.util

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "sympy_ground_types": GROUND_TYPES,
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "workload_seed": seed,
    }


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(job.argv))
        except Exception as exc:  # a raise is a failed job, not a crashed run
            code, raised = None, "%s: %s" % (type(exc).__name__, exc)
        t1 = perf_counter()
    return (t0, t1), code, out.getvalue(), err.getvalue(), raised


class Checker:
    """Checks every job result against its expectation and against the
    output of the first pass (with the timing field elapsed_s removed)."""

    def __init__(self, check_output):
        self.check_output = check_output
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.reasons = {}

    def check(self, job, code, stdout, stderr, raised):
        self.attempted += 1
        reason = raised
        payload = None
        if reason is None and stdout.strip():
            try:
                payload = json.loads(stdout)
            except ValueError:
                reason = "stdout is not JSON"
        if reason is None:
            reason = self.check_output(job, code, payload, stderr)
        if isinstance(payload, dict):
            payload.pop("elapsed_s", None)
        canon = (code, json.dumps(payload, sort_keys=True))
        if job.id not in self.first:
            self.first[job.id] = canon
        elif canon != self.first[job.id] and reason is None:
            reason = "output differs from the first pass"
        if reason is not None:
            self.failed += 1
            self.reasons.setdefault(job.id, reason)


def _run_pass(cli, jobs, checker, tracer=None):
    """One pass over the job list; returns the (start, end) of each job."""
    gc.collect()
    results = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job.id
        results.append(_run_job(cli, job))
    for job, (_, code, stdout, stderr, raised) in zip(jobs, results):
        checker.check(job, code, stdout, stderr, raised)
    return [r[0] for r in results]


def _setup(workload, seed, workdir, src):
    """SETUP_ROUNDS fresh-interpreter set-ups (setup_round.py).  Returns the
    round reports and the job list written by the last round."""
    import workloads as wl

    reports = []
    for r in range(SETUP_ROUNDS):
        rdir = os.path.join(workdir, "round%d" % r)
        os.makedirs(rdir)
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_round.py"), workload, str(seed), rdir,
             src],
            capture_output=True, text=True, timeout=170, check=True,
        )
        reports.append(json.loads(out.stdout.strip().splitlines()[-1]))
    with open(os.path.join(rdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = [wl.Job(**d) for d in json.load(fh)]
    return reports, jobs


def _timed(cli, jobs, checker, seconds, min_passes=MIN_PASSES, min_samples=MIN_SAMPLES):
    """Passes while the next one is expected to end within `seconds`, and
    until the minimum counts are reached.  Returns each pass's job windows."""
    passes = []
    start = perf_counter()
    while True:
        windows = _run_pass(cli, jobs, checker)
        passes.append(windows)
        elapsed = perf_counter() - start
        last = windows[-1][1] - windows[0][0]
        if (elapsed + last > seconds and len(passes) >= min_passes
                and len(passes) * len(jobs) >= min_samples):
            return passes


class Timings:
    """Job latencies of a run, corrected for host contention (probe.py)."""

    def __init__(self, probe, passes):
        self.jobs = [[probe.corrected(t0, t1) for t0, t1 in p] for p in passes]
        self.raw_passes = [p[-1][1] - p[0][0] for p in passes]
        self.slowdown = statistics.median(probe.durations) / REFERENCE_S

    @property
    def passes(self):
        return [sum(p) for p in self.jobs]

    @property
    def samples(self):
        return [dt for p in self.jobs for dt in p]

    def slowest(self, jobs, k=8):
        med = {job.id: statistics.median(p[i] for p in self.jobs) for i, job in enumerate(jobs)}
        return {jid: round(med[jid], 4) for jid in sorted(med, key=med.get)[-k:]}


def _end_to_end(timings, setup_s, checker):
    samples = timings.samples
    return {
        "solve_s": (statistics.median(timings.passes), "s"),
        "job_p50_s": (statistics.median(samples), "s"),
        "job_p90_s": (_percentile(samples, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - checker.failed / checker.attempted, "1"),
    }


def _per_layer(tracer, traced_wall, untraced_wall):
    self_s, calls = tracer.self_times()
    c = tracer.counts

    def s(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    def n(*names):
        return sum(calls.get(x, 0) for x in names)

    decode = ("jsonio.loads_file", "jsonio.decode_form", "jsonio.decode_scaled_witness",
              "jsonio.decode_structure_matrices", "jsonio.decode_algebra",
              "jsonio.decode_witness_payload")
    encode = ("jsonio.encode_constructed_form", "jsonio.encode_verification_report",
              "jsonio.encode_obstruction_report", "jsonio.encode_decomposition",
              "jsonio.dumps")
    builds = tuple(k for k in calls if k.startswith("constructions."))
    verify = tuple(k for k in calls if k.startswith("witness.verify_"))
    engines = c["witness.verify_calls"]
    m = {
        "cli.self_s": (s("cli.main"), "s"),
        "jsonio.decode_s": (s(*decode), "s"),
        "jsonio.decode_calls": (n("jsonio.loads_file"), "count"),
        "jsonio.decode_bytes": (c["jsonio.decode_bytes"], "bytes"),
        "jsonio.encode_s": (s(*encode), "s"),
        "jsonio.encode_bytes": (c["jsonio.encode_bytes"], "bytes"),
        "constructions.build_s": (s(*builds), "s"),
        "constructions.build_calls": (n(*builds), "count"),
        "witness.verify_s": (s(*verify), "s"),
        "witness.verify_calls": (engines, "count"),
        "witness.symbolic_share": (c["witness.symbolic_calls"] / engines if engines else 0.0, "1"),
        "witness.estimate_ratio": (tracer.estimate_ratio(), "1"),
        "witness.samples": (c["witness.samples"], "count"),
        "witness.samples_per_s": (
            c["witness.samples"] / c["witness.random_s"] if c["witness.random_s"] else 0.0, "1/s"),
        "witness.obstruction_s": (s("witness.krull_schmidt_obstruction"), "s"),
        "poly.mul_calls": (n("poly.mul"), "count"),
        "poly.mul_s": (s("poly.mul"), "s"),
        "poly.mul_terms_out": (c["poly.mul_terms_out"], "count"),
        "poly.mul_term_products": (c["poly.mul_term_products"], "count"),
        "poly.compose_calls": (n("poly.compose"), "count"),
        "poly.compose_s": (s("poly.compose"), "s"),
        "poly.compose_terms_out": (c["poly.compose_terms_out"], "count"),
        "poly.add_s": (s("poly.add"), "s"),
        "poly.verify_identity_s": (s("poly.verify_identity"), "s"),
        "poly.eval_calls": (n("poly.eval"), "count"),
        "poly.eval_s": (s("poly.eval"), "s"),
        "poly.eval_terms": (c["poly.eval_terms"], "count"),
        "poly.ring_det_calls": (n("poly.ring_matrix_determinant"), "count"),
        "poly.ring_det_s": (s("poly.ring_matrix_determinant"), "s"),
        "coeffield.q_mul_calls": (c["coeffield.q_mul_calls"], "count"),
        "coeffield.q_add_calls": (c["coeffield.q_add_calls"], "count"),
        "coeffield.q_inv_calls": (c["coeffield.q_inv_calls"], "count"),
        "coeffield.etale_mul_calls": (c["coeffield.etale_mul_calls"], "count"),
        "coeffield.etale_inv_calls": (c["coeffield.etale_inv_calls"], "count"),
        "linalg.rref_calls": (n("linalg.rref"), "count"),
        "linalg.rref_s": (s("linalg.rref"), "s"),
        "linalg.rref_cells": (c["linalg.rref_cells"], "count"),
        "linalg.solve_calls": (n("linalg.solve"), "count"),
        "linalg.solve_s": (s("linalg.solve"), "s"),
        "linalg.mat_mul_calls": (n("linalg.mat_mul"), "count"),
        "linalg.mat_mul_s": (s("linalg.mat_mul"), "s"),
        "linalg.det_calls": (n("linalg.determinant"), "count"),
        "linalg.det_s": (s("linalg.determinant"), "s"),
        "forms.polarize_s": (s("forms.polarize"), "s"),
        "forms.radical_s": (s("forms.radical"), "s"),
        "forms.substitute_vectors_s": (s("forms.substitute_vectors"), "s"),
        "decompose.center_s": (s("decompose.center_algebra"), "s"),
        "decompose.center_dim": (c["decompose.center_dim"], "count"),
        "decompose.idempotents_s": (s("decompose.primitive_idempotents"), "s"),
        "decompose.components": (c["decompose.components"], "count"),
        "decompose.sympy_factor_calls": (n("decompose.sympy_factor"), "count"),
        "decompose.sympy_factor_s": (s("decompose.sympy_factor"), "s"),
        "decompose.krull_schmidt_s": (s("decompose.krull_schmidt_decompose"), "s"),
        "decompose.absolute_s": (s("decompose.is_absolutely_indecomposable"), "s"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "1"),
    }
    layers = {}
    for name, value in self_s.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + value
    return m, layers


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "formforge", "cli.py")):
        print("error: run from the root of a formforge checkout (no src/formforge)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(wl.WORKLOADS)), file=sys.stderr)
        return 2
    import sympy  # noqa: F401  (loaded lazily by the first factoring otherwise)
    from formforge import cli

    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=scratch)
    try:
        rounds, jobs = _setup(args.workload, args.seed, workdir, src)
        wl.fill_memoised_recipes()
        checker = Checker(wl.check_output)
        info = {"machine": _machine_facts(args.seed), "workload": args.workload,
                "jobs_per_pass": len(jobs)}
        with Probe() as probe:
            if args.trace:
                from tracer import Tracer

                passes = _timed(cli, jobs, checker, args.seconds / 2, min_passes=2,
                                min_samples=0)
                tracer = Tracer()
                tracer.install()
                try:
                    traced = _run_pass(cli, jobs, checker, tracer)
                finally:
                    tracer.uninstall()
            else:
                passes = _timed(cli, jobs, checker, args.seconds)
        timings = Timings(probe, passes)
        setup_s = statistics.median(
            (r["seconds"] - r["probe_s"]) * REFERENCE_S / r["probe_median_s"] for r in rounds)
        info.update(passes=len(passes), raw_pass_s=[round(x, 4) for x in timings.raw_passes],
                    probe_median_slowdown=round(timings.slowdown, 4))
        if args.trace:
            traced_s = sum(probe.corrected(t0, t1) for t0, t1 in traced)
            metrics, layers = _per_layer(tracer, traced_s, statistics.median(timings.passes))
            trace_dir = os.path.join(root, ".bench_trace")
            os.makedirs(trace_dir, exist_ok=True)
            span_file = os.path.join(
                trace_dir, "%s-seed%d.spans.tsv.gz" % (args.workload, args.seed))
            tracer.write_spans(span_file)
            info.update(spans=len(tracer.spans), span_file=os.path.relpath(span_file, root),
                        layer_self_s={k: round(v, 6) for k, v in sorted(layers.items())},
                        top_layer=max(layers, key=layers.get))
        else:
            metrics = _end_to_end(timings, setup_s, checker)
            info.update(job_samples=len(timings.samples), slowest_jobs=timings.slowest(jobs))
        info["failures"] = checker.reasons
        for jid, reason in sorted(checker.reasons.items()):
            print("FAILED %s: %s" % (jid, reason), file=sys.stderr)
        print(json.dumps({"info": info}, sort_keys=True))
        print(json.dumps({
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
