"""One workload in a fresh interpreter: set up, run whole rounds, report raw samples.

Started by run.py, which passes the CLOCK_MONOTONIC reading taken just
before it started this process, so set-up time counts the interpreter's
start, `import semidual` (from src/) and building the inputs. Prints one
JSON object on stdout. The jobs' outputs are checked here, outside the
timed regions.
"""

import argparse
import importlib
import json
import os
import random
import resource
import shutil
import sys
import tempfile
import time

import refkernel

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = {"slat_duality": "wl_slat", "graded_action": "wl_graded",
             "maxmonoid_dual": "wl_maxmonoid"}
# Enough job samples for a 90th percentile with ten samples beyond it.
MIN_SAMPLES = 100


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_rounds(jobs, seed, seconds, tracer):
    """Whole shuffled rounds of every job until `seconds` have passed.

    With a tracer, odd rounds are traced and even ones are not, so the
    two interleave and see the same drift; the round count is then even.
    Each job is bracketed by kernel timings for cost_ref.
    """
    samples = []
    attempted = failed = 0
    problems = []
    start = time.perf_counter()
    r = 0
    while (r == 0 or time.perf_counter() - start < seconds or len(samples) < MIN_SAMPLES
           or (tracer is not None and r % 2 == 1)):
        traced = tracer is not None and r % 2 == 1
        order = list(range(len(jobs)))
        random.Random(f"{seed}:{r}").shuffle(order)
        if traced:
            tracer.install()
            tracer.keep_spans = r == 1
        for slot in order:
            job = jobs[slot]
            attempted += 1
            before = refkernel.time_kernel()
            if traced:
                tracer.job = len(samples)
                tracer.recording = True
            t = time.perf_counter()
            try:
                output = job.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                problems.append(f"{job.name}: raised {type(exc).__name__}: {exc}")
                continue
            finally:
                if traced:
                    tracer.recording = False
            elapsed = time.perf_counter() - t
            after = refkernel.time_kernel()
            problem = job.check(output)
            if problem:
                problems.append(f"{job.name}: {problem}")
            samples.append((r, slot, elapsed, before, after, traced))
        if traced:
            tracer.uninstall()
        r += 1
    return {"rounds": r, "samples": samples, "attempted": attempted, "failed": failed,
            "problems": problems}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    t = time.perf_counter()
    import semidual  # noqa: F401  (timed: the import is part of set-up)
    import_ms = (time.perf_counter() - t) * 1e3
    if not os.path.abspath(semidual.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"semidual was imported from {semidual.__file__}, not from {SRC}")

    workload = importlib.import_module(WORKLOADS[args.workload])
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=SCRATCH)
    try:
        jobs = workload.setup(random.Random(f"{args.workload}:{args.seed}"), workdir)
        setup_s = monotonic() - args.t0
        result = {"setup_s": setup_s, "import_ms": import_ms, "jobs": [j.name for j in jobs]}
        if not args.setup_only:
            tracer = None
            if args.trace:
                import tracer as tracing
                tracer = tracing.Tracer()
            kernel_ok = refkernel.reference_kernel() == refkernel.CHECKSUM
            result.update(run_rounds(jobs, args.seed, args.seconds, tracer))
            if not kernel_ok:
                result["problems"].append("reference kernel checksum mismatch")
            if tracer is not None:
                result["stats"] = tracer.stats
                result["spans"] = tracer.spans
                result["layer_self_s"] = tracer.layer_self_seconds()
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
