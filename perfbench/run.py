"""Benchmark of semidual: three seeded, single-process, closed-loop workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Each workload runs in fresh interpreters
(perfbench/worker.py) that import `semidual` from src/. With --trace 0
the last stdout line is one JSON object with the end-to-end metrics;
with --trace 1 it carries the per-layer metrics of a traced run. The
lines before it print every metric by name and unit, the Python
version, nproc, the seed, the run length and the operations attempted
and failed. A copy of the result (and, for a traced run, the spans of
one round) goes to .perfbench_results/. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(ROOT, ".perfbench_results")
WORKLOADS = ("slat_duality", "graded_action", "maxmonoid_dual")
# Set-up is timed in this many set-up-only interpreters, half before and half
# after the measured run so that they straddle the machine's slow and quiet
# spells; setup_s is their median.
SETUP_RUNS = 8
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "cost_ref": "ref", "jobs_per_s": "1/s", "job_ms_p50": "ms", "job_ms_p90": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}

_TIMED = ("exactlin.matmul", "exactlin.rank", "exactlin.solve", "exactlin.det",
          "semilattice.validate", "semilattice.characters", "semilattice.dual_semilattice",
          "semilattice.double_dual_iso", "semilattice.ev_matrix_rank",
          "bialgebra.check_bialgebra_axioms", "bialgebra.congruence_closure",
          "bialgebra.quotient_grouplikes",
          "graded.parse_graded", "graded.verify_grading", "graded.check_module_algebra",
          "graded.dual_monoid_action",
          "nbar_dual.grouplike_decompose", "nbar_dual.translate_span_basis",
          "nbar_dual.special_det", "letterplace.multiply")
_CALLED = ("exactlin.matmul", "exactlin.rank", "semilattice.validate",
           "graded.act_character", "nbar_dual.translate", "letterplace.multiply", "cli.run")
_LAYERS = ("exactlin", "semilattice", "bialgebra", "graded", "nbar_dual", "letterplace", "cli")

PER_LAYER = {f"{key}.ms": "ms" for key in _TIMED}
PER_LAYER.update({f"{key}.calls": "count" for key in _CALLED})
PER_LAYER.update({"exactlin.matmul.mults": "count", "exactlin.rank.cells": "count",
                  "semilattice.validate.triples": "count"})
PER_LAYER.update({f"{layer}.self_ms": "ms" for layer in _LAYERS})
PER_LAYER.update({"setup.import_ms": "ms", "trace.job_ms": "ms",
                  "trace.unattributed_ms": "ms", "trace.overhead_pct": "%"})


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds=0.0, setup_only=False, trace=False):
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv.append("--trace")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv + ["--t0", repr(t0)], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(sorted_values, q):
    """Nearest-rank percentile: the smallest value with a share q at or below it."""
    k = max(0, -(-len(sorted_values) * q // 100) - 1)
    return sorted_values[int(k)]


def smoothed_percentile(sorted_values, q):
    """Kernel quantile estimate: order statistics weighted by a Gaussian in rank.

    The bandwidth sqrt(p(1-p)/n) is the standard error of a sample
    quantile. Job times come in clusters, one per job, and a plain
    percentile jumps from one cluster to the next as the machine's drift
    reorders neighbouring jobs; the weighted average moves smoothly.
    """
    n = len(sorted_values)
    p = q / 100
    h = math.sqrt(p * (1 - p) / n)
    weights = [math.exp(-(((i + 0.5) / n - p) / h) ** 2 / 2) for i in range(n)]
    return sum(w * x for w, x in zip(weights, sorted_values)) / sum(weights)


def cost_per_round(samples):
    """Per round, the sum over its jobs of job time / time of the bracketing kernels."""
    rounds = {}
    for r, _, elapsed, before, after, _ in samples:
        rounds[r] = rounds.get(r, 0.0) + elapsed / ((before + after) / 2)
    return list(rounds.values())


def end_to_end(main, setups):
    """The metrics of one run, job wall times scaled to the machine's undisturbed speed.

    A job's wall time t is reported as t * k_fast / k, where k is the
    mean of the kernel times just before and after it and k_fast the
    shortest kernel time of the run: the machine's undisturbed speed,
    which a run of several seconds always reaches (see README.md). On a
    quiet machine k = k_fast and these are plain wall times; the second
    dict keeps the unscaled figures. `setups` are set-up seconds, unscaled.
    """
    samples = main["samples"]
    k_fast = min(k for s in samples for k in s[3:5])
    scaled, raw, rounds = [], [], {}
    for r, _, elapsed, before, after, _ in samples:
        t = elapsed * k_fast / ((before + after) / 2)
        scaled.append(t * 1e3)
        raw.append(elapsed * 1e3)
        rounds.setdefault(r, []).append((t, elapsed))
    scaled.sort()
    raw.sort()
    metrics = {
        "cost_ref": statistics.median(cost_per_round(samples)),
        "jobs_per_s": statistics.median(len(j) / sum(t for t, _ in j) for j in rounds.values()),
        "job_ms_p50": smoothed_percentile(scaled, 50),
        "job_ms_p90": smoothed_percentile(scaled, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_kb"] / 1024,
    }
    unscaled = {
        "jobs_per_s": statistics.median(len(j) / sum(e for _, e in j) for j in rounds.values()),
        "job_ms_p50": statistics.median(raw),
        "job_ms_p90": percentile(raw, 90),
        "kernel_fast_ms": k_fast * 1e3,
        "kernel_median_ms": statistics.median(k for s in samples for k in s[3:5]) * 1e3,
    }
    return metrics, unscaled


def per_layer(main):
    """Per traced round: layer times and counts; overhead against the untraced rounds."""
    traced = [s for s in main["samples"] if s[5]]
    plain = [s for s in main["samples"] if not s[5]]
    rounds = len({s[0] for s in traced})
    stats = main["stats"]
    out = {}
    for key in _TIMED:
        out[f"{key}.ms"] = stats[key][1] * 1e3 / rounds
    for key in _CALLED:
        out[f"{key}.calls"] = stats[key][0] // rounds
    for key, name in (("exactlin.matmul", "mults"), ("exactlin.rank", "cells"),
                      ("semilattice.validate", "triples")):
        out[f"{key}.{name}"] = stats[key][3] // rounds
    layer_self = main["layer_self_s"]
    for layer in _LAYERS:
        out[f"{layer}.self_ms"] = layer_self[layer] * 1e3 / rounds
    job_ms = sum(s[2] for s in traced) * 1e3 / rounds
    out["setup.import_ms"] = main["import_ms"]
    out["trace.job_ms"] = job_ms
    out["trace.unattributed_ms"] = job_ms - sum(layer_self.values()) * 1e3 / rounds
    traced_cost = statistics.median(cost_per_round(traced))
    plain_cost = statistics.median(cost_per_round(plain))
    out["trace.overhead_pct"] = (traced_cost / plain_cost - 1) * 100
    return out


def environment(args):
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def run_workload(workload, args):
    raw, setups = {}, []
    if args.trace:
        main = spawn(workload, args.seed, args.seconds, trace=True)
        metrics, units = per_layer(main), PER_LAYER
    else:
        setups = [spawn(workload, args.seed, setup_only=True)["setup_s"]
                  for _ in range(SETUP_RUNS // 2)]
        main = spawn(workload, args.seed, args.seconds)
        setups += [spawn(workload, args.seed, setup_only=True)["setup_s"]
                   for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
        (metrics, raw), units = end_to_end(main, setups), END_TO_END
    result = {
        "correct": not main["problems"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(environment(args), workload=workload, rounds=main["rounds"],
                  jobs=main["jobs"], timed_samples=len(main["samples"]),
                  problems=main["problems"], raw=raw, result=result,
                  setups=setups,
                  samples={"fields": ["round", "job", "seconds", "kernel_before_s",
                                      "kernel_after_s", "traced"], "rows": main["samples"]})
    if args.trace:
        record["functions"] = {key: {"calls": s[0], "ms": s[1] * 1e3, "self_ms": s[2] * 1e3}
                               for key, s in sorted(main["stats"].items())}
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for span in main["spans"]:
                fh.write(json.dumps(dict(zip(("id", "parent", "job", "name", "start", "end"),
                                             span))) + "\n")
    return record


def report(record):
    result = record["result"]
    print(f"# workload {record['workload']}: python {record['python']}, nproc {record['nproc']},"
          f" seed {record['seed']}, seconds {record['seconds']}, rounds {record['rounds']}"
          f" of {len(record['jobs'])} jobs, {record['timed_samples']} timed samples,"
          f" attempted {result['attempted']}, failed {result['failed']},"
          f" correct {'yes' if result['correct'] else 'no'}")
    for problem in record["problems"][:10]:
        print(f"#   {problem}")
    if record["raw"]:
        print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in record["raw"].items()))
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{record['workload']}  {name} = {shown} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "semidual", "__init__.py")):
        print(f"error: no semidual package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(name, args) for name in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        report(record)
    if len(records) == 1:
        print(json.dumps(records[0]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
