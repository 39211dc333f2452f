"""Alternated before/after runs of the benchmark, as one JSON record.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_N.json
        [--workload NAME:PAIRS:FIRST_SEED ...] [--traced NAME:SEED]

PARENT and CHANGE are two checkouts of the repository, each with src/ and
perfbench/, for example `git archive COMMIT | tar -x -C DIR`. For each
--workload, pair k runs `python3 perfbench/run.py --workload NAME --seed
FIRST_SEED+k --seconds S --trace 0` from the root of each checkout, the
parent first when k is even, with S the run_seconds of BENCHMARK.json.
--traced adds one pair with --trace 1.

The record keeps every run and, per workload, the complete pairs, the runs
per side that exited non-zero (any such run makes all_correct false) and,
per end-to-end metric over the complete pairs, the medians, quartiles
(statistics.quantiles, n=4, inclusive), the pairs the change wins and
whether the change stays within the metric's bound in BENCHMARK.json; a
workload with no complete pair has no medians. What the runs show is
written into the record by hand. Only the standard library is used.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def _run_bench(root, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    return {"rc": proc.returncode, "result": result,
            "stderr": proc.stderr.strip()[-2000:] if proc.returncode else ""}


def _quartiles(values):
    if len(values) < 2:
        return [round(values[0], 4)] * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def _summary(runs, end_to_end):
    """Per workload of the untraced runs: the complete pairs, the runs per side that
    exited non-zero (each makes all_correct false) and, over the complete pairs,
    each end-to-end metric's medians, quartiles and wins; no pair, no medians."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == 0):
        mine = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        ran = [r for r in mine if r["rc"] == 0]
        pairs = {}
        for r in ran:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        done = [p for p in pairs.values() if len(p) == 2]
        exited = {s: sum(r["side"] == s for r in mine if r["rc"]) for s in SIDES}
        entry = {"pairs": len(done), "nonzero_exit": exited,
                 "all_correct": not any(exited.values())
                 and all(r["result"]["correct"] for r in ran),
                 "failed": {s: sum(r["result"]["failed"] for r in ran if r["side"] == s)
                            for s in SIDES}}
        for metric in end_to_end if done else ():
            name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
            side = {s: [p[s]["metrics"][name]["value"] for p in done] for s in SIDES}
            parent, change = (statistics.median(side[s]) for s in SIDES)
            worse = change > parent * (1 + bound) if lower else change < parent * (1 - bound)
            q_parent = _quartiles(side["parent"])
            entry[name] = {
                "parent_median": round(parent, 4), "change_median": round(change, 4),
                "change_pct": round(100 * (change - parent) / parent, 1),
                "parent_q1_q3": q_parent, "change_q1_q3": _quartiles(side["change"]),
                "parent_iqr": round(q_parent[2] - q_parent[0], 4),
                "change_wins": sum((c < p) if lower else (c > p)
                                   for p, c in zip(side["parent"], side["change"])),
                "parent_runs": [round(v, 4) for v in side["parent"]],
                "change_runs": [round(v, 4) for v in side["change"]],
                "bound": bound, "within_bound": not worse}
        summary[workload] = entry
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workload", action="append", default=[],
                        help="NAME:PAIRS:FIRST_SEED, repeatable")
    parser.add_argument("--traced", help="NAME:SEED for one traced pair")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    spec = json.load(open(os.path.join(roots["change"], "BENCHMARK.json"), encoding="utf-8"))
    argv = sys.argv[1:] if argv is None else argv
    # no machine paths in the record
    named = {args.parent: "PARENT", args.change: "CHANGE", args.out: os.path.basename(args.out)}
    record = {"command": " ".join(["python3", "tools/bench_pairs.py"]
                                  + [named.get(a, a) for a in argv]),
              "machine": f"{os.cpu_count()} cores, Python {platform.python_version()},"
                         f" {platform.platform()}",
              "runs": []}
    jobs = [(w, int(seed0) + k, 0, k)
            for w, n, seed0 in (item.split(":") for item in args.workload) for k in range(int(n))]
    if args.traced:
        workload, seed = args.traced.split(":")
        jobs.append((workload, int(seed), 1, 0))
    for workload, seed, trace, k in jobs:
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
            run = _run_bench(roots[side], workload, seed, spec["run_seconds"], trace)
            record["runs"].append({"workload": workload, "seed": seed, "pair": k, "side": side,
                                   "order": list(order), "trace": trace, **run})
            print(workload, seed, side, "trace" if trace else "",
                  run["result"]["metrics"]["cost_ref"]["value"] if run["result"] and not trace
                  else run["rc"], flush=True)
    record["summary_untraced"] = _summary(record["runs"], spec["end_to_end"])
    traced = {r["side"]: r["result"] for r in record["runs"] if r["trace"] == 1}
    if traced:
        record["trace"] = {side: {k: round(v["value"], 3) for k, v in result["metrics"].items()
                                  if v["value"]} for side, result in traced.items() if result}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
