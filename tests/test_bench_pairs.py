"""The summary of `tools/bench_pairs.py`, on synthetic runs: no subprocess is started.

A workload whose runs all crashed must still be written (with no medians),
and a run that exited non-zero must show in the summary and make it
incorrect rather than vanish from the pair count.
"""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _run(workload, pair, side, cost=None, rc=0, correct=True, failed=0, trace=0):
    """One run as `main` records it; a non-zero rc has no result, as `_run_bench` gives."""
    result = None if rc else {
        "correct": correct, "failed": failed,
        "metrics": {m["name"]: {"value": cost if m["name"] == "cost_ref" else 1.0}
                    for m in END_TO_END}}
    return {"workload": workload, "seed": 20 + pair, "pair": pair, "side": side,
            "trace": trace, "rc": rc, "result": result}


def test_complete_pairs_give_medians_quartiles_and_wins():
    runs = [_run("w", k, s, cost) for k, (p, c) in enumerate([(10, 8), (12, 9), (11, 12)])
            for s, cost in (("parent", p), ("change", c))]
    runs.append(_run("w", 0, "parent", 99.0, trace=1))  # traced runs stay out of the summary
    entry = bench_pairs._summary(runs, END_TO_END)["w"]
    assert entry["pairs"] == 3 and entry["all_correct"] is True
    assert entry["nonzero_exit"] == {"parent": 0, "change": 0}
    assert entry["failed"] == {"parent": 0, "change": 0}
    cost = entry["cost_ref"]
    assert (cost["parent_median"], cost["change_median"]) == (11, 9)
    assert cost["change_wins"] == 2 and cost["parent_runs"] == [10, 12, 11]
    assert cost["parent_q1_q3"] == [10.5, 11, 11.5] and cost["parent_iqr"] == 1
    assert cost["within_bound"] is True
    assert set(entry) == {"pairs", "nonzero_exit", "all_correct", "failed",
                          *(m["name"] for m in END_TO_END)}


def test_a_workload_with_no_complete_pair_is_written_without_medians():
    runs = [_run("w", 0, "parent", rc=1), _run("w", 0, "change", 5.0),
            _run("v", 0, "parent", rc=1), _run("v", 0, "change", rc=2)]
    summary = bench_pairs._summary(runs, END_TO_END)
    assert summary["w"] == {"pairs": 0, "nonzero_exit": {"parent": 1, "change": 0},
                            "all_correct": False, "failed": {"parent": 0, "change": 0}}
    assert summary["v"]["pairs"] == 0 and summary["v"]["nonzero_exit"] == {"parent": 1, "change": 1}
    json.dumps(summary)  # what main writes to --out


def test_a_run_that_exited_non_zero_is_counted_and_makes_the_summary_incorrect():
    runs = [_run("w", 0, "parent", 10.0), _run("w", 0, "change", 9.0),
            _run("w", 1, "change", rc=1), _run("w", 1, "parent", 11.0)]
    entry = bench_pairs._summary(runs, END_TO_END)["w"]
    assert entry["pairs"] == 1 and entry["nonzero_exit"] == {"parent": 0, "change": 1}
    assert entry["all_correct"] is False
    assert entry["cost_ref"]["parent_runs"] == [10.0]


def test_an_incorrect_run_or_failed_operations_show_in_the_summary():
    runs = [_run("w", 0, "parent", 10.0), _run("w", 0, "change", 9.0, correct=False, failed=3),
            _run("w", 1, "parent", 10.0, failed=1)]
    entry = bench_pairs._summary(runs, END_TO_END)["w"]
    assert entry["all_correct"] is False and entry["failed"] == {"parent": 1, "change": 3}
