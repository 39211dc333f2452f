"""Self-tests of the benchmark: every oracle bites, and BENCHMARK.json matches run.py.

Each oracle is shown to accept the program's real output for one job
and to reject the same output with a single planted fault, so no check
is vacuous. Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

from semidual.exactlin import Matrix  # noqa: E402

import refkernel  # noqa: E402
import run  # noqa: E402
import wl_graded  # noqa: E402
import wl_maxmonoid  # noqa: E402
import wl_slat  # noqa: E402


def _job(jobs, name):
    return next(job for job in jobs if job.name == name)


def _checked_output(job):
    output = job.run()
    assert job.check(output) is None
    return output


def test_flipped_character_bit_is_caught(tmp_path):
    jobs = wl_slat.setup(random.Random("slat_duality:7"), str(tmp_path))
    job = _job(jobs, "slat characters rand8")
    code, out, err = _checked_output(job)
    lines = out.splitlines()
    lines[1] = lines[1][:-1] + ("0" if lines[1].endswith("1") else "1")
    assert job.check((code, "\n".join(lines) + "\n", err)) is not None


def test_wrong_gamma_entry_is_caught():
    jobs = wl_graded.setup(random.Random("graded_action:7"), None)
    job = _job(jobs, "action kS6")
    action = _checked_output(job)
    m = action.matrices["f2"]
    entries = list(m.entries)
    entries[0] = 1 - entries[0]
    action.matrices["f2"] = Matrix(m.rows, m.cols, entries)
    assert job.check(action) is not None


def test_wrong_decomposition_coefficient_is_caught():
    jobs = wl_maxmonoid.setup(random.Random("maxmonoid_dual:7"), None)
    job = _job(jobs, "decompose L10r8")
    coeffs = _checked_output(job)
    point = next(p for p in coeffs if str(p) not in ("-inf", "+inf"))
    coeffs[point] += 1
    assert job.check(coeffs) is not None


def test_flipped_koszul_sign_is_caught():
    jobs = wl_maxmonoid.setup(random.Random("maxmonoid_dual:7"), None)
    job = _job(jobs, "embed T10")
    images = _checked_output(job)
    (mono, sign), = images[0].items()
    images[0] = {mono: -sign}
    assert job.check(images) is not None


def test_reference_kernel_is_unchanged():
    assert refkernel.reference_kernel() == refkernel.CHECKSUM


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
