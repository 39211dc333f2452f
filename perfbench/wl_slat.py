"""slat_duality: the finite side of the paper, as a command-line user runs it.

Every job is one in-process `semidual.cli.run` call on a `.slat` file
written at set-up, with stdout captured and compared line by line with
`checks.py`. The work is in `cli`, `semilattice` and `bialgebra`; no
job reaches `graded` or `nbar_dual`, and nothing calls `Matrix.matmul`.
"""

import io
import os
from functools import partial

from semidual import cli

import checks
import families
from jobs import Job

RANDOM_SIZES = (8, 10, 12, 14, 16, 18, 20)
CHAIN_SIZES = (10, 20)
DIVISOR_COUNTS = (12, 16)
VALIDATE_ONLY_SIZES = (32, 48, 64, 96, 128)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def _structures(rng):
    """(name, labels, masks) of every input, sizes fixed and contents seeded."""
    out = []
    for n in RANDOM_SIZES:
        masks = families.union_closed(rng, n, universe=10)
        out.append((f"rand{n}", [f"e{i}" for i in range(n)], masks))
    for m in CHAIN_SIZES:
        out.append((f"chain{m}", [f"c{i + 1}" for i in range(m)], families.chain(m)))
    for count in DIVISOR_COUNTS:
        number = rng.choice(families.numbers_with_divisors(count))
        labels, masks = families.divisor_family(number)
        out.append((f"div{number}", labels, masks))
    return out


def _write(workdir, name, labels, masks):
    path = os.path.join(workdir, f"{name}.slat")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(families.slat_text(labels, masks))
    return path


def _job(argv, expect):
    return Job(" ".join(argv[:2]) + " " + os.path.basename(argv[2])[:-len(".slat")],
               partial(_cli, argv), expect, checks.cli_output)


def setup(rng, workdir):
    jobs = []
    for name, labels, masks in _structures(rng):
        path = _write(workdir, name, labels, masks)
        a, b = rng.sample(range(len(masks)), 2)
        jobs += [
            _job(["slat", "check", path], partial(checks.slat_check_lines, labels, masks)),
            _job(["slat", "characters", path], partial(checks.characters_lines, masks)),
            _job(["slat", "double-dual", path], partial(checks.double_dual_lines, labels, masks)),
            _job(["slat", "ev-rank", path], partial(checks.ev_rank_lines, masks)),
            _job(["balg", "axioms", path], checks.axioms_lines),
            _job(["balg", "quotient", path, f"--glue={labels[a]}={labels[b]}"],
                 partial(checks.quotient_lines, labels, masks, [(a, b)])),
        ]
    for n in VALIDATE_ONLY_SIZES:
        labels = [f"v{i}" for i in range(n)]
        masks = families.union_closed(rng, n, universe=14)
        path = _write(workdir, f"big{n}", labels, masks)
        jobs.append(_job(["slat", "check", path], partial(checks.slat_check_lines, labels, masks)))
    return jobs
