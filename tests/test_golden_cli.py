"""Exit codes and stdout digests of 1188 CLI commands, pinned.

The commands are the six `slat` subcommands, `balg axioms` and
`balg quotient --glue=a=b` for every ordered label pair, on each
bundled `.slat` file; `graded verify|module-algebra|action-table` on
ut1-ut5, all in human and tsv format; and `graded ut --size 1..24`.
Each is recorded as its exit code and the sha256 of its stdout, because
the raw text is about 0.9 MB.

Regenerate the stored digests (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import io
import json
import pathlib

from semidual import corpus
from semidual.cli import run

DIGESTS = pathlib.Path(__file__).with_name("golden_cli.json")
SLATS = [f"chain{m}" for m in range(1, 9)] + ["bool1", "bool2", "bool3",
                                               "div12", "div30", "div36"]
GALGS = [f"ut{m}" for m in range(1, 6)]
SLAT_CMDS = ("check", "order", "characters", "dual", "double-dual", "ev-rank")
GRADED_CMDS = ("verify", "module-algebra", "action-table")


def commands():
    """(key, argv) pairs; the key names bundled files, not their paths."""
    out = []
    for fmt in ("human", "tsv"):
        for name in SLATS:
            path = corpus.data_path(f"{name}.slat")
            argvs = [["slat", cmd, "{}"] for cmd in SLAT_CMDS] + [["balg", "axioms", "{}"]]
            labels = corpus.load_semilattice(name).elements
            argvs += [["balg", "quotient", "{}", f"--glue={a}={b}"]
                      for a in labels for b in labels]
            for argv in argvs:
                out.append(([a.replace("{}", f"{name}.slat") for a in argv] + ["--format", fmt],
                            [a.replace("{}", path) for a in argv] + ["--format", fmt]))
        for name in GALGS:
            path = corpus.data_path(f"{name}.galg")
            for cmd in GRADED_CMDS:
                tail = ["--format", fmt]
                out.append((["graded", cmd, f"{name}.galg"] + tail, ["graded", cmd, path] + tail))
    for m in range(1, 25):
        argv = ["graded", "ut", f"--size={m}", "--labels=" + ",".join(map(str, range(1, m + 1)))]
        out.append((argv, argv))
    return [(" ".join(key), argv) for key, argv in out]


def digests():
    table = {}
    for key, argv in commands():
        stream = io.StringIO()
        code = run(argv, stream, io.StringIO())
        table[key] = f"{code} {hashlib.sha256(stream.getvalue().encode()).hexdigest()}"
    return table


def test_cli_outputs_match_stored_digests():
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = digests()
    assert len(current) == 1188
    assert sorted(current) == sorted(stored)
    changed = [key for key in current if current[key] != stored[key]]
    assert not changed, changed[:10]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=0, sort_keys=True) + "\n", encoding="utf-8")
