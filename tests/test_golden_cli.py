"""Exit codes and stdout digests of 2644 CLI commands, pinned.

The commands are the six `slat` subcommands, `balg axioms` and
`balg quotient --glue=a=b` for every ordered label pair, on each
bundled `.slat` file; `graded verify|module-algebra|action-table` on
ut1-ut5; `nbar is-char|decompose|translate-basis` on 100 seeded
step functionals and `nbar det` on 20 seeded rows; `lp mul|weight|act|embed`
on 100 seeded inputs each under four parity contexts; a few inputs that must
exit 2; all in human and tsv format; and `graded ut --size 1..24`.
Each is recorded as its exit code and the sha256 of its stdout, because
the raw text is about 1 MB.

`golden_graded.json` pins the same for `graded verify|module-algebra|action-table`
on inputs that are not bundled files, written to a temporary directory:
k[S] graded by S on bool2, bool3 and div12, where the unit sits in the
identity degree so the strict unit law is checked, ut6-ut8 and ut20
(whose chain20.slat is written beside it). It also pins `graded verify`
on three faulty copies of ut3, which exit 1 with a witness line: one
with a rescaled product, one whose products are all still single basis
vectors with coefficient 1 but not associative, and one breaking the
grading law.

Regenerate the stored digests (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import hashlib
import io
import json
import pathlib
import random
import tempfile
from fractions import Fraction

from semidual import corpus
from semidual.cli import run
from semidual.graded import GradedFDAlgebra, print_graded, ut_graded
from semidual.semilattice import print_semilattice

DIGESTS = pathlib.Path(__file__).with_name("golden_cli.json")
GRADED_DIGESTS = pathlib.Path(__file__).with_name("golden_graded.json")
MONOID_GRADINGS = ("bool2", "bool3", "div12")
UT_SIZES = (6, 7, 8)
BIG_UT = 20  # its chain is not bundled, so graded_inputs() adds the .slat file
SLATS = [f"chain{m}" for m in range(1, 9)] + ["bool1", "bool2", "bool3",
                                               "div12", "div30", "div36"]
GALGS = [f"ut{m}" for m in range(1, 6)]
SLAT_CMDS = ("check", "order", "characters", "dual", "double-dual", "ev-rank")
GRADED_CMDS = ("verify", "module-algebra", "action-table")
LP_CONTEXTS = ([], ["--odd-letters=1,3"], ["--odd-places=2"],
               ["--odd-letters=1,2", "--odd-places=1,3"])
EXIT_2 = [["nbar", "decompose", "--tail=1/0"], ["nbar", "is-char", "--prefix=1,x", "--tail=0"],
          ["nbar", "det", "--row=1/0"], ["lp", "embed", "0"], ["lp", "mul", "(x1|1)"],
          ["lp", "weight", "(x0|1)"], ["lp", "act", "(x1|1)", "--z=x"], ["lp", "weight", "(x1|1)+"]]


def _rational(rng):
    return str(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))))


def _unique(make, count):
    """The first `count` distinct values of make()."""
    seen = []
    while len(seen) < count:
        value = make()
        if value not in seen:
            seen.append(value)
    return seen


def _step_functional(rng):
    """--prefix/--tail texts: rational, 0/1, or threshold-shaped with trailing tail values."""
    shape = rng.randrange(3)
    if shape == 2:
        ones, zeros, tail = rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 1)
        prefix = ["1"] * ones + [str(tail)] * zeros
        return ",".join(prefix), str(tail)
    value = _rational if shape == 0 else (lambda r: str(r.randint(0, 1)))
    return ",".join(value(rng) for _ in range(rng.randint(0, 8))), value(rng)


def _lp_expr(rng):
    """A sum of 1-4 terms, each a rational, a product of variables, or both."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [f"(x{rng.randint(1, 3)}|{rng.randint(1, 3)})" for _ in range(rng.randint(0, 3))]
        if not factors or rng.random() < 0.4:
            factors.insert(0, str(Fraction(rng.randint(0, 5), rng.choice((1, 2)))))
        terms.append("*".join(factors))
    # a space after a leading minus keeps argparse from reading the expression as a flag
    text = terms[0] if rng.random() < 0.7 else "- " + terms[0]
    return text + "".join(rng.choice("+-") + t for t in terms[1:])


def nbar_lp_commands():
    """Seeded `nbar` and `lp` argv, without --format."""
    rng = random.Random(7)
    out = []
    for prefix, tail in _unique(lambda: _step_functional(rng), 100):
        out += [["nbar", cmd, f"--prefix={prefix}", f"--tail={tail}"]
                for cmd in ("is-char", "decompose", "translate-basis")]
    for row in _unique(lambda: ",".join(_rational(rng) for _ in range(rng.randint(1, 6))), 20):
        out.append(["nbar", "det", f"--row={row}"])
    points = ("-inf", "0", "1", "2", "3", "+inf")
    lp_args = {
        "mul": lambda: [_lp_expr(rng), _lp_expr(rng)],
        "weight": lambda: [_lp_expr(rng)],
        "act": lambda: [_lp_expr(rng), f"--z={rng.choice(points)}"],
        "embed": lambda: [str(rng.randint(1, 3)) for _ in range(rng.randint(1, 6))],
    }
    for cmd, args in lp_args.items():
        out += _unique(lambda: ["lp", cmd] + args() + rng.choice(LP_CONTEXTS), 100)
    return out + EXIT_2


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
        for argv in nbar_lp_commands():
            out.append((argv + ["--format", fmt], argv + ["--format", fmt]))
    for m in range(1, 25):
        argv = ["graded", "ut", f"--size={m}", "--labels=" + ",".join(map(str, range(1, m + 1)))]
        out.append((argv, argv))
    return [(" ".join(key), argv) for key, argv in out]


def monoid_algebra_text(name):
    """k[S] graded by S for the bundled S: basis u<s> in degree s, u<s> u<t> = u<s*t>."""
    s = corpus.load_semilattice(name)
    basis = [f"u{lbl}" for lbl in s.elements]
    lines = [f"basis: {' '.join(basis)}", f"unit: {basis[s.identity]}:1",
             f"semilattice: {corpus.data_path(name + '.slat')}"]
    lines += [f"degree {b} {lbl}" for b, lbl in zip(basis, s.elements)]
    lines += [f"mul {basis[i]} {basis[j]} = {basis[s.op(i, j)]}:1"
              for i in range(len(s)) for j in range(len(s))]
    return "\n".join(lines) + "\n"


def graded_inputs():
    """File name -> `.galg` or `.slat` text for the inputs of golden_graded.json."""
    files = {f"kS-{name}.galg": monoid_algebra_text(name) for name in MONOID_GRADINGS}
    for m in UT_SIZES:
        algebra = ut_graded(m, list(range(1, m + 1)))
        files[f"ut{m}.galg"] = print_graded(algebra, corpus.data_path(f"chain{m}.slat"))
    big = ut_graded(BIG_UT, list(range(1, BIG_UT + 1)))
    files[f"chain{BIG_UT}.slat"] = print_semilattice(big.grading)
    files[f"ut{BIG_UT}.galg"] = print_graded(big, f"chain{BIG_UT}.slat")
    return files


def failing_inputs():
    """File name -> `.galg` text of ut3 with one fault each, which `graded verify` reports.

    E22 E23 = 2 E23 breaks associativity (and the unit law); E12 E23 = E11
    keeps every product one basis vector with coefficient 1 and the
    grading law, but breaks associativity alone; E13 moved to the bottom
    degree breaks the grading law.
    """
    ut3 = ut_graded(3, [1, 2, 3])
    e = ut3.index
    structure = {**ut3.structure, (e("E22"), e("E23")): {e("E23"): 2}}
    redirected = {**ut3.structure, (e("E12"), e("E23")): {e("E11"): 1}}
    degree = [0 if i == e("E13") else d for i, d in enumerate(ut3.degree)]
    slat = corpus.data_path("chain3.slat")
    return {name: print_graded(GradedFDAlgebra(ut3.basis, products, ut3.unit, ut3.grading, d), slat)
            for name, products, d in (("nonassoc-ut3.galg", structure, ut3.degree),
                                       ("redirect-ut3.galg", redirected, ut3.degree),
                                       ("misgraded-ut3.galg", ut3.structure, degree))}


def graded_commands(directory):
    """(key, argv) pairs over graded_inputs() and failing_inputs(), written to directory."""
    out = []
    for inputs, cmds in ((graded_inputs(), GRADED_CMDS), (failing_inputs(), ("verify",))):
        for name, text in inputs.items():
            path = pathlib.Path(directory) / name
            path.write_text(text, encoding="utf-8")
            if not name.endswith(".galg"):
                continue
            for fmt in ("human", "tsv"):
                for cmd in cmds:
                    tail = ["--format", fmt]
                    out.append((" ".join(["graded", cmd, name] + tail),
                                ["graded", cmd, str(path)] + tail))
    return out


def digests(pairs=None):
    table = {}
    for key, argv in commands() if pairs is None else pairs:
        stream = io.StringIO()
        code = run(argv, stream, io.StringIO())
        table[key] = f"{code} {hashlib.sha256(stream.getvalue().encode()).hexdigest()}"
    return table


def test_cli_outputs_match_stored_digests():
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = digests()
    assert len(current) == 2644
    assert sorted(current) == sorted(stored)
    changed = [key for key in current if current[key] != stored[key]]
    assert not changed, changed[:10]


def graded_digests():
    with tempfile.TemporaryDirectory() as directory:
        return digests(graded_commands(directory))


def test_graded_outputs_match_stored_digests():
    stored = json.loads(GRADED_DIGESTS.read_text(encoding="utf-8"))
    current = graded_digests()
    assert len(current) == 48
    assert sorted(current) == sorted(stored)
    changed = [key for key in current if current[key] != stored[key]]
    assert not changed, changed[:10]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(digests(), indent=0, sort_keys=True) + "\n", encoding="utf-8")
    GRADED_DIGESTS.write_text(json.dumps(graded_digests(), indent=0, sort_keys=True) + "\n",
                              encoding="utf-8")
