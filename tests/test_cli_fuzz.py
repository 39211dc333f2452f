"""Random command lines against the exit-code contract of cli.run.

Argv is drawn from the subcommand grammar, over the corpus files and
over generated `.slat` and `.galg` documents, valid or not. A flag
drawn for a subcommand that does not take it must exit 2. Integers
stay at most 8: `graded ut --size m` prints Theta(m^3) lines.
"""

import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from semidual import corpus
from semidual.cli import run

SLATS = ["bool1", "bool2", "bool3", "chain1", "chain2", "chain3", "chain5", "div12", "div30"]
GALGS = ["ut1", "ut2", "ut3", "ut4"]
GRADINGS = {name: corpus.load_semilattice(name).elements
            for name in ("chain2", "chain3", "bool2")}
LABELS = ["e0", "e1", "e2", "n1", "n2", "n3", "0", "1", "12", "x"]
BASIS_LABELS = ["E11", "E12", "E22", "E13", "b0", "b1", "b2", "zz"]
FAIL_MARKS = ("FAIL", "valid: no", "full-rank: no")

RATIONALS = ["0", "-0", "1", "-1", "2", "8", "1/2", "-3/4", "7/8", "2/4"]
good_rational = st.sampled_from(RATIONALS)
rational = st.sampled_from(RATIONALS + ["x", "1/", "1/0"])
JUNK = ["# comment", "elements:", "basis:", "a * b", "mul b0 = b0:1", "degree b0",
        "junk line"]


def comma_list(items, max_size=5):
    return st.lists(items, max_size=max_size).map(",".join)


def with_junk(lines):
    """The document as text, sometimes with one malformed line inserted."""
    @st.composite
    def build(draw):
        out = list(lines)
        if draw(st.booleans()):
            out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from(JUNK)))
        return "\n".join(out) + "\n"
    return build()


@st.composite
def slat_text(draw):
    if draw(st.booleans()):
        # a union-closed family of subsets of {0, 1, 2}: always a semilattice
        masks = {0} | set(draw(st.lists(st.integers(0, 7), max_size=5)))
        while True:
            closed = masks | {a | b for a in masks for b in masks}
            if closed == masks:
                break
            masks = closed
        masks = sorted(masks)
        labels = [f"e{i}" for i in range(len(masks))]
        lines = [f"{labels[i]} * {labels[j]} = {labels[masks.index(a | b)]}"
                 for i, a in enumerate(masks) for j, b in enumerate(masks) if i < j]
        identity = labels[0]
    else:
        labels = [f"e{i}" for i in range(draw(st.integers(1, 4)))]
        pick = st.sampled_from(labels)
        lines = [f"{a} * {b} = {c}"
                 for a, b, c in draw(st.lists(st.tuples(pick, pick, pick), max_size=8))]
        identity = draw(st.sampled_from(labels + ["x"]))
    head = [f"elements: {' '.join(labels)}", f"identity: {identity}"]
    return draw(with_junk(head + lines))


@st.composite
def galg_text(draw):
    grading = draw(st.sampled_from(sorted(GRADINGS)))
    basis = [f"b{i}" for i in range(draw(st.integers(1, 4)))]
    label = st.sampled_from(basis)
    terms = st.lists(st.tuples(label, good_rational), min_size=1, max_size=3).map(
        lambda ts: " + ".join(f"{b}:{q}" for b, q in ts))
    degree = st.sampled_from(GRADINGS[grading])
    lines = [f"basis: {' '.join(basis)}", f"unit: {draw(terms)}",
             f"semilattice: {corpus.data_path(grading + '.slat')}"]
    lines += [f"degree {b} {draw(degree)}" for b in basis]
    pairs = draw(st.lists(st.tuples(label, label), max_size=8, unique=True))
    lines += [f"mul {a} {b} = {draw(terms)}" for a, b in pairs]
    return draw(with_junk(lines))


def _slat_argv():
    cmd = st.sampled_from(["check", "order", "characters", "dual", "double-dual", "ev-rank"])
    return st.tuples(st.just("slat"), cmd, st.just("{slat}")).map(list)


def _balg_argv():
    glue = comma_list(st.tuples(st.sampled_from(LABELS), st.sampled_from(LABELS)).map(
        "=".join), max_size=3)
    return st.one_of(
        st.just(["balg", "axioms", "{slat}"]),
        glue.map(lambda g: ["balg", "quotient", "{slat}", f"--glue={g}"]))


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{flag}={v}"]))


def _graded_argv():
    cmd = st.sampled_from(["verify", "act", "module-algebra", "action-table"])
    char = st.sampled_from([f"f{i}" for i in range(1, 10)] + ["g"])
    coord = st.one_of(st.tuples(st.sampled_from(BASIS_LABELS), rational).map(":".join),
                      st.sampled_from(BASIS_LABELS))
    element = comma_list(coord, 3)
    ut_labels = st.one_of(st.integers(-1, 8).map(lambda m: (m, range(1, m + 1))),
                          st.tuples(st.integers(-1, 8), st.lists(st.integers(-2, 8), max_size=8)))
    return st.one_of(
        st.builds(lambda c, ch, el: ["graded", c, "{galg}"] + ch + el,
                  cmd, optional("char", char), optional("element", element)),
        st.builds(lambda ch, el: ["graded", "act", "{galg}", f"--char={ch}", f"--element={el}"],
                  char, element),
        ut_labels.map(lambda m_ls: ["graded", "ut", f"--size={m_ls[0]}",
                                    "--labels=" + ",".join(str(v) for v in m_ls[1])]))


def _nbar_argv():
    cmd = st.sampled_from(["is-char", "decompose", "translate-basis"])
    return st.one_of(
        st.builds(lambda c, p, t: ["nbar", c, f"--prefix={p}", f"--tail={t}"],
                  cmd, comma_list(rational), rational),
        comma_list(rational).map(lambda r: ["nbar", "det", f"--row={r}"]))


def _lp_argv():
    factor = st.one_of(st.builds(lambda a, b: f"(x{a}|{b})", st.integers(1, 4), st.integers(1, 4)),
                       rational, st.just("(x0|1)"))
    term = st.lists(factor, min_size=1, max_size=3).map("*".join)
    poly = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    letters = comma_list(st.integers(0, 8).map(str), 3)
    z = st.sampled_from(["-inf", "+inf", "0", "3", "8", "x"])
    parity = st.builds(lambda *flags: sum(flags, []), optional("odd-letters", letters),
                       optional("odd-places", letters))
    words = st.lists(st.integers(0, 8).map(str), min_size=1, max_size=3)
    anything = st.one_of(st.lists(poly, min_size=1, max_size=3), words)
    return st.one_of(
        st.builds(lambda p, q, x: ["lp", "mul", p, q] + x, poly, poly, parity),
        st.builds(lambda p, x: ["lp", "weight", p] + x, poly, parity),
        st.builds(lambda p, v, x: ["lp", "act", p, f"--z={v}"] + x, poly, z, parity),
        st.builds(lambda w, x: ["lp", "embed"] + w + x, words, parity),
        st.builds(lambda c, e, x, zz: ["lp", c] + e + x + zz,
                  st.sampled_from(["mul", "weight", "act", "embed"]), anything, parity,
                  optional("z", z)))


command = st.sampled_from([_slat_argv, _balg_argv, _graded_argv, _nbar_argv, _lp_argv]).flatmap(
    lambda group: group())


def misplaced_flag(argv):
    """Whether argv gives --char/--element or --z to a subcommand other than act."""
    flags = {"graded": ("--char", "--element"), "lp": ("--z",)}.get(argv[0])
    return bool(flags) and argv[1] != "act" and any(a.startswith(flags) for a in argv[2:])


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=command, fmt=st.sampled_from([[], ["--format", "tsv"], ["--format", "human"]]),
       slat_choice=st.one_of(st.sampled_from(SLATS), st.just(None)),
       galg_choice=st.one_of(st.sampled_from(GALGS), st.just(None)),
       slat_src=slat_text(), galg_src=galg_text())
def test_cli_exit_contract(argv, fmt, slat_choice, galg_choice, slat_src, galg_src):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"{slat}": os.path.join(tmp, "gen.slat"), "{galg}": os.path.join(tmp, "gen.galg")}
        with open(paths["{slat}"], "w", encoding="utf-8") as fh:
            fh.write(slat_src)
        with open(paths["{galg}"], "w", encoding="utf-8") as fh:
            fh.write(galg_src)
        if slat_choice:
            paths["{slat}"] = corpus.data_path(slat_choice + ".slat")
        if galg_choice:
            paths["{galg}"] = corpus.data_path(galg_choice + ".galg")
        argv = [paths.get(arg, arg) for arg in argv] + fmt
        code, out, err = invoke(argv)
        assert code in (0, 1, 2), (argv, code)
        if misplaced_flag(argv):
            assert code == 2 and out == "", argv
        if code == 1:
            lines = out.replace("\t", ": ").splitlines()  # tsv writes `valid<TAB>no`
            assert any(mark in line for line in lines for mark in FAIL_MARKS), argv
        assert invoke(argv) == (code, out, err), argv
