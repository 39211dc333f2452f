"""Acceptance suite: exact reproduction of the worked examples plus
property checks. One printed line per criterion; everything is
bit-exact rational arithmetic, so every comparison is equality."""

import functools
import io
import random
from fractions import Fraction

from semidual import corpus
from semidual.bialgebra import congruence_closure, is_grouplike, quotient_grouplikes
from semidual.cli import run
from semidual.exactlin import Matrix, solve
from semidual.extnat import NEG_INF, POS_INF, fin
from semidual.graded import check_module_algebra, ut_graded
from semidual.letterplace import (LPPoly, ParityContext, act_min, variable,
                                  weight)
from semidual.nbar_dual import (StepFunctional, char_mult, finite_runs,
                                grouplike_decompose, special_det,
                                threshold_functional, verify_decomposition)
from semidual.reporting import INFO
from semidual.semilattice import characters, double_dual_iso, dual_semilattice, ev_matrix_rank

from oracles import brute_characters, brute_grouplikes_smallfield


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({title}): FAIL")
                raise
            print(f"criterion {number:2d} ({title}): PASS")
            return result
        return inner
    return wrap


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@criterion(1, "two-chain characters and dual product table")
def test_criterion_01_character_set():
    code, out, err = invoke("slat", "characters", corpus.data_path("chain2.slat"))
    assert code == 0 and err == ""
    assert out == "f1: 1 0\nf2: 1 1\n"
    dual = dual_semilattice(corpus.chain(2))
    # under f_i <-> n_i the dual table is exactly min
    for i in range(2):
        for j in range(2):
            assert dual.op(i, j) == min(i, j)
    assert dual.label(dual.identity) == "f2"


@criterion(2, "upper-triangular action table")
def test_criterion_02_action_table():
    element = "E11:1,E12:2,E22:3"
    code, out, _ = invoke("graded", "act", corpus.data_path("ut2.galg"),
                          "--char", "f1", "--element", element)
    assert code == 0 and out == "E22:3\n"
    code, out, _ = invoke("graded", "act", corpus.data_path("ut2.galg"),
                          "--char", "f2", "--element", element)
    assert code == 0 and out == "E11:1,E12:2,E22:3\n"


@criterion(3, "double dual isomorphism on the corpus")
def test_criterion_03_double_dual():
    for name, s in sorted(corpus.semilattices().items()):
        iso = double_dual_iso(s)  # raises on any failure
        assert sorted(iso.assignment) == list(range(len(s))), name


@criterion(4, "evaluation matrix rank equals the size")
def test_criterion_04_ev_rank():
    for name, s in sorted(corpus.semilattices().items()):
        assert ev_matrix_rank(s) == len(s), name


@criterion(5, "quotient group-likes of the glued three-chain")
def test_criterion_05_quotient_grouplikes():
    s = corpus.chain(3)
    congruence = congruence_closure(s, [("n2", "n3")])
    result = quotient_grouplikes(s, congruence)
    assert len(result.cosets) == 2
    assert all(is_grouplike(c) for c in result.cosets)
    assert result.report.passed  # includes the alpha^2 = alpha forcing line
    names = {line.name for line in result.report.lines}
    assert "completeness" in names
    oracle = brute_grouplikes_smallfield(s, congruence)
    assert sorted(tuple(sorted(x.coeffs.items())) for x in oracle) == \
        sorted(tuple(sorted(x.coeffs.items())) for x in result.cosets)


@criterion(6, "module-algebra laws for the triangular family")
def test_criterion_06_module_algebra():
    for m in range(1, 5):
        algebra = ut_graded(m, list(range(1, m + 1)))
        report = check_module_algebra(algebra)
        assert report.passed, m
        mult_lines = [line for line in report.lines
                      if line.name.endswith("multiplicative")]
        assert len(mult_lines) == len(characters(algebra.grading))
        info_lines = [line for line in report.lines if line.status == INFO]
        assert len(info_lines) == (0 if m == 1 else 1), m


@criterion(7, "threshold decomposition of 200 random functionals")
def test_criterion_07_decomposition():
    rng = random.Random(2024)
    grid = [Fraction(k, 2) for k in range(-6, 7)]
    for trial in range(200):
        run_count = rng.randint(1, 6)
        values = [rng.choice(grid)]
        while len(values) < run_count:
            candidate = rng.choice(grid)
            if candidate != values[-1]:
                values.append(candidate)
        prefix = []
        for value in values[:-1]:
            prefix.extend([value] * rng.randint(1, 3))
        f = StepFunctional(prefix, values[-1])

        coeffs = grouplike_decompose(f)
        assert verify_decomposition(f, coeffs), trial
        assert len(coeffs) == run_count, trial  # one character per run

        # independent linear solve over the same candidates
        candidates = [POS_INF] + [end for end, _ in finite_runs(f)]
        points = [end for end, _ in finite_runs(f)] + [f.tail_onset()]
        matrix = Matrix.from_rows(
            [[threshold_functional(c).eval(p) for c in candidates] for p in points])
        solved = solve(matrix, [f.eval(p) for p in points])
        assert solved is not None
        assert {c: x for c, x in zip(candidates, solved)} == coeffs, trial


@criterion(8, "patterned determinant closed form")
def test_criterion_08_special_det():
    entries = [Fraction(x) for x in (-2, -1, 1, 2, 3)]

    def rows_of_length(n):
        if n == 0:
            yield []
            return
        for rest in rows_of_length(n - 1):
            for e in entries:
                yield rest + [e]

    for n in range(1, 6):
        for row in rows_of_length(n):
            # raises unless the suffix sums of d give back the row and prod(d) is the closed form
            result = special_det(row)
            assert result.det == result.closed_form
            meets = row[-1] != 0 and all(row[i] != row[i + 1] for i in range(n - 1))
            assert result.preconditions_met == meets
            if meets:
                assert result.nonzero


@criterion(9, "letterplace property suite")
def test_criterion_09_letterplace():
    rng = random.Random(4096)
    ctx = ParityContext.make(odd_letters=[1, 3], odd_places=[2])
    points = [NEG_INF, fin(0), fin(1), fin(2), fin(3), fin(4), POS_INF]

    def random_word(max_len=4):
        return [variable(rng.randint(1, 3), rng.randint(1, 4))
                for _ in range(rng.randint(0, max_len))]

    def random_poly():
        p = LPPoly.zero(ctx)
        for _ in range(rng.randint(1, 3)):
            p = p + LPPoly.from_word(ctx, random_word(),
                                     Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
        return p

    for trial in range(300):
        p = LPPoly.from_word(ctx, random_word())
        q = LPPoly.from_word(ctx, random_word())
        # supercommutativity sign law on parity-homogeneous elements
        sign = -1 if (p.parity() == 1 and q.parity() == 1) else 1
        assert p * q == (q * p).scale(sign), trial
        # odd squares vanish
        if p.parity() == 1:
            assert (p * p).terms == {}, trial
        # the weight of a nonzero product of monomials is the max weight
        product = p * q
        if len(p.terms) == 1 and len(q.terms) == 1 and product.terms:
            (m1,), (m2,) = list(p.terms), list(q.terms)
            (mono,) = list(product.terms)
            assert weight(mono) == max(weight(m1), weight(m2)), trial
        # the min action: composition, multiplicativity, unitality, identity
        x, y = random_poly(), random_poly()
        z1, z2 = rng.choice(points), rng.choice(points)
        assert act_min(z1, act_min(z2, x)) == act_min(min(z1, z2), x), trial
        assert act_min(z1, x * y) == act_min(z1, x) * act_min(z1, y), trial
        assert act_min(z1, LPPoly.one(ctx)) == LPPoly.one(ctx), trial
        assert act_min(POS_INF, x) == x, trial


@criterion(10, "threshold character algebra is min")
def test_criterion_10_character_algebra():
    points = [NEG_INF] + [fin(i) for i in range(7)] + [POS_INF]
    for s in points:
        for t in points:
            # char_mult multiplies pointwise and re-recognizes the threshold
            assert char_mult(s, t) == min(s, t)


@criterion(11, "brute-force character oracle agreement")
def test_criterion_11_oracle_equivalence():
    for name, s in sorted(corpus.semilattices().items()):
        if len(s) <= 12:
            assert brute_characters(s) == characters(s), name


GOLDEN_INVOCATIONS = [
    ("slat", "check", "chain2.slat"),
    ("slat", "order", "chain3.slat"),
    ("slat", "characters", "chain2.slat"),
    ("slat", "dual", "chain2.slat"),
    ("slat", "double-dual", "bool2.slat"),
    ("slat", "ev-rank", "div12.slat"),
    ("balg", "axioms", "chain2.slat"),
    ("balg", "quotient", "chain3.slat", "--glue", "n2=n3"),
    ("graded", "verify", "ut2.galg"),
    ("graded", "act", "ut2.galg", "--char", "f1", "--element", "E11:1,E12:2,E22:3"),
    ("graded", "module-algebra", "ut3.galg"),
    ("graded", "action-table", "ut2.galg"),
    ("graded", "ut", "--size", "3", "--labels", "1,2,3"),
    ("nbar", "is-char", "--prefix", "1,1,1", "--tail", "0"),
    ("nbar", "decompose", "--prefix", "3,3,2", "--tail", "5"),
    ("nbar", "translate-basis", "--prefix", "3,2", "--tail", "1"),
    ("nbar", "det", "--row", "1,2"),
    ("lp", "mul", "(x1|1)", "(x2|1)", "--odd-letters", "1,2"),
    ("lp", "weight", "1 + (x1|3)"),
    ("lp", "act", "--z", "2", "(x1|1)*(x2|2) + (x1|3)"),
    ("lp", "embed", "2", "1"),
]


@criterion(12, "byte-identical CLI output across runs")
def test_criterion_12_determinism():
    for argv in GOLDEN_INVOCATIONS:
        argv = [corpus.data_path(a) if a.endswith((".slat", ".galg")) else a
                for a in argv]
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second, argv
        assert first[0] == 0, argv
        # and once more in tsv, also stable
        first_tsv = invoke(*argv, "--format", "tsv")
        assert first_tsv == invoke(*argv, "--format", "tsv"), argv
