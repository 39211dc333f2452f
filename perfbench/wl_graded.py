"""graded_action: the dual of the grading semilattice acting on a graded algebra.

Two families. The upper-triangular algebras ut_graded(m) split their unit
across degrees, so the unit-law lines are INFO. The monoid algebras k[S],
graded by S itself, keep the unit in the identity degree, so the strict
unit law is checked and PASSes. Each algebra goes through five jobs:
a print/parse round trip, verify_grading, check_module_algebra,
dual_monoid_action and act_character. The dual action's dense Fraction
`Matrix.matmul` dominates; the semilattice work is light.
"""

from fractions import Fraction

from semidual import graded, semilattice

import checks
import families
from jobs import Job

UT_SIZES = (3, 4, 5, 6)
MONOID_SIZES = (6, 7, 8, 9, 10)
ELEMENTS_PER_CHARACTER = 3


def _ut(rng, m):
    labels = sorted(rng.sample(range(40), m))
    algebra = graded.ut_graded(m, labels)
    units = [(p, q) for p in range(1, m + 1) for q in range(p, m + 1)]
    basis = [f"E{p}{q}" for p, q in units]
    degree = [m - p for p, _ in units]
    chars = checks.indicator_characters(m, lambda t, x: t <= x)
    return f"ut{m}", algebra, basis, degree, chars, True


def _monoid_algebra(rng, n):
    """k[S] for a random S: basis u_s in degree s, u_s u_t = u_{s v t}, unit u_0."""
    masks = families.union_closed(rng, n, universe=8)
    labels = [f"s{i}" for i in range(n)]
    index = {m: i for i, m in enumerate(masks)}
    join = [[index[a | b] for b in masks] for a in masks]
    op_table = {(labels[i], labels[j]): labels[join[i][j]] for i in range(n) for j in range(i, n)}
    grading = semilattice.validate(labels, op_table, labels[0])
    basis = [f"u{i}" for i in range(n)]
    structure = {(i, j): {join[i][j]: Fraction(1)} for i in range(n) for j in range(n)}
    algebra = graded.GradedFDAlgebra(basis, structure, {0: Fraction(1)}, grading, range(n))
    chars = checks.indicator_characters(n, lambda t, x: masks[t] & ~masks[x] == 0)
    return f"kS{n}", algebra, basis, list(range(n)), chars, False


def _random_coords(rng, dim):
    picks = rng.sample(range(dim), rng.randint(1, dim))
    return {i: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
            for i in picks}


def _fields(algebra):
    g = algebra.grading
    return (algebra.basis, algebra.structure, algebra.unit, algebra.degree,
            g.elements, g.identity, g.table)


def _jobs(name, algebra, basis, degree, chars, unit_split, rng):
    if list(algebra.basis) != basis:
        raise ValueError(f"{name}: basis {algebra.basis}, want {basis}")
    snapshot = _fields(algebra)
    slat_text = semilattice.print_semilattice(algebra.grading)
    ref = f"{name}-grading.slat"

    def loader(path):
        return semilattice.parse_semilattice(slat_text, source=path)

    def round_trip():
        text = graded.print_graded(algebra, ref)
        return graded.parse_graded(text, source=f"{name}.galg", slat_loader=loader)

    acted = [(semilattice.Character(ch), algebra.element(_random_coords(rng, len(basis))))
             for ch in chars for _ in range(ELEMENTS_PER_CHARACTER)]

    def act():
        return [graded.act_character(ch, a).coords for ch, a in acted]

    def act_expected():
        return [checks.coordinate_filter(a.coords, ch.values, degree) for ch, a in acted]

    def action_check(action, want):
        return (checks.gamma_matrices(action, chars, degree)
                or checks.report_statuses(action.report, want))

    return [
        Job(f"round-trip {name}", round_trip, lambda: snapshot,
            lambda b, want: None if _fields(b) == want else "parse(print(A)) != A"),
        Job(f"verify {name}", lambda: graded.verify_grading(algebra),
            lambda: checks.grading_statuses(unit_split), checks.report_statuses),
        Job(f"module-algebra {name}", lambda: graded.check_module_algebra(algebra),
            lambda: checks.module_algebra_statuses(chars, unit_split), checks.report_statuses),
        Job(f"action {name}", lambda: graded.dual_monoid_action(algebra),
            lambda: checks.dual_action_statuses(chars, unit_split), action_check),
        Job(f"act {name}", act, act_expected,
            lambda got, want: None if got == want else "act_character != coordinate filter"),
    ]


def setup(rng, workdir):
    jobs = []
    built = [_ut(rng, m) for m in UT_SIZES] + [_monoid_algebra(rng, n) for n in MONOID_SIZES]
    for spec in built:
        jobs += _jobs(*spec, rng)
    return jobs
