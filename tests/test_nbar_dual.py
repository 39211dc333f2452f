import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidual import nbar_dual
from semidual.exactlin import Matrix, det, rank, solve
from semidual.extnat import NEG_INF, POS_INF, fin
from semidual.nbar_dual import (StepFunctional, char_mult, finite_runs,
                                grouplike_decompose, in_finite_dual,
                                is_character, special_det,
                                threshold_functional, translate,
                                translate_span_basis, verify_decomposition)
from semidual.semilattice import Character, characters, validate

from oracles import (cofactor_det, dense_decomposition_holds, point_finite_runs,
                     point_pointwise_mul, point_translate, step_values, window)
from test_exactlin import _follows_exact


def F(prefix, tail):
    return StepFunctional(prefix, tail)


def random_functionals(seed, count):
    """Seeded functionals, led by an empty prefix, a zero tail and a nonzero tail."""
    rng = random.Random(seed)
    grid = [Fraction(k, 2) for k in range(-4, 5)]
    out = [F([], 0), F([], 3), F([1, 1, 2], 0), F([3, 2], 1)]
    for _ in range(count):
        prefix = [rng.choice(grid) for _ in range(rng.randint(0, 6))]
        out.append(F(prefix, rng.choice([Fraction(0), rng.choice(grid)])))
    return out


def long_functional(seed, length, runs, tail):
    """A prefix of length entries in runs seeded constant runs, then tail."""
    rng = random.Random(seed)
    cuts = [0] + sorted(rng.sample(range(1, length), runs - 1)) + [length]
    values = [Fraction(rng.randint(-9, 9), rng.choice([1, 3]))]
    while len(values) < runs:
        value = Fraction(rng.randint(-9, 9), rng.choice([1, 3]))
        if value != values[-1] and (len(values) < runs - 1 or value != tail):
            values.append(value)
    f = F([v for v, a, b in zip(values, cuts, cuts[1:]) for _ in range(b - a)], tail)
    assert len(f.prefix) == length and len(finite_runs(f)) == runs
    return f


def test_eval_examples():
    f = F([1], 0)
    assert f.eval(NEG_INF) == 1
    assert f.eval(fin(7)) == 0
    f2 = F([1, 1, 1, 1], 0)
    assert f2.eval(fin(2)) == 1 and f2.eval(fin(3)) == 0


def test_eval_rejects_plus_inf():
    with pytest.raises(ValueError):
        F([1], 0).eval(POS_INF)


def test_canonical_trimming():
    f = F([3, 1, 1, 1], 1)
    assert f.prefix == (3,) and f.tail == 1
    assert F([2, 2], 2).prefix == ()


def test_fraction_entries_are_kept_and_others_converted():
    third, half = Fraction(1, 3), Fraction(1, 2)
    f = F([third, 2, True], half)
    assert f.prefix[0] is third and f.tail is half
    assert [type(v) for v in (*f.prefix, f.tail)] == [Fraction, int, int, Fraction]
    g = F(["1/3", Fraction(2), 1], "1/2")
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert repr(f) == "StepFunctional(prefix=(1/3,2,1), tail=1/2)"
    with pytest.raises(TypeError):
        F([0.5], 0)


def test_translate_by_bottom_is_identity():
    f = F([3, 2], 1)
    assert translate(f, NEG_INF) == f


def test_translate_refuses_plus_inf_and_bare_ints():
    message = re.escape("translation points live in the max-monoid (no +inf)")
    for n in (POS_INF, 3):
        with pytest.raises(ValueError, match=message):
            translate(F([3, 2], 1), n)


def test_translate_pointwise_oracle():
    f = F([3, 2], 1)
    g = translate(f, fin(0))
    # oracle: evaluate f(max(0, m)) point by point
    for point in [NEG_INF, fin(0), fin(1), fin(2), fin(5)]:
        assert g.eval(point) == f.eval(max(fin(0), point))
    assert g.prefix == (2, 2) and g.tail == 1


def test_translate_threshold_below_is_identity():
    fc = threshold_functional(fin(4))
    for z in [NEG_INF, fin(0), fin(4)]:
        assert translate(fc, z) == fc
    assert translate(fc, fin(5)).is_zero()


def test_translate_action_law():
    rng = random.Random(53)
    points = [NEG_INF] + [fin(i) for i in range(6)]
    for _ in range(50):
        prefix = [Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(rng.randint(0, 4))]
        f = F(prefix, Fraction(rng.randint(-3, 3)))
        a, b = rng.choice(points), rng.choice(points)
        assert translate(translate(f, a), b) == translate(f, max(a, b))


def test_translate_matches_point_oracle():
    for f in random_functionals(83, 80):
        for n in window(f):
            assert translate(f, n) == point_translate(f, n), (f, n)


def test_pointwise_mul_matches_point_oracle():
    fs = random_functionals(89, 30)
    for f in fs:
        for g in fs:
            assert f.pointwise_mul(g) == point_pointwise_mul(f, g), (f, g)


def test_finite_runs_matches_point_oracle():
    fs = random_functionals(97, 80)
    assert not fs[0].prefix
    for f in fs:
        assert finite_runs(f) == point_finite_runs(f), f


# Values whose products with each other are integral, 1/2 * 2 among them, and an
# integral Fraction; runs of equal values may meet, so the constructor merges them.
RUN_VALUES = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
                              Fraction(6, 3)])


@st.composite
def run_inputs(draw):
    """(prefix, tail): 1 to 60 runs of 1 to 4 equal values, and a zero or nonzero tail."""
    values = draw(st.lists(RUN_VALUES, min_size=1, max_size=60))
    lengths = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
    tail = draw(st.one_of(st.just(0), RUN_VALUES))
    return [x for x, n in zip(values, lengths) for _ in range(n)], tail


def _stored_values(f):
    return [value for _, value in f.runs] + [f.tail]


@given(run_inputs(), run_inputs(), st.data())
@settings(max_examples=100, deadline=None)
def test_run_storage_matches_the_point_oracles(first, second, data):
    f, g = F(*first), F(*second)
    points = window(f)
    values = [f.eval(p) for p in points]
    assert values == step_values(*first, len(points))
    assert all(map(_follows_exact, values + _stored_values(f)))
    assert finite_runs(f) == point_finite_runs(f)
    for n in data.draw(st.lists(st.sampled_from(points), min_size=1, max_size=4)):
        assert translate(f, n) == point_translate(f, n)
    product = f.pointwise_mul(g)
    assert product == point_pointwise_mul(f, g)
    assert all(map(_follows_exact, _stored_values(product)))


def test_run_storage_needs_no_pass_over_the_chain(monkeypatch):
    # the work on a functional grows with its runs (R = 1000), not with the
    # chain they cover (N = 100 000 positions)
    f = long_functional(7, 100000, 1000, 4)
    character = threshold_functional(fin(99998))
    bound, calls = 4 * 1000, []
    at, exact = StepFunctional._at, nbar_dual.exact

    def counted(call):
        def wrapper(*args):
            calls.append(call.__name__)
            assert len(calls) <= bound, f"{len(calls)} calls of _at and exact"
            return call(*args)
        return wrapper

    monkeypatch.setattr(StepFunctional, "_at", counted(at))
    monkeypatch.setattr(nbar_dual, "exact", counted(exact))
    for work, arg in [(translate_span_basis, f), (grouplike_decompose, f), (is_character, f),
                      (is_character, character)]:
        calls.clear()
        work(arg)
    assert is_character(character) == fin(99998)


def test_finite_runs_examples():
    assert finite_runs(F([3, 3, 2], 5)) == [(fin(0), 3), (fin(1), 2)]
    assert finite_runs(F([], 7)) == []
    assert finite_runs(F([1], 0)) == [(NEG_INF, 1)]


def test_translate_span_constant():
    basis = translate_span_basis(F([], 4))
    assert tuple(basis) == ()
    assert basis.tail_point == NEG_INF
    assert basis.dimension == 1


def test_translate_span_zero_functional():
    basis = translate_span_basis(F([], 0))
    assert tuple(basis) == () and basis.tail_point is None and basis.dimension == 0


def test_translate_span_threshold():
    # translates of a finite threshold are itself and zero: dimension 1
    basis = translate_span_basis(threshold_functional(fin(2)))
    assert tuple(basis) == (fin(2),)
    assert basis.tail_point is None
    assert basis.dimension == 1


def test_translate_span_two_steps_into_tail():
    basis = translate_span_basis(F([3, 2], 1))
    assert tuple(basis) == (NEG_INF, fin(0))
    assert basis.tail_point == fin(1)
    assert basis.dimension == 3


def test_translate_span_rank_oracle():
    # independent check: rank of the full translate matrix on a window
    longer = [long_functional(seed, 60, runs, tail)
              for seed, runs, tail in [(1, 1, 0), (2, 7, 0), (3, 60, 0),
                                       (4, 1, 2), (5, 7, Fraction(-1, 3)), (6, 60, 5)]]
    for f in random_functionals(71, 60) + longer:
        points = window(f)
        rows = [[g.eval(q) for q in points] for g in (point_translate(f, p) for p in points)]
        assert rank(Matrix.from_rows(rows)) == translate_span_basis(f).dimension, f


def test_translate_runs_once_per_basis_point(monkeypatch):
    f = long_functional(7, 1000, 100, 4)
    calls = []
    original = nbar_dual.translate
    monkeypatch.setattr(nbar_dual, "translate", lambda g, n: calls.append(n) or original(g, n))
    basis = translate_span_basis(f)
    assert basis.dimension == 100 + 1
    assert calls == list(basis) + [basis.tail_point]


def test_collapsed_translate_is_caught(monkeypatch):
    monkeypatch.setattr(nbar_dual, "translate", lambda f, n: f)
    with pytest.raises(ArithmeticError, match="not linearly independent"):
        translate_span_basis(F([3, 2], 1))


def test_corrupted_runs_are_caught(monkeypatch):
    # F([3, 3, 2], 5) has runs ending at 0 (value 3) and 1 (value 2)
    original = nbar_dual.finite_runs
    monkeypatch.setattr(nbar_dual, "finite_runs", lambda f: original(f)[1:])
    with pytest.raises(ArithmeticError, match="translate at -inf escapes the breakpoint span"):
        translate_span_basis(F([3, 3, 2], 5))
    # dropping the last run leaves position 2 (value 2) to the tail check
    monkeypatch.setattr(nbar_dual, "finite_runs", lambda f: original(f)[:-1])
    for tail in (5, 0):
        with pytest.raises(ArithmeticError, match="translate at 1 escapes the breakpoint span"):
            translate_span_basis(F([3, 3, 2], tail))
    # splitting the first run at -inf repeats a value: the closed form is 0
    monkeypatch.setattr(nbar_dual, "finite_runs", lambda f: [(NEG_INF, 3)] + original(f))
    with pytest.raises(ArithmeticError, match="not linearly independent"):
        translate_span_basis(F([3, 3, 2], 5))


def test_in_finite_dual_certificates():
    assert in_finite_dual(threshold_functional(fin(3))).dimension == 1
    assert in_finite_dual(threshold_functional(POS_INF)).dimension == 1
    assert in_finite_dual(F([], 0)).dimension == 0
    assert in_finite_dual(F([1, 2, 3], 3)).dimension == 3


def test_is_character_matches_pairwise_multiplicativity():
    rng = random.Random(73)
    for _ in range(300):
        f = F([rng.randint(0, 1) for _ in range(rng.randint(0, 6))], rng.randint(0, 1))
        points = window(f)
        brute = f.eval(NEG_INF) == 1 and all(f.eval(max(a, b)) == f.eval(a) * f.eval(b)
                                             for a in points for b in points)
        threshold = is_character(f)
        assert (threshold is not None) == brute, f
        if brute:
            assert threshold_functional(threshold) == f


def test_is_character_examples():
    assert is_character(F([1, 1, 1], 0)) == fin(1)
    assert is_character(F([], 1)) == POS_INF
    assert is_character(F([1, 2], 2)) is None
    assert is_character(F([1], 0)) == NEG_INF
    assert is_character(F([], 0)) is None
    assert is_character(F([1, 0, 1, 1], 0)) is None


def test_threshold_functional_round_trip():
    for c in [NEG_INF, fin(0), fin(1), fin(5), POS_INF]:
        assert is_character(threshold_functional(c)) == c


def test_char_mult_examples():
    assert char_mult(fin(3), fin(5)) == fin(3)
    assert char_mult(POS_INF, fin(4)) == fin(4)
    assert char_mult(NEG_INF, fin(4)) == NEG_INF


def test_char_mult_full_grid():
    points = [NEG_INF] + [fin(i) for i in range(7)] + [POS_INF]
    for s in points:
        for t in points:
            assert char_mult(s, t) == min(s, t)


def test_char_mult_disagreement_is_caught(monkeypatch):
    # a recognizer that reads every product as f_{+inf}
    monkeypatch.setattr(nbar_dual, "is_character", lambda f: POS_INF)
    with pytest.raises(ArithmeticError) as info:
        char_mult(fin(3), fin(5))
    assert str(info.value) == "pointwise product of f_3 and f_5 is f_+inf, not f_3"
    assert char_mult(POS_INF, POS_INF) == POS_INF


def test_special_det_examples():
    r = special_det([1, 2])
    assert r.det == -2 and r.closed_form == -2 and r.preconditions_met and r.nonzero
    r = special_det([3, 3])
    assert r.det == 0 and not r.preconditions_met and not r.nonzero
    r = special_det([3, 1, 2])
    assert r.det == -4
    # oracle: direct cofactor expansion of the patterned matrix
    rows = [[3, 1, 2], [1, 1, 2], [2, 2, 2]]
    assert cofactor_det(rows) == -4


def test_special_det_random_agreement():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(1, 7)
        row = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(n)]
        r = special_det(row)
        assert r.det == r.closed_form
        if r.preconditions_met:
            assert r.nonzero


# zeros, ints and fractions of mixed denominators; each entry may also repeat its left neighbour
SPECIAL_ENTRIES = st.one_of(st.just(0), st.integers(-5, 5),
                            st.fractions(-3, 3, max_denominator=6))


@given(drawn=st.lists(st.tuples(st.booleans(), SPECIAL_ENTRIES), max_size=30))
@settings(max_examples=150, deadline=None)
def test_special_det_matches_elimination_and_cofactors(drawn):
    row = []
    for repeat, entry in drawn:
        row.append(row[-1] if repeat and row else entry)
    n = len(row)
    dense = [[row[max(i, j)] for j in range(n)] for i in range(n)]
    result = special_det(row)
    assert result.det == result.closed_form == det(Matrix.from_rows(dense))
    if n <= 6:
        assert result.det == cofactor_det(dense)


def test_decompose_constant():
    assert grouplike_decompose(F([], Fraction(7, 2))) == {POS_INF: Fraction(7, 2)}


def test_decompose_single_step():
    a1, a2 = Fraction(5), Fraction(-1, 2)
    coeffs = grouplike_decompose(F([a1], a2))
    assert coeffs == {POS_INF: a2, NEG_INF: a1 - a2}


def test_decompose_two_step_worked_example():
    f = F([3, 3, 2], 5)
    coeffs = grouplike_decompose(f)
    assert coeffs == {POS_INF: Fraction(5), fin(1): Fraction(-3), fin(0): Fraction(1)}
    # spot checks from the worked example
    assert f.eval(NEG_INF) == 5 - 3 + 1
    assert f.eval(fin(1)) == 5 - 3
    assert f.eval(fin(2)) == 5
    assert verify_decomposition(f, coeffs)


def test_decompose_character_is_idempotent():
    coeffs = grouplike_decompose(threshold_functional(fin(2)))
    nonzero = {c: v for c, v in coeffs.items() if v != 0}
    assert nonzero == {fin(2): Fraction(1)}


def test_decompose_matches_linear_solve():
    # the threshold evaluation matrix is lower unitriangular with the points
    # (tail onset, then run ends) and the characters (+inf, then run ends)
    # both in decreasing order; solving it gives the telescoped coefficients
    for f in random_functionals(79, 80):
        coeffs = grouplike_decompose(f)
        ends = [end for end, _ in reversed(finite_runs(f))]
        candidates = [POS_INF] + ends
        points = [f.tail_onset()] + ends
        rows = [[threshold_functional(c).eval(p) for c in candidates] for p in points]
        assert all(rows[i][j] == int(j <= i)
                   for i in range(len(rows)) for j in range(len(rows))), f
        solved = solve(Matrix.from_rows(rows), [f.eval(p) for p in points])
        assert dict(zip(candidates, solved)) == coeffs, f


@pytest.mark.parametrize("fault", [
    lambda runs: [(end, value + 1) for end, value in runs],
    lambda runs: runs[1:],
], ids=["shifted-values", "dropped-first-run"])
def test_corrupted_decomposition_is_caught(monkeypatch, fault):
    original = nbar_dual.finite_runs
    monkeypatch.setattr(nbar_dual, "finite_runs", lambda f: fault(original(f)))
    with pytest.raises(ArithmeticError, match="does not reconstruct"):
        grouplike_decompose(F([3, 3, 2], 5))


@pytest.mark.parametrize("f, coeffs", [
    # both thresholds lie past the tail onset: the sum is -1 at 11, where f is 0
    (F([], 0), {fin(10): 1, fin(11): -1}),
    # f_{-inf} - f_{+inf} is 0 at -inf and -1 from 0 on
    (F([], 0), {NEG_INF: 1, POS_INF: -1}),
    # the true decomposition plus 2 f_40 - 2 f_41, which is -2 at 41 alone
    (F([3, 3, 2], 5), {POS_INF: 5, fin(1): -3, fin(0): 1, fin(40): 2, fin(41): -2}),
])
def test_verify_decomposition_refuses_a_wrong_combination(f, coeffs):
    assert not verify_decomposition(f, coeffs)
    assert not dense_decomposition_holds(f, coeffs)


@st.composite
def decompositions(draw):
    """(f, coeffs): f with 1 to 60 finite runs of 1 to 4 points and a zero or
    nonzero tail, and its decomposition, true or with one fault."""
    nonzero = st.integers(-6, 5).map(lambda k: Fraction(k + (k >= 0), 3))
    tail = draw(st.one_of(st.just(Fraction(0)), nonzero))
    steps = draw(st.lists(nonzero, min_size=1, max_size=60))
    lengths = draw(st.lists(st.integers(1, 4), min_size=len(steps), max_size=len(steps)))
    runs = [tail + sum(steps[:k]) for k in range(len(steps), 0, -1)]
    f = F([v for v, n in zip(runs, lengths) for _ in range(n)], tail)
    coeffs = grouplike_decompose(f)
    fault = draw(st.sampled_from(["none", "changed", "moved", "dropped", "extra"]))
    keys = sorted(coeffs)
    free = [p for p in [NEG_INF] + [fin(i) for i in range(len(f.prefix) + 10)] + [POS_INF]
            if p not in coeffs]
    if fault == "changed":
        c = draw(st.sampled_from(keys))
        coeffs[c] += draw(nonzero)
    elif fault == "moved":
        c = draw(st.sampled_from(keys))
        coeffs[draw(st.sampled_from(free))] = coeffs.pop(c)
    elif fault == "dropped":
        del coeffs[draw(st.sampled_from(keys))]
    elif fault == "extra":
        coeffs[draw(st.sampled_from(free))] = draw(nonzero)
    return fault, f, coeffs


@given(decompositions())
@settings(max_examples=200, deadline=None)
def test_verify_decomposition_matches_dense_oracle(case):
    fault, f, coeffs = case
    verdict = verify_decomposition(f, coeffs)
    assert verdict == dense_decomposition_holds(f, coeffs)
    if fault in ("none", "changed", "extra"):
        assert verdict == (fault == "none")


@given(st.lists(st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]), max_size=8),
       st.sampled_from([0, 1, Fraction(-1, 2)]))
@settings(max_examples=200, deadline=None)
def test_decomposition_is_the_moebius_inversion_of_f(prefix, tail):
    # f = sum_c a_c f_c with f_c = [p <= c] inverts to a_c = f(c) - f(c + 1)
    f = F(prefix, tail)
    want, c = {POS_INF: f.tail}, NEG_INF
    while c <= f.tail_onset():
        step = f.eval(c) - f.eval(c.succ())
        if step:
            want[c] = step
        c = c.succ()
    assert grouplike_decompose(f) == want


def test_decompose_random_round_trip():
    rng = random.Random(61)
    grid = [Fraction(k, 2) for k in range(-6, 7)]
    for _ in range(120):
        run_count = rng.randint(1, 6)
        values = [rng.choice(grid)]
        while len(values) < run_count:
            nxt = rng.choice(grid)
            if nxt != values[-1]:
                values.append(nxt)
        prefix = []
        for value in values[:-1]:
            prefix.extend([value] * rng.randint(1, 3))
        f = F(prefix, values[-1])
        coeffs = grouplike_decompose(f)
        assert verify_decomposition(f, coeffs)
        assert len(coeffs) == run_count  # +inf plus one per finite run
        assert POS_INF in coeffs and coeffs[POS_INF] == f.tail


def test_span_basis_size_matches_run_count():
    rng = random.Random(67)
    grid = [Fraction(k) for k in range(-3, 4)]
    for _ in range(60):
        prefix = []
        last = None
        for _ in range(rng.randint(0, 5)):
            value = rng.choice(grid)
            prefix.append(value)
            last = value
        tail = rng.choice([x for x in grid if x != last] or grid)
        f = F(prefix, tail)
        assert len(translate_span_basis(f)) == len(finite_runs(f))


def test_character_span_dimension_small():
    for c in [NEG_INF, fin(0), fin(3), POS_INF]:
        f = threshold_functional(c)
        assert translate_span_basis(f).dimension <= 2


# The infinite side as a Pontryagin pair. The threshold characters f_c, for c
# in N̄ ∪ {+inf}, form the min-monoid M = (N̄ ∪ {+inf}, min) with identity
# f_{+inf}, and grouplike_decompose carries the finite dual onto kM as an
# algebra: the pointwise product goes to the min-convolution, the constant 1
# to {+inf: 1}, and translation by p deletes the coefficients at c < p.

PAIR_VALUES = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
functionals = st.builds(F, st.lists(PAIR_VALUES, max_size=8),
                        st.one_of(st.just(0), PAIR_VALUES))
finite_points = st.one_of(st.just(NEG_INF), st.integers(0, 9).map(fin))


def _nonzero(coeffs):
    return {c: a for c, a in coeffs.items() if a}


def _convolution(a, b, join):
    out = {}
    for c, x in a.items():
        for d, y in b.items():
            out[join(c, d)] = out.get(join(c, d), 0) + x * y
    return _nonzero(out)


def _product_law(f, g, join=min):
    product = grouplike_decompose(f.pointwise_mul(g))
    return _nonzero(product) == _convolution(grouplike_decompose(f), grouplike_decompose(g), join)


def _unit_law(f, decompose=grouplike_decompose):
    one = F((), 1)
    return (decompose(one) == {POS_INF: 1}
            and decompose(f.pointwise_mul(one)) == decompose(f)
            and _nonzero(decompose(f)) == _convolution(decompose(f), decompose(one), min))


def _translation_law(f, p, shift=translate):
    kept = {c: a for c, a in _nonzero(grouplike_decompose(f)).items() if c >= p}
    return _nonzero(grouplike_decompose(shift(f, p))) == kept


@given(functionals, functionals)
@settings(max_examples=200, deadline=None)
def test_decomposition_takes_products_to_min_convolutions(f, g):
    assert _product_law(f, g)


@given(functionals)
@settings(max_examples=100, deadline=None)
def test_decomposition_takes_the_constant_one_to_the_unit(f):
    assert _unit_law(f)


@given(functionals, finite_points)
@settings(max_examples=200, deadline=None)
def test_translation_by_p_kills_the_coefficients_below_p(f, p):
    assert _translation_law(f, p)


def _evaluation_gap(k, op=min, window=None):
    """Evaluations at the window points and the characters of the chain
    {-inf, 0, ..., k, +inf} under op; n evaluates to c -> f_c(n).

    The window is -inf, 0, ..., k unless given. Returns (evaluations,
    characters, the chain's points).
    """
    points = [NEG_INF] + [fin(i) for i in range(k + 1)] + [POS_INF]
    identity = next(e for e in points if all(op(e, x) == x for x in points))
    s = validate([str(x) for x in points],
                 {(str(x), str(y)): str(op(x, y)) for x in points for y in points}, str(identity))
    window = points[:-1] if window is None else window
    evaluations = [Character(tuple(threshold_functional(c).eval(n) for c in points))
                   for n in window]
    return evaluations, characters(s), points


def _gap_is_the_point_at_plus_inf(k, op=min, window=None):
    evaluations, chars, points = _evaluation_gap(k, op, window)
    only_at_top = Character(tuple(int(c == POS_INF) for c in points))
    return (len(set(evaluations)) == len(evaluations)
            and set(chars) - set(evaluations) == {only_at_top}
            and set(evaluations) <= set(chars))


@pytest.mark.parametrize("k", [0, 1, 3, 8])
def test_double_dual_of_a_window_misses_only_the_point_at_plus_inf(k):
    # the characters of (chain, min) are the up-set indicators [c >= n]; the
    # evaluations at -inf, 0, ..., k are injective and give all but the one for
    # n = +inf, so the double dual of N̄ is N̄ ∪ {+inf}
    evaluations, chars, points = _evaluation_gap(k)
    assert len(chars) == len(points) == len(evaluations) + 1
    assert _gap_is_the_point_at_plus_inf(k)


def _drop_plus_inf_term(f):
    return {c: a for c, a in grouplike_decompose(f).items() if c != POS_INF}


PAIR_CASES = random_functionals(101, 30)


@pytest.mark.parametrize("law", ["product-by-max", "unit-without-plus-inf", "translate-one-too-far",
                                 "gap-under-max", "gap-without-bottom"])
def test_pontryagin_laws_catch_a_planted_fault(law):
    points = [NEG_INF] + [fin(i) for i in range(6)]
    if law == "product-by-max":
        holds = all(_product_law(f, g, join=max) for f in PAIR_CASES for g in PAIR_CASES)
    elif law == "unit-without-plus-inf":
        holds = all(_unit_law(f, decompose=_drop_plus_inf_term) for f in PAIR_CASES)
    elif law == "translate-one-too-far":
        holds = all(_translation_law(f, p, shift=lambda f, p: translate(f, p.succ()))
                    for f in PAIR_CASES for p in points)
    elif law == "gap-under-max":
        holds = _gap_is_the_point_at_plus_inf(3, op=max)
    else:
        holds = _gap_is_the_point_at_plus_inf(3, window=[fin(i) for i in range(4)])
    assert not holds
    # the same cases pass without the fault
    assert all(_product_law(f, g) for f in PAIR_CASES for g in PAIR_CASES)
    assert all(_unit_law(f) and _translation_law(f, p) for f in PAIR_CASES for p in points)
    assert _gap_is_the_point_at_plus_inf(3)
