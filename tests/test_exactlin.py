import operator
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semidual import corpus, exactlin
from semidual.bialgebra import MonoidAlgebraElement, TensorElement, counit
from semidual.exactlin import (DimensionMismatchError, Matrix, NonSquareError,
                               ParentMismatchError, bilinear, det, exact, rank, solve)
from semidual.extnat import POS_INF, fin
from semidual.graded import AlgebraElement, ut_graded
from semidual.letterplace import LPPoly, ParityContext, normalize, variable
from semidual.nbar_dual import StepFunctional, grouplike_decompose, special_det, translate

from oracles import (cofactor_det, gauss_rank, gauss_solve, loop_graded_product,
                     loop_letterplace_product, loop_monoid_product, loop_tensor_product,
                     minor_rank, mutated, point_pointwise_mul, point_translate, step_values,
                     window)
from test_graded import _monoid_algebra
from test_semilattice import union_closed_families


def mat(rows):
    return Matrix.from_rows(rows)


def identity(n):
    return mat([[int(i == j) for j in range(n)] for i in range(n)])


def row_lists(m):
    return [list(m.row(i)) for i in range(m.rows)]


def transpose(m):
    return mat([[m.at(i, j) for i in range(m.rows)] for j in range(m.cols)])


def test_det_2x2_formula():
    assert det(mat([[1, 2], [3, 4]])) == -2


def test_det_identity():
    for n in range(5):
        assert det(identity(n)) == 1


def test_det_step_pattern_2x2():
    # first row (a11, a12) = (1, 2): det = a11 a12 - a12^2 = -2
    assert det(mat([[1, 2], [2, 2]])) == -2


def test_rank_identity_and_ones():
    assert rank(identity(2)) == 2
    assert rank(mat([[1, 1], [1, 1]])) == 1


def test_rank_step_pattern_3x3():
    rows = [[2, 1, 3], [1, 1, 3], [3, 3, 3]]
    assert cofactor_det(rows) == -6  # oracle: the matrix is nonsingular
    assert rank(mat(rows)) == 3


def test_solve_identity():
    b = [Fraction(3), Fraction(-1, 2)]
    assert solve(identity(2), b) == tuple(b)


def test_solve_hand_checked():
    assert solve(mat([[1, 1], [1, 0]]), [3, 1]) == (Fraction(1), Fraction(2))


def test_solve_generation_system():
    # coefficient matrix of the two-value generation system with values (1, 2)
    x = solve(mat([[1, 2], [2, 2]]), [2, 2])
    assert x == (Fraction(0), Fraction(1))
    assert [1 * x[0] + 2 * x[1], 2 * x[0] + 2 * x[1]] == [2, 2]


def test_solve_singular_returns_none():
    assert solve(mat([[1, 1], [1, 1]]), [1, 2]) is None
    assert solve(mat([[1, 1], [1, 1]]), [1, 1]) is None


def test_matrix_refuses_a_wrong_entry_count_and_ragged_rows():
    with pytest.raises(ValueError, match=r"need 2x2 = 4 entries, got 3"):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix.from_rows([[1, 2], [3]])


def test_det_rejects_non_square():
    with pytest.raises(NonSquareError):
        det(mat([[1, 2, 3], [4, 5, 6]]))


def test_solve_rejects_bad_shapes():
    with pytest.raises(NonSquareError):
        solve(mat([[1, 2, 3], [4, 5, 6]]), [1, 2])
    with pytest.raises(DimensionMismatchError):
        solve(identity(2), [1, 2, 3])


def _random_matrix(rng, rows, cols):
    return mat([[Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                 for _ in range(cols)] for _ in range(rows)])


def test_det_multiplicative_property():
    rng = random.Random(101)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = _random_matrix(rng, n, n)
        b = _random_matrix(rng, n, n)
        assert det(a.matmul(b)) == det(a) * det(b)


def test_rank_transpose_property():
    rng = random.Random(102)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) == rank(transpose(m))


def test_rank_against_minor_oracle():
    rng = random.Random(103)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(c)] for _ in range(r)]
        assert rank(mat(rows)) == minor_rank(rows)


def test_rank_against_gauss_oracle():
    # the fraction-free elimination skips zero columns; make sure the exact
    # division property survives sparse, low-rank, and fractional inputs
    rng = random.Random(107)
    for trial in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        style = trial % 3
        if style == 0:
            rows = [[Fraction(rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(n)]
                    for _ in range(m)]
        elif style == 1:
            k = rng.randint(1, 3)
            u = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(m)]
            w = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
            rows = [[Fraction(sum(u[i][t] * w[t][j] for t in range(k)))
                     for j in range(n)] for i in range(m)]
        else:
            rows = [[Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4]))
                     for _ in range(n)] for _ in range(m)]
        assert rank(mat(rows)) == gauss_rank(rows)


def test_det_against_cofactor_oracle():
    rng = random.Random(104)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        assert det(m) == cofactor_det(row_lists(m))


def test_solve_postconditions():
    rng = random.Random(105)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        b = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        x = solve(m, b)
        if x is None:
            assert det(m) == 0
        else:
            assert [sum(a * xj for a, xj in zip(m.row(i), x)) for i in range(n)] == b


def test_solve_against_gauss_oracle():
    # square systems of size 0-8 with rational entries; every third one is
    # made singular by a dependent or zero row, and then both must return None
    rng = random.Random(108)
    singular = 0
    for trial in range(120):
        n = trial % 9
        rows = [[Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 7])) for _ in range(n)]
                for _ in range(n)]
        if trial % 3 == 1:
            k = rng.randrange(n)
            other = rng.randrange(n)
            c = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            rows[k] = [c * x for x in rows[other]] if other != k else [Fraction(0)] * n
        b = [Fraction(rng.randint(-5, 5), rng.choice([1, 4])) for _ in range(n)]
        x = solve(mat(rows), b)
        assert x == gauss_solve(rows, b)
        singular += x is None
    assert singular >= 40


def _mixed_denominator_systems():
    """Square systems of size 2-4 whose rows mix denominators, with right-hand sides."""
    rng = random.Random(109)
    systems = []
    for trial in range(30):
        n = 2 + trial % 3
        rows = [[Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 6])) for _ in range(n)]
                for _ in range(n)]
        b = [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 5])) for _ in range(n)]
        systems.append((rows, b))
    return systems


def test_integer_rows_fault_is_caught_by_det_and_solve_oracles(monkeypatch):
    # scaling each entry by the row's whole lcm instead of lcm // denominator
    # leaves an int row that is no multiple of the input row once denominators mix
    faulty = mutated(exactlin._integer_rows, "x.numerator * (mult // x.denominator)",
                     "x.numerator * mult")
    systems = _mixed_denominator_systems()
    assert all(det(mat(rows)) == cofactor_det(rows) and solve(mat(rows), b) == gauss_solve(rows, b)
               for rows, b in systems)
    monkeypatch.setattr(exactlin, "_integer_rows", faulty)
    assert any(det(mat(rows)) != cofactor_det(rows) for rows, _ in systems)
    assert any(solve(mat(rows), b) != gauss_solve(rows, b) for rows, b in systems)


def test_det_with_zero_column():
    rows = [[1, 0, 2], [3, 0, 4], [5, 0, 6]]
    assert det(mat(rows)) == cofactor_det(rows) == 0
    assert det(mat([[0, 1], [0, Fraction(1, 2)]])) == 0


def test_rank_of_wide_matrix_with_zero_columns():
    rows = [[0, 1, 0, 2, 0, 0, 3], [0, 2, 0, 4, 0, 1, 6], [0, 0, 0, 0, 0, Fraction(1, 3), 0]]
    assert rank(mat(rows)) == gauss_rank(rows) == minor_rank(rows) == 2


POOL = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1), Fraction(2)]
DIV12 = corpus.load_semilattice("div12")
UT3 = ut_graded(3, [1, 2, 3])
LP_CTX = ParityContext.make(odd_letters=[1], odd_places=[2])
LP_VARIABLES = [variable(a, b) for a in (1, 2) for b in (1, 2)]
LP_MONOMIALS = sorted({signed[1] for n in range(3) for word in product(LP_VARIABLES, repeat=n)
                       for signed in [normalize(word, LP_CTX)] if signed})
# class, parent and basis keys of each algebra
SPACES = {
    "kS": (MonoidAlgebraElement, DIV12, list(range(len(DIV12)))),
    "kS(x)kS": (TensorElement, DIV12, [(i, j) for i in range(len(DIV12)) for j in range(len(DIV12))]),
    "graded": (AlgebraElement, UT3, list(range(UT3.dim))),
    "letterplace": (LPPoly, LP_CTX, LP_MONOMIALS),
}
# two elements with different parents per algebra
MIXED = {
    "kS": (MonoidAlgebraElement.unit(corpus.chain(2)), MonoidAlgebraElement.unit(corpus.chain(3))),
    "kS(x)kS": (TensorElement(corpus.chain(2), {(0, 1): 1}),
                TensorElement(corpus.chain(3), {(0, 1): 1})),
    "graded": (ut_graded(2, [1, 2]).one(), ut_graded(3, [1, 2, 3]).one()),
    "letterplace": (LPPoly.one(ParityContext.make()), LPPoly.one(LP_CTX)),
}


@pytest.mark.parametrize("space", sorted(SPACES))
def test_vector_space_laws(space):
    cls, parent, keys = SPACES[space]
    rng = random.Random(61)

    def vector():
        return cls(parent, {k: rng.choice(POOL) for k in rng.sample(keys, rng.randint(0, 5))})

    for _ in range(40):
        a, b, c = vector(), vector(), vector()
        k, m = rng.choice(POOL), rng.choice(POOL)
        assert (a + b) - b == a
        assert (a + b).scale(k) == a.scale(k) + b.scale(k)
        assert a.scale(k + m) == a.scale(k) + a.scale(m)
        assert (a + b) * c == a * c + b * c
        assert c * (a + b) == c * a + c * b
        assert a.scale(k) * b == (a * b).scale(k) == a * b.scale(k)
        assert not (a - a).coeffs and all((a + b).coeffs.values())
        assert hash((a + b) - b) == hash(a)


# the hand-written double loop of each algebra's product
LOOP_PRODUCTS = {"kS": loop_monoid_product, "kS(x)kS": loop_tensor_product,
                 "graded": loop_graded_product, "letterplace": loop_letterplace_product}


@pytest.mark.parametrize("space", sorted(SPACES))
def test_product_matches_loop_oracle(space):
    cls, parent, keys = SPACES[space]
    rng = random.Random(67)
    for _ in range(40):
        a, b = (cls(parent, {k: rng.choice(POOL) for k in rng.sample(keys, rng.randint(0, 6))})
                for _ in range(2))
        assert (a * b).coeffs == LOOP_PRODUCTS[space](a, b)


@pytest.mark.parametrize("c", [1, -1, Fraction(2, 3), Fraction(-5, 2)])
def test_bilinear_scales_each_pair_by_its_basis_constant(c):
    left = {"a": Fraction(2), "b": Fraction(-1, 3)}
    right = {"u": Fraction(3, 4)}
    out = bilinear(left.items(), right.items(), lambda i, j: {i + j: c})
    assert out == {"au": Fraction(3, 2) * c, "bu": Fraction(-1, 4) * c}
    assert all(isinstance(v, Fraction) for v in out.values())


def test_bilinear_sums_pairs_on_one_key_and_skips_empty_products():
    left = [(1, Fraction(1)), (2, Fraction(2))]
    right = [(1, Fraction(1, 2)), (2, Fraction(-1, 4)), (3, Fraction(5))]

    def times(i, j):
        # keys multiply; odd products vanish and 2 * 2 carries a structure constant
        if i * j % 2:
            return {}
        return {"even": Fraction(3, 2) if i == j == 2 else -1}

    # pairs (1, 2), (2, 1), (2, 2), (2, 3): -(-1/4) - 1 + (3/2)(-1/2) - 10
    assert bilinear(left, right, times) == {"even": Fraction(1, 4) - 1 - Fraction(3, 4) - 10}
    assert bilinear(left, [], times) == bilinear([], right, times) == {}


def test_bilinear_keeps_zero_sums_for_the_caller_to_clean():
    left = [("x", Fraction(1)), ("y", Fraction(1))]
    out = bilinear(left, [("z", Fraction(1))], lambda i, j: {0: 1 if i == "x" else -1})
    assert out == {0: 0}
    assert MonoidAlgebraElement(DIV12, out).coeffs == {}


@pytest.mark.parametrize("space", sorted(MIXED))
def test_mixed_parents_raise(space):
    x, y = MIXED[space]
    for combine in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ParentMismatchError):
            combine(x, y)
        with pytest.raises(ParentMismatchError):
            combine(y, x)
    assert x != y


# ints, bools, and Fractions with and without a denominator of 1
COEFFICIENTS = st.one_of(st.integers(-4, 4), st.booleans(), st.integers(-4, 4).map(Fraction),
                         st.fractions(-4, 4, max_denominator=6))


@st.composite
def spaces(draw):
    """(class, parent, basis keys) of kS or kS (x) kS on a random union-closed family,
    of ut_graded(m), of k[S] graded by S, or of the letterplace polynomials."""
    kind = draw(st.sampled_from(["kS", "kS(x)kS", "ut", "k[S]", "letterplace"]))
    if kind == "letterplace":
        return LPPoly, LP_CTX, LP_MONOMIALS
    if kind == "ut":
        m = draw(st.integers(1, 4))
        algebra = ut_graded(m, range(1, m + 1))
        return AlgebraElement, algebra, list(range(algebra.dim))
    s = draw(union_closed_families(max_members=8))
    n = range(len(s))
    if kind == "k[S]":
        return AlgebraElement, _monoid_algebra(s), list(n)
    if kind == "kS":
        return MonoidAlgebraElement, s, list(n)
    return TensorElement, s, [(i, j) for i in n for j in n]


def _as_fractions(v):
    """The vector v with every coordinate held as a Fraction, set past the constructor."""
    out = object.__new__(type(v))
    out.parent, out.coeffs = v.parent, {k: Fraction(c) for k, c in v.coeffs.items()}
    return out


def _assert_exact(v):
    for c in v.coeffs.values():
        assert type(c) is int or type(c) is Fraction and c.denominator != 1, repr(c)
        assert c
    assert v == _as_fractions(v) and _as_fractions(v) == v
    assert hash(v) == hash(_as_fractions(v))


@given(space=spaces(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_coefficients_are_ints_or_proper_fractions(space, data):
    cls, parent, keys = space
    vector = st.dictionaries(st.sampled_from(keys), COEFFICIENTS, max_size=5)
    raw_a, raw_b = data.draw(vector), data.draw(vector)
    k = data.draw(COEFFICIENTS)
    a, b = cls(parent, raw_a), cls(parent, raw_b)
    assert a.coeffs == {key: Fraction(c) for key, c in raw_a.items() if c}
    for v in (a, b, a + b, a - b, a.scale(k), a * b, b * a, (a * b) * a):
        _assert_exact(v)
    # all-Fraction operands give the same, exactly typed, results
    fa, fb = _as_fractions(a), _as_fractions(b)
    for got, want in ((fa + fb, a + b), (fa - fb, a - b), (fa.scale(k), a.scale(k)),
                      (fa * fb, a * b)):
        _assert_exact(got)
        assert got == want
    if cls is MonoidAlgebraElement:
        total = counit(a)
        assert total == sum(a.coeffs.values(), Fraction(0))
        assert type(total) is int or total.denominator != 1
    if cls is AlgebraElement:
        for vec in (*parent.structure.values(), parent.unit):
            assert all(type(c) is int for c in vec.values())


def _follows_exact(v):
    """Whether v is an int, or a Fraction that is not integral."""
    return type(v) is int or type(v) is Fraction and v.denominator != 1


def test_exact_keeps_ints_and_proper_fractions_and_lowers_integral_ones():
    third = Fraction(1, 3)
    assert exact(third) is third
    assert exact(7) == 7 and type(exact(7)) is int
    for value, want in ((Fraction(6, 3), 2), (True, 1), (False, 0), ("-4/2", -2), ("1/3", third)):
        got = exact(value)
        assert got == want and type(got) is type(want), (value, got)


@pytest.mark.parametrize("value", [0.5, 1.0, float("nan"), float("inf")])
def test_exact_refuses_a_float(value):
    with pytest.raises(TypeError, match="inexact"):
        exact(value)


# each entry point that stores or reads a value, given one float
FLOAT_ENTRIES = {
    "vector coefficient": lambda: MonoidAlgebraElement(DIV12, {0: 0.5}),
    "scale": lambda: MonoidAlgebraElement.unit(DIV12).scale(0.5),
    "Matrix": lambda: Matrix.from_rows([[1, 0.5]]),
    "StepFunctional prefix": lambda: StepFunctional([1, 0.5], 0),
    "StepFunctional tail": lambda: StepFunctional([1], 0.5),
    "LPPoly.constant": lambda: LPPoly.constant(LP_CTX, 0.1),
    "LPPoly.from_word": lambda: LPPoly.from_word(LP_CTX, [variable(2, 1)], 0.5),
    "solve": lambda: solve(mat([[1, 0], [0, 1]]), [1, 0.5]),
    "special_det": lambda: special_det([1, 0.5]),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_ENTRIES))
def test_a_float_is_refused_at_every_entry_point(entry):
    with pytest.raises(TypeError, match="inexact"):
        FLOAT_ENTRIES[entry]()


def test_counit_of_two_halves_is_the_int_one():
    a = MonoidAlgebraElement(DIV12, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    assert counit(a) == 1 and type(counit(a)) is int
    assert type(counit(MonoidAlgebraElement(DIV12, {0: Fraction(1, 2)}))) is Fraction


# the ways a caller may write a rational: ints, bools, Fractions with and
# without a denominator of 1, and "p/q" strings
VALUES = st.one_of(COEFFICIENTS, st.fractions(-4, 4, max_denominator=6).map(str))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_matrix_entries_and_results_follow_exact(data):
    n = data.draw(st.integers(1, 4))
    raw = data.draw(st.lists(st.lists(VALUES, min_size=n, max_size=n), min_size=n, max_size=n))
    raw_b = data.draw(st.lists(VALUES, min_size=n, max_size=n))
    rows = [[Fraction(x) for x in row] for row in raw]
    b = [Fraction(x) for x in raw_b]
    m = mat(raw)
    square = m.matmul(m)
    assert all(map(_follows_exact, m.entries + square.entries))
    assert row_lists(m) == rows
    got = det(m)
    assert _follows_exact(got) and got == cofactor_det(rows)
    x, want = solve(m, raw_b), gauss_solve(rows, b)
    assert (x is None) == (want is None)
    if x is not None:
        assert all(map(_follows_exact, x)) and x == want


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_step_functional_values_and_results_follow_exact(data):
    raw_prefix = data.draw(st.lists(VALUES, max_size=6))
    raw_tail = data.draw(VALUES)
    f = StepFunctional(raw_prefix, raw_tail)
    assert all(map(_follows_exact, (*f.prefix, f.tail)))
    chain = window(f)
    assert [f.eval(p) for p in chain] == step_values(raw_prefix, raw_tail, len(chain))
    g = StepFunctional(data.draw(st.lists(VALUES, max_size=4)), data.draw(VALUES))
    n = fin(data.draw(st.integers(0, 6)))
    for got, want in ((translate(f, n), point_translate(f, n)),
                      (f.pointwise_mul(g), point_pointwise_mul(f, g))):
        assert all(map(_follows_exact, (*got.prefix, got.tail))) and got == want
    # the unitriangular system [p <= c] at the run ends, with +inf read past the tail onset
    coeffs = grouplike_decompose(f)
    assert all(map(_follows_exact, coeffs.values()))
    keys = list(coeffs)
    points = [chain[-1] if c == POS_INF else c for c in keys]
    values = dict(zip(chain, step_values(raw_prefix, raw_tail, len(chain))))
    want = gauss_solve([[Fraction(int(p <= c)) for c in keys] for p in points],
                       [values[p] for p in points])
    assert tuple(coeffs.values()) == want
    row = data.draw(st.lists(VALUES, max_size=5))
    result = special_det(row)
    special = [[Fraction(row[max(i, j)]) for j in range(len(row))] for i in range(len(row))]
    assert _follows_exact(result.det) and _follows_exact(result.closed_form)
    assert result.det == result.closed_form == cofactor_det(special)
