"""The finite dual of the monoid algebra of (naturals-with-bottom, max).

A functional lies in the finite dual exactly when it is eventually
constant; such functionals are stored as a finite prefix of values (at
-inf, 0, 1, ...) plus a tail value. Translation by n sends f to
m -> f(max(n, m)), so the translate span is finite dimensional, with
one basis translate per maximal constant run. The multiplicative
functionals are the threshold characters f_c (1 up to c, 0 beyond,
including c = +-inf and the constant 1 at c = +inf), which realize the
min-monoid on the full extended chain under pointwise product.

Every finite-dual functional is a unique combination of threshold
characters, one per run; the decomposition telescopes the run values.
The evaluation matrix [p <= c] of those characters on the run end
points is unitriangular, so the coefficients are unique and need no
linear solve. A combination is certified pointwise where f or one of
its characters changes value, which covers the whole chain. The
translate-span basis is certified by the closed form of its special_det
matrix.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .exactlin import Matrix, det, exact
from .extnat import NEG_INF, POS_INF, ExtNat, fin


def _position(point):
    """-inf sits at position 0 and n at position n + 1; +inf has none."""
    return point.n + 1 if point.finite else 0


def _point(i):
    """The chain point at position i."""
    return fin(i - 1) if i else NEG_INF


class StepFunctional:
    """Eventually constant rational values on the chain -inf, 0, 1, ...

    The chain is indexed by position: -inf is position 0 and n is
    position n + 1. prefix[i] is the value at position i and tail the
    value at every position from len(prefix) on; the stored prefix is
    trimmed so its last entry differs from the tail. Every value is made
    exact by `exact`: an int when integral, otherwise a Fraction.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix, tail):
        tail = exact(tail)
        values = [exact(x) for x in prefix]
        while values and values[-1] == tail:
            values.pop()
        self.prefix = tuple(values)
        self.tail = tail

    def _at(self, i):
        """The value at position i."""
        return self.prefix[i] if i < len(self.prefix) else self.tail

    def eval(self, point):
        if point == POS_INF:
            raise ValueError("functionals on the max-monoid have no value at +inf")
        return self._at(_position(point))

    def tail_onset(self):
        """First point from which the functional equals its tail forever."""
        return _point(len(self.prefix))

    def is_zero(self):
        return not self.prefix and self.tail == 0

    def pointwise_mul(self, other):
        n = max(len(self.prefix), len(other.prefix))
        return StepFunctional([self._at(i) * other._at(i) for i in range(n)],
                              self.tail * other.tail)

    def __eq__(self, other):
        return (isinstance(other, StepFunctional)
            and self.prefix == other.prefix and self.tail == other.tail)

    def __hash__(self):
        return hash((self.prefix, self.tail))

    def __repr__(self):
        body = ",".join(str(x) for x in self.prefix)
        return f"StepFunctional(prefix=({body}), tail={self.tail})"


def threshold_functional(c):
    """The character f_c: 1 at points <= c, 0 beyond; f_{+inf} is constant 1."""
    if c == POS_INF:
        return StepFunctional((), 1)
    return StepFunctional((1,) * (_position(c) + 1), 0)


def translate(f, n):
    """The translate m -> f(max(n, m)), recanonicalized."""
    if not isinstance(n, ExtNat) or n == POS_INF:
        raise ValueError("translation points live in the max-monoid (no +inf)")
    i = _position(n)
    if i == 0 or not f.prefix:
        return f
    return StepFunctional([f._at(max(i, j)) for j in range(len(f.prefix))], f.tail)


def finite_runs(f):
    """(end point, value) per maximal constant run before the tail.

    The trailing infinite run (the tail) is not listed; canonical form
    guarantees the last listed run really ends.
    """
    last = len(f.prefix) - 1
    return [(_point(i), value) for i, value in enumerate(f.prefix)
            if i == last or f.prefix[i + 1] != value]


@dataclass(frozen=True)
class TranslateSpanBasis:
    """Breakpoint translates spanning the translate space, with certificate.

    Iterating yields the breakpoints (last point of each finite run).
    When the tail is nonzero its onset joins the verified spanning set;
    dimension counts the basis translates, independent because their
    special_det evaluation matrix has a nonzero closed form, and every
    other translate is one of them or zero.
    """

    breakpoints: tuple
    tail_point: ExtNat | None
    dimension: int

    def __iter__(self):
        return iter(self.breakpoints)

    def __len__(self):
        return len(self.breakpoints)


def translate_span_basis(f):
    """Breakpoints whose translates span all translates of f, verified directly.

    One breakpoint per finite constant run, plus the tail onset when the
    tail is nonzero (a zero tail translates to zero). One pass checks
    that f keeps each run value to the run end, then the tail, so every
    translate is a basis translate or zero. At their k points, values v_i,
    the basis translates take the values v_max(i, j) of the special_det
    matrix, whose closed form v_k * prod(v_i - v_{i+1}) must be nonzero.
    """
    runs = finite_runs(f)
    tail_point = f.tail_onset() if f.tail != 0 else None
    spanning = runs + ([(tail_point, f.tail)] if tail_point is not None else [])
    points, values = [p for p, _ in spanning], [v for _, v in spanning]
    expected = []
    for end, value in runs:
        expected += [value] * (_position(end) + 1 - len(expected))
    for i, value in enumerate(expected + [f.tail] * (len(f.prefix) - len(expected))):
        if f._at(i) != value:
            raise ArithmeticError(f"translate at {_point(i)} escapes the breakpoint span")
    rows = [[g.eval(q) for q in points] for g in (translate(f, p) for p in points)]
    special, closed = _special_matrix(values)
    if rows != special or not closed:
        raise ArithmeticError("breakpoint translates are not linearly independent")
    return TranslateSpanBasis(tuple(points[:len(runs)]), tail_point, len(points))


def in_finite_dual(f):
    """Membership certificate: the finite translate-span basis.

    Eventual constancy is built into the representation, and the finite
    dimension of the translate span is the membership criterion in the
    other direction (functionals with infinite translate span are not
    representable here at all).
    """
    return translate_span_basis(f)


def is_character(f):
    """The threshold index when f is multiplicative, else None.

    Characters take values in {0, 1}, send the identity -inf to 1, and
    once 0 stay 0 (f(b) = f(a) f(b) for a < b), so they are the f_c =
    [p <= c], multiplicative because max(a, b) <= c iff a <= c and
    b <= c. The canonical form has the tail values trimmed off its
    prefix, so f_{+inf} is the empty prefix with tail 1 and f_c for
    c < +inf is an all-ones prefix ending at c with tail 0.
    """
    if not f.prefix:
        return POS_INF if f.tail == 1 else None
    if f.tail == 0 and all(v == 1 for v in f.prefix):
        return _point(len(f.prefix) - 1)
    return None


def char_mult(s, t):
    """Product law of threshold characters: the minimum of the indices.

    Cross-validated by multiplying the two step functionals pointwise
    and re-recognizing the result.
    """
    expected = min(s, t)
    product = threshold_functional(s).pointwise_mul(threshold_functional(t))
    recognized = is_character(product)
    if recognized != expected:
        raise ArithmeticError(
            f"pointwise product of f_{s} and f_{t} is f_{recognized}, not f_{expected}")
    return expected


def _special_matrix(row):
    """The rows of [row[max(i, j)]] and the closed form of their determinant."""
    closed = exact(row[-1] * prod(a - b for a, b in zip(row, row[1:]))) if row else 1
    return [[v] * i + row[i:] for i, v in enumerate(row)], closed


@dataclass(frozen=True)
class SpecialDetResult:
    det: int | Fraction
    closed_form: int | Fraction
    preconditions_met: bool
    nonzero: bool


def special_det(row):
    """Determinant of the matrix with entry (i, j) = row[max(i, j)].

    Row i repeats its diagonal value in the first i positions and then
    follows the input row. The determinant has the closed form
    row[n-1] * prod(row[i] - row[i+1]); both are computed and must
    agree. When the last entry is nonzero and consecutive entries
    differ, the determinant is nonzero.
    """
    row = [exact(x) for x in row]
    rows, closed = _special_matrix(row)
    direct = det(Matrix.from_rows(rows))
    if direct != closed:
        raise ArithmeticError(f"determinant {direct} disagrees with closed form {closed}")
    met = bool(row) and row[-1] != 0 and all(a != b for a, b in zip(row, row[1:]))
    return SpecialDetResult(direct, closed, met, direct != 0)


def grouplike_decompose(f):
    """Write f as a combination of threshold characters, one per run.

    The +inf coefficient is the tail value (kept even when zero); each
    finite run contributes its end point with coefficient run value
    minus the next run's value, which telescopes to f at every point.
    With the run end points and the tail onset in decreasing order, the
    evaluation matrix [p <= c] of the used characters is unitriangular:
    the coefficients are unique, and a linear solve would only repeat
    the telescoping. The independent certificate is verify_decomposition.
    """
    runs = finite_runs(f)
    values = [value for _, value in runs] + [f.tail]
    coeffs = {POS_INF: f.tail}
    for (end, value), nxt in zip(runs, values[1:]):
        coeffs[end] = exact(value - nxt)
    if not verify_decomposition(f, coeffs):
        raise ArithmeticError("decomposition does not reconstruct the functional")
    return coeffs


def verify_decomposition(f, coeffs):
    """Whether sum_c coeffs[c] [p <= c] equals f(p) at every point p.

    Checked at -inf, where f changes value, and at c.succ() for each
    threshold c below +inf. Between consecutive checked points f and
    every f_c are constant, so the check is complete for any coeffs.
    Reads f pointwise, not through finite_runs, and sweeps down the
    points and thresholds in decreasing order with a running sum of
    coeffs[c] over c >= p: O(N + R log R) for N prefix entries and R
    points and thresholds.
    """
    points = {NEG_INF}
    points.update(_point(i) for i in range(1, len(f.prefix) + 1) if f._at(i) != f._at(i - 1))
    points.update(c.succ() for c in coeffs if c != POS_INF)
    thresholds = sorted(coeffs, reverse=True)
    total, k = 0, 0
    for p in sorted(points, reverse=True):
        while k < len(thresholds) and p <= thresholds[k]:
            total += coeffs[thresholds[k]]
            k += 1
        if total != f.eval(p):
            return False
    return True
