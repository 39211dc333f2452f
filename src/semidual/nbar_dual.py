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
linear solve; the decomposition is certified by pointwise
reconstruction instead. All verification windows end two points past
the tail onset: every functional involved is constant from the tail
onset on, so equality there propagates to the whole chain.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactlin import Matrix, det, rank
from .extnat import NEG_INF, POS_INF, ExtNat, fin


class StepFunctional:
    """Eventually constant rational values on the chain -inf, 0, 1, ...

    prefix holds the values at -inf, 0, ..., N-1 and tail the value from
    N on; the stored prefix is trimmed so its last entry differs from
    the tail.
    """

    __slots__ = ("prefix", "tail")

    def __init__(self, prefix, tail):
        tail = Fraction(tail)
        values = [Fraction(x) for x in prefix]
        while values and values[-1] == tail:
            values.pop()
        self.prefix = tuple(values)
        self.tail = tail

    def eval(self, point):
        if point == POS_INF:
            raise ValueError("functionals on the max-monoid have no value at +inf")
        if point == NEG_INF:
            return self.prefix[0] if self.prefix else self.tail
        idx = point.n + 1
        return self.prefix[idx] if idx < len(self.prefix) else self.tail

    def tail_onset(self):
        """First point from which the functional equals its tail forever."""
        if not self.prefix:
            return NEG_INF
        return fin(len(self.prefix) - 1)

    def window(self, extra=2):
        """-inf and the naturals through tail onset + extra."""
        return [NEG_INF] + [fin(i) for i in range(len(self.prefix) + extra)]

    def is_zero(self):
        return not self.prefix and self.tail == 0

    def pointwise_mul(self, other):
        n = max(len(self.prefix), len(other.prefix))
        points = [NEG_INF] + [fin(i) for i in range(max(n - 1, 0))]
        return StepFunctional([self.eval(p) * other.eval(p) for p in points],
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
    if c == NEG_INF:
        return StepFunctional((1,), 0)
    return StepFunctional((1,) * (c.n + 2), 0)


def translate(f, n):
    """The translate m -> f(max(n, m)), recanonicalized."""
    if not isinstance(n, ExtNat) or n == POS_INF:
        raise ValueError("translation points live in the max-monoid (no +inf)")
    if n == NEG_INF or not f.prefix:
        return f
    points = [NEG_INF] + [fin(i) for i in range(max(len(f.prefix) - 1, 0))]
    return StepFunctional([f.eval(max(n, p)) for p in points], f.tail)


def finite_runs(f):
    """(end point, value) per maximal constant run before the tail.

    The trailing infinite run (the tail) is not listed; canonical form
    guarantees the last listed run really ends.
    """
    if not f.prefix:
        return []
    points = [NEG_INF] + [fin(i) for i in range(len(f.prefix) - 1)]
    runs = []
    for idx, point in enumerate(points):
        value = f.prefix[idx]
        if idx + 1 == len(points) or f.prefix[idx + 1] != value:
            runs.append((point, value))
    return runs


@dataclass(frozen=True)
class TranslateSpanBasis:
    """Breakpoint translates spanning the translate space, with certificate.

    Iterating yields the breakpoints (last point of each finite run).
    When the tail is nonzero its onset joins the verified spanning set;
    dimension is the exact rank of the basis translates, which is the
    rank of the full translate matrix because every other translate is
    one of them or zero.
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

    One breakpoint per finite constant run; translating anywhere inside
    a run gives the same functional, and translating into the tail gives
    the constant tail (zero when the tail is zero, hence no extra basis
    vector in that case). So every translate on the window must equal a
    basis translate or be zero, which is stronger than lying in their
    span; the rank of the basis translates certifies the dimension.
    """
    runs = finite_runs(f)
    breakpoints = tuple(end for end, _ in runs)
    tail_point = f.tail_onset() if f.tail != 0 else None
    points = list(breakpoints) + ([tail_point] if tail_point is not None else [])

    window = f.window()
    basis = [translate(f, p) for p in points]
    dim = rank(Matrix.from_rows([[g.eval(q) for q in window] for g in basis])) if basis else 0
    if dim != len(basis):
        raise ArithmeticError("breakpoint translates are not linearly independent")
    for n in window:
        g = translate(f, n)
        if not g.is_zero() and g not in basis:
            raise ArithmeticError(f"translate at {n} escapes the breakpoint span")
    return TranslateSpanBasis(breakpoints, tail_point, dim)


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
    drop from 1 to 0 at most once. The window covers the prefix and the
    tail, so a functional of that shape is f_c = [p <= c], which is
    multiplicative because max(a, b) <= c iff a <= c and b <= c.
    """
    window = f.window()
    values = [f.eval(p) for p in window]
    if any(v not in (0, 1) for v in values) or values[0] != 1 or f.tail not in (0, 1):
        return None
    if f.tail == 1:
        if any(v != 1 for v in values):
            return None
        threshold = POS_INF
    else:
        ones = [i for i, v in enumerate(values) if v == 1]
        if ones != list(range(len(ones))):
            return None
        threshold = window[ones[-1]]
    return threshold


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


@dataclass(frozen=True)
class SpecialDetResult:
    det: Fraction
    closed_form: Fraction
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
    row = [Fraction(x) for x in row]
    n = len(row)
    m = Matrix(n, n, [row[max(i, j)] for i in range(n) for j in range(n)])
    direct = det(m)
    closed = Fraction(1) if n == 0 else row[-1]
    for i in range(n - 1):
        closed *= row[i] - row[i + 1]
    if direct != closed:
        raise ArithmeticError(f"determinant {direct} disagrees with closed form {closed}")
    met = n >= 1 and row[-1] != 0 and all(row[i] != row[i + 1] for i in range(n - 1))
    return SpecialDetResult(direct, closed, met, direct != 0)


def grouplike_decompose(f):
    """Write f as a combination of threshold characters, one per run.

    The +inf coefficient is the tail value (kept even when zero); each
    finite run contributes its end point with coefficient run value
    minus the next run's value, which telescopes to f at every point.
    With the run end points and the tail onset in decreasing order, the
    evaluation matrix [p <= c] of the used characters is unitriangular:
    the coefficients are unique, and a linear solve would only repeat
    the telescoping. The independent certificate is the pointwise
    reconstruction on the verification window.
    """
    runs = finite_runs(f)
    values = [value for _, value in runs] + [f.tail]
    coeffs = {POS_INF: f.tail}
    for (end, value), nxt in zip(runs, values[1:]):
        coeffs[end] = value - nxt
    if not verify_decomposition(f, coeffs):
        raise ArithmeticError("decomposition does not reconstruct the functional")
    return coeffs


def verify_decomposition(f, coeffs, extra=2):
    """Pointwise check of sum c_i f_i = f on the verification window."""
    terms = [(v, threshold_functional(c)) for c, v in coeffs.items()]
    for p in f.window(extra):
        if sum((v * g.eval(p) for v, g in terms), Fraction(0)) != f.eval(p):
            return False
    return True
