"""The finite dual of the monoid algebra of (naturals-with-bottom, max).

A functional lies in the finite dual exactly when it is eventually
constant; it is stored as one (last position, value) pair per maximal
constant run on the chain -inf, 0, 1, ..., plus a tail value, and every
cost is in the number of runs. Translation by n sends f to
m -> f(max(n, m)), which keeps the runs that end at n or later, so the
translate span has one basis translate per run. The multiplicative
functionals are the threshold characters f_c (1 up to c, 0 beyond,
including c = +-inf and the constant 1 at c = +inf), which realize the
min-monoid on the full extended chain under pointwise product.

Every finite-dual functional is a unique combination of threshold
characters, one per run: it telescopes the run values and needs no
linear solve. A combination is certified pointwise where f or one of
its characters changes value, which covers the whole chain. The
translate-span basis is certified by the runs of its translates and the
closed form of their special_det matrix. That matrix, [r[max(i, j)]],
factors as U diag(d) U^T with U upper unitriangular and d the
differences of consecutive entries of r, so special_det certifies the
factorization in O(n) and eliminates nothing.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm, prod
from operator import itemgetter

from .exactlin import exact
from .extnat import NEG_INF, POS_INF, ExtNat, fin


def _position(point):
    """-inf sits at position 0 and n at position n + 1; +inf has none."""
    return point.n + 1 if point.finite else 0


def _point(i):
    """The chain point at position i."""
    return fin(i - 1) if i else NEG_INF


def _runs(pairs, tail):
    """The (position, value) pairs after which the value changes, the tail following the last."""
    return tuple(p for p, (_, nxt) in zip(pairs, pairs[1:] + [(None, tail)]) if p[1] != nxt)


class StepFunctional:
    """Eventually constant rational values on the chain -inf, 0, 1, ...

    The chain is indexed by position: -inf is position 0 and n is
    position n + 1. The constructor reads the values at positions 0, 1,
    ... from a prefix. runs holds one (last position, value) pair per
    maximal constant run, in increasing position, and tail the value past
    the last run, which no run takes. Every value is made exact by
    `exact`: an int when integral, otherwise a Fraction.
    """

    __slots__ = ("runs", "tail")

    def __init__(self, prefix, tail):
        self.tail = exact(tail)
        self.runs = _runs([(i, exact(x)) for i, x in enumerate(prefix)], self.tail)

    @classmethod
    def _of(cls, runs, tail):
        """The functional with these runs and exact tail, taken as they are."""
        f = cls.__new__(cls)
        f.runs, f.tail = runs, tail
        return f

    @property
    def prefix(self):
        """The values at positions 0, 1, ... through the end of the last run."""
        starts = [0] + [end + 1 for end, _ in self.runs]
        return tuple(v for (end, v), a in zip(self.runs, starts) for _ in range(a, end + 1))

    def _at(self, i):
        """The value at position i."""
        k = bisect_left(self.runs, i, key=itemgetter(0))
        return self.runs[k][1] if k < len(self.runs) else self.tail

    def eval(self, point):
        if point == POS_INF:
            raise ValueError("functionals on the max-monoid have no value at +inf")
        return self._at(_position(point))

    def tail_onset(self):
        """First point from which the functional equals its tail forever."""
        return _point(self.runs[-1][0] + 1 if self.runs else 0)

    def is_zero(self):
        return not self.runs and self.tail == 0

    def pointwise_mul(self, other):
        tail = exact(self.tail * other.tail)
        ends = sorted({end for end, _ in self.runs + other.runs})
        return StepFunctional._of(
            _runs([(e, exact(self._at(e) * other._at(e))) for e in ends], tail), tail)

    def __eq__(self, other):
        return (isinstance(other, StepFunctional)
            and self.runs == other.runs and self.tail == other.tail)

    def __hash__(self):
        return hash((self.runs, self.tail))

    def __repr__(self):
        body = ",".join(str(x) for x in self.prefix)
        return f"StepFunctional(prefix=({body}), tail={self.tail})"


def threshold_functional(c):
    """The character f_c: 1 at points <= c, 0 beyond; f_{+inf} is constant 1."""
    if c == POS_INF:
        return StepFunctional._of((), 1)
    return StepFunctional._of(((_position(c), 1),), 0)


def translate(f, n):
    """The translate m -> f(max(n, m)): the runs of f that end at n or later."""
    if not isinstance(n, ExtNat) or n == POS_INF:
        raise ValueError("translation points live in the max-monoid (no +inf)")
    kept = bisect_left(f.runs, _position(n), key=itemgetter(0))
    return StepFunctional._of(f.runs[kept:], f.tail)


def finite_runs(f):
    """(end point, value) per maximal constant run; the tail is not listed."""
    return [(_point(end), value) for end, value in f.runs]


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
    tail is nonzero (a zero tail translates to zero). The runs and tail
    must describe f at each run start of either, so every translate is a
    basis translate or zero. The translate at the i-th of the k points,
    values v_j, must keep the runs from the i-th on: row i of [v_max(i, j)],
    whose closed form v_k * prod(v_i - v_{i+1}) must be nonzero.
    """
    runs = finite_runs(f)
    tail_point = f.tail_onset() if f.tail != 0 else None
    spanning = runs + ([(tail_point, f.tail)] if tail_point is not None else [])
    points, values = [p for p, _ in spanning], [v for _, v in spanning]
    listed = tuple((_position(end), value) for end, value in runs)
    described = StepFunctional._of(listed, f.tail)
    for i in sorted({0, *(end + 1 for end, _ in f.runs + listed)}):
        if f._at(i) != described._at(i):
            raise ArithmeticError(f"translate at {_point(i)} escapes the breakpoint span")
    if (any(translate(f, p) != StepFunctional._of(listed[i:], f.tail)
            for i, p in enumerate(points)) or not _special_closed_form(values)):
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
    b <= c. In canonical form f_{+inf} has no run and tail 1, and f_c
    for c < +inf is one run of 1 ending at c with tail 0.
    """
    if len(f.runs) == 1 and f.runs[0][1] == 1 and f.tail == 0:
        return _point(f.runs[0][0])
    return POS_INF if not f.runs and f.tail == 1 else None


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


def _special_closed_form(row):
    """The determinant of [row[max(i, j)]] by its closed form."""
    return exact(row[-1] * prod(a - b for a, b in zip(row, row[1:]))) if row else 1


@dataclass(frozen=True)
class SpecialDetResult:
    det: int | Fraction
    closed_form: int | Fraction
    preconditions_met: bool
    nonzero: bool


def _special_diagonal(row):
    """d with d_i = row[i] - row[i + 1] and, last, d_{n-1} = row[n-1]."""
    return [a - b for a, b in zip(row, row[1:])] + row[-1:]


def special_det(row):
    """Determinant of the matrix M with entry (i, j) = row[max(i, j)].

    Row i repeats its diagonal value in the first i positions and then
    follows the input row. M = U diag(d) U^T, where U_im = [m >= i] is
    upper unitriangular and d is `_special_diagonal(row)`: entry (i, j)
    of the product is the sum of d from max(i, j) on. The row is scaled
    by the lcm D of its denominators first, so that d and its suffix
    sums are ints: D M = U diag(D d) U^T. The factorization is certified
    in O(n) by checking that these suffix sums give back the scaled row,
    and then det M = prod(D d) / D^n. The closed form row[n-1] *
    prod(row[i] - row[i+1]) is computed apart and must agree. When the
    last entry is nonzero and consecutive entries differ, the
    determinant is nonzero.
    """
    row = [exact(x) for x in row]
    closed = _special_closed_form(row)
    scale = lcm(*(v.denominator for v in row))
    scaled = [v.numerator * (scale // v.denominator) for v in row]
    d = _special_diagonal(scaled)
    if list(accumulate(reversed(d)))[::-1] != scaled:
        raise ArithmeticError("suffix sums of the diagonal do not give back the row")
    direct = exact(Fraction(prod(d), scale ** len(row)))
    if direct != closed:
        raise ArithmeticError(f"determinant {direct} disagrees with closed form {closed}")
    met = bool(row) and row[-1] != 0 and all(a != b for a, b in zip(row, row[1:]))
    return SpecialDetResult(direct, closed, met, direct != 0)


def grouplike_decompose(f):
    """Write f as a combination of threshold characters, one per run.

    The +inf coefficient is the tail value (kept even when zero); each
    finite run contributes its end point with coefficient run value
    minus the next run's value, which telescopes to f at every point.
    At the run end points and the tail onset, the evaluation matrix
    [p <= c] of the used characters is unitriangular, so a linear solve
    would only repeat the telescoping; verify_decomposition certifies.
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
    Reads f, not finite_runs, and sweeps down the sorted points and
    thresholds with a running sum of coeffs[c] over c >= p: O(R log R).
    """
    points = {NEG_INF, *(_point(end + 1) for end, _ in f.runs)}
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
