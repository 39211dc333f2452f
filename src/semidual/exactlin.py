"""Exact linear algebra over the rationals.

Rank, determinant and solve share one fraction-free (Bareiss)
elimination on an integer rescaling of the rows, so intermediate values
stay integral and nothing is ever rounded: rank counts its pivots, det
reads its last pivot, and solve eliminates [m | b] and back-substitutes
over Fractions.

SparseVector is the one rational vector space behind every algebra in
the package: the monoid algebra kS and its tensor square, the graded
algebras, and the letterplace polynomials. It stores the nonzero
coordinates on a basis, does the linear operations and the parent
check, and extends a product given on basis keys bilinearly through
bilinear, the loop over pairs of terms of kS, kS⊗kS and the graded
algebras; LPPoly runs its own loop on packed exponent words. format_sum
writes such a vector as a signed sum. Every value that the
package stores or returns goes through `exact`: an int when integral, a
Fraction otherwise, never a float. So integral structure constants never
enter Fraction arithmetic. Quotients are built as Fraction(a, b), never
with `/`, which makes an int quotient a float.
"""

from fractions import Fraction
from math import lcm, prod


class NonSquareError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class ParentMismatchError(ValueError):
    pass


def exact(v):
    """v as an int when it is integral, otherwise as a Fraction; a float is refused.

    The one place that builds a Fraction from a single value: anything but
    an int or a Fraction (a bool, a string such as "1/3") goes through Fraction(v).
    """
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        if isinstance(v, float):
            raise TypeError(f"inexact value {v!r}: use an int, a Fraction or a string")
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def clean(coeffs):
    """The nonzero entries of a coordinate mapping, each made exact; an int costs no call."""
    out = {}
    for k, v in coeffs.items():
        if type(v) is not int:
            v = exact(v)
        if v:
            out[k] = v
    return out


class SparseVector:
    """A rational vector: `coeffs` maps basis keys to nonzero rationals.

    Each coordinate is an int when it is integral and a Fraction
    otherwise, as `exact` leaves it, so `==` and `hash` agree with the
    same vector held in Fractions.

    Vectors combine only with vectors of the same class and parent (the
    space they live in). Subclasses supply `basis_product(i, j)`, the
    product of two basis keys as a mapping from keys to rationals, which
    `*` extends bilinearly through `bilinear`; a subclass whose terms
    multiply faster in another form may instead override `product`, as
    LPPoly does on packed exponent words. The constructor cleans, and a
    subclass's constructor may also check the keys; the vector operations
    build their results, whose keys come from vectors already built,
    through `_of`, which does neither. Treat instances as immutable.
    """

    __slots__ = ("parent", "coeffs")

    def __init__(self, parent, coeffs):
        self.parent = parent
        self.coeffs = clean(coeffs)

    @classmethod
    def _of(cls, parent, coeffs):
        """The vector with these exact nonzero coefficients, taken as they are."""
        out = object.__new__(cls)
        out.parent, out.coeffs = parent, coeffs
        return out

    def _check(self, other):
        if self.parent is not other.parent and self.parent != other.parent:
            raise ParentMismatchError(f"{type(self).__name__} operands from different parents")

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return self._of(self.parent, clean(out))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = exact(c)
        return self._of(self.parent, clean({k: v * c for k, v in self.coeffs.items()}))

    def product(self, other):
        """Sum of x_i y_j basis_product(i, j) over the coordinates of both factors."""
        self._check(other)
        return self._of(self.parent, clean(bilinear(self.coeffs.items(), other.coeffs.items(),
                                                    self.basis_product)))

    __mul__ = product

    def __eq__(self, other):
        return (type(self) is type(other) and self.coeffs == other.coeffs
                and (self.parent is other.parent or self.parent == other.parent))

    def __hash__(self):
        return hash((self.parent, frozenset(self.coeffs.items())))


def bilinear(left, right, times):
    """Coefficients of the sum of x y times(i, j) over (i, x) in left and (j, y) in right.

    left and right are iterables of (key, rational) pairs, and right is
    read once per term of left, so it must be a collection or a view.
    times(i, j) maps result keys to rationals and may be empty. Zero
    sums are kept; the caller cleans.
    """
    out = {}
    for i, x in left:
        for j, y in right:
            terms = times(i, j)
            if not terms:
                continue
            xy = x * y
            for k, c in terms.items():
                v = xy * c
                out[k] = out[k] + v if k in out else v
    return out


def format_sum(terms):
    """Signed sum such as `a - 2*b + 1/2` of (rational, name) pairs; an empty name is 1."""
    pieces = []
    for c, name in terms:
        size = abs(c)
        if not name:
            text = str(size)
        elif size == 1:
            text = name
        else:
            text = f"{size}*{name}"
        if pieces:
            pieces.append(f"- {text}" if c < 0 else f"+ {text}")
        else:
            pieces.append(f"-{text}" if c < 0 else text)
    return " ".join(pieces) or "0"


class Matrix:
    """Dense row-major matrix of entries made exact. Treat instances as immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(map(exact, entries))
        if rows < 0 or cols < 0 or len(entries) != rows * cols:
            raise ValueError(f"need {rows}x{cols} = {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def from_rows(cls, row_seqs):
        row_seqs = [list(r) for r in row_seqs]
        rows = len(row_seqs)
        cols = len(row_seqs[0]) if row_seqs else 0
        if any(len(r) != cols for r in row_seqs):
            raise ValueError("ragged rows")
        return cls(rows, cols, [x for r in row_seqs for x in r])

    def at(self, i, j):
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def matmul(self, other):
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                out.append(sum(self.at(i, k) * other.at(k, j) for k in range(self.cols)))
        return Matrix(self.rows, other.cols, out)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _integer_rows(rows):
    """Clear denominators row by row; return (int rows, row scale factors)."""
    out, scales = [], []
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scales.append(mult)
    return out, scales


def _eliminate(a, pivot_cols):
    """Fraction-free (Bareiss) elimination of the integer rows a, in place.

    Pivots are sought in pivot_cols from left to right; each pivot
    updates every column to its right in the rows below it, and the
    division by the previous pivot is exact because every entry is a
    minor of the input. Entries below a pivot keep their old values, as
    nothing reads them. Returns (number of pivots, number of row swaps).
    """
    prev, r, swaps = 1, 0, 0
    for c in pivot_cols:
        pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            swaps += 1
        top, p = a[r], a[r][c]
        for row in a[r + 1:]:
            x = row[c]
            for j in range(c + 1, len(top)):
                row[j] = (row[j] * p - x * top[j]) // prev
        prev = p
        r += 1
    return r, swaps


def rank(m):
    """Rank over the rationals: the number of pivots of the elimination."""
    a, _ = _integer_rows(m.row(i) for i in range(m.rows))
    return _eliminate(a, range(m.cols))[0]


def det(m):
    """Exact determinant of a square matrix."""
    if m.rows != m.cols:
        raise NonSquareError(f"{m.rows}x{m.cols}")
    a, scales = _integer_rows(m.row(i) for i in range(m.rows))
    pivots, swaps = _eliminate(a, range(m.cols))
    if pivots < m.rows:
        return 0
    last = a[-1][-1] if a else 1
    return exact(Fraction((-1) ** swaps * last, prod(scales)))


def solve(m, b):
    """Solve m x = b for square m; None when m is singular.

    [m | b] is eliminated with pivots in the columns of m, then the
    triangular system is back-substituted over the rationals.
    """
    if m.rows != m.cols:
        raise NonSquareError(f"{m.rows}x{m.cols}")
    b = [exact(x) for x in b]
    if len(b) != m.rows:
        raise DimensionMismatchError(f"rhs of length {len(b)} for {m.rows}x{m.cols}")
    n = m.rows
    a, _ = _integer_rows([*m.row(i), b[i]] for i in range(n))
    if _eliminate(a, range(n))[0] < n:
        return None
    x = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        x[i] = exact(Fraction(row[n] - sum(row[j] * x[j] for j in range(i + 1, n)), row[i]))
    return tuple(x)
