"""The free supercommutative letterplace algebra.

Variables are letter-place pairs (x_i|j) with i, j >= 1 and a Z_2 parity
|x_i| + |j| coming from a parity context (letters and places are even
unless declared odd). Monomials are kept in canonical ascending order.
Only odd variables anticommute, so sorting a word costs the sign (-1)^k,
with k the number of out-of-order pairs of odd variables in it, and an
odd variable squares to zero. Both factors of a product of canonical
monomials are sorted with distinct odd variables, so k counts only the
cross-factor pairs: an odd a of the left factor above an odd b of the
right one. A product packs each monomial into an int exponent word over
the variables of both factors, so a pair of terms costs one int add and
its sign one popcount of an odd-variable mask. The place maximum grades
the algebra over the max-monoid of naturals-with-bottom, and each point
z of the min-monoid acts by deleting all terms of weight above z.

Words in the letters embed one by one via x_{i_1} ... x_{i_n} mapsto
(x_{i_1}|1) ... (x_{i_n}|n); no product on the letter side is modelled,
since concatenation does not preserve places.
"""

from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import NamedTuple

from .errors import NATURAL, RATIONAL, ParseError, read_rational
from .exactlin import (ParentMismatchError as ContextMismatchError, SparseVector, clean,
                       exact, format_sum)
from .extnat import NEG_INF, ExtNat, fin


class _OddSets(NamedTuple):
    odd_letters: frozenset = frozenset()
    odd_places: frozenset = frozenset()


class ParityContext(_OddSets):
    """Which letters and places are odd; everything else is even.

    A pair of frozensets of ints from 1: every construction, `make`,
    `_make` and `_replace` included, refuses a bool, any other non-int or
    a value below 1 with ValueError.
    """

    __slots__ = ()

    def __new__(cls, odd_letters=(), odd_places=()):
        odd_letters, odd_places = frozenset(odd_letters), frozenset(odd_places)
        for n in (*odd_letters, *odd_places):
            if type(n) is not int or n < 1:
                raise ValueError(f"letters and places start at 1, got {n!r}")
        return super().__new__(cls, odd_letters, odd_places)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def make(cls, odd_letters=(), odd_places=()):
        return cls(odd_letters, odd_places)

    def parity(self, var):
        return (int(var.letter in self.odd_letters) + int(var.place in self.odd_places)) % 2


class LPVariable(NamedTuple):
    letter: int
    place: int

    def __str__(self):
        return f"(x{self.letter}|{self.place})"


def _checked(v):
    """v itself if it is an LPVariable of two ints (not bools) from 1; else ValueError."""
    if type(v) is not LPVariable:
        raise ValueError(f"not a letterplace variable: {v!r}")
    if type(v.letter) is not int or type(v.place) is not int or min(v) < 1:
        raise ValueError(f"letters and places start at 1, got ({v.letter}, {v.place})")
    return v


def variable(letter, place):
    return _checked(LPVariable(letter, place))


def normalize(word, ctx):
    """Sort a word into canonical order with its Koszul sign.

    Returns (sign, monomial) or None when an odd variable repeats.
    The sign is (-1)^k, where k counts the pairs i < j of odd entries
    with word[i] > word[j]: each such pair is transposed once by any
    sort, and even variables commute with everything.
    """
    odd = [v for v in word if ctx.parity(v)]
    if len(set(odd)) < len(odd):
        return None
    inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    return (-1) ** inversions, tuple(sorted(word))


class LPPoly(SparseVector):
    """Sparse rational polynomial on canonical letterplace monomials.

    The parent is the parity context; `context` and `terms` are other
    names for `parent` and `coeffs`. The constructor refuses a variable
    that is no letter-place pair from 1, and a monomial out of ascending
    order or with an odd variable twice. `from_word` refuses the same
    variables and sorts its word; it and the operations, whose terms are
    then canonical, build their results through `_of`, unchecked.
    """

    __slots__ = ()

    def __init__(self, ctx, coeffs):
        super().__init__(ctx, coeffs)
        for m in (tuple(map(_checked, m)) for m in self.coeffs):
            if any(b < a or (a == b and ctx.parity(a)) for a, b in zip(m, m[1:])):
                raise ValueError(f"monomial {'*'.join(map(str, m))} is not canonical:"
                                 " variables ascend, odd ones without repeats")

    @property
    def context(self):
        return self.parent

    @property
    def terms(self):
        return self.coeffs

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {(): 1})

    @classmethod
    def from_word(cls, ctx, word, coeff=1):
        normalized = normalize(tuple(map(_checked, word)), ctx)
        if normalized is None:
            return cls.zero(ctx)
        sign, mono = normalized
        return cls._of(ctx, clean({mono: exact(coeff) * sign}))

    @classmethod
    def var(cls, ctx, letter, place):
        return cls(ctx, {(variable(letter, place),): 1})

    @classmethod
    def constant(cls, ctx, c):
        return cls(ctx, {(): c})

    def _packed(self, bits):
        """(d, terms): d is the common denominator of the coefficients, and terms holds
        (key, odd, below, monomial, d * coefficient) per term, summing over its
        variables the (field, odd bit, bits above an odd bit) that bits gives each."""
        d = lcm(*(c.denominator for c in self.coeffs.values()))
        terms = []
        for m, c in self.coeffs.items():
            key = odd = below = 0
            for x in m:
                field, bit, above = bits[x]
                key += field
                odd |= bit
                below ^= above
            terms.append((key, odd, below, m, c.numerator * (d // c.denominator)))
        return d, terms

    def product(self, other):
        """Bilinear product on packed exponent words, one exact coefficient per distinct sum.

        The variables of both factors get indices in canonical order, and a
        monomial packs into the int key summing 1 << (index * width) over its
        variables. width is the bit length of the sum of the top degrees, so no
        exponent carries and a product of terms has key k1 + k2. The odd
        variables of a term form the mask odd, and bit a of below is set iff an
        odd number of them lie below a: terms with o1 & o2 multiply to 0, and
        otherwise the Koszul sign is -1 iff o1 & below2 has an odd popcount.
        Int numerators (coefficient times common denominator) sum per key, next
        to the factor monomials that first reached it. Only a nonzero sum has
        its monomial sorted, and each distinct nonzero sum is divided once by
        d1 d2, as an int when that divides it and as one Fraction otherwise;
        terms with equal sums share that coefficient. The result is exact and
        nonzero and is not cleaned again.
        """
        self._check(other)
        parity = self.parent.parity
        width = (max(map(len, self.coeffs), default=0)
                 + max(map(len, other.coeffs), default=0)).bit_length()
        bits = {}
        for i, x in enumerate(sorted({x for p in (self, other) for m in p.coeffs for x in m})):
            odd = parity(x)
            bits[x] = (1 << (i * width), odd << i, -(odd << (i + 1)))
        d1, left = self._packed(bits)
        d2, right = other._packed(bits)
        sums = {}  # key -> [numerator sum, left monomial, right monomial]
        for k1, o1, _, m1, c1 in left:
            for k2, o2, below, m2, c2 in right:
                if o1 & o2:
                    continue
                k = k1 + k2
                c = -c1 * c2 if (o1 & below).bit_count() & 1 else c1 * c2
                if k in sums:
                    sums[k][0] += c
                else:
                    sums[k] = [c, m1, m2]
        d = d1 * d2
        quotients, terms = {}, {}  # numerator -> numerator / d, for this call's d only
        for v, m1, m2 in sums.values():
            if v:
                if v not in quotients:
                    quotients[v] = Fraction(v, d) if v % d else v // d
                terms[tuple(sorted(m1 + m2))] = quotients[v]
        return self._of(self.parent, terms)

    def __mul__(self, other):
        return multiply(self, other)

    def parity(self):
        """0 or 1 when all monomials share one parity, else None."""
        seen = {sum(self.parent.parity(v) for v in m) % 2 for m in self.coeffs}
        if not seen:
            return 0
        return seen.pop() if len(seen) == 1 else None

    def __repr__(self):
        return f"LPPoly({format_poly(self)})"


def multiply(p, q):
    """Bilinear product of two polynomials on packed exponent words."""
    return p.product(q)


def _top(mono):
    """The largest place in the monomial, 0 for the empty one; it orders monomials by weight."""
    return max(map(itemgetter(1), mono), default=0)


def _point(top):
    return fin(top) if top else NEG_INF


def weight(mono):
    """The largest place in the monomial; the empty monomial sits at -inf."""
    return _point(_top(mono))


def weight_components(p):
    """Split a polynomial by weight; the components sum back to the input."""
    parts = {}  # int place maximum -> terms, so one chain point is built per weight
    for m, c in p.coeffs.items():
        parts.setdefault(_top(m), {})[m] = c
    return {_point(top): LPPoly._of(p.parent, terms) for top, terms in sorted(parts.items())}


def act_min(z, p):
    """Delete every term of weight above z; +inf acts as the identity."""
    if not isinstance(z, ExtNat):
        raise TypeError("z must be a point of the extended chain")
    tops = {m: _top(m) for m in p.coeffs}
    kept = {top: _point(top) <= z for top in set(tops.values())}
    return LPPoly._of(p.parent, {m: c for m, c in p.coeffs.items() if kept[tops[m]]})


def embed_word(letters, ctx):
    """Embed a word in the letters: the k-th letter goes to place k."""
    return LPPoly.from_word(ctx, [LPVariable(letter, k + 1) for k, letter in enumerate(letters)])


def _term_sort_key(mono):
    return (_top(mono), mono)


def format_poly(p):
    """Canonical form: terms sorted by (weight, monomial), exact coefficients."""
    return format_sum((p.coeffs[mono], "*".join(str(v) for v in mono))
                      for mono in sorted(p.coeffs, key=_term_sort_key))


class _Scanner:
    def __init__(self, text, source):
        self.text = text
        self.pos = 0
        self.source = source

    def error(self, message):
        line = self.text.count("\n", 0, self.pos) + 1
        col = self.pos - (self.text.rfind("\n", 0, self.pos) + 1) + 1
        raise ParseError(message, line, col, self.source)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def index(self):
        """The letter or place, a natural number from 1, written at the scan position."""
        self.skip_ws()
        match = NATURAL.match(self.text, self.pos)
        if match is None:
            self.error("expected a natural number")
        try:
            value = int(match.group())
        except ValueError:  # beyond the interpreter's digit limit for int() of a string
            self.error("number too long")
        if value < 1:
            self.error("letters and places start at 1")
        self.pos = match.end()
        return value

    def rational(self):
        """The rational digits(/digits)? at the scan position, which holds a digit."""
        match = RATIONAL.match(self.text, self.pos)
        try:
            value = read_rational(match.group())
        except ZeroDivisionError:
            self.error("zero denominator")
        except ValueError:  # beyond the interpreter's digit limit for int() of a string
            self.error("number too long")
        self.pos = match.end()
        return value

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_poly(text, ctx, source="<expr>"):
    """Parse `term (+|- term)*` with term `factor (* factor)*` and
    factor either `(x<letter>|<place>)` or a nonnegative rational.

    A term is one coefficient, the product of its rationals, and one word,
    its variables as written, which `LPPoly.from_word` sorts once with its
    Koszul sign. The terms are summed into one dict and the polynomial is
    built once, so the work is linear in the number of terms."""
    sc = _Scanner(text, source)

    def term():
        coeff, word = 1, []
        while True:
            if sc.peek() == "(":
                sc.pos += 1
                sc.skip_ws()
                if sc.peek() != "x":
                    sc.error("expected a variable like x1")
                sc.pos += 1
                letter = sc.index()
                sc.take("|")
                place = sc.index()
                sc.take(")")
                word.append(LPVariable(letter, place))
            elif NATURAL.match(sc.text, sc.pos):
                coeff *= sc.rational()
            else:
                sc.error("expected a variable or a rational")
            if sc.peek() != "*":
                return LPPoly.from_word(ctx, word, coeff)
            sc.pos += 1

    sums = {}  # every term's coefficient, summed in place: one pass over the terms
    ch = sc.peek()
    while True:
        sign = -1 if ch == "-" else 1
        if ch in ("+", "-"):  # the optional leading sign, or the sign between two terms
            sc.pos += 1
        for mono, c in term().coeffs.items():
            c *= sign
            sums[mono] = sums[mono] + c if mono in sums else c
        ch = sc.peek()
        if ch not in ("+", "-"):
            break
    if not sc.at_end():
        sc.error("unexpected input")
    return LPPoly._of(ctx, clean(sums))
