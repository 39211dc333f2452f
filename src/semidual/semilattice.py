"""Finite bounded semilattices and their character duality.

A finite bounded semilattice is a commutative idempotent monoid; its
identity is the bottom of the induced order s <= t iff op(s, t) = t, and
the operation is the join. A character is a {0,1}-valued multiplicative
functional sending the identity to 1; the characters form a semilattice
again under pointwise product (the dual), and evaluation identifies
every finite bounded semilattice with its double dual.

Only {0,1} values can occur: every element is idempotent, and the only
idempotents of the circle-with-zero codomain are 0 and 1. So a character
is the indicator of its support, and the characters are exactly the
principal down-set indicators t -> [t <= x], one per element x.
Non-idempotent inverse monoids, where characters may take other values,
are out of scope.
"""

from dataclasses import dataclass

from .errors import ParseError
from .exactlin import Matrix, rank


class SemilatticeError(ValueError):
    pass


class DuplicateLabelError(SemilatticeError):
    pass


class MissingPairError(SemilatticeError):
    pass


class ConflictingEntryError(SemilatticeError):
    pass


class UnknownLabelError(SemilatticeError):
    pass


class NotIdempotentError(SemilatticeError):
    def __init__(self, label):
        super().__init__(f"op({label}, {label}) != {label}")
        self.label = label


class NoIdentityError(SemilatticeError):
    pass


class NotAssociativeError(SemilatticeError):
    def __init__(self, s, t, u):
        super().__init__(f"op(op({s},{t}),{u}) != op({s},op({t},{u}))")
        self.witness = (s, t, u)


class DoubleDualError(SemilatticeError):
    pass


class NotInjectiveError(DoubleDualError):
    pass


class NotSurjectiveError(DoubleDualError):
    pass


class NotMultiplicativeError(DoubleDualError):
    pass


class FiniteSemilattice:
    """Labels plus a total commutative idempotent associative op with identity.

    The constructor trusts its arguments. Outside input goes through
    validate() or parse_semilattice(); the dual, quotients and the ut
    chain gradings are built from tables that are semilattices by theorem.
    """

    __slots__ = ("elements", "identity", "table", "_index")

    def __init__(self, elements, identity, table):
        self.elements = tuple(elements)
        self.identity = identity
        self.table = tuple(tuple(row) for row in table)
        self._index = {label: i for i, label in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def op(self, i, j):
        return self.table[i][j]

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"no element {label!r}") from None

    def label(self, i):
        return self.elements[i]

    def leq(self, i, j):
        return self.table[i][j] == j

    def __eq__(self, other):
        return (isinstance(other, FiniteSemilattice)
                and self.elements == other.elements
                and self.identity == other.identity
                and self.table == other.table)

    def __hash__(self):
        return hash((self.elements, self.identity, self.table))

    def __repr__(self):
        return f"FiniteSemilattice({list(self.elements)}, identity={self.elements[self.identity]!r})"


def validate(elements, op_table, identity):
    """Check the four monoid/semilattice laws and build the structure.

    elements: sequence of distinct labels; identity: a label;
    op_table: mapping (label, label) -> label. One orientation per
    unordered pair of distinct elements is enough; diagonal entries
    default to idempotency but are checked when supplied.
    """
    elements = tuple(elements)
    seen = set()
    for label in elements:
        if label in seen:
            raise DuplicateLabelError(f"duplicate element {label!r}")
        seen.add(label)
    if identity not in seen:
        raise NoIdentityError(f"identity {identity!r} not among the elements")
    index = {label: i for i, label in enumerate(elements)}
    n = len(elements)

    for (s, t), v in op_table.items():
        for label in (s, t, v):
            if label not in index:
                raise UnknownLabelError(f"op table mentions unknown element {label!r}")

    table = [[None] * n for _ in range(n)]
    for (s, t), v in op_table.items():
        i, j, k = index[s], index[t], index[v]
        for a, b in ((i, j), (j, i)):
            if table[a][b] is not None and table[a][b] != k:
                raise ConflictingEntryError(
                    f"conflicting products for pair ({s}, {t}):"
                    f" {elements[table[a][b]]} vs {v}")
            table[a][b] = k
    for i in range(n):
        if table[i][i] is None:
            table[i][i] = i
    for i in range(n):
        for j in range(n):
            if table[i][j] is None:
                raise MissingPairError(
                    f"no product given for pair ({elements[i]}, {elements[j]})")

    for i in range(n):
        if table[i][i] != i:
            raise NotIdempotentError(elements[i])
    e = index[identity]
    for i in range(n):
        if table[e][i] != i:
            raise NoIdentityError(
                f"op({identity}, {elements[i]}) = {elements[table[e][i]]}, not {elements[i]}")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAssociativeError(elements[i], elements[j], elements[k])

    return FiniteSemilattice(elements, e, table)


def induced_order(s):
    """The partial order i <= j iff op(i, j) = j, as a sorted tuple of index pairs.

    The identity is the minimum and op is the join for this order.
    """
    return tuple((i, j) for i in range(len(s)) for j in range(len(s)) if s.leq(i, j))


@dataclass(frozen=True)
class Character:
    """A {0,1}-valued multiplicative identity-preserving functional."""

    values: tuple

    def __call__(self, i):
        return self.values[i]

    @property
    def support_size(self):
        return sum(self.values)

    def pointwise_mul(self, other):
        return Character(tuple(a * b for a, b in zip(self.values, other.values)))

    def is_character_of(self, s):
        """Whether these values are a character of s, in O(|s|) steps.

        A character is the indicator of the principal down-set of the
        join x of its support (see characters), so it suffices to build
        x and compare every value with [t <= x].
        """
        values = self.values
        if len(values) != len(s) or any(v not in (0, 1) for v in values):
            return False
        if values[s.identity] != 1:
            return False
        x = s.identity
        for t, v in enumerate(values):
            if v:
                x = s.op(x, t)
        return all(v == s.leq(t, x) for t, v in enumerate(values))

    def bits(self):
        return " ".join(str(v) for v in self.values)


def character_label(i):
    return f"f{i + 1}"


def _canonical_sort(chars):
    return sorted(chars, key=lambda ch: (ch.support_size, ch.values))


def characters(s):
    """All characters of s, canonically ordered (support size, then bits).

    The support of a character contains the identity, is a down-set and
    is closed under the join, so it is the principal down-set of its own
    join x. Conversely t -> [t <= x] is a character for every x, since
    op(t, u) <= x iff t <= x and u <= x. Hence one character per element.
    """
    n = len(s)
    return _canonical_sort(Character(tuple(int(s.leq(t, x)) for t in range(n)))
                           for x in range(n))


def dual_semilattice(s):
    """The semilattice of characters under pointwise product.

    Elements are labelled f1, f2, ... in canonical character order; the
    identity is the constant-1 character. The product of the characters
    of x and y is the indicator of the down-set of x meet y (a finite
    join-semilattice with a bottom is a lattice), so the table is closed
    and is a bounded semilattice by construction.
    """
    chars = characters(s)
    lookup = {ch.values: i for i, ch in enumerate(chars)}
    table = [[lookup[a.pointwise_mul(b).values] for b in chars] for a in chars]
    return FiniteSemilattice((character_label(i) for i in range(len(chars))),
                             lookup[(1,) * len(s)], table)


@dataclass(frozen=True)
class MonoidMap:
    """A monoid homomorphism between two finite semilattices, by index."""

    source: FiniteSemilattice
    target: FiniteSemilattice
    assignment: tuple

    def apply(self, i):
        return self.assignment[i]


def double_dual_iso(s):
    """The evaluation map s -> dual(dual(s)), verified to be an isomorphism.

    ev_s sends a character to its value at s. Failure of injectivity,
    surjectivity or multiplicativity is raised rather than asserted; for
    a valid bounded semilattice none can occur.
    """
    chars = characters(s)
    dual = dual_semilattice(s)
    double = dual_semilattice(dual)
    dual_chars = characters(dual)
    lookup = {ch.values: i for i, ch in enumerate(dual_chars)}

    assignment = []
    for i in range(len(s)):
        ev = tuple(ch(i) for ch in chars)
        if ev not in lookup:
            raise NotMultiplicativeError(
                f"evaluation at {s.label(i)} is not a character of the dual")
        assignment.append(lookup[ev])
    if len(set(assignment)) != len(s):
        raise NotInjectiveError("evaluation map identifies distinct elements")
    if set(assignment) != set(range(len(double))):
        raise NotSurjectiveError("evaluation map misses a double-dual element")
    if assignment[s.identity] != double.identity:
        raise NotMultiplicativeError("evaluation map moves the identity")
    for i in range(len(s)):
        for j in range(len(s)):
            if assignment[s.op(i, j)] != double.op(assignment[i], assignment[j]):
                raise NotMultiplicativeError(
                    f"evaluation map is not multiplicative at ({s.label(i)}, {s.label(j)})")
    return MonoidMap(s, double, tuple(assignment))


def ev_matrix_rank(s):
    """Rank of the |S| x |dual S| matrix of character values.

    Equality with |S| certifies that the evaluation functionals are
    linearly independent, i.e. the finite-case representative-function
    bialgebra of the dual is the whole monoid algebra (zero biideal).
    """
    chars = characters(s)
    m = Matrix.from_rows([[ch(i) for ch in chars] for i in range(len(s))])
    return rank(m)


def parse_semilattice(text, source="<input>"):
    """Parse the semilattice text format and validate the result.

    Format: an `elements:` line, an `identity:` line, then product lines
    `a * b = c`. `#` starts a comment; blank lines are ignored. One
    orientation per unordered pair suffices; consistent duplicates are
    allowed, inconsistent ones rejected.
    """
    elements = None
    identity = None
    op_table = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("elements:"):
            if elements is not None:
                raise ParseError("elements given twice", lineno, 1, source)
            elements = tuple(line[len("elements:"):].split())
            if not elements:
                raise ParseError("empty elements line", lineno, 1, source)
            continue
        if line.startswith("identity:"):
            if identity is not None:
                raise ParseError("identity given twice", lineno, 1, source)
            parts = line[len("identity:"):].split()
            if len(parts) != 1:
                raise ParseError("identity line needs exactly one label", lineno, 1, source)
            identity = parts[0]
            continue
        parts = line.split()
        if len(parts) != 5 or parts[1] != "*" or parts[3] != "=":
            raise ParseError(f"expected `a * b = c`, got {line!r}",
                             lineno, raw.index(line[0]) + 1, source)
        if elements is None:
            raise ParseError("product line before elements line", lineno, 1, source)
        a, _, b, _, c = parts
        for lbl in (a, b, c):
            if lbl not in elements:
                raise ParseError(f"unknown element {lbl!r}",
                                 lineno, raw.find(lbl) + 1, source)
        key, alt = (a, b), (b, a)
        for k in (key, alt):
            if k in op_table and op_table[k] != c:
                raise ConflictingEntryError(
                    f"{source}:{lineno}: conflicting products for pair ({a}, {b}):"
                    f" {op_table[k]} vs {c}")
        op_table[key] = c
    if elements is None:
        raise ParseError("missing elements line", 1, 1, source)
    if identity is None:
        raise ParseError("missing identity line", 1, 1, source)
    return validate(elements, op_table, identity)


def print_semilattice(s):
    """Canonical text form: products for index pairs i < j, no diagonal."""
    lines = [f"elements: {' '.join(s.elements)}", f"identity: {s.label(s.identity)}"]
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            lines.append(f"{s.label(i)} * {s.label(j)} = {s.label(s.op(i, j))}")
    return "\n".join(lines) + "\n"
