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

The layer works on these down-sets. With up(x) the bitmask of the
elements above x, a symmetric idempotent table with an identity is
associative iff up(op(i, j)) = up(i) & up(j) for every pair, so validate
certifies associativity in O(n^2) word operations instead of walking n^3
triples. Each down-set is held as one int mask, built once per call. The
dual is the AND table of the masks, since down(x) & down(y) = down(x
meet y). Sorted by size, the masks order the elements along a linear
extension, in which the evaluation matrix is unitriangular, so one sweep
over them certifies its full rank with no elimination. Only a table
that fails the associativity certificate pays for the cubic search of
its first non-associative triple.
"""

from dataclasses import dataclass

from .errors import ParseError, reject_repeats, word_column


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
    """Index a label-keyed table, check the semilattice laws and build the structure.

    elements: sequence of distinct labels; identity: a label;
    op_table: mapping (label, label) -> label. One orientation per
    unordered pair of distinct elements is enough; diagonal entries
    default to idempotency but are checked when supplied.
    """
    elements = tuple(elements)
    index = {}
    for label in elements:
        if label in index:
            raise DuplicateLabelError(f"duplicate element {label!r}")
        index[label] = len(index)
    if identity not in index:
        raise NoIdentityError(f"identity {identity!r} not among the elements")
    for (s, t), v in op_table.items():
        for label in (s, t, v):
            if label not in index:
                raise UnknownLabelError(f"op table mentions unknown element {label!r}")
    table = [[None] * len(elements) for _ in elements]
    for (s, t), v in op_table.items():
        i, j, k = index[s], index[t], index[v]
        if table[i][j] is not None and table[i][j] != k:
            raise ConflictingEntryError(
                f"conflicting products for pair ({s}, {t}):"
                f" {elements[table[i][j]]} vs {v}")
        table[i][j] = table[j][i] = k
    return _certify(elements, index[identity], table)


def _certify(elements, e, table):
    """Check the laws on a symmetric index table (None where no product was given).

    An absent diagonal entry defaults to idempotency. Associativity is
    certified in O(n^2) steps (see _is_associative); only a table that
    fails it is searched, in O(n^3) steps, for the first non-associative
    triple in index order, which NotAssociativeError names.
    """
    for i, row in enumerate(table):
        if row[i] is None:
            row[i] = i
    for i, row in enumerate(table):
        if None in row:
            raise MissingPairError(
                f"no product given for pair ({elements[i]}, {elements[row.index(None)]})")
    for i, row in enumerate(table):
        if row[i] != i:
            raise NotIdempotentError(elements[i])
    for i, k in enumerate(table[e]):
        if k != i:
            raise NoIdentityError(
                f"op({elements[e]}, {elements[i]}) = {elements[k]}, not {elements[i]}")
    if not _is_associative(table):
        raise NotAssociativeError(*(elements[x] for x in _first_nonassociative_triple(table)))
    return FiniteSemilattice(elements, e, table)


def _is_associative(table):
    """Associativity of a symmetric idempotent table with an identity, in O(n^2) steps.

    With up[x] the bitmask of {k : op(x, k) = k}, the table is associative
    iff up[op(i, j)] = up[i] & up[j] for all i < j. If so, k >= x iff
    k in up[x] is a partial order (reflexive by idempotency, antisymmetric
    by symmetry, transitive since y >= x gives up[y] = up[op(x, y)] =
    up[x] & up[y]), op(i, j) is the least upper bound of i and j, and
    joins are associative. Conversely op(op(i, j), k) = k iff op(i, k) = k
    and op(j, k) = k in any semilattice.
    """
    up = [sum(1 << k for k, v in enumerate(row) if v == k) for row in table]
    for i, row in enumerate(table):
        up_i = up[i]
        for j in range(i + 1, len(table)):
            if up[row[j]] != up_i & up[j]:
                return False
    return True


def _first_nonassociative_triple(table):
    """The lexicographically first (i, j, k) with op(op(i, j), k) != op(i, op(j, k))."""
    n = len(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return i, j, k
    return None


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


def _down_sets(s):
    """(mask, x) for every element x, in canonical character order.

    Bit n-1-t of mask is set iff t <= x. Sorting by support size first
    orders the elements along a linear extension of <=, since t < x makes
    the down-set of t strictly smaller; ties go by mask, as ints.
    """
    bits = [1 << t for t in reversed(range(len(s)))]
    return sorted(((sum(b for b, v in zip(bits, row) if v == x), x) for x, row in enumerate(s.table)),
                  key=lambda pair: (pair[0].bit_count(), pair[0]))


def characters(s):
    """All characters of s, canonically ordered (support size, then bits).

    The support of a character contains the identity, is a down-set and
    is closed under the join, so it is the principal down-set of its own
    join x. Conversely t -> [t <= x] is a character for every x, since
    op(t, u) <= x iff t <= x and u <= x. Hence one character per element.
    """
    return [Character(tuple([1 if v == x else 0 for v in s.table[x]])) for _, x in _down_sets(s)]


def _and_table(masks, width):
    """The semilattice of width-bit masks under AND, labelled f1, f2, ... in the order given.

    The identity is the all-ones mask. Raises KeyError when a product or
    the all-ones mask is not among the masks.
    """
    lookup = {mask: i for i, mask in enumerate(masks)}
    table = [[lookup[a & b] for b in masks] for a in masks]
    return FiniteSemilattice((character_label(i) for i in range(len(masks))),
                             lookup[(1 << width) - 1], table)


def dual_semilattice(s):
    """The semilattice of characters under pointwise product.

    Elements are labelled f1, f2, ... in canonical character order; the
    identity is the constant-1 character. The product of the characters
    of x and y is the indicator of the down-set of x meet y (a finite
    join-semilattice with a bottom is a lattice), so the table is closed
    and is a bounded semilattice by construction. It is built as the AND
    table of the down-set masks: n^2 dictionary lookups of n-bit ints.
    """
    return _and_table([mask for mask, _ in _down_sets(s)], len(s))


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

    ev_s sends a character to its value at s. The masks of s and of the
    dual are built once each, their AND tables are the dual and the double
    dual, and the evaluation at t is the mask of the characters 1 at t.
    Failures of injectivity, surjectivity or multiplicativity are raised,
    not asserted; for a valid bounded semilattice none can occur.
    """
    n, masks = len(s), [mask for mask, _ in _down_sets(s)]
    try:
        dual = _and_table(masks, n)
    except KeyError:
        raise DoubleDualError(
            "the characters are not closed under pointwise product") from None
    dual_masks = [mask for mask, _ in _down_sets(dual)]
    double = _and_table(dual_masks, len(dual))
    lookup = {mask: i for i, mask in enumerate(dual_masks)}
    evaluations = [0] * n  # bit len(masks)-1-c of evaluations[t] is character c at t
    for c, mask in enumerate(masks):
        while mask:  # t = n - mask.bit_length() is the first element left in mask
            evaluations[n - mask.bit_length()] |= 1 << (len(masks) - 1 - c)
            mask ^= 1 << (mask.bit_length() - 1)
    assignment = []
    for i, ev in enumerate(evaluations):
        if ev not in lookup:
            raise DoubleDualError(
                f"evaluation at {s.label(i)} is not a character of the dual")
        assignment.append(lookup[ev])
    if len(set(assignment)) != n:
        raise DoubleDualError("evaluation map identifies distinct elements")
    if len(double) != n:
        raise DoubleDualError("evaluation map misses a double-dual element")
    if assignment[s.identity] != double.identity:
        raise DoubleDualError("evaluation map moves the identity")
    for i, row in enumerate(s.table):
        image_row = double.table[assignment[i]]
        for j, k in enumerate(row):
            if assignment[k] != image_row[assignment[j]]:
                raise DoubleDualError(
                    f"evaluation map is not multiplicative at ({s.label(i)}, {s.label(j)})")
    return MonoidMap(s, double, tuple(assignment))


def ev_matrix_rank(s):
    """Rank of the |S| x |dual S| matrix of character values, certified unitriangular.

    Equality with |S| certifies that the evaluation functionals are
    linearly independent, i.e. the finite-case representative-function
    bialgebra of the dual is the whole monoid algebra (zero biideal).
    Along the canonical order the matrix is the zeta matrix of the order,
    upper unitriangular: one sweep checks that each of the n masks holds
    its own element and no earlier mask does, which gives rank n. Masks
    that fail it contradict the theorem, and ArithmeticError is raised.
    """
    n, down, seen = len(s), _down_sets(s), 0  # seen: the union of the earlier masks
    for mask, x in down:
        if not (mask & ~seen) >> (n - 1 - x) & 1:
            break
        seen |= mask
    else:
        if len(down) == n:
            return n
    raise ArithmeticError("the character evaluation matrix is not unitriangular")


def parse_semilattice(text, source="<input>"):
    """Parse the semilattice text format into a certified structure, in one pass.

    Format: an `elements:` line, an `identity:` line, then product lines
    `a * b = c`. `#` starts a comment; blank lines are ignored. A label
    may appear only once on the elements line. One orientation per
    unordered pair suffices; consistent duplicates are allowed,
    inconsistent ones rejected. Errors carry the line and column of the
    offending word. Each product line fills both orientations of the
    index table, and the laws are certified as in validate.

    Each line has its comment cut once and its words split once. A
    line of five words with `*` and `=` in place whose first word opens
    no header is a product line: each label costs one dictionary lookup,
    and the labels are walked only to name an unknown one. Every other
    line goes through the header and error branches.
    """
    elements = identity = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        words = body.split()
        if (len(words) == 5 and words[1] == "*" and words[3] == "="
                and not words[0].startswith(("elements:", "identity:"))):
            if elements is None:
                raise ParseError("product line before elements line",
                                 lineno, word_column(raw, 0), source)
            a, _, b, _, c = words
            i, j, k = index.get(a), index.get(b), index.get(c)
            if i is None or j is None or k is None:
                lbl = next(w for w in (a, b, c) if w not in index)
                raise ParseError(f"unknown element {lbl!r}",
                                 lineno, word_column(raw, 2 * (a, b, c).index(lbl)), source)
            row = table[i]
            if row[j] is not None and row[j] != k:
                raise ConflictingEntryError(
                    f"{source}:{lineno}:{word_column(raw, 4)}: conflicting products"
                    f" for pair ({a}, {b}): {elements[row[j]]} vs {c}")
            row[j] = table[j][i] = k
            continue
        if not words:
            continue
        line = body.strip()
        if line.startswith("elements:"):
            if elements is not None:
                raise ParseError("elements given twice", lineno, word_column(raw, 0), source)
            elements = tuple(line[len("elements:"):].split())
            if not elements:
                raise ParseError("empty elements line", lineno, word_column(raw, 0), source)
            reject_repeats(elements, "element", raw, lineno, source)
            index = {label: i for i, label in enumerate(elements)}
            table = [[None] * len(elements) for _ in elements]
        elif line.startswith("identity:"):
            if identity is not None:
                raise ParseError("identity given twice", lineno, word_column(raw, 0), source)
            parts = line[len("identity:"):].split()
            if len(parts) != 1:
                col = word_column(raw, 1, raw.index(":") + 1) if parts else word_column(raw, 0)
                raise ParseError("identity line needs exactly one label", lineno, col, source)
            identity = (parts[0], lineno, raw)
        else:
            raise ParseError(f"expected `a * b = c`, got {line!r}",
                             lineno, word_column(raw, 0), source)
    if elements is None:
        raise ParseError("missing elements line", 1, 1, source)
    if identity is None:
        raise ParseError("missing identity line", 1, 1, source)
    label, lineno, raw = identity
    if label not in index:
        raise NoIdentityError(f"{source}:{lineno}:{word_column(raw, 0, raw.index(':') + 1)}:"
                              f" identity {label!r} not among the elements")
    return _certify(elements, index[label], table)


def parse_semilattice_file(path):
    """Parse the `.slat` file at path; errors name the path as their source."""
    with open(path, encoding="utf-8") as fh:
        return parse_semilattice(fh.read(), source=str(path))


def print_semilattice(s):
    """Canonical text form: products for index pairs i < j, no diagonal."""
    lines = [f"elements: {' '.join(s.elements)}", f"identity: {s.label(s.identity)}"]
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            lines.append(f"{s.label(i)} * {s.label(j)} = {s.label(s.op(i, j))}")
    return "\n".join(lines) + "\n"
