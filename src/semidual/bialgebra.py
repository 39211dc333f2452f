"""The monoid algebra of a finite semilattice as a bialgebra.

Basis elements multiply by the semilattice operation; comultiplication
is diagonal (s -> s (x) s) and the counit sends every basis element to 1.
Group-like elements of the monoid algebra are exactly the basis
elements, and this classification survives quotients by congruence
ideals: the quotient of kS by span{s - t : s ~ t} is the monoid algebra
of the quotient semilattice, where the group-likes are the cosets.

Quotients by coideals that do not come from a congruence are out of
scope, as is any Hopf/antipode structure.
"""

from dataclasses import dataclass

from .exactlin import (ParentMismatchError,  # noqa: F401 (re-exported)
                       SparseVector, clean, exact, format_sum)
from .reporting import FAIL, PASS, Report
from .semilattice import FiniteSemilattice, characters


class NotACongruenceError(ValueError):
    pass


class MonoidAlgebraElement(SparseVector):
    """Sparse rational combination of semilattice elements."""

    __slots__ = ()

    @classmethod
    def basis(cls, parent, i):
        return cls(parent, {i: 1})

    @classmethod
    def unit(cls, parent):
        return cls.basis(parent, parent.identity)

    @classmethod
    def zero(cls, parent):
        return cls(parent, {})

    @classmethod
    def from_labels(cls, parent, labelled):
        return cls(parent, {parent.index(lbl): v for lbl, v in labelled.items()})

    def basis_product(self, i, j):
        return {self.parent.op(i, j): 1}

    def __repr__(self):
        return f"MonoidAlgebraElement({format_element(self)})"


def format_element(a):
    return format_sum((a.coeffs[i], a.parent.label(i)) for i in sorted(a.coeffs))


class TensorElement(SparseVector):
    """Sparse element of kS (x) kS, keyed by ordered index pairs."""

    __slots__ = ()

    def basis_product(self, ab, cd):
        (a, b), (c, d) = ab, cd
        return {(self.parent.op(a, c), self.parent.op(b, d)): 1}

    def __repr__(self):
        return f"TensorElement({dict(sorted(self.coeffs.items()))})"


def multiply(a, b):
    """Bilinear extension of the semilattice operation."""
    return a.product(b)


def comultiply(a):
    """Diagonal comultiplication: sum a_s s maps to sum a_s (s, s)."""
    return TensorElement(a.parent, {(i, i): v for i, v in a.coeffs.items()})


def counit(a):
    """Every basis element counts 1, so this is the coefficient sum, an int when integral."""
    return exact(sum(a.coeffs.values()))


def tensor_square(a):
    return TensorElement(a.parent, {(i, j): x * y
                                    for i, x in a.coeffs.items()
                                    for j, y in a.coeffs.items()})


def is_grouplike(a):
    """True iff comultiply(a) = a (x) a and counit(a) = 1."""
    return counit(a) == 1 and comultiply(a) == tensor_square(a)


def check_bialgebra_axioms(s):
    """Verify the bialgebra axioms of kS on basis elements: certify, then walk.

    Bilinearity of every map involved reduces the axioms to basis
    elements and pairs, which are checked exhaustively. The maps are read
    on basis vectors only, so the check assumes they are linear: a
    comultiply or counit that is right on the basis but not linear passes.

    The n^2 basis products are always built. When each is the basis
    vector of its table entry and each delta is one term of kS (x) kS,
    the two multiplicative laws are read off s.table (_table_laws); any
    other shape, and a law that the table refutes, runs the walk over
    every pair, the one source of witnesses.
    """
    report = Report()
    n = len(s)
    basis = [MonoidAlgebraElement.basis(s, i) for i in range(n)]
    deltas = [comultiply(b) for b in basis]
    counits = [counit(b) for b in basis]

    def first_element(fails):
        return next((f"s={s.label(i)}" for i in range(n) if fails(i)), None)

    def first_pair(fails):
        return next((f"s={s.label(i)} t={s.label(j)}"
                     for i in range(n) for j in range(n) if fails(i, j)), None)

    def coassociative(t):
        """(comultiply (x) id)(t) == (id (x) comultiply)(t), by linearity from the basis."""
        left, right = {}, {}
        for (a, c), v in t.coeffs.items():
            for (x, y), w in deltas[a].coeffs.items():
                left[(x, y, c)] = left.get((x, y, c), 0) + v * w
            for (x, y), w in deltas[c].coeffs.items():
                right[(a, x, y)] = right.get((a, x, y), 0) + v * w
        return clean(left) == clean(right)

    def apply_counit(t, factor):
        """counit applied to tensor factor 0 or 1 of t, by linearity from the basis."""
        out = {}
        for pair, v in t.coeffs.items():
            kept = pair[1 - factor]
            out[kept] = out.get(kept, 0) + v * counits[pair[factor]]
        return MonoidAlgebraElement(s, out)

    report.check("axiom", "coassociativity",
                 first_element(lambda i: not coassociative(deltas[i])))
    report.check("axiom", "counit-left",
                 first_element(lambda i: apply_counit(deltas[i], 0) != basis[i]))
    report.check("axiom", "counit-right",
                 first_element(lambda i: apply_counit(deltas[i], 1) != basis[i]))

    products = [[multiply(a, b) for b in basis] for a in basis]
    delta_law, counit_law = _table_laws(s, products, deltas, counits) or (False, False)
    report.check("axiom", "comultiplication-multiplicative", None if delta_law else
                 first_pair(lambda i, j: comultiply(products[i][j]) != deltas[i] * deltas[j]))
    report.check("axiom", "counit-multiplicative", None if counit_law else
                 first_pair(lambda i, j: counit(products[i][j]) != counits[i] * counits[j]))

    e = s.identity
    report.add("axiom", "comultiplication-unit",
               PASS if deltas[e] == tensor_square(basis[e]) else FAIL)
    report.add("axiom", "counit-unit", PASS if counits[e] == 1 else FAIL)
    return report


def _table_laws(s, products, deltas, counits):
    """(Delta multiplicative, counit multiplicative) read off s.table, or None off the shape.

    The shape: products[i][j] is the basis vector of s.table[i][j] in kS
    and each delta is a TensorElement over s with one term. Then
    products[i][j] equals basis vector t = s.table[i][j], whose images
    are deltas[t] and counits[t], and with deltas[i] = v b_a (x) b_b and
    deltas[j] = w b_c (x) b_d the product deltas[i] deltas[j] is the one
    term v w b_ac (x) b_bd. Both laws are compared a row of pairs at a time.
    """
    table = s.table
    if not all(type(d) is TensorElement and d.parent is s and len(d.coeffs) == 1
               for d in deltas):
        return None
    units = [{t: 1} for t in range(len(s))]
    for row, entries in zip(products, table):
        if (not all(type(p) is MonoidAlgebraElement and p.parent is s for p in row)
                or [p.coeffs for p in row] != [units[t] for t in entries]):
            return None
    terms = [next(iter(d.coeffs.items())) for d in deltas]
    delta_law = all([terms[t] for t in entries]
                    == [((table[a][c], table[b][d]), v * w) for (c, d), w in terms]
                    for entries, ((a, b), v) in zip(table, terms))
    counit_law = all([counits[t] for t in entries] == [x * y for y in counits]
                     for entries, x in zip(table, counits))
    return delta_law, counit_law


def alg_homs(s):
    """The algebra homomorphisms kS -> k, i.e. the group-likes of the finite dual.

    For finite S the finite dual is the whole linear dual, and its
    group-likes are exactly the characters of S; this delegates to the
    character enumeration and is the same canonical ordering.
    """
    return characters(s)


class Congruence:
    """A partition of a semilattice compatible with its operation."""

    __slots__ = ("parent", "classes", "_class_of")

    def __init__(self, parent, classes):
        self.parent = parent
        self.classes = tuple(tuple(sorted(c)) for c in
                             sorted(classes, key=lambda c: min(c)))
        self._class_of = {}
        for ci, members in enumerate(self.classes):
            for m in members:
                self._class_of[m] = ci
        if sorted(m for c in self.classes for m in c) != list(range(len(parent))):
            raise NotACongruenceError("classes do not partition the elements")

    def class_of(self, i):
        return self._class_of[i]

    def is_congruence(self):
        """Whether a ~ b implies a t ~ b t, checked against class representatives.

        By transitivity it suffices that a t ~ r t for each a and its
        class representative r, so this is O(n^2).
        """
        p = self.parent
        n = len(p)
        reps = [self.classes[self._class_of[a]][0] for a in range(n)]
        return all(self._class_of[p.op(a, t)] == self._class_of[p.op(reps[a], t)]
                   for a in range(n) for t in range(n))

    def class_label(self, ci):
        return "+".join(self.parent.label(m) for m in self.classes[ci])

    def __eq__(self, other):
        return (isinstance(other, Congruence) and self.parent == other.parent
                and self.classes == other.classes)

    def __repr__(self):
        return f"Congruence({[self.class_label(i) for i in range(len(self.classes))]})"


def congruence_closure(s, pairs):
    """Smallest congruence of s containing the given label pairs (union-find).

    With c = a b, the congruence generated by a ~ b unites x with x c for
    every x above a or above b, and nothing else. These unions are
    compatible: x above a makes x t above a, and (x t) c = (x c) t. Any
    congruence with a ~ b has a ~ c ~ b (a = a a ~ a b), hence x = x a ~
    x c for each x above a. The congruence of several pairs is the join
    of theirs, the closure of all the unions: one pass over the elements
    per pair.
    """
    parent = list(range(len(s)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in pairs:
        a, b = s.index(a), s.index(b)
        c = s.op(a, b)
        for x in range(len(s)):
            if s.leq(a, x) or s.leq(b, x):
                ri, rc = find(x), find(s.op(x, c))
                parent[max(ri, rc)] = min(ri, rc)
    groups = {}
    for i in range(len(s)):
        groups.setdefault(find(i), []).append(i)
    return Congruence(s, groups.values())


def quotient_semilattice(c):
    """The quotient monoid of a congruence, a bounded semilattice again.

    Returns (quotient, projection) where projection maps old indices to
    new ones. Class labels join the member labels with '+'. The product
    of two classes is the class of the product of their representatives,
    which is well defined because c is checked to be a congruence.
    """
    if not c.is_congruence():
        raise NotACongruenceError("partition is not compatible with the operation")
    s = c.parent
    reps = [members[0] for members in c.classes]
    table = [[c.class_of(s.op(a, b)) for b in reps] for a in reps]
    quotient = FiniteSemilattice((c.class_label(i) for i in range(len(c.classes))),
                                 c.class_of(s.identity), table)
    projection = tuple(c.class_of(i) for i in range(len(s)))
    return quotient, projection


def grouplike_basis_classification(q):
    """All group-likes of the monoid algebra of q, with the char-0 forcing.

    For a = sum alpha_i b_i, comultiply(a) - a (x) a has off-diagonal
    coefficient -alpha_i alpha_j and diagonal alpha_i - alpha_i^2, so a
    group-like needs every alpha in {0, 1} (alpha^2 = alpha over a field
    of characteristic zero), at most one of them nonzero, and counit 1
    picks exactly one. The structural premise (diagonal comultiplication
    on the basis) is re-checked here rather than assumed, and each of
    the |q| candidate solutions is verified against the actual maps.
    """
    solutions = [MonoidAlgebraElement.basis(q, i) for i in range(len(q))]
    for i, b in enumerate(solutions):
        if comultiply(b).coeffs != {(i, i): 1}:
            raise AssertionError("comultiplication is not diagonal on the basis")
        if not is_grouplike(b):
            raise AssertionError(f"basis element {q.label(i)} fails the group-like test")
    return solutions


@dataclass(frozen=True, eq=False)
class QuotientGrouplikes:
    """Result of quotient_grouplikes: the cosets plus a verification report."""

    quotient: FiniteSemilattice
    projection: tuple
    cosets: list
    report: Report


def quotient_grouplikes(s, c):
    """Group-likes of kS / I for the congruence ideal I = span{s - t : s ~ t}.

    The quotient is identified with the monoid algebra of S/~. The
    returned cosets are the images of the congruence classes, taken
    through the projection of each class representative; the report
    verifies that each is group-like, that they are linearly independent
    (so the projection keeps the classes apart), and that the group-likes
    the characteristic-zero forcing admits in the quotient are exactly
    the cosets. Each coset is one basis vector of the quotient, so the
    rank of their coefficient rows is the number of distinct cosets,
    counted with no elimination.
    """
    if c.parent != s:
        raise NotACongruenceError("congruence belongs to a different semilattice")
    quotient, projection = quotient_semilattice(c)
    cosets = [MonoidAlgebraElement.basis(quotient, projection[members[0]])
              for members in c.classes]
    report = Report()
    for i, coset in enumerate(cosets):
        report.add("grouplike", quotient.label(i),
                   PASS if is_grouplike(coset) else FAIL)
    coeff_rank = len(set(cosets))
    report.add("check", "linear-independence",
               PASS if coeff_rank == len(cosets) else FAIL,
               f"[coefficient rank {coeff_rank} of {len(cosets)}]")
    try:
        ok = set(grouplike_basis_classification(quotient)) == set(cosets)
    except AssertionError:
        ok = False
    report.add("check", "completeness", PASS if ok else FAIL,
               "[alpha^2 = alpha forcing over characteristic 0]" if ok else "")
    return QuotientGrouplikes(quotient, projection, cosets, report)
