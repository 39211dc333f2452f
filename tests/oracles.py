"""Independent oracles used to freeze expected values.

Each of these reimplements a result by a different method than the
package: cofactor expansion instead of elimination, largest nonzero
minor instead of echelon rank, Gaussian elimination on Fractions
instead of the fraction-free elimination for solve, sort-time sign tracking and explicit
inversion counting for the Koszul sign, pairwise multiplicativity
instead of the down-set test for characters, every basis pair and
triple instead of the stored products of a graded algebra, every
same-class pair instead of class representatives for congruences,
evaluation at chain points instead of prefix positions for step
functionals, every window point instead of the points where a function
changes value for threshold decompositions, one hand-written double
loop per algebra instead of the shared bilinear product, every triple
instead of the up-set bitmask certificate for associativity, and
pointwise products of character tuples instead of ANDs of down-set
bitmasks for the dual, and every
basis pair through the public character action instead of the stored
products against one keep word per character for the module-algebra
and action laws, a hand-written loop over every product with the unit
instead of the table of stored products for the unit law,
every bit-vector instead of the down-set indicators for characters, a
coefficient grid instead of the symbolic forcing for quotient
group-likes, a label-keyed table read in two passes instead of the
one-pass index table for the semilattice text format, and a generator
max over the places instead of a map of item getters for the weight of a
letterplace monomial.
Tests compare package output against these; `mutated` plants a fault in a
package function to show that a test bites.
"""

import inspect
import textwrap
from fractions import Fraction
from itertools import combinations, product

from semidual.bialgebra import (MonoidAlgebraElement, grouplike_basis_classification,
                                is_grouplike, quotient_semilattice)
from semidual.errors import ParseError, reject_repeats, word_column
from semidual.extnat import NEG_INF, POS_INF, fin
from semidual.graded import AlgebraElement, act_character, verify_grading
from semidual.nbar_dual import StepFunctional
from semidual.reporting import FAIL, INFO, PASS, Report
from semidual.semilattice import (Character, ConflictingEntryError, DuplicateLabelError,
                                  FiniteSemilattice, MissingPairError, NoIdentityError,
                                  NotAssociativeError, NotIdempotentError, UnknownLabelError,
                                  character_label, characters, validate)

BRUTE_CHARACTER_LIMIT = 16
BRUTE_GROUPLIKE_LIMIT = 6
GRID = (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


class SizeLimitError(ValueError):
    """An input is larger than a brute-force oracle is willing to handle."""


def mutated(function, old, new):
    """function with the text old of its source, which must occur once, replaced by new,
    compiled in a copy of its module's namespace; a method comes back as a plain function."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(function)))
    exec(source.replace(old, new), namespace)
    return namespace[function.__name__]


def cofactor_det(rows):
    """Recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * Fraction(rows[0][j]) * cofactor_det(minor)
    return total


def minor_rank(rows):
    """Largest size of a square submatrix with nonzero determinant."""
    if not rows or not rows[0]:
        return 0
    m, n = len(rows), len(rows[0])
    for size in range(min(m, n), 0, -1):
        for rsel in combinations(range(m), size):
            for csel in combinations(range(n), size):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                if cofactor_det(sub) != 0:
                    return size
    return 0


def gauss_rank(rows):
    """Rank by plain Fraction elimination, no fraction-free tricks."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        for i in range(r + 1, m):
            if a[i][c]:
                factor = a[i][c] / a[r][c]
                for j in range(c, n):
                    a[i][j] -= factor * a[r][j]
        r += 1
    return r


def gauss_solve(rows, b):
    """Solve rows x = b by Fraction Gaussian elimination; None when singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, b)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            return None
        a[c], a[pivot] = a[pivot], a[c]
        for i in range(c + 1, n):
            if a[i][c] == 0:
                continue
            factor = a[i][c] / a[c][c]
            for j in range(c, n + 1):
                a[i][j] -= factor * a[c][j]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = a[i][n] - sum((a[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        x[i] = acc / a[i][i]
    return tuple(x)


def koszul_sign(word, ctx):
    """Sign of sorting a word: -1 per out-of-order pair of odd variables.

    None when an odd variable repeats (the monomial vanishes).
    """
    odd = [v for v in word if ctx.parity(v) == 1]
    if len(set(odd)) != len(odd):
        return None
    inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                     if word[i] > word[j]
                     and ctx.parity(word[i]) == 1 and ctx.parity(word[j]) == 1)
    return -1 if inversions % 2 else 1


def insertion_sort_normalize(word, ctx):
    """(sign, sorted word) by insertion sort, flipping the sign per swap of two odd variables.

    None when two equal odd variables end up adjacent.
    """
    vs = list(word)
    parities = [ctx.parity(v) for v in vs]
    sign = 1
    for i in range(1, len(vs)):
        j = i
        while j > 0 and vs[j] < vs[j - 1]:
            if parities[j] and parities[j - 1]:
                sign = -sign
            vs[j], vs[j - 1] = vs[j - 1], vs[j]
            parities[j], parities[j - 1] = parities[j - 1], parities[j]
            j -= 1
    for i in range(1, len(vs)):
        if vs[i] == vs[i - 1] and parities[i]:
            return None
    return sign, tuple(vs)


def _prefix_points(f):
    """The chain points -inf, 0, ..., len(f.prefix) - 2 that f.prefix covers."""
    return [NEG_INF] + [fin(i) for i in range(max(len(f.prefix) - 1, 0))]


def point_translate(f, n):
    """m -> f(max(n, m)), evaluated at chain points through max on ExtNat."""
    return StepFunctional([f.eval(max(n, p)) for p in _prefix_points(f)], f.tail)


def point_pointwise_mul(f, g):
    """f g evaluated at the chain points that either prefix covers."""
    longer = f if len(f.prefix) >= len(g.prefix) else g
    return StepFunctional([f.eval(p) * g.eval(p) for p in _prefix_points(longer)],
                          f.tail * g.tail)


def point_finite_runs(f):
    """(end point, value) per maximal constant run of the prefix, walking chain points."""
    if not f.prefix:
        return []
    points = _prefix_points(f)
    runs = []
    for idx, point in enumerate(points):
        value = f.prefix[idx]
        if idx + 1 == len(points) or f.prefix[idx + 1] != value:
            runs.append((point, value))
    return runs


def window(f, *thresholds):
    """-inf and the naturals through two past the largest of the tail onset of f
    and the thresholds below +inf; every f_c and f are constant from there on."""
    last = max([f.tail_onset(), *(c for c in thresholds if c != POS_INF)])
    return [NEG_INF] + [fin(i) for i in range(last.succ().succ().n + 1)]


def dense_decomposition_holds(f, coeffs):
    """Whether sum_c coeffs[c] [p <= c] equals f(p) at every point of the window.

    [p <= c] compares the window indices of p and c, with +inf past
    the end, and f(p) is read off step_values, so neither the ExtNat
    order nor StepFunctional.eval is used.
    """
    points = window(f, *coeffs)
    below = {c: len(points) if c == POS_INF else points.index(c) for c in coeffs}
    values = step_values(f.prefix, f.tail, len(points))
    return all(sum(v for c, v in coeffs.items() if k <= below[c]) == values[k]
               for k in range(len(points)))


def step_values(prefix, tail, count):
    """First `count` values of a step functional: -inf, 0, 1, ..."""
    prefix = [Fraction(x) for x in prefix]
    tail = Fraction(tail)
    return [(prefix[i] if i < len(prefix) else tail) for i in range(count)]


def pairwise_is_character(values, s):
    """The definition: 0/1 values, identity to 1, f(op(i, j)) = f(i) f(j) for all pairs."""
    if len(values) != len(s) or any(v not in (0, 1) for v in values):
        return False
    if values[s.identity] != 1:
        return False
    return all(values[s.op(i, j)] == values[i] * values[j]
               for i in range(len(s)) for j in range(i, len(s)))


def dense_first_nonassociative_triple(algebra):
    """First (i, j, k) in lexicographic order, as labels, with (b_i b_j) b_k != b_i (b_j b_k).

    Walks all dim^3 triples, zero products included.
    """
    n = algebra.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = {}
                for m, c in algebra.mul_basis(i, j).items():
                    for l, d in algebra.mul_basis(m, k).items():
                        left[l] = left.get(l, Fraction(0)) + c * d
                right = {}
                for m, c in algebra.mul_basis(j, k).items():
                    for l, d in algebra.mul_basis(i, m).items():
                        right[l] = right.get(l, Fraction(0)) + c * d
                if ({l: v for l, v in left.items() if v}
                        != {l: v for l, v in right.items() if v}):
                    return (algebra.basis[i], algebra.basis[j], algebra.basis[k])
    return None


def dense_ut_structure(m):
    """Products of the matrix units E_pq (p <= q) by scanning every pair of them.

    E_pq E_rt = E_pt when q == r and 0 otherwise; keys and values are
    positions in the row-major list of units, as in graded.ut_graded.
    """
    units = [(p, q) for p in range(1, m + 1) for q in range(p, m + 1)]
    pos = {pq: i for i, pq in enumerate(units)}
    structure = {}
    for i, (p, q) in enumerate(units):
        for j, (r, t) in enumerate(units):
            if q == r:
                structure[(i, j)] = {pos[(p, t)]: Fraction(1)}
    return structure


def all_pairs_is_congruence(congruence):
    """a ~ b implies a t ~ b t, tried for every same-class pair (a, b) and every t."""
    p, class_of = congruence.parent, congruence.class_of
    n = len(p)
    return all(class_of(p.op(a, t)) == class_of(p.op(b, t))
               for a in range(n) for b in range(n) if class_of(a) == class_of(b)
               for t in range(n))


def all_pairs_congruence_classes(s, pairs):
    """Classes of the smallest congruence containing the label pairs, as sorted index tuples.

    Merges class sets until no same-class pair (a, b) and t put a t and b t
    in different classes.
    """
    class_of = {i: frozenset([i]) for i in range(len(s))}

    def merge(i, j):
        if class_of[i] is class_of[j]:
            return False
        merged = class_of[i] | class_of[j]
        for k in merged:
            class_of[k] = merged
        return True

    for a, b in pairs:
        merge(s.index(a), s.index(b))
    n = len(s)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if class_of[a] is class_of[b]:
                    for t in range(n):
                        changed |= merge(s.op(a, t), s.op(b, t))
    return sorted({tuple(sorted(c)) for c in class_of.values()})


def first_nonassociative_triple(elements, op_table):
    """First (s, t, u) in element order with op(op(s, t), u) != op(s, op(t, u)), or None.

    op_table maps every ordered pair of labels to a label.
    """
    for s in elements:
        for t in elements:
            for u in elements:
                if op_table[op_table[s, t], u] != op_table[s, op_table[t, u]]:
                    return (s, t, u)
    return None


def pointwise_product_dual(s):
    """The characters of s under pointwise product of their value tuples, labelled f1, f2, ..."""
    chars = characters(s)
    lookup = {ch.values: i for i, ch in enumerate(chars)}
    table = [[lookup[tuple(x * y for x, y in zip(a.values, b.values))] for b in chars]
             for a in chars]
    return FiniteSemilattice((character_label(i) for i in range(len(chars))),
                             lookup[(1,) * len(s)], table)


def validated_copy(s):
    """What semilattice.validate builds from the full table of s, laws checked."""
    n = len(s)
    table = {(s.label(i), s.label(j)): s.label(s.op(i, j)) for i in range(n) for j in range(n)}
    return validate(s.elements, table, s.label(s.identity))


def _nonzero(coeffs):
    return {k: v for k, v in coeffs.items() if v != 0}


def loop_monoid_product(a, b):
    """Coefficients of a b in kS: x y added at op(i, j) for every pair of terms."""
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            k = a.parent.op(i, j)
            out[k] = out.get(k, Fraction(0)) + x * y
    return _nonzero(out)


def loop_tensor_product(a, b):
    """Coefficients of a b in kS (x) kS: factorwise op on every pair of index pairs."""
    op = a.parent.op
    out = {}
    for (p, q), x in a.coeffs.items():
        for (r, t), y in b.coeffs.items():
            key = (op(p, r), op(q, t))
            out[key] = out.get(key, Fraction(0)) + x * y
    return _nonzero(out)


def loop_graded_product(a, b):
    """Coefficients of a b in a graded algebra: x y c_k over the stored products."""
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            for k, ck in a.parent.mul_basis(i, j).items():
                out[k] = out.get(k, Fraction(0)) + x * y * ck
    return _nonzero(out)


def loop_unit_law_witness(algebra):
    """First basis label b with 1 b != b or b 1 != b, both products by loop_graded_product."""
    one = algebra.one()
    for i, label in enumerate(algebra.basis):
        b = algebra.element({i: 1})
        if loop_graded_product(one, b) != b.coeffs or loop_graded_product(b, one) != b.coeffs:
            return label
    return None


def generator_max_weight(mono):
    """The place maximum of a monomial by a generator max; the empty monomial sits at -inf."""
    return fin(max(v.place for v in mono)) if mono else NEG_INF


def loop_letterplace_product(p, q):
    """Coefficients of p q: concatenated monomials renormalized by insertion sort."""
    out = {}
    for m1, c1 in p.coeffs.items():
        for m2, c2 in q.coeffs.items():
            normalized = insertion_sort_normalize(m1 + m2, p.parent)
            if normalized is None:
                continue
            sign, mono = normalized
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2 * sign
    return _nonzero(out)


def all_pairs_character_laws(algebra, kind, unit_name, unit_note, act=act_character):
    """The character laws of graded.check_module_algebra, on every basis pair.

    act(f, a) is the character action; every image goes through it, so a
    faulty act shows in the witnesses. Returns the report, the characters
    and images[c][j], character c acting on basis vector j.
    """
    if not verify_grading(algebra).passed:
        raise ValueError("algebra does not pass verify_grading")
    chars = characters(algebra.grading)
    n = algebra.dim
    basis = [AlgebraElement(algebra, {i: Fraction(1)}) for i in range(n)]
    images = [[act(f, b) for b in basis] for f in chars]
    products = [[algebra.element(algebra.mul_basis(i, j)) for j in range(n)] for i in range(n)]
    report = Report()
    for ci, (f, image) in enumerate(zip(chars, images)):
        witness = next(((algebra.basis[i], algebra.basis[j])
                        for i in range(n) for j in range(n)
                        if act(f, products[i][j]) != image[i] * image[j]),
                       None)
        report.add(kind, f"{character_label(ci)} multiplicative",
                   FAIL if witness else PASS, f"[witness {witness}]" if witness else "")
    g, degree = algebra.grading, algebra.degree
    split = any(degree[i] != g.identity for i in algebra.unit)
    if not split:
        one = algebra.one()
        for ci, f in enumerate(chars):
            report.add(kind, f"{character_label(ci)} {unit_name}",
                       PASS if act(f, one) == one else FAIL)
    else:
        report.add("check", unit_name, INFO, f"[{unit_note}]")
    return report, chars, images


def all_pairs_module_algebra(algebra, act=act_character):
    """The check_module_algebra report, by all_pairs_character_laws."""
    report, _, _ = all_pairs_character_laws(
        algebra, "character", "unit-law",
        "unit not concentrated in identity-acting degrees;"
        " gamma(f,1) is the projection of 1 onto the degrees where f = 1", act)
    return report


def all_pairs_dual_action(algebra, act=act_character):
    """The dual_monoid_action report: every composition through act, basis vector by vector."""
    report, chars, images = all_pairs_character_laws(
        algebra, "endomorphism", "unital",
        "unit not concentrated in identity-acting degrees;"
        " gamma(f,1) != 1 for characters vanishing on a unit degree", act)
    labels = [character_label(i) for i in range(len(chars))]
    lookup = {ch.values: i for i, ch in enumerate(chars)}
    witness = next(((labels[i], labels[k])
                    for i, f in enumerate(chars) for k, g in enumerate(chars)
                    if [act(f, image) for image in images[k]]
                    != images[lookup[f.pointwise_mul(g).values]]), None)
    report.add("action", "composition", FAIL if witness else PASS,
               f"[witness {witness}]" if witness else "")
    top = lookup[tuple(1 for _ in range(len(algebra.grading)))]
    identity = all(image.coeffs == {j: 1} for j, image in enumerate(images[top]))
    report.add("action", "identity-character", PASS if identity else FAIL)
    return report


def brute_characters(s):
    """Every bit-vector tested against the character equations directly.

    Returned in the canonical order of semilattice.characters: support
    size, then bits.
    """
    n = len(s)
    if n > BRUTE_CHARACTER_LIMIT:
        raise SizeLimitError(f"{n} elements exceeds the brute-force limit {BRUTE_CHARACTER_LIMIT}")
    found = []
    for mask in range(1 << n):
        bits = tuple(mask >> i & 1 for i in range(n))
        if bits[s.identity] != 1:
            continue
        if all(bits[s.op(i, j)] == bits[i] * bits[j]
               for i in range(n) for j in range(i, n)):
            found.append(Character(bits))
    return sorted(found, key=lambda ch: (ch.support_size, ch.values))


def brute_grouplikes_smallfield(s, congruence):
    """Grid search for group-likes in the quotient monoid algebra.

    Coefficient vectors over {-1, 0, 1/2, 1, 2} are tested one by one;
    the grid contains the basis cosets, so they are all found, and the
    search is a partial refutation that nothing else qualifies (a grid
    cannot rule out all of the rationals; the complete argument is the
    symbolic alpha^2 = alpha forcing, re-run here as a cross-check).
    """
    quotient, _ = quotient_semilattice(congruence)
    dim = len(quotient)
    if dim > BRUTE_GROUPLIKE_LIMIT:
        raise SizeLimitError(f"quotient dimension {dim} exceeds {BRUTE_GROUPLIKE_LIMIT}")
    found = []
    for vector in product(GRID, repeat=dim):
        element = MonoidAlgebraElement(quotient, dict(enumerate(vector)))
        if is_grouplike(element):
            found.append(element)
    symbolic = grouplike_basis_classification(quotient)
    if sorted(tuple(sorted(x.coeffs.items())) for x in found) != \
            sorted(tuple(sorted(x.coeffs.items())) for x in symbolic):
        raise ArithmeticError("grid search disagrees with the symbolic classification")
    return found


def label_keyed_validate(elements, op_table, identity):
    """The laws of validate, checked in its order on a label-keyed table.

    Both orientations of every entry are looked up by label, and
    associativity is tested on every triple; labels become indices only
    once the structure is built.
    """
    elements = tuple(elements)
    seen = set()
    for label in elements:
        if label in seen:
            raise DuplicateLabelError(f"duplicate element {label!r}")
        seen.add(label)
    if identity not in seen:
        raise NoIdentityError(f"identity {identity!r} not among the elements")
    for (s, t), v in op_table.items():
        for label in (s, t, v):
            if label not in seen:
                raise UnknownLabelError(f"op table mentions unknown element {label!r}")
    full = {}
    for (s, t), v in op_table.items():
        for key in ((s, t), (t, s)):
            if full.get(key, v) != v:
                raise ConflictingEntryError(
                    f"conflicting products for pair ({s}, {t}): {full[key]} vs {v}")
            full[key] = v
    for s in elements:
        full.setdefault((s, s), s)
    for s in elements:
        for t in elements:
            if (s, t) not in full:
                raise MissingPairError(f"no product given for pair ({s}, {t})")
    for s in elements:
        if full[s, s] != s:
            raise NotIdempotentError(s)
    for s in elements:
        if full[identity, s] != s:
            raise NoIdentityError(f"op({identity}, {s}) = {full[identity, s]}, not {s}")
    triple = first_nonassociative_triple(elements, full)
    if triple is not None:
        raise NotAssociativeError(*triple)
    index = {label: i for i, label in enumerate(elements)}
    return FiniteSemilattice(elements, index[identity],
                             [[index[full[s, t]] for t in elements] for s in elements])


def label_keyed_parse(text, source="<input>"):
    """The semilattice text format read into a label-pair dict, then label_keyed_validate.

    Each product line looks up both orientations of its pair for a
    conflict; the laws are checked in a second pass.
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
                raise ParseError("elements given twice", lineno, word_column(raw, 0), source)
            elements = tuple(line[len("elements:"):].split())
            if not elements:
                raise ParseError("empty elements line", lineno, word_column(raw, 0), source)
            reject_repeats(elements, "element", raw, lineno, source)
            continue
        if line.startswith("identity:"):
            if identity is not None:
                raise ParseError("identity given twice", lineno, word_column(raw, 0), source)
            parts = line[len("identity:"):].split()
            if len(parts) != 1:
                col = word_column(raw, 1, raw.index(":") + 1) if parts else word_column(raw, 0)
                raise ParseError("identity line needs exactly one label", lineno, col, source)
            identity = parts[0]
            identity_line = (lineno, raw)
            continue
        parts = line.split()
        if len(parts) != 5 or parts[1] != "*" or parts[3] != "=":
            raise ParseError(f"expected `a * b = c`, got {line!r}",
                             lineno, word_column(raw, 0), source)
        if elements is None:
            raise ParseError("product line before elements line",
                             lineno, word_column(raw, 0), source)
        a, _, b, _, c = parts
        for lbl in (a, b, c):
            if lbl not in elements:
                raise ParseError(f"unknown element {lbl!r}",
                                 lineno, word_column(raw, 2 * (a, b, c).index(lbl)), source)
        for key in ((a, b), (b, a)):
            if key in op_table and op_table[key] != c:
                raise ConflictingEntryError(
                    f"{source}:{lineno}:{word_column(raw, 4)}: conflicting products"
                    f" for pair ({a}, {b}): {op_table[key]} vs {c}")
        op_table[a, b] = c
    if elements is None:
        raise ParseError("missing elements line", 1, 1, source)
    if identity is None:
        raise ParseError("missing identity line", 1, 1, source)
    if identity not in elements:
        lineno, raw = identity_line
        col = raw.index(identity, raw.index(":") + 1) + 1
        raise NoIdentityError(
            f"{source}:{lineno}:{col}: identity {identity!r} not among the elements")
    return label_keyed_validate(elements, op_table, identity)
