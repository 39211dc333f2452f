"""Finite-dimensional semilattice-graded algebras from structure constants.

A grading assigns each basis element a semilattice degree so that
nonzero products land in the degree of the joined factors. Characters
of the grading semilattice then act by keeping the components where the
character is 1 and killing the rest; on products of homogeneous
elements this action is multiplicative, and character-by-character it
assembles into a monoid action of the dual.

The motivating example is upper triangular matrices graded by a chain:
rows get degrees from the bottom up, so the bottom-right corner is the
lowest piece. Its identity matrix is split across degrees, which makes
the strict unit law of a module algebra fail for characters vanishing
on a degree of the unit; that deviation is reported as INFO, never FAIL
(see verify_grading and check_module_algebra).
"""

import os
from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError, quoted, read_rational, reject_repeats, word_column
from .exactlin import Matrix, SparseVector, clean
from .reporting import FAIL, INFO, PASS, Report
from .semilattice import (FiniteSemilattice, UnknownLabelError, _down_sets, character_label,
                          dual_semilattice, parse_semilattice_file)


class BadLabelsError(ValueError):
    pass


class CharacterMismatchError(ValueError):
    pass


class GradedFDAlgebra:
    """Structure constants over a basis, with a semilattice degree per basis element.

    `structure` maps index pairs, in lexicographic order, to their nonzero
    products; a pair that is not stored multiplies to zero.
    """

    __slots__ = ("basis", "structure", "unit", "grading", "degree", "_index")

    def __init__(self, basis, structure, unit, grading, degree):
        self.basis = tuple(basis)
        if len(set(self.basis)) != len(self.basis):
            raise BadLabelsError("duplicate basis labels")
        self._index = {b: i for i, b in enumerate(self.basis)}
        indices = range(len(self.basis))
        for key, vec in structure.items():
            for i in (*key, *vec):
                if i not in indices:
                    raise BadLabelsError(f"product {key} uses index {i!r} outside the basis")
        bad = next((i for i in unit if i not in indices), None)
        if bad is not None:
            raise BadLabelsError(f"unit index {bad!r} outside the basis")
        cleaned = ((key, clean(structure[key])) for key in sorted(structure))
        self.structure = {key: vec for key, vec in cleaned if vec}
        self.unit = clean(unit)
        self.grading = grading
        self.degree = tuple(degree)
        if len(self.degree) != len(self.basis):
            raise BadLabelsError("degree map must cover the whole basis")
        for d in self.degree:
            if not 0 <= d < len(grading):
                raise BadLabelsError(f"degree index {d} outside the grading semilattice")

    @property
    def dim(self):
        return len(self.basis)

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise BadLabelsError(f"no basis element {label!r}") from None

    def mul_basis(self, i, j):
        return self.structure.get((i, j), {})

    def one(self):
        return AlgebraElement(self, self.unit)

    def element(self, coords):
        return AlgebraElement(self, coords)

    def element_from_labels(self, labelled):
        return AlgebraElement(self, {self.index(lbl): v for lbl, v in labelled.items()})

    def __eq__(self, other):
        return (isinstance(other, GradedFDAlgebra)
                and self.basis == other.basis and self.structure == other.structure
                and self.unit == other.unit and self.grading == other.grading
                and self.degree == other.degree)

    def __hash__(self):
        return hash((self.basis, self.degree))

    def __repr__(self):
        return f"GradedFDAlgebra(dim={self.dim}, grading={list(self.grading.elements)})"


class AlgebraElement(SparseVector):
    """Sparse coordinate vector in a graded algebra."""

    __slots__ = ()

    @property
    def coords(self):
        """The coordinates; another name for coeffs."""
        return self.coeffs

    def basis_product(self, i, j):
        return self.parent.mul_basis(i, j)

    def __repr__(self):
        return f"AlgebraElement({format_algebra_element(self)})"


def format_algebra_element(a):
    if not a.coeffs:
        return "0"
    return ",".join(f"{a.parent.basis[i]}:{a.coeffs[i]}" for i in sorted(a.coeffs))


def _split_unit_degrees(algebra):
    """Sorted labels of the unit's degrees other than the identity e; [t <= e] kills them."""
    g, degree = algebra.grading, algebra.degree
    return sorted({g.label(degree[i]) for i in algebra.unit if degree[i] != g.identity})


def verify_grading(algebra):
    """Exhaustively check associativity, the unit law, and the grading law.

    Associativity is certified one left factor i at a time, on stored
    products only. When every stored product is one basis vector with
    coefficient 1, both sides of (b_i b_j) b_k = b_i (b_j b_k) are one
    basis vector or 0, and i passes when two nested dicts j -> k -> l of
    the nonzero sides are equal: the left one is, for each stored
    b_i b_j = b_m, the stored row of b_m, so only the right one is built,
    through stored (i, m) and every stored (j, k) whose product is b_m.
    Every other i, and every i of any other structure, goes through an
    exact walk, the only source of witnesses. A dict keyed by (j, k, l)
    collects the l-coordinate of (b_i b_j) b_k - b_i (b_j b_k): the left
    side through stored (i, j), then stored (m, k) for each m in that
    product; the right side through stored (j, k), then stored (i, m) for
    each m in that product. Any triple the walk does not visit gives
    0 = 0, so the first i with a nonzero entry, with the smallest (j, k)
    in it, is the lexicographically first non-associative triple. The
    unit law sums 1 b_i and b_i 1 for every i over the stored products in
    the rows and columns of the unit's terms only, and names the first
    basis vector that fails either side; the grading law reads the
    degree of each stored product off the rows of the grading's table.
    Integral constants, the unit's included, are held as ints and
    nothing divides, so every sum is exact. The fourth invariant (unit in
    the identity degree, see _split_unit_degrees) is reported as INFO
    when it fails: gradings that split the unit across degrees are
    legitimate, they just lose the strict module-algebra unit law.
    """
    report = Report()
    structure = algebra.structure
    label = algebra.basis
    every = range(algebra.dim)
    rows = [{} for _ in every]  # rows[i][j]: the stored product b_i b_j
    into = [[] for _ in every]  # into[m]: (j, k, c), c the b_m-coordinate of stored b_j b_k
    for (j, k), vec in structure.items():
        rows[j][k] = vec
        for m, c in vec.items():
            into[m].append((j, k, c))
    monomial = all(len(vec) == 1 and 1 in vec.values() for vec in structure.values())
    if monomial:
        prod = [{k: next(iter(vec)) for k, vec in row.items()} for row in rows]  # prod[j][k]: m
        made = [[(j, k) for j, k, _ in col] for col in into]  # made[m]: (j, k) with prod m
    witness = None
    for i in every:
        if monomial:
            right = {}  # right[j][k]: l with b_i (b_j b_k) = b_l
            for m, l in prod[i].items():
                for j, k in made[m]:
                    if j in right:
                        right[j][k] = l
                    else:
                        right[j] = {k: l}
            if {j: prod[m] for j, m in prod[i].items() if prod[m]} == right:
                continue
        diff = {}
        for j, vec in rows[i].items():
            for m, c in vec.items():
                for k, out in rows[m].items():
                    for l, d in out.items():
                        diff[j, k, l] = diff.get((j, k, l), 0) + c * d
        for m, out in rows[i].items():
            for j, k, c in into[m]:
                for l, d in out.items():
                    diff[j, k, l] = diff.get((j, k, l), 0) - c * d
        nonzero = [key for key, v in diff.items() if v]
        if nonzero:
            j, k, _ = min(nonzero)
            witness = (label[i], label[j], label[k])
            break
    report.check("invariant", "associativity", witness)

    unit = algebra.unit
    one_b = [{} for _ in every]  # one_b[k]: the coordinates of 1 b_k
    b_one = [{} for _ in every]  # b_one[j]: the coordinates of b_j 1
    terms = [(one_b[k], c, vec) for u, c in unit.items() for k, vec in rows[u].items()]
    terms += [(b_one[j], unit[u], row[u])
              for j, row in enumerate(rows) for u in row.keys() & unit.keys()]
    for side, c, vec in terms:
        for l, d in vec.items():
            side[l] = side.get(l, 0) + c * d
    ones = [{i: 1} for i in every]
    witness = None if one_b == b_one == ones else next(
        (label[i] for i in every if any({l: v for l, v in side[i].items() if v} != ones[i]
                                        for side in (one_b, b_one))), None)
    report.check("invariant", "unit-law", witness)

    table, degree = algebra.grading.table, algebra.degree
    witness = next(((label[i], label[j], label[k])
                    for i, row in enumerate(rows) for j, vec in row.items() for k in vec
                    if degree[k] != table[degree[i]][degree[j]]), None)
    report.check("invariant", "grading-law", witness)

    bad = _split_unit_degrees(algebra)
    if bad:
        report.add("invariant", "unit-degrees", INFO,
                   f"[unit has components in non-identity-acting degrees {' '.join(bad)};"
                   " strict module-algebra unit law does not apply]")
    else:
        report.add("invariant", "unit-degrees", PASS)
    return report


def homogeneous_components(a):
    """Split an element by degree; the components sum back to the input."""
    parts = {}
    for i, v in a.coeffs.items():
        parts.setdefault(a.parent.degree[i], {})[i] = v
    return {d: AlgebraElement(a.parent, coords) for d, coords in sorted(parts.items())}


def _keep_words(algebra, value_rows):
    """Per row of one 0/1 value per grading element (a character's values), the int whose
    bit i is set iff the value at degree[i] is 1: the basis vectors that character keeps.
    A word is the OR of the basis vectors of each degree where the row is 1, so no value
    is read per basis vector."""
    by_degree = [0] * len(algebra.grading)  # by_degree[t]: the basis vectors of degree t
    for i, d in enumerate(algebra.degree):
        by_degree[d] |= 1 << i
    return [sum(w for w, v in zip(by_degree, values) if v) for values in value_rows]


def _project(word, a):
    """The coordinates of a on the basis vectors whose bits word sets, the rest dropped;
    they are a's own exact nonzero values, so they are not cleaned again."""
    return AlgebraElement._of(a.parent, {i: v for i, v in a.coeffs.items() if word >> i & 1})


def act_character(f, a):
    """The dual action: keep components where f is 1, kill the rest."""
    algebra = a.parent
    if not f.is_character_of(algebra.grading):
        raise CharacterMismatchError("not a character of the grading semilattice")
    return _project(_keep_words(algebra, [f.values])[0], a)


def _character_laws(algebra, kind, unit_name, unit_note):
    """Per character a multiplicative line, then unit-law lines or one INFO line.

    The policy is the one check_module_algebra documents; kind, unit_name
    and unit_note only set the wording of the lines. Each character f acts
    as the coordinate projection onto the basis vectors of its word
    (_keep_words), so every law is read off the words and no element is
    acted on. f(b_i) f(b_j) is b_i b_j when word holds bits i and j, else
    0, and f(b_i b_j) keeps the part of the product's support P in word,
    so a stored pair passes iff P & word is P or 0 as both bits are in
    word or not: one integer AND per stored product. A pair without a
    stored product gives 0 = 0. f(1) = 1 iff word holds the unit's
    support. The character of x is the indicator of the down-set of x,
    read off row x of the grading's table, so no character is built or
    re-checked. Returns the report and the words, one per character in
    the order of characters(grading), which is that of _down_sets.
    """
    if not verify_grading(algebra).passed:
        raise ValueError("algebra does not pass verify_grading")
    grading = algebra.grading
    words = _keep_words(algebra, ([v == x for v in grading.table[x]]
                                  for _, x in _down_sets(grading)))
    label = algebra.basis
    supports = [(i, j, 1 << i | 1 << j, sum(1 << k for k in vec))
                for (i, j), vec in algebra.structure.items()]
    report = Report()
    for ci, word in enumerate(words):
        report.check(kind, f"{character_label(ci)} multiplicative",
                     next(((label[i], label[j]) for i, j, both, p in supports
                           if p & word != (p if word & both == both else 0)), None))
    if not _split_unit_degrees(algebra):
        unit_mask = sum(1 << i for i in algebra.unit)
        for ci, word in enumerate(words):
            report.add(kind, f"{character_label(ci)} {unit_name}",
                       PASS if unit_mask & word == unit_mask else FAIL)
    else:
        report.add("check", unit_name, INFO, f"[{unit_note}]")
    return report, words


def check_module_algebra(algebra):
    """Verify the module-algebra laws of the character action.

    For every character and every basis pair, acting on a product equals
    the product of the actions. The unit law gamma(f, 1) = 1 is checked
    only when the unit is concentrated in identity-acting degrees;
    otherwise one INFO line per algebra records the deviation.
    """
    report, _ = _character_laws(
        algebra, "character", "unit-law",
        "unit not concentrated in identity-acting degrees;"
        " gamma(f,1) is the projection of 1 onto the degrees where f = 1")
    return report


@dataclass(frozen=True, eq=False)
class DualAction:
    """The character action as one keep word per character, plus its verification.

    Bit j of `words[c]` is set iff the character `labels[c]` keeps basis
    vector j; it kills every other basis vector. `matrices[name]` is the
    diagonal 0/1 matrix of the same map, built from the words on the
    first access; that dict is kept, so every later access returns it.
    """

    algebra: GradedFDAlgebra
    labels: list
    words: list
    report: Report

    @cached_property
    def matrices(self):
        n = self.algebra.dim
        return {name: Matrix(n, n, [word >> j & 1 if i == j else 0
                                    for i in range(n) for j in range(n)])
                for name, word in zip(self.labels, self.words)}


def dual_monoid_action(algebra):
    """The action gamma(f, -) of every character, as its keep word, and its laws.

    Checks that each endomorphism is multiplicative, that composition
    matches the pointwise product of characters, and that the constant-1
    character acts as the identity. The unital check follows the same
    INFO policy as check_module_algebra when the unit is split. Each
    gamma(f, -) keeps the basis vectors of its word and kills the rest,
    so gamma(f, gamma(g, b_j)) is b_j or 0 as j lies in word_f & word_g
    or not: composition holds iff word_f & word_g == word_fg, and the
    identity character iff its word has every bit set.
    """
    report, words = _character_laws(
        algebra, "endomorphism", "unital",
        "unit not concentrated in identity-acting degrees;"
        " gamma(f,1) != 1 for characters vanishing on a unit degree")
    labels = [character_label(i) for i in range(len(words))]
    dual = dual_semilattice(algebra.grading)
    witness = next(((labels[i], labels[k]) for i, row in enumerate(dual.table)
                    for k, ik in enumerate(row) if words[i] & words[k] != words[ik]), None)
    report.check("action", "composition", witness)
    identity = words[dual.identity] == (1 << algebra.dim) - 1
    report.add("action", "identity-character", PASS if identity else FAIL)
    return DualAction(algebra, labels, words, report)


def _ut_products(units, pos, m):
    """The structure constants E_pq E_qt = E_pt of the matrix units, by basis index."""
    return {(pos[(p, q)], pos[(q, t)]): {pos[(p, t)]: 1}
            for p, q in units for t in range(q, m + 1)}


def ut_graded(m, labels):
    """Upper triangular m x m matrices graded by a chain of m naturals.

    Basis: matrix units E_pq for p <= q. The unit E_pq row p gets the
    (m + 1 - p)-th chain label, so the bottom row is the lowest degree.
    Labels that collide are refused before any structure is built.
    """
    labels = list(labels)
    if m < 1:
        raise BadLabelsError("size must be at least 1")
    if len(labels) != m:
        raise BadLabelsError(f"need exactly {m} labels, got {len(labels)}")
    if any(type(v) is not int or v < 0 for v in labels):
        raise BadLabelsError("labels must be naturals")
    if any(labels[i] >= labels[i + 1] for i in range(m - 1)):
        raise BadLabelsError("labels must be strictly increasing")
    units = [(p, q) for p in range(1, m + 1) for q in range(p, m + 1)]
    basis = tuple(f"E{p}{q}" for p, q in units)
    if len(set(basis)) != len(basis):  # from m = 111 on, E1111 is E(11,11) and E(1,111)
        raise BadLabelsError("duplicate basis labels")

    grading = FiniteSemilattice((f"n{v}" for v in labels), 0,
                                [[max(a, b) for b in range(m)] for a in range(m)])
    pos = {pq: i for i, pq in enumerate(units)}
    structure = _ut_products(units, pos, m)
    unit = {pos[(p, p)]: 1 for p in range(1, m + 1)}
    degree = tuple(m - p for p, _ in units)
    return GradedFDAlgebra(basis, structure, unit, grading, degree)


_TERM = r"[^\s+]+"  # a label:rational term; terms are separated by spaces or '+'


def _term_column(raw, sep, k):
    """Column of the k-th term after the first sep of raw, where the terms start."""
    return word_column(raw, k, raw.index(sep) + 1, _TERM)


def _parse_terms(text, raw, sep, lineno, source):
    """The label:rational terms of text, which follows the first sep of raw."""
    out = {}
    for k, part in enumerate(text.replace("+", " ").split()):
        label, colon, value = part.partition(":")
        if not colon:
            raise ParseError(f"expected label:rational, got {part!r}",
                             lineno, _term_column(raw, sep, k), source)
        if label in out:
            raise ParseError(f"{label!r} named twice in one term list",
                             lineno, _term_column(raw, sep, k), source)
        try:
            out[label] = read_rational(value)
        except (ValueError, ZeroDivisionError):
            col = _term_column(raw, sep, k) + len(label) + 1
            raise ParseError(f"bad rational {quoted(value)}", lineno, col, source) from None
    return out


def parse_graded(text, source="<input>", slat_loader=None):
    """Parse the graded-algebra text format.

    Lines: `basis:`, `unit:`, `semilattice: <path>`, each exactly once,
    `degree <basis> <element>`, and `mul a b = c:q [+ d:q ...]`; pairs
    without a mul line multiply to zero. A basis label, a degree line,
    a mul pair and a label within one term list may each appear only
    once. The semilattice path is resolved by slat_loader (for files,
    relative to the file's directory). Errors carry the line and column
    of the offending word, for a repeat that of the second occurrence.
    """
    basis = None
    unit = None        # (terms, line number, raw line)
    grading = None
    headers = {}       # header -> (line number, raw line)
    degree_lines = {}  # basis label -> (semilattice label, line number, raw line)
    repeated = None    # (basis label, line number, raw line) of the first repeated degree line
    mul_lines = {}     # (factor, factor) -> (terms, line number, raw line)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(("basis:", "unit:", "semilattice:")):
            header, _, rest = line.partition(":")
            if header in headers:
                raise ParseError(f"{header} given twice", lineno, word_column(raw, 0), source)
            headers[header] = (lineno, raw)
            if header == "basis":
                basis = tuple(rest.split())
                reject_repeats(basis, "basis element", raw, lineno, source)
            elif header == "unit":
                unit = (_parse_terms(rest, raw, ":", lineno, source), lineno, raw)
            elif slat_loader is None:
                raise ParseError("no semilattice loader available",
                                 lineno, word_column(raw, 0), source)
            else:
                grading = slat_loader(rest.strip())
            continue
        if line.startswith("degree "):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError("degree line needs basis label and element",
                                 lineno, word_column(raw, 3 if parts[3:] else 0), source)
            if parts[1] not in degree_lines:
                degree_lines[parts[1]] = (parts[2], lineno, raw)
            elif repeated is None:
                repeated = (parts[1], lineno, raw)
            continue
        if line.startswith("mul "):
            factors, eq, terms = line[len("mul "):].partition("=")
            if not eq:
                raise ParseError("mul line needs `= products`", lineno, word_column(raw, 0), source)
            factors = factors.split()
            if len(factors) != 2:
                raise ParseError("mul line needs two factors",
                                 lineno, word_column(raw, 3 if factors[2:] else 0), source)
            key = (factors[0], factors[1])
            if key in mul_lines:
                raise ParseError(f"duplicate mul line for {key}", lineno, word_column(raw, 1), source)
            mul_lines[key] = (_parse_terms(terms, raw, "=", lineno, source), lineno, raw)
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno, word_column(raw, 0), source)

    if basis is None:
        raise ParseError("missing basis line", 1, 1, source)
    if unit is None:
        raise ParseError("missing unit line", 1, 1, source)
    if grading is None:
        raise ParseError("missing semilattice line", 1, 1, source)
    index = {b: i for i, b in enumerate(basis)}

    def unknown(label, lineno, col):
        return ParseError(f"unknown basis element {label!r}", lineno, col, source)

    def vector(terms, lineno, raw, sep):
        try:
            return {index[label]: value for label, value in terms.items()}
        except KeyError as exc:
            bad = exc.args[0]
        # terms is in line order without repeats, so the index of bad is its term index
        raise unknown(bad, lineno, _term_column(raw, sep, list(terms).index(bad)))

    for label, (_, lineno, raw) in degree_lines.items():
        if label not in index:
            raise unknown(label, lineno, word_column(raw, 1))
    for pair, (_, lineno, raw) in mul_lines.items():
        for k, label in enumerate(pair, 1):
            if label not in index:
                raise unknown(label, lineno, word_column(raw, k))
    missing = [b for b in basis if b not in degree_lines]
    if missing:
        lineno, raw = headers["basis"]
        col = word_column(raw, basis.index(missing[0]), raw.index(":") + 1)
        raise ParseError(f"no degree for basis element {missing[0]!r}", lineno, col, source)
    if repeated:
        label, lineno, raw = repeated
        raise ParseError(f"degree of {label!r} given twice", lineno, word_column(raw, 1), source)
    degree = []
    for b in basis:
        element, lineno, raw = degree_lines[b]
        try:
            degree.append(grading.index(element))
        except UnknownLabelError:
            raise ParseError(f"unknown degree element {element!r}",
                             lineno, word_column(raw, 2), source) from None
    structure = {(index[a], index[b]): vector(terms, lineno, raw, "=")
                 for (a, b), (terms, lineno, raw) in mul_lines.items()}
    terms, lineno, raw = unit
    return GradedFDAlgebra(basis, structure, vector(terms, lineno, raw, ":"), grading, degree)


def parse_graded_file(path):
    """Parse the `.galg` file at path, resolving its `semilattice:` path against its directory."""
    directory = os.path.dirname(os.path.abspath(path))

    def loader(ref):
        return parse_semilattice_file(os.path.join(directory, ref))

    with open(path, encoding="utf-8") as fh:
        return parse_graded(fh.read(), source=str(path), slat_loader=loader)


def print_graded(algebra, slat_ref):
    """Canonical text form; slat_ref is written on the semilattice line."""
    lines = [f"basis: {' '.join(algebra.basis)}"]
    unit = " ".join(f"{algebra.basis[i]}:{algebra.unit[i]}" for i in sorted(algebra.unit))
    lines.append(f"unit: {unit}")
    lines.append(f"semilattice: {slat_ref}")
    for i, b in enumerate(algebra.basis):
        lines.append(f"degree {b} {algebra.grading.label(algebra.degree[i])}")
    for (i, j), vec in algebra.structure.items():
        terms = " + ".join(f"{algebra.basis[k]}:{vec[k]}" for k in sorted(vec))
        lines.append(f"mul {algebra.basis[i]} {algebra.basis[j]} = {terms}")
    return "\n".join(lines) + "\n"
