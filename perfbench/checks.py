"""Independent oracles for the benchmark's outputs.

Nothing here calls into `semidual` to compute an expected value. Each
function derives the answer from the generated input by a method of its
own (subset tests on bitmasks, pair-set saturation, pointwise sums,
inversion counts) and returns None when the program's output agrees, or
a one-line description of the first disagreement.
"""

from fractions import Fraction

PASS, INFO = "PASS", "INFO"


def _first_diff(got, want):
    if got == want:
        return None
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"line {i + 1}: got {g!r}, want {w!r}"
    return f"got {len(got)} lines, want {len(want)}"


def cli_output(result, want_lines):
    """A (code, stdout, stderr) triple from cli.run against exact stdout lines."""
    code, out, err = result
    if code != 0 or err:
        return f"exit {code}, stderr {err.strip()!r}"
    return _first_diff(out.splitlines(), want_lines)


# --- finite semilattices as union-closed families -------------------------

def down_set_characters(masks):
    """t -> [t subset of x] for every member x, in (support size, bits) order."""
    chars = [tuple(int(t & ~x == 0) for t in masks) for x in masks]
    return sorted(chars, key=lambda ch: (sum(ch), ch))


def slat_check_lines(labels, masks):
    return [f"elements: {' '.join(labels)}", f"identity: {labels[masks.index(0)]}",
            "valid: yes"]


def characters_lines(masks):
    return [f"f{i + 1}: {' '.join(map(str, ch))}"
            for i, ch in enumerate(down_set_characters(masks))]


def double_dual_lines(labels, masks):
    """s maps to the evaluation character at s, named by its canonical rank."""
    chars = down_set_characters(masks)
    evals = [tuple(ch[s] for ch in chars) for s in range(len(masks))]
    ranked = sorted(evals, key=lambda ev: (sum(ev), ev))
    lines = [f"{labels[s]} -> f{ranked.index(ev) + 1}" for s, ev in enumerate(evals)]
    return lines + ["isomorphism: OK"]


def ev_rank_lines(masks):
    n = len(masks)
    return [f"rank: {n}", f"size: {n}", "full-rank: yes"]


AXIOMS = ("coassociativity", "counit-left", "counit-right",
          "comultiplication-multiplicative", "counit-multiplicative",
          "comultiplication-unit", "counit-unit")


def axioms_lines():
    return [f"axiom {name}: PASS" for name in AXIOMS] + ["axioms: PASS"]


def congruence_classes(masks, pairs):
    """Smallest congruence containing the index pairs, by saturating a pair set."""
    n = len(masks)
    index = {m: i for i, m in enumerate(masks)}
    join = [[index[a | b] for b in masks] for a in masks]
    rel = {(i, i) for i in range(n)}
    rel |= {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}
    while True:
        grown = set(rel)
        grown |= {(join[a][t], join[b][t]) for a, b in rel for t in range(n)}
        grown |= {(a, c) for a, b in rel for b2, c in rel if b == b2}
        if grown == rel:
            break
        rel = grown
    classes = {frozenset(b for a2, b in rel if a2 == a) for a in range(n)}
    return sorted((sorted(c) for c in classes), key=min)


def quotient_lines(labels, masks, pairs):
    classes = congruence_classes(masks, pairs)
    lines = []
    for members in classes:
        name = "+".join(labels[m] for m in members)
        lines.append(f"class {name}: {' '.join(labels[m] for m in members)}")
    for members in classes:
        lines.append(f"grouplike {'+'.join(labels[m] for m in members)}: PASS")
    k = len(classes)
    lines.append(f"check linear-independence: PASS [coefficient rank {k} of {k}]")
    lines.append("check completeness: PASS [alpha^2 = alpha forcing over characteristic 0]")
    return lines + ["quotient: PASS"]


# --- graded algebras ------------------------------------------------------

def indicator_characters(n, leq):
    """The principal down-set indicators t -> [t <= x] of an n-element order."""
    chars = [tuple(int(leq(t, x)) for t in range(n)) for x in range(n)]
    return sorted(chars, key=lambda ch: (sum(ch), ch))


def report_statuses(report, want):
    """Report lines as (kind, name, status) triples against the wanted ones."""
    got = [(line.kind, line.name, line.status) for line in report.lines]
    return _first_diff(got, want)


def grading_statuses(unit_split):
    return [("invariant", "associativity", PASS), ("invariant", "unit-law", PASS),
            ("invariant", "grading-law", PASS),
            ("invariant", "unit-degrees", INFO if unit_split else PASS)]


def module_algebra_statuses(chars, unit_split):
    names = [f"f{i + 1}" for i in range(len(chars))]
    want = [("character", f"{f} multiplicative", PASS) for f in names]
    if unit_split:
        return want + [("check", "unit-law", INFO)]
    return want + [("character", f"{f} unit-law", PASS) for f in names]


def dual_action_statuses(chars, unit_split):
    names = [f"f{i + 1}" for i in range(len(chars))]
    want = [("endomorphism", f"{f} multiplicative", PASS) for f in names]
    if unit_split:
        want.append(("check", "unital", INFO))
    else:
        want += [("endomorphism", f"{f} unital", PASS) for f in names]
    return want + [("action", "composition", PASS), ("action", "identity-character", PASS)]


def gamma_matrices(action, chars, degree):
    """gamma(f) must be diag(f(deg b_j)): keep exactly the basis vectors f allows."""
    names = [f"f{i + 1}" for i in range(len(chars))]
    if list(action.labels) != names:
        return f"labels {action.labels}, want {names}"
    n = len(degree)
    for name, ch in zip(names, chars):
        matrix = action.matrices[name]
        for i in range(n):
            for j in range(n):
                want = ch[degree[j]] if i == j else 0
                if matrix.at(i, j) != want:
                    return f"gamma {name} entry ({i}, {j}) is {matrix.at(i, j)}, want {want}"
    return None


def coordinate_filter(coords, ch, degree):
    return {i: v for i, v in coords.items() if ch[degree[i]] == 1}


# --- the finite dual of (N u {-inf}, max) ---------------------------------

NEG, POS = -1, float("inf")


def point_value(text):
    """A chain point printed by the package (-inf, +inf, n) as a number."""
    if text == "-inf":
        return NEG
    if text == "+inf":
        return POS
    return int(text)


def step_value(prefix, tail, p):
    """f at p, where prefix holds the values at -inf, 0, 1, ..."""
    return prefix[p + 1] if p + 1 < len(prefix) else tail


def finite_run_ends(prefix, tail):
    """Last point of each maximal constant run before the tail, after trimming."""
    values = list(prefix)
    while values and values[-1] == tail:
        values.pop()
    return [i - 1 for i in range(len(values))
            if i + 1 == len(values) or values[i + 1] != values[i]]


def decomposition(coeffs, prefix, tail):
    """Rebuild f pointwise from threshold coefficients: sum_c a_c [p <= c]."""
    terms = [(point_value(str(c)), Fraction(a)) for c, a in coeffs.items()]
    for p in range(NEG, len(prefix) + 2):
        total = sum((a for c, a in terms if p <= c), Fraction(0))
        if total != step_value(prefix, tail, p):
            return f"rebuilt f({p}) = {total}, want {step_value(prefix, tail, p)}"
    far = sum((a for c, a in terms if c == POS), Fraction(0))
    if far != tail:
        return f"+inf coefficient {far}, want the tail {tail}"
    return None


def translate_basis(basis, prefix, tail):
    ends = finite_run_ends(prefix, tail)
    want_dim = len(ends) + (tail != 0)
    if basis.dimension != want_dim:
        return f"dimension {basis.dimension}, want {want_dim}"
    got = [point_value(str(p)) for p in basis.breakpoints]
    if got != ends:
        return f"breakpoints {got}, want {ends}"
    return None


def character_threshold(prefix, tail):
    """The threshold c when f = [p <= c], else None."""
    values = [step_value(prefix, tail, p) for p in range(NEG, len(prefix) + 2)]
    if values[0] != 1 or any(v not in (0, 1) for v in values) or tail not in (0, 1):
        return None
    if tail == 1:
        return POS if all(v == 1 for v in values) else None
    ones = values.index(0)
    if any(values[ones:]):
        return None
    return ones - 2


def special_det_closed_form(row):
    value = Fraction(row[-1])
    for a, b in zip(row, row[1:]):
        value *= Fraction(a) - Fraction(b)
    return value


def koszul_embedding(letters, odd_letters, odd_places):
    """The word's image: variables (x_l|k) sorted, signed by odd inversions."""
    word = [(letter, k + 1) for k, letter in enumerate(letters)]
    odd = [(letter in odd_letters) != (place in odd_places) for letter, place in word]
    inversions = sum(1 for i in range(len(word)) for j in range(i + 1, len(word))
                     if word[i] > word[j] and odd[i] and odd[j])
    return {tuple(sorted(word)): Fraction(-1 if inversions % 2 else 1)}


def place_weight(mono):
    return max((v[1] for v in mono), default=NEG)
