"""maxmonoid_dual: the finite dual of (N u {-inf}, max) and the letterplace algebra.

Step functionals come in fixed (prefix length, number of runs, tail
nonzero) slots that mix few long constant runs with many short ones;
the seed places the breakpoints and picks the values. The number of
runs sets the cost of translate_span_basis. Sizes are fixed and the
seed picks only contents, so every seed costs about the same. This workload reaches
`exactlin` through rank, solve and det, never through matmul.
"""

from fractions import Fraction

from semidual import letterplace, nbar_dual
from semidual.extnat import NEG_INF, POS_INF, fin

import checks
from jobs import Job

STEP_SLOTS = ((5, 2, False), (10, 8, True), (15, 3, True), (20, 15, False),
              (25, 4, True), (30, 20, True), (35, 5, False), (40, 30, True))
DET_LENGTHS = (5, 10, 15, 20, 25, 30)
LP_TERMS = (10, 20, 30, 40)
LP_RIGHT_TERMS = 5
LP_WORDS = 20
LP_POINT = fin(3)
ODD_LETTERS, ODD_PLACES = (1, 3), (2,)


def _rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def _step_input(rng, length, runs, tail_nonzero):
    """Values at -inf, 0, ..., length-2 in `runs` constant runs, and a tail."""
    cuts = sorted(rng.sample(range(1, length), runs - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [length])]
    values = []
    for size in sizes:
        v = _rational(rng)
        while values and v == values[-1]:
            v = _rational(rng)
        values += [v] * size
    tail = Fraction(0)
    if tail_nonzero:
        tail = _rational(rng)
        while tail == values[-1]:
            tail = _rational(rng)
    return values, tail


def _threshold_pairs(length):
    """Pairs of threshold points spread over the slot's window.

    Fixed per slot, not drawn from the seed: recognising f_c costs time
    quadratic in c, so random points would make the job's cost depend on
    the seed.
    """
    return [(NEG_INF, fin(length // 2)), (fin(length // 4), fin(3 * length // 4)),
            (fin(length), POS_INF), (fin(length // 3), fin(length // 3))]


def _step_jobs(rng, length, runs, tail_nonzero):
    prefix, tail = _step_input(rng, length, runs, tail_nonzero)
    f = nbar_dual.StepFunctional(prefix, tail)
    name = f"L{length}r{runs}"
    pairs = _threshold_pairs(length)

    def characters():
        recognized = [(nbar_dual.is_character(nbar_dual.threshold_functional(s)),
                       nbar_dual.is_character(nbar_dual.threshold_functional(t)),
                       nbar_dual.char_mult(s, t)) for s, t in pairs]
        return recognized, nbar_dual.is_character(f)

    def characters_expected():
        value = checks.point_value
        want = [(value(str(s)), value(str(t)), min(value(str(s)), value(str(t))))
                for s, t in pairs]
        return want, checks.character_threshold(prefix, tail)

    def characters_compare(got, want):
        recognized, own = got
        as_values = [tuple(checks.point_value(str(p)) for p in triple) for triple in recognized]
        own = None if own is None else checks.point_value(str(own))
        return None if (as_values, own) == want else f"thresholds {as_values}, {own}"

    return [
        Job(f"decompose {name}", lambda: nbar_dual.grouplike_decompose(f), lambda: None,
            lambda coeffs, _: checks.decomposition(coeffs, prefix, tail)),
        Job(f"translate-basis {name}", lambda: nbar_dual.translate_span_basis(f),
            lambda: None, lambda basis, _: checks.translate_basis(basis, prefix, tail)),
        Job(f"characters {name}", characters, characters_expected, characters_compare),
    ]


def _det_job(rng, length):
    row = [_rational(rng) for _ in range(length)]
    return Job(f"special-det {length}", lambda: nbar_dual.special_det(row),
               lambda: checks.special_det_closed_form(row),
               lambda result, want: None if result.det == want
               else f"det {result.det}, closed form {want}")


def _poly_text(rng, terms):
    """`terms` distinct monomials of distinct variables, each written in sorted order.

    Degrees cycle through 1, 2, 3 so that every seed gives the same mix.
    """
    monos = set()
    while len(monos) < terms:
        degree = 1 + len(monos) % 3
        variables = set()
        while len(variables) < degree:
            variables.add((rng.randint(1, 4), rng.randint(1, 6)))
        monos.add(tuple(sorted(variables)))
    pieces = []
    for mono in sorted(monos):
        c = _rational(rng)
        body = "*".join(f"(x{letter}|{place})" for letter, place in mono)
        pieces.append(("- " if c < 0 else "+ ") + f"{abs(c)}*{body}")
    return " ".join(pieces)


def _lp_jobs(rng, terms, ctx):
    p = letterplace.parse_poly(_poly_text(rng, terms), ctx)
    q = letterplace.parse_poly(_poly_text(rng, terms), ctx)
    r = letterplace.parse_poly(_poly_text(rng, LP_RIGHT_TERMS), ctx)
    z = LP_POINT
    words = [[rng.randint(1, 4) for _ in range(4 + i % 7)] for i in range(LP_WORDS)]
    name = f"T{terms}"

    def weights():
        product = p * q
        return product, letterplace.weight_components(product)

    def weights_compare(got, _):
        product, parts = got
        merged = {}
        for w, part in parts.items():
            for mono, c in part.terms.items():
                if checks.point_value(str(w)) != checks.place_weight(mono):
                    return f"monomial {mono} filed under weight {w}"
                merged[mono] = c
        return None if merged == product.terms else "weight components do not sum back"

    def act():
        return letterplace.act_min(z, p * q), letterplace.act_min(z, p) * letterplace.act_min(z, q)

    def act_compare(got, _):
        whole, parts = got
        if any(checks.place_weight(m) > z.n for m in whole.terms):
            return f"act_{z} kept a term above {z}"
        return None if whole == parts else f"act_{z}(pq) != act_{z}(p) act_{z}(q)"

    return [
        Job(f"associativity {name}", lambda: ((p * q) * r, p * (q * r)), lambda: None,
            lambda got, _: None if got[0] == got[1] else "(pq)r != p(qr)"),
        Job(f"weight {name}", weights, lambda: None, weights_compare),
        Job(f"act-min {name}", act, lambda: None, act_compare),
        Job(f"embed {name}", lambda: [letterplace.embed_word(w, ctx).terms for w in words],
            lambda: [checks.koszul_embedding(w, ODD_LETTERS, ODD_PLACES) for w in words],
            lambda got, want: None if got == want else "embed_word sign or order"),
    ]


def setup(rng, workdir):
    ctx = letterplace.ParityContext.make(ODD_LETTERS, ODD_PLACES)
    jobs = []
    for slot in STEP_SLOTS:
        jobs += _step_jobs(rng, *slot)
    jobs += [_det_job(rng, length) for length in DET_LENGTHS]
    for terms in LP_TERMS:
        jobs += _lp_jobs(rng, terms, ctx)
    return jobs
