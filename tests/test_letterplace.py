import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semidual import exactlin, letterplace
from semidual.errors import ParseError
from semidual.extnat import NEG_INF, POS_INF, ExtNat, fin
from semidual.letterplace import (ContextMismatchError, LPPoly, LPVariable, ParityContext,
                                  act_min, embed_word, format_poly, multiply,
                                  normalize, parse_poly, variable, weight,
                                  weight_components)

from oracles import (generator_max_weight, insertion_sort_normalize, koszul_sign,
                     loop_letterplace_product, mutated)

EVEN = ParityContext.make()
ODD_LETTERS = ParityContext.make(odd_letters=[1, 2, 3])


def v(letter, place):
    return variable(letter, place)


def test_normalize_swaps_two_odd():
    sign, mono = normalize([v(2, 1), v(1, 1)], ODD_LETTERS)
    assert sign == -1 and mono == (v(1, 1), v(2, 1))


def test_normalize_sorted_even_word():
    word = [v(1, 1), v(1, 2), v(2, 1)]
    sign, mono = normalize(word, EVEN)
    assert sign == 1 and mono == tuple(word)


def test_normalize_odd_repeat_vanishes():
    assert normalize([v(1, 1), v(1, 1)], ODD_LETTERS) is None


def test_normalize_sign_against_inversion_oracle():
    rng = random.Random(31)
    ctx = ParityContext.make(odd_letters=[1, 3], odd_places=[2])
    for _ in range(200):
        word = [v(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 6))]
        expected = koszul_sign(word, ctx)
        got = normalize(word, ctx)
        if expected is None:
            assert got is None
        else:
            assert got is not None and got[0] == expected


@pytest.mark.parametrize("ctx", [
    EVEN, ODD_LETTERS, ParityContext.make(odd_places=[1, 3]),
    ParityContext.make(odd_letters=[2], odd_places=[1, 2]),
], ids=["even", "odd-letters", "odd-places", "mixed"])
def test_normalize_matches_insertion_sort(ctx):
    rng = random.Random(37)
    for length in range(10):
        for _ in range(60):
            word = [v(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(length)]
            assert normalize(word, ctx) == insertion_sort_normalize(word, ctx), word


def test_multiply_even_square():
    p = LPPoly.var(EVEN, 1, 1)
    sq = p * p
    assert sq.terms == {(v(1, 1), v(1, 1)): Fraction(1)}


def test_multiply_anticommutes_for_odd():
    p = LPPoly.var(ODD_LETTERS, 1, 1)
    q = LPPoly.var(ODD_LETTERS, 2, 1)
    assert p * q == (q * p).scale(-1)


def test_multiply_odd_total_parity_square_vanishes():
    ctx = ParityContext.make(odd_letters=[1])  # place 2 even, total parity odd
    p = LPPoly.var(ctx, 1, 2)
    assert (p * p).terms == {}


@pytest.mark.parametrize("letter, place", [(True, 2), (1, True), (1.0, 2), (1, 2.0)])
def test_bool_and_float_letters_and_places_are_refused(letter, place):
    with pytest.raises(ValueError, match="letters and places start at 1"):
        LPPoly.var(EVEN, letter, place)


@pytest.mark.parametrize("bad, message", [
    (LPVariable(0, 1), r"letters and places start at 1, got \(0, 1\)"),
    (LPVariable(1, 0), r"letters and places start at 1, got \(1, 0\)"),
    (LPVariable(True, 1), r"letters and places start at 1, got \(True, 1\)"),
    (LPVariable(1.0, 1), r"letters and places start at 1, got \(1.0, 1\)"),
    ((1, 1), r"not a letterplace variable: \(1, 1\)"),
], ids=["letter-0", "place-0", "bool", "float", "plain-tuple"])
def test_every_construction_refuses_what_is_no_letterplace_variable(bad, message):
    # from_word refuses before sorting, so a word whose odd variable repeats,
    # which is zero, carries no bad variable through
    builds = [lambda: LPPoly(EVEN, {(bad,): 1}),
              lambda: LPPoly(ODD_LETTERS, {(v(1, 1), bad): 3}),
              lambda: LPPoly.from_word(EVEN, [bad]),
              lambda: LPPoly.from_word(ODD_LETTERS, [v(1, 1), bad, v(1, 1)], 2)]
    if type(bad) is LPVariable and bad.place == 1:  # the letters embed_word can be given
        builds += [lambda: embed_word([bad.letter], EVEN),
                   lambda: embed_word([bad.letter, 2, 1], ODD_LETTERS)]
    for build in builds:
        with pytest.raises(ValueError, match=message):
            build()
    # the parser refuses a zero letter itself, at its column
    with pytest.raises(ParseError, match="letters and places start at 1") as exc:
        parse_poly("(x0|1)", EVEN)
    assert exc.value.col == 3


@pytest.mark.parametrize("odd_letters, odd_places", [
    ([0], []), ([], [0]), ([1, 0], [2]), ([-1], []), ([True], []), ([], [2.0]), (["1"], []),
    ([1], [True]),
])
def test_parity_context_refuses_what_is_no_letter_or_place(odd_letters, odd_places):
    # the message of `variable`, as `(x0|1)` gets, from every construction: not
    # only make but the constructor, _make and _replace, so LPPoly.var never builds
    # (x1|1) on a context naming 0; a bool next to the 1 it equals is refused too
    letters, places = frozenset(odd_letters), frozenset(odd_places)
    for build in (lambda: ParityContext.make(odd_letters, odd_places),
                  lambda: ParityContext(letters, places),
                  lambda: ParityContext(odd_letters=odd_letters, odd_places=odd_places),
                  lambda: ParityContext._make([letters, places]),
                  lambda: EVEN._replace(odd_letters=letters, odd_places=places)):
        with pytest.raises(ValueError, match="letters and places start at 1, got "):
            build()
    assert ParityContext.make([1, 3], [2]) == (frozenset({1, 3}), frozenset({2}))
    ctx = ParityContext(frozenset({1}), [2])
    assert ctx == ParityContext.make([1], [2])
    assert hash(ctx) == hash(ODD_LETTERS._replace(odd_letters={1}, odd_places={2}))
    assert str(LPPoly.var(ctx, 1, 1)) == "LPPoly((x1|1))"


def test_multiply_context_mismatch():
    with pytest.raises(ContextMismatchError):
        multiply(LPPoly.var(EVEN, 1, 1), LPPoly.var(ODD_LETTERS, 1, 1))


def test_constructor_refuses_a_monomial_that_is_not_canonical():
    # (x2|1)(x1|1) is -(x1|1)(x2|1) when both are odd, a sign the constructor cannot
    # supply, and an odd variable squares to 0; from_word sorts with the sign
    x1, x2 = v(1, 1), v(2, 1)
    for ctx, mono in [(ODD_LETTERS, (x2, x1)), (EVEN, (x2, x1)), (ODD_LETTERS, (x1, x1)),
                      (ODD_LETTERS, (x1, x2, x2))]:
        with pytest.raises(ValueError, match="is not canonical"):
            LPPoly(ctx, {(): 1, mono: Fraction(1, 2)})
    assert LPPoly.from_word(ODD_LETTERS, [x2, x1]) == LPPoly(ODD_LETTERS, {(x1, x2): -1})
    assert LPPoly(EVEN, {(x1, x1, x2): 2}).terms == {(x1, x1, x2): 2}


def test_operations_neither_check_nor_clean_their_canonical_terms_again(monkeypatch):
    # the constructor's canonical-order check is for terms from outside; the terms
    # of a sum, product, weight part or act_min image are canonical already, and
    # those of the last three are exact and nonzero too
    ctx = ParityContext.make(odd_letters=[1], odd_places=[2])
    p = parse_poly("(x1|1)*(x2|2) + 1/2*(x2|1) - 3*(x3|3) + 2", ctx)
    q = parse_poly("(x1|2) - (x2|1)", ctx)
    built, cleaned = [], []
    init, clean = LPPoly.__init__, exactlin.clean
    monkeypatch.setattr(LPPoly, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    sums = [p + q, p - q, p.scale(Fraction(2, 3))]
    assert built == []
    monkeypatch.setattr(exactlin, "clean", lambda coeffs: cleaned.append(coeffs) or clean(coeffs))
    parts = weight_components(p * q)
    kept = act_min(fin(2), p)
    assert built == [] and cleaned == []
    monkeypatch.undo()
    both = {*p.terms, *q.terms}
    assert sums == [LPPoly(ctx, {m: p.terms.get(m, 0) + q.terms.get(m, 0) for m in both}),
                    LPPoly(ctx, {m: p.terms.get(m, 0) - q.terms.get(m, 0) for m in both}),
                    LPPoly(ctx, {m: c * Fraction(2, 3) for m, c in p.terms.items()})]
    assert sum(parts.values(), LPPoly.zero(ctx)) == p * q
    assert kept == LPPoly(ctx, {m: c for m, c in p.terms.items() if weight(m) <= fin(2)})


def test_weight_examples():
    assert weight(()) == NEG_INF
    assert weight((v(3, 5),)) == fin(5)
    assert weight((v(1, 2), v(2, 7), v(1, 3))) == fin(7)


def test_weight_components_examples():
    p = LPPoly.var(EVEN, 1, 1) + LPPoly.var(EVEN, 1, 2)
    parts = weight_components(p)
    assert set(parts) == {fin(1), fin(2)}
    assert parts[fin(1)] == LPPoly.var(EVEN, 1, 1)
    q = LPPoly.one(EVEN) + LPPoly.var(EVEN, 1, 3)
    parts = weight_components(q)
    assert set(parts) == {NEG_INF, fin(3)}
    assert parts[NEG_INF] == LPPoly.one(EVEN)
    total = LPPoly.zero(EVEN)
    for part in parts.values():
        total = total + part
    assert total == q


def test_weight_components_homogeneous_single():
    p = LPPoly.var(EVEN, 1, 2) * LPPoly.var(EVEN, 2, 2)
    assert list(weight_components(p)) == [fin(2)]


def test_weight_components_random_sum_and_homogeneity():
    rng = random.Random(71)
    ctx = ParityContext.make(odd_letters=[2])
    for _ in range(40):
        p = _random_poly(rng, ctx)
        parts = weight_components(p)
        total = LPPoly.zero(ctx)
        for w, part in parts.items():
            total = total + part
            assert {weight(m) for m in part.terms} == {w}
        assert total == p


def test_weight_components_and_act_min_match_per_term_weights(monkeypatch):
    # the weights come from a generator max over the places, the empty monomial at -inf
    rng = random.Random(73)
    ctx = ParityContext.make(odd_letters=[2], odd_places=[3])
    points = [NEG_INF, fin(0), fin(1), fin(2), fin(3), fin(4), POS_INF]
    made = []
    true_post_init = ExtNat.__post_init__

    def counting_post_init(self):
        made.append(self)
        true_post_init(self)

    for _ in range(60):
        p = _random_poly(rng, ctx) + LPPoly.constant(ctx, rng.choice([0, 1, Fraction(-1, 2)]))
        weight_of = {m: generator_max_weight(m) for m in p.coeffs}
        weights = sorted(set(weight_of.values()))
        want = {w: LPPoly(ctx, {m: c for m, c in p.coeffs.items() if weight_of[m] == w})
                for w in weights}
        z = rng.choice(points)
        kept = LPPoly(ctx, {m: c for m, c in p.coeffs.items() if weight_of[m] <= z})
        with monkeypatch.context() as patch:
            patch.setattr(ExtNat, "__post_init__", counting_post_init)
            made.clear()
            parts = weight_components(p)
            assert len(made) <= len(weights)  # one chain point per distinct weight
            made.clear()
            assert act_min(z, p) == kept
            assert len(made) <= len(weights)
        assert list(parts) == weights
        assert parts == want


@st.composite
def letterplace_polys(draw):
    """A sum of up to four words in letters 1..3 and places 1..4, some of them odd."""
    ctx = ParityContext.make(odd_letters=draw(st.sets(st.integers(1, 3))),
                             odd_places=draw(st.sets(st.integers(1, 4))))
    variables = st.builds(v, st.integers(1, 3), st.integers(1, 4))
    coeffs = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    p = LPPoly.zero(ctx)
    for word, coeff in draw(st.lists(st.tuples(st.lists(variables, max_size=4), coeffs),
                                     max_size=4)):
        p = p + LPPoly.from_word(ctx, word, coeff)
    return p


@given(letterplace_polys())
@settings(max_examples=100, deadline=None)
def test_weight_components_are_the_moebius_inversion_of_act_min(p):
    # the thresholds act by truncation, so the component of weight w_k is the
    # difference of the truncations at w_k and at the weight below it
    parts = weight_components(p)
    below = LPPoly.zero(p.parent)
    for w in sorted(parts):
        kept = act_min(w, p)
        assert parts[w] == kept - below
        below = kept
    assert below == p


def test_act_min_examples():
    p = LPPoly.var(EVEN, 1, 1) * LPPoly.var(EVEN, 2, 2) + LPPoly.var(EVEN, 1, 3)
    assert act_min(fin(2), p) == LPPoly.var(EVEN, 1, 1) * LPPoly.var(EVEN, 2, 2)
    assert act_min(POS_INF, p) == p
    q = LPPoly.constant(EVEN, 5) + LPPoly.var(EVEN, 1, 1)
    assert act_min(NEG_INF, q) == LPPoly.constant(EVEN, 5)
    with pytest.raises(TypeError, match="z must be a point of the extended chain"):
        act_min(3, p)


def test_embed_word_examples():
    p = embed_word([2, 1], EVEN)
    assert p.terms == {(v(1, 2), v(2, 1)): Fraction(1)}
    assert embed_word([], EVEN) == LPPoly.one(EVEN)
    ctx = ParityContext.make(odd_letters=[1])
    q = embed_word([1, 1], ctx)
    assert q.terms == {(v(1, 1), v(1, 2)): Fraction(1)}


def test_embed_injective_short_words():
    images = {}
    words = [[]]
    for _ in range(5):
        words = [w + [letter] for w in words for letter in (1, 2)] + words
    seen = set()
    for w in {tuple(w) for w in words}:
        image = embed_word(list(w), EVEN)
        key = tuple(sorted(image.terms.items()))
        assert key not in images or images[key] == w
        images[key] = w
        seen.add(key)
    assert len(seen) == len({tuple(w) for w in words})


def _random_poly(rng, ctx, max_terms=3, max_vars=4):
    p = LPPoly.zero(ctx)
    for _ in range(rng.randint(1, max_terms)):
        word = [v(rng.randint(1, 3), rng.randint(1, 4))
                for _ in range(rng.randint(0, max_vars))]
        coeff = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        p = p + LPPoly.from_word(ctx, word, coeff)
    return p


def test_multiply_associative_random():
    rng = random.Random(37)
    ctx = ParityContext.make(odd_letters=[1], odd_places=[3])
    for _ in range(60):
        p, q, r = (_random_poly(rng, ctx) for _ in range(3))
        assert (p * q) * r == p * (q * r)


@pytest.mark.parametrize("ctx", [EVEN, ParityContext.make(odd_letters=[1, 3]),
                                 ParityContext.make(odd_places=[2]),
                                 ParityContext.make([1, 2], [1, 3])])
def test_multiply_matches_loop_oracle(ctx):
    # the parity contexts of the golden `lp` commands
    rng = random.Random(59)
    for _ in range(80):
        p, q = _random_poly(rng, ctx, max_terms=5), _random_poly(rng, ctx, max_terms=5)
        assert multiply(p, q).coeffs == loop_letterplace_product(p, q)


# the benchmark's parities, and one where (x1|1), (x1|3), (x2|1), (x2|3) are odd
# in both letter and place and so are even
MERGE_CONTEXTS = {"bench": ParityContext.make(odd_letters=[1, 3], odd_places=[2]),
                  "odd-twice": ParityContext.make([1, 2], [1, 3])}


def _product_factor(rng, ctx):
    """A product of two random polynomials, cut to at most 40 terms: degree up to 8."""
    p = _random_poly(rng, ctx, max_terms=7) * _random_poly(rng, ctx, max_terms=7)
    return LPPoly(ctx, dict(list(p.terms.items())[:40]))


def _parity_part(p, k):
    ctx = p.context
    return LPPoly(ctx, {m: c for m, c in p.terms.items()
                        if sum(ctx.parity(x) for x in m) % 2 == k})


def _merge_cases(ctx):
    """Pairs of factors that are products themselves, plus powers of a sum of even terms."""
    rng = random.Random(73)
    cases = [(_product_factor(rng, ctx), _product_factor(rng, ctx)) for _ in range(12)]
    even = [m for m in ((v(2, 1),), (v(4, 3),), (v(2, 1), v(4, 4)))
            if not sum(map(ctx.parity, m)) % 2]
    base = LPPoly(ctx, {m: Fraction(k + 1, 2) for k, m in enumerate(even)})
    power = base
    for _ in range(7):
        cases.append((power, base))
        power = power * base
    return cases


@pytest.mark.parametrize("name", sorted(MERGE_CONTEXTS))
def test_merge_product_matches_insertion_sort_oracle(name):
    ctx = MERGE_CONTEXTS[name]
    cases = _merge_cases(ctx)
    # the cases reach degree 8 and 20 terms, and some term pairs share an odd variable
    assert max(len(m) for p, _ in cases for m in p.terms) >= 8
    assert max(len(p.terms) for p, _ in cases) >= 20
    assert any(koszul_sign(m1 + m2, ctx) is None
               for p, q in cases for m1 in p.terms for m2 in q.terms)
    for p, q in cases:
        assert (p * q).terms == loop_letterplace_product(p, q)


def test_merge_product_shared_odd_variable_vanishes():
    ctx = MERGE_CONTEXTS["bench"]
    p = LPPoly.from_word(ctx, [v(1, 1), v(2, 2)])   # both odd
    q = LPPoly.from_word(ctx, [v(1, 1), v(4, 4)])   # (x1|1) odd, (x4|4) even
    assert (p * q).terms == loop_letterplace_product(p, q) == {}
    assert (q * q).terms == {}
    # odd in both letter and place, (x1|1) is even and has powers
    x = LPPoly.var(MERGE_CONTEXTS["odd-twice"], 1, 1)
    assert (x * x * x).terms == {(v(1, 1),) * 3: Fraction(1)}


def test_merge_product_signs_count_cross_pairs_only():
    ctx = MERGE_CONTEXTS["bench"]
    # odd: (x1|1) < (x2|2) < (x3|1); even: (x2|1)
    p = LPPoly.from_word(ctx, [v(2, 2), v(3, 1)])
    q = LPPoly.from_word(ctx, [v(1, 1), v(2, 1)])
    # (x1|1) passes both odd variables of p: two inversions
    assert (p * q).terms == {(v(1, 1), v(2, 1), v(2, 2), v(3, 1)): Fraction(1)}
    r = LPPoly.from_word(ctx, [v(1, 1), v(2, 2)])
    s = LPPoly.from_word(ctx, [v(3, 1)])
    assert (s * r).terms == {(v(1, 1), v(2, 2), v(3, 1)): Fraction(1)}
    y, x = LPPoly.from_word(ctx, [v(2, 2)]), LPPoly.from_word(ctx, [v(1, 1)])
    assert (y * x).terms == {(v(1, 1), v(2, 2)): Fraction(-1)}
    assert (y * x).terms == loop_letterplace_product(y, x)


@pytest.mark.parametrize("name", sorted(MERGE_CONTEXTS))
def test_merge_product_associative_and_supercommutative(name):
    cases = _merge_cases(MERGE_CONTEXTS[name])
    for (p, q), (r, _) in zip(cases, cases[1:]):
        assert (p * q) * r == p * (q * r)
        for a in (0, 1):
            for b in (0, 1):
                pa, qb = _parity_part(p, a), _parity_part(q, b)
                assert pa * qb == (qb * pa).scale(-1 if a and b else 1)


# Each fault corrupts one seam of the packed kernel. miscount-one-inversion:
# the bits above an odd variable skip the next index, so below misses an odd
# left variable right above an odd right one. keep-shared-odd: the o1 & o2
# test never fires, so a pair sharing an odd variable survives.
MERGE_FAULTS = {
    "miscount-one-inversion": ("-(odd << (i + 1))", "-(odd << (i + 2))"),
    "keep-shared-odd": ("if o1 & o2:", "if False:"),
}


@pytest.mark.parametrize("fault", list(MERGE_FAULTS))
@pytest.mark.parametrize("name", sorted(MERGE_CONTEXTS))
def test_merge_product_oracle_catches_a_faulty_merge(monkeypatch, name, fault):
    cases = _merge_cases(MERGE_CONTEXTS[name])
    monkeypatch.setattr(LPPoly, "product", mutated(LPPoly.product, *MERGE_FAULTS[fault]))
    assert any((p * q).terms != loop_letterplace_product(p, q) for p, q in cases)


DENOMINATORS = (1, 2, 3, 4, 6, 7)


def _over(rng, ctx, den):
    """Five random words and one of degree 4, coefficients of both signs over den.

    The degree-4 term, which no other word reaches, has -1/den, so den is
    the common denominator.
    """
    p = LPPoly.from_word(ctx, [v(1, 1), v(2, 2), v(3, 3), v(4, 4)], Fraction(-1, den))
    for _ in range(5):
        word = [v(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        p = p + LPPoly.from_word(ctx, word, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), den))
    return p


def _numerator_cases(ctx):
    """Factor pairs for the numerator product, with what each pair must show.

    Every pair of common denominators from DENOMINATORS; pairs whose term
    products cancel, so a key must be dropped; and pairs whose sums turn
    integral once divided by d1 d2, so a coefficient must be an int.
    """
    rng = random.Random(83)
    spread = [(_over(rng, ctx, d1), _over(rng, ctx, d2))
              for d1 in DENOMINATORS for d2 in DENOMINATORS]
    x, y = LPPoly.var(ctx, 2, 1), LPPoly.var(ctx, 4, 4)   # even in both contexts
    a, b = LPPoly.var(ctx, 3, 1), LPPoly.var(ctx, 3, 3)   # odd in both contexts
    half, third = Fraction(1, 2), Fraction(1, 3)
    cancelling = [
        # (x/2 + y/3)(x/2 - y/3) = x^2/4 - y^2/9: the cross terms cancel
        (x.scale(half) + y.scale(third), x.scale(half) - y.scale(third)),
        # (a/2 + 3b/4)(2a/3 + b) = 0: a^2 = b^2 = 0, and ab/2 cancels -ba/2
        (a.scale(half) + b.scale(Fraction(3, 4)), a.scale(Fraction(2, 3)) + b),
    ]
    integral = [
        (x.scale(Fraction(3, 2)), y.scale(Fraction(2, 3))),              # 3/2 * 2/3 = 1
        (x.scale(half) + y.scale(half), x.scale(Fraction(5, 3)) + y.scale(Fraction(1, 3))),
    ]
    return spread, cancelling, integral


@pytest.mark.parametrize("name", sorted(MERGE_CONTEXTS))
def test_numerator_product_matches_insertion_sort_oracle(name):
    spread, cancelling, integral = _numerator_cases(MERGE_CONTEXTS[name])
    common = {(_common_denominator(p), _common_denominator(q)) for p, q in spread}
    assert common == {(d1, d2) for d1 in DENOMINATORS for d2 in DENOMINATORS}
    for p, q in spread + cancelling + integral:
        got = (p * q).terms
        assert got == loop_letterplace_product(p, q)
        assert all(type(c) is int or c.denominator > 1 for c in got.values()), got
    xy = (v(2, 1), v(4, 4))
    (p, q), (r, t) = cancelling
    assert set((p * q).terms) == {(v(2, 1),) * 2, (v(4, 4),) * 2}
    assert (r * t).terms == {}
    # 3/2 * 2/3 = 6/6, and the xy-coefficient of (x + y)/2 times (5x + y)/3 is 6/6
    for p, q in integral:
        assert type((p * q).terms[xy]) is int and (p * q).terms[xy] == 1


def _common_denominator(p):
    return lcm(*(c.denominator for c in p.terms.values()))


# divide-by-d1-only: the divisor of the numerator sums drops the right
# factor's common denominator. keep-zero-sums: the zero filter is gone, so a
# key whose pair products cancel stays with coefficient 0. memo-outlives-call:
# the numerator -> coefficient memo lives in the module, keyed by the numerator
# alone, so a later product with another d1 d2 reads an earlier call's quotient.
NUMERATOR_FAULTS = {
    "divide-by-d1-only": ("d = d1 * d2", "d = d1"),
    "keep-zero-sums": ("if v:", "if True:"),
    "memo-outlives-call": ("quotients, terms = {}, {}",
                           "quotients, terms = globals().setdefault('memo', {}), {}"),
}


def _shared_numerator_cases(ctx):
    """x y / d for d = 2, 3, 1: one summed numerator, 1, over three common denominators."""
    x, y = LPPoly.var(ctx, 2, 1), LPPoly.var(ctx, 4, 4)
    return [(x.scale(Fraction(1, 2)), y), (x.scale(Fraction(1, 3)), y), (x, y)]


@pytest.mark.parametrize("fault", list(NUMERATOR_FAULTS))
@pytest.mark.parametrize("name", sorted(MERGE_CONTEXTS))
def test_numerator_product_oracle_catches_a_fault(monkeypatch, name, fault):
    ctx = MERGE_CONTEXTS[name]
    spread, cancelling, integral = _numerator_cases(ctx)
    cases = {"divide-by-d1-only": spread, "keep-zero-sums": cancelling,
             "memo-outlives-call": _shared_numerator_cases(ctx)}[fault]
    assert all((p * q).terms == loop_letterplace_product(p, q) for p, q in cases)
    monkeypatch.setattr(LPPoly, "product", mutated(LPPoly.product, *NUMERATOR_FAULTS[fault]))
    assert any((p * q).terms != loop_letterplace_product(p, q) for p, q in cases)


def _assert_product_matches_loop(p, q):
    """p q agrees with the loop oracle term for term, and each coefficient is an
    int exactly where the oracle's Fraction is integral."""
    got, want = (p * q).terms, loop_letterplace_product(p, q)
    assert got == want
    assert {m: type(c) for m, c in got.items()} == {
        m: int if c.denominator == 1 else Fraction for m, c in want.items()}
    return got


COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)])


def _edge_contexts(letters, places):
    """All-even, all-odd (every letter odd, no place), or random odd letters and places."""
    return st.one_of(
        st.just(ParityContext.make()),
        st.just(ParityContext.make(odd_letters=range(1, letters + 1))),
        st.builds(ParityContext.make, st.sets(st.integers(1, letters)),
                  st.sets(st.integers(1, places))))


def _edge_polys(ctx, variables, max_degree=3, max_terms=4, coeffs=COEFFS):
    def total(terms):
        p = LPPoly.zero(ctx)
        for word, c in terms:
            p = p + LPPoly.from_word(ctx, word, c)
        return p
    return st.lists(st.tuples(st.lists(variables, max_size=max_degree), coeffs),
                    max_size=max_terms).map(total)


SMALL_VARIABLES = st.builds(v, st.integers(1, 4), st.integers(1, 4))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_product_with_a_constant_factor(data):
    # with both factors constant the field width is 0
    ctx = data.draw(_edge_contexts(4, 4))
    c = LPPoly.constant(ctx, data.draw(COEFFS))
    d = LPPoly.constant(ctx, data.draw(COEFFS))
    q = data.draw(_edge_polys(ctx, SMALL_VARIABLES))
    for left, right in ((c, q), (q, c), (c, d), (LPPoly.zero(ctx), c), (q, LPPoly.zero(ctx))):
        _assert_product_matches_loop(left, right)
    assert (c * d).terms == {(): c.terms[()] * d.terms[()]}


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_product_of_powers_that_fill_a_field(data):
    # x^a x^b with a + b = 2^w - 1 puts all ones in a w-bit field, and no other
    # term has a higher degree, so w is the width; a carry would spill into the
    # field of the next variable
    ctx = data.draw(st.sampled_from([EVEN, *MERGE_CONTEXTS.values()]))
    x = data.draw(SMALL_VARIABLES.filter(lambda y: not ctx.parity(y)))
    w = data.draw(st.integers(1, 4))
    a = data.draw(st.integers(0, (1 << w) - 1))
    b = (1 << w) - 1 - a

    def with_power(k):
        terms = dict(data.draw(_edge_polys(ctx, SMALL_VARIABLES, max_degree=k)).terms)
        terms[(x,) * k] = data.draw(COEFFS)
        return LPPoly(ctx, terms)

    p, q = with_power(a), with_power(b)
    assert max(map(len, p.terms), default=0) + max(map(len, q.terms), default=0) == (1 << w) - 1
    _assert_product_matches_loop(p, q)
    _assert_product_matches_loop(q, p)


def test_packed_product_of_powers_that_fill_a_four_bit_field():
    x, y, z = (LPPoly.var(EVEN, *lp) for lp in ((2, 1), (2, 2), (3, 1)))
    power = LPPoly.one(EVEN)
    powers = [power]
    for _ in range(8):
        power = power * x
        powers.append(power)
    # (x2|1)^7 (x2|1)^8: exponent 15 fills the 4-bit field of (x2|1), next to (x2|2)
    got = _assert_product_matches_loop(powers[7] + y, powers[8] + z)
    assert got[(v(2, 1),) * 15] == 1
    assert got[(v(2, 1),) * 8 + (v(2, 2),)] == 1 and got[(v(2, 1),) * 7 + (v(3, 1),)] == 1


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_packed_product_past_a_machine_word(data):
    # 65 to 80 distinct variables, so keys and odd masks pass 64 bits
    ctx = data.draw(_edge_contexts(12, 12))
    pool = data.draw(st.lists(st.builds(v, st.integers(1, 12), st.integers(1, 12)),
                              min_size=65, max_size=80, unique=True))
    words = [pool[i:i + 2] for i in range(0, len(pool), 2)]
    p = LPPoly.zero(ctx)
    for word in words:
        p = p + LPPoly.from_word(ctx, word, data.draw(COEFFS))
    q = data.draw(_edge_polys(ctx, st.sampled_from(pool), max_terms=6))
    assert len({x for m in p.terms for x in m}) > 64
    _assert_product_matches_loop(p, q)
    _assert_product_matches_loop(q, p)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_product_sums_that_cancel(data):
    # (c1 a + c2 b)(c3 a + c4 b), with c4 chosen so that the ab and ba terms cancel
    ctx = data.draw(_edge_contexts(4, 4))
    a, b = (data.draw(st.lists(SMALL_VARIABLES, min_size=1, max_size=3)) for _ in range(2))
    signs = koszul_sign(a + b, ctx), koszul_sign(b + a, ctx)
    assume(None not in signs and normalize(a, ctx) and normalize(b, ctx))
    (sa, ma), (sb, mb) = normalize(a, ctx), normalize(b, ctx)
    assume(ma != mb)
    c1, c2, c3 = (data.draw(COEFFS) for _ in range(3))
    c4 = Fraction(-c2 * c3 * signs[1]) / (c1 * signs[0])
    p = LPPoly(ctx, {ma: c1 * sa, mb: c2 * sb})
    q = LPPoly(ctx, {ma: c3 * sa, mb: c4 * sb})
    got = _assert_product_matches_loop(p, q)
    assert tuple(sorted(ma + mb)) not in got


FEW_COEFFS = st.sampled_from([1, -1, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3)])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_packed_product_on_few_coefficient_values_and_cancelling_sums(data):
    # few values over few variables, so many terms of one product share a summed
    # numerator; (p + q)(p - q) = p^2 - pq + qp - q^2, whose cross terms cancel
    # wherever they commute
    ctx = data.draw(_edge_contexts(2, 2))
    tiny = st.builds(v, st.integers(1, 2), st.integers(1, 2))
    p, q = (data.draw(_edge_polys(ctx, tiny, max_terms=6, coeffs=FEW_COEFFS)) for _ in range(2))
    for left, right in ((p, q), (q, p), (p + q, p - q), (p.scale(Fraction(1, 3)), q)):
        _assert_product_matches_loop(left, right)


def test_product_builds_one_fraction_per_nonintegral_value_and_no_clean_pass(monkeypatch):
    spread, cancelling, integral = _numerator_cases(MERGE_CONTEXTS["bench"])
    made, cleaned = [], []
    clean = exactlin.clean

    class Counted(Fraction):
        def __new__(cls, *args):
            made.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(letterplace, "Fraction", Counted)
    monkeypatch.setattr(exactlin, "clean", lambda coeffs: cleaned.append(coeffs) or clean(coeffs))
    shared = 0
    for p, q in spread + cancelling + integral:
        made.clear()
        cleaned.clear()
        got = (p * q).terms
        fractions = [c for c in got.values() if type(c) is not int]
        # one Fraction per distinct non-integral value, stored as built and
        # checked by nothing else; terms with that value share it
        assert len(made) == len(set(fractions)) == len({id(c) for c in fractions})
        assert all(type(c) is Counted for c in fractions)
        assert cleaned == []
        shared += len(fractions) - len(made)
    assert shared > 0  # the cases do repeat a non-integral value within one product


def test_supercommutativity_random():
    rng = random.Random(41)
    ctx = ParityContext.make(odd_letters=[2], odd_places=[1])
    for _ in range(100):
        word1 = [v(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        word2 = [v(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(0, 4))]
        p = LPPoly.from_word(ctx, word1)
        q = LPPoly.from_word(ctx, word2)
        pp, pq = p.parity(), q.parity()
        sign = -1 if (pp == 1 and pq == 1) else 1
        assert p * q == (q * p).scale(sign)


def test_weight_grading_law_random():
    rng = random.Random(43)
    for _ in range(100):
        w1 = tuple(sorted(v(rng.randint(1, 3), rng.randint(1, 4))
                          for _ in range(rng.randint(0, 3))))
        w2 = tuple(sorted(v(rng.randint(1, 3), rng.randint(1, 4))
                          for _ in range(rng.randint(0, 3))))
        p = LPPoly.from_word(EVEN, list(w1))
        q = LPPoly.from_word(EVEN, list(w2))
        product = p * q
        if product.terms:
            mono = next(iter(product.terms))
            assert weight(mono) == max(weight(w1), weight(w2))


def test_act_min_is_algebra_endomorphism():
    rng = random.Random(47)
    ctx = ParityContext.make(odd_letters=[3])
    points = [NEG_INF, fin(0), fin(1), fin(2), fin(3), POS_INF]
    for _ in range(60):
        p, q = _random_poly(rng, ctx), _random_poly(rng, ctx)
        z = rng.choice(points)
        z2 = rng.choice(points)
        assert act_min(z, p * q) == act_min(z, p) * act_min(z, q)
        assert act_min(z, LPPoly.one(ctx)) == LPPoly.one(ctx)
        assert act_min(z, act_min(z2, p)) == act_min(min(z, z2), p)


def test_parse_round_trip():
    ctx = ParityContext.make(odd_letters=[1, 2])
    examples = [
        "0",
        "1/2",
        "(x1|1)*(x2|1)",
        "3*(x1|2) - (x2|1)",
        "-(x1|1) + 2*(x1|1)*(x2|3)",
    ]
    for text in examples:
        p = parse_poly(text, ctx)
        assert parse_poly(format_poly(p), ctx) == p


def test_parse_poly_work_is_linear_in_the_terms(monkeypatch):
    # the terms are summed into one dict and the polynomial built once: the
    # coefficients that pass through clean are two per term (one in from_word and
    # one in the sum), where adding term by term cleaned the whole sum each time
    cleaned = []
    real = exactlin.clean
    for module in (exactlin, letterplace):
        monkeypatch.setattr(module, "clean", lambda coeffs: cleaned.append(len(coeffs))
                            or real(coeffs), raising=False)
    for n in (100, 200, 400):
        terms = [(Fraction(k + 1, 3), v(k % 9 + 1, k // 9 + 1)) for k in range(n)]
        cleaned.clear()
        p = parse_poly(" + ".join(f"{c}*{x}" for c, x in terms), EVEN)
        assert sum(cleaned) <= 2 * n
        assert p.terms == {(x,): c for c, x in terms}


# the parity contexts of the golden `lp` commands
GOLDEN_CONTEXTS = [EVEN, ParityContext.make(odd_letters=[1, 3]), ParityContext.make(odd_places=[2]),
                   ParityContext.make(odd_letters=[1, 2], odd_places=[1, 3])]
FACTORS = st.one_of(
    st.builds("(x{}|{})".format, st.integers(1, 3), st.integers(1, 3)),
    st.builds(lambda n, d: f"{n}/{d}" if d > 1 else str(n), st.integers(0, 5), st.integers(1, 3)))


@given(st.lists(FACTORS, min_size=1, max_size=4), st.sampled_from(range(len(GOLDEN_CONTEXTS))))
@settings(max_examples=300, deadline=None)
def test_parsed_term_is_the_product_of_its_parsed_factors(factors, k):
    # parse_poly reads a term as one coefficient and one word; the packed product
    # kernel multiplies the factors one by one: the two must agree, sign and type
    ctx = GOLDEN_CONTEXTS[k]
    product = LPPoly.one(ctx)
    for factor in factors:
        product = product * parse_poly(factor, ctx)
    got = parse_poly("*".join(factors), ctx).terms
    assert got == product.terms
    assert {m: type(c) for m, c in got.items()} == {m: type(c) for m, c in product.terms.items()}


def test_parse_poly_builds_each_term_from_its_word_without_a_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("parse_poly multiplied")

    for name in ("product", "var", "constant"):
        monkeypatch.setattr(LPPoly, name, refuse)
    monkeypatch.setattr(letterplace, "multiply", refuse)
    words, from_word = [], LPPoly.from_word
    monkeypatch.setattr(LPPoly, "from_word", lambda ctx, word, coeff=1:
                        words.append(list(word)) or from_word(ctx, word, coeff))
    # letters 1 and 2 are odd: the first term takes a sign, the second vanishes
    ctx = ParityContext.make(odd_letters=[1, 2])
    p = parse_poly("2*(x2|1)*1/3*(x1|1) - (x1|3)*(x1|3) + (x3|1)*(x3|1) + 5", ctx)
    assert words == [[v(2, 1), v(1, 1)], [v(1, 3), v(1, 3)], [v(3, 1), v(3, 1)], []]
    assert p.terms == {(v(1, 1), v(2, 1)): Fraction(-2, 3), (v(3, 1), v(3, 1)): 1, (): 5}


def test_parse_rational_coefficients():
    p = parse_poly("3/2*(x1|1) + 2", EVEN)
    assert p.terms == {(v(1, 1),): Fraction(3, 2), (): Fraction(2)}


def test_parse_errors_have_positions():
    with pytest.raises(ParseError) as exc:
        parse_poly("(x1|1) + ", EVEN)
    assert exc.value.col == 10
    # a zero letter or place is reported at its first digit
    for text, col in (("(x0|1)", 3), ("(x1|0)", 5), ("( x0 | 1 )", 4)):
        with pytest.raises(ParseError, match="letters and places start at 1") as exc:
            parse_poly(text, EVEN)
        assert exc.value.col == col, text
    with pytest.raises(ParseError, match="expected a variable like x1") as exc:
        parse_poly("(y1|1)", EVEN)
    assert exc.value.col == 2
    with pytest.raises(ParseError):
        parse_poly("(x1|1", EVEN)
    with pytest.raises(ParseError):
        parse_poly("1/0", EVEN)
    # a superscript two is a Unicode digit but not an ASCII one
    with pytest.raises(ParseError) as exc:
        parse_poly("(x\u00b2|1)", EVEN)
    assert exc.value.col == 3


def test_format_sorts_by_weight_then_monomial():
    p = parse_poly("(x1|3) + (x2|1) + 1 + (x1|1)*(x2|2)", EVEN)
    assert format_poly(p) == "1 + (x2|1) + (x1|1)*(x2|2) + (x1|3)"
