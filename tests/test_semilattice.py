import io
import random
from itertools import count, product

import pytest
from hypothesis import assume, find, given, settings
from hypothesis import strategies as st

from semidual import corpus, semilattice
from semidual.cli import run
from semidual.errors import ParseError
from semidual.exactlin import Matrix, rank
from semidual.semilattice import (Character, ConflictingEntryError,
                                  DuplicateLabelError, FiniteSemilattice,
                                  MissingPairError, NoIdentityError, NotAssociativeError,
                                  NotIdempotentError, UnknownLabelError,
                                  characters, double_dual_iso, dual_semilattice,
                                  ev_matrix_rank, induced_order,
                                  parse_semilattice, print_semilattice, validate)

from oracles import (brute_characters, first_nonassociative_triple, label_keyed_parse,
                     label_keyed_validate, pairwise_is_character, pointwise_product_dual,
                     validated_copy)


def chain2():
    return validate(["n1", "n2"], {("n1", "n2"): "n2"}, "n1")


def test_validate_two_chain():
    s = chain2()
    assert s.elements == ("n1", "n2")
    assert s.op(0, 1) == 1 and s.op(1, 0) == 1
    assert s.op(1, 1) == 1


def test_validate_trivial_monoid():
    s = validate(["e"], {}, "e")
    assert len(s) == 1 and s.identity == 0


def test_validate_not_idempotent():
    with pytest.raises(NotIdempotentError) as exc:
        validate(["a", "b"], {("a", "b"): "a", ("b", "b"): "a"}, "a")
    assert exc.value.label == "b"


def test_validate_missing_pair():
    with pytest.raises(MissingPairError):
        validate(["a", "b", "c"], {("a", "b"): "b"}, "a")


def test_validate_duplicate_label():
    with pytest.raises(DuplicateLabelError):
        validate(["a", "a"], {}, "a")


def test_validate_no_identity():
    with pytest.raises(NoIdentityError):
        validate(["a", "b"], {("a", "b"): "a"}, "z")
    # a is absorbing, not neutral
    with pytest.raises(NoIdentityError):
        validate(["a", "b"], {("a", "b"): "a"}, "a")


def test_validate_conflicting_orientations():
    with pytest.raises(ConflictingEntryError):
        validate(["a", "b"], {("a", "b"): "a", ("b", "a"): "b"}, "a")


def test_validate_not_associative():
    # rock-paper-scissors with an identity: idempotent, commutative, not associative
    table = {("e", "a"): "a", ("e", "b"): "b", ("e", "c"): "c",
             ("a", "b"): "c", ("a", "c"): "b", ("b", "c"): "a"}
    with pytest.raises(NotAssociativeError) as exc:
        validate(["e", "a", "b", "c"], table, "e")
    s, t, u = exc.value.witness
    assert {s, t, u} <= {"a", "b", "c"}


def test_validate_unknown_label_in_table():
    with pytest.raises(UnknownLabelError):
        validate(["a", "b"], {("a", "z"): "a"}, "a")


def test_induced_order_two_chain():
    s = chain2()
    order = induced_order(s)
    assert (0, 1) in order and (1, 0) not in order
    assert (0, 0) in order and (1, 1) in order


def test_induced_order_trivial():
    s = validate(["e"], {}, "e")
    assert induced_order(s) == ((0, 0),)


def test_identity_is_minimum_of_induced_order():
    for s in corpus.semilattices().values():
        order = set(induced_order(s))
        assert all((s.identity, j) in order for j in range(len(s)))


def test_induced_order_boolean_is_inclusion():
    s = corpus.boolean_lattice(2)
    members = {lbl: (set() if lbl == "0" else set(lbl)) for lbl in s.elements}
    for i in range(len(s)):
        for j in range(len(s)):
            subset = members[s.label(i)] <= members[s.label(j)]
            assert s.leq(i, j) == subset


def test_characters_two_chain_exact():
    chars = characters(chain2())
    assert [c.values for c in chars] == [(1, 0), (1, 1)]


def test_characters_trivial():
    chars = characters(validate(["e"], {}, "e"))
    assert [c.values for c in chars] == [(1,)]


def test_characters_boolean_square():
    s = corpus.boolean_lattice(2)
    chars = characters(s)
    assert len(chars) == 4
    assert chars == brute_characters(s)
    # exactly the indicators of the principal down-sets
    downs = {tuple(int(s.leq(i, m)) for i in range(len(s))) for m in range(len(s))}
    assert {c.values for c in chars} == downs


def test_characters_chain_count():
    for m in range(1, 9):
        assert len(characters(corpus.chain(m))) == m


def test_characters_beyond_twenty_elements(tmp_path):
    for s in (corpus.chain(21), corpus.boolean_lattice(5)):
        chars = characters(s)
        assert len(chars) == len(s)
        assert all(pairwise_is_character(ch.values, s) for ch in chars)
    path = tmp_path / "bool5.slat"
    path.write_text(print_semilattice(corpus.boolean_lattice(5)))
    out, err = io.StringIO(), io.StringIO()
    assert run(["slat", "characters", str(path)], out, err) == 0
    assert len(out.getvalue().splitlines()) == 32


@st.composite
def union_closed_masks(draw, max_members=12):
    """A union-closed family of subsets of {0..4} with the empty set, at most max_members."""
    family = {0}
    for g in draw(st.lists(st.integers(1, 31), max_size=6)):
        grown = family | {x | g for x in family}
        if len(grown) > max_members:
            break
        family = grown
    return sorted(family)


@st.composite
def union_closed_families(draw, max_members=12):
    """The semilattice of a union_closed_masks family under union, labelled s<mask>."""
    family = draw(union_closed_masks(max_members))
    labels = {x: f"s{x}" for x in family}
    table = {(labels[x], labels[y]): labels[x | y] for x in family for y in family}
    return validate(list(labels.values()), table, labels[0])


@st.composite
def unital_idempotent_tables(draw):
    """(labels, identity, full op table) of a commutative idempotent magma with an identity.

    A union-closed family in a drawn element order, with up to three
    products of non-identity pairs redrawn, so associative and
    non-associative tables both occur.
    """
    family = draw(union_closed_masks(max_members=8))
    family = draw(st.permutations(family))
    n = len(family)
    table = {(i, j): family.index(family[i] | family[j]) for i in range(n) for j in range(n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if family[i] and family[j]]
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3)):
            table[i, j] = table[j, i] = draw(st.integers(0, n - 1))
    labels = [f"e{x}" for x in family]
    op_table = {(labels[i], labels[j]): labels[k] for (i, j), k in table.items()}
    return labels, labels[family.index(0)], op_table


@given(unital_idempotent_tables())
@settings(max_examples=200, deadline=None)
def test_associativity_certificate_matches_cubic_search(case):
    labels, identity, op_table = case
    witness = first_nonassociative_triple(labels, op_table)
    if witness is None:
        assert validate(labels, op_table, identity).elements == tuple(labels)
    else:
        with pytest.raises(NotAssociativeError) as exc:
            validate(labels, op_table, identity)
        assert exc.value.witness == witness


def test_associativity_strategy_draws_both_verdicts():
    # find raises NoSuchExample when the strategy never yields the verdict
    for associative in (True, False):
        find(unital_idempotent_tables(),
             lambda case: (first_nonassociative_triple(case[0], case[2]) is None) == associative,
             settings=settings(database=None))


@given(union_closed_families())
@settings(max_examples=60, deadline=None)
def test_characters_match_brute_force(s):
    assert characters(s) == brute_characters(s)


@given(union_closed_families(max_members=10))
@settings(max_examples=100, deadline=None)
def test_is_character_of_matches_pairwise_definition(s):
    for bits in product((0, 1), repeat=len(s)):
        assert Character(bits).is_character_of(s) == pairwise_is_character(bits, s), bits


def test_characters_satisfy_invariants():
    for s in corpus.semilattices().values():
        for ch in characters(s):
            assert ch.is_character_of(s)


def test_dual_two_chain_is_min():
    d = dual_semilattice(chain2())
    assert d.elements == ("f1", "f2")
    assert d.label(d.identity) == "f2"
    # product table is min on indices: f1 f2 = f1
    assert d.op(0, 1) == 0 and d.op(0, 0) == 0 and d.op(1, 1) == 1


def test_dual_chain4_is_reversed_chain():
    d = dual_semilattice(corpus.chain(4))
    for i in range(4):
        for j in range(4):
            assert d.op(i, j) == min(i, j)


def test_dual_trivial():
    d = dual_semilattice(validate(["e"], {}, "e"))
    assert len(d) == 1


def test_dual_validates_for_corpus():
    # dual_semilattice trusts the duality; validate re-checks the laws on its table
    for name, s in corpus.semilattices().items():
        d = dual_semilattice(s)
        assert len(d) == len(s), name
        assert validated_copy(d) == d, name


@given(union_closed_families())
@settings(max_examples=60, deadline=None)
def test_dual_equals_its_validated_table(s):
    d = dual_semilattice(s)
    assert validated_copy(d) == d
    assert d.label(d.identity) == f"f{len(s)}"  # the constant-1 character sorts last


def test_dual_matches_pointwise_product_oracle_on_corpus():
    for name, s in corpus.semilattices().items():
        assert dual_semilattice(s) == pointwise_product_dual(s), name


@given(union_closed_families())
@settings(max_examples=60, deadline=None)
def test_dual_matches_pointwise_product_oracle(s):
    assert dual_semilattice(s) == pointwise_product_dual(s)


def test_double_dual_two_chain_and_divisors():
    for s in (chain2(), corpus.divisor_lattice(12)):
        iso = double_dual_iso(s)
        assert sorted(iso.assignment) == list(range(len(s)))


def _atom_count(s):
    # elements whose only strict lower bound is the identity
    return sum(1 for i in range(len(s)) if i != s.identity
               and all(not s.leq(j, i) for j in range(len(s))
                       if j not in (i, s.identity)))


def test_double_dual_non_self_dual_lattice():
    # diamond with a tail on top: two atoms, but its dual has only one,
    # so dual(s) is a genuinely different lattice while dual(dual(s))
    # recovers s
    table = {("o", "a"): "a", ("o", "b"): "b", ("o", "i"): "i", ("o", "t"): "t",
             ("a", "b"): "i", ("a", "i"): "i", ("a", "t"): "t",
             ("b", "i"): "i", ("b", "t"): "t", ("i", "t"): "t"}
    s = validate(["o", "a", "b", "i", "t"], table, "o")
    d = dual_semilattice(s)
    assert len(d) == 5
    assert _atom_count(s) == 2 and _atom_count(d) == 1
    iso = double_dual_iso(s)
    assert sorted(iso.assignment) == list(range(5))


def test_double_dual_non_distributive_lattice():
    # three atoms, any two joining to the top
    table = {("o", "a"): "a", ("o", "b"): "b", ("o", "c"): "c", ("o", "i"): "i",
             ("a", "b"): "i", ("a", "c"): "i", ("b", "c"): "i",
             ("a", "i"): "i", ("b", "i"): "i", ("c", "i"): "i"}
    s = validate(["o", "a", "b", "c", "i"], table, "o")
    chars = characters(s)
    assert len(chars) == 5
    assert brute_characters(s) == chars
    iso = double_dual_iso(s)
    assert sorted(iso.assignment) == list(range(5))


def _faulty(fault, on_dual=True):
    """Corrupt a function's result on duals (labelled f1, f2, ...), or else on the rest."""
    def wrap(real):
        return lambda t: fault(real(t)) if (t.elements[0] == "f1") == on_dual else real(t)
    return wrap


def _on_double(fault):
    """Corrupt every second _and_table result: double_dual_iso builds the dual, then the double."""
    calls = count(1)

    def wrap(real):
        def table(masks, width):
            d = real(masks, width)
            return fault(d) if next(calls) % 2 == 0 else d
        return table
    return wrap


def _moved_identity(d):
    return FiniteSemilattice(d.elements, (d.identity + 1) % len(d), d.table)


def _joins_to_identity(d):
    # two non-identity elements now multiply to the identity
    a, b = [i for i in range(len(d)) if i != d.identity][:2]
    table = [list(row) for row in d.table]
    table[a][b] = table[b][a] = d.identity
    return FiniteSemilattice(d.elements, d.identity, table)


@pytest.mark.parametrize("attr, fault, message", [
    ("_down_sets", _faulty(lambda down: down[1:]),
     "evaluation at n3 is not a character of the dual"),
    ("_down_sets", _faulty(lambda down: [down[0], down[2]], on_dual=False),
     "evaluation map identifies distinct elements"),
    ("_down_sets", _faulty(lambda down: down + [(0, 0)]),
     "evaluation map misses a double-dual element"),
    ("_and_table", _on_double(_moved_identity), "evaluation map moves the identity"),
    ("_and_table", _on_double(_joins_to_identity),
     "evaluation map is not multiplicative at (n2, n3)"),
], ids=["dual-character-dropped", "character-dropped", "dual-character-added",
        "identity-moved", "table-corrupted"])
def test_double_dual_faults_are_caught(monkeypatch, attr, fault, message):
    # once the dual is no longer re-validated, these raises are its only certificate
    monkeypatch.setattr(semilattice, attr, fault(getattr(semilattice, attr)))
    for fmt, line in (("human", f"isomorphism: FAIL {message}\n"),
                      ("tsv", f"isomorphism\tFAIL\t{message}\n")):
        out, err = io.StringIO(), io.StringIO()
        argv = ["slat", "double-dual", corpus.data_path("chain3.slat"), "--format", fmt]
        assert run(argv, out, err) == 1
        assert (out.getvalue(), err.getvalue()) == (line, "")


@pytest.mark.parametrize("fault", [lambda down: down[1:]], ids=["bottom-dropped"])
def test_double_dual_reports_characters_not_closed_under_products(monkeypatch, fault):
    # without the down-set of 0, the down-sets of 1 and 2 meet outside the list
    real = semilattice._down_sets
    monkeypatch.setattr(semilattice, "_down_sets",
                        lambda t: fault(real(t)) if t.elements[0] == "0" else real(t))
    argv = ["slat", "double-dual", corpus.data_path("bool2.slat")]
    out, err = io.StringIO(), io.StringIO()
    assert run(argv, out, err) == 1
    assert (out.getvalue(), err.getvalue()) == (
        "isomorphism: FAIL the characters are not closed under pointwise product\n", "")


def test_double_dual_and_ev_rank_build_the_down_sets_once_per_structure(monkeypatch):
    real = semilattice._down_sets
    calls = []
    monkeypatch.setattr(semilattice, "_down_sets", lambda t: calls.append(t) or real(t))
    s = corpus.boolean_lattice(3)
    double_dual_iso(s)
    assert len(calls) == 2  # s and its dual
    calls.clear()
    ev_matrix_rank(s)
    assert calls == [s]


@given(union_closed_families())
@settings(max_examples=30, deadline=None)
def test_down_set_masks_and_double_dual_match_the_oracles(s):
    n = len(s)
    assert sorted(x for _, x in semilattice._down_sets(s)) == list(range(n))
    for mask, x in semilattice._down_sets(s):
        assert mask == sum(1 << (n - 1 - t) for t in range(n) if s.leq(t, x))
    chars = brute_characters(s)
    lookup = {ch.values: i for i, ch in enumerate(chars)}
    table = [[lookup[tuple(x * y for x, y in zip(a.values, b.values))] for b in chars]
             for a in chars]
    dual = FiniteSemilattice((f"f{i + 1}" for i in range(n)), lookup[(1,) * n], table)
    dual_lookup = {ch.values: i for i, ch in enumerate(brute_characters(dual))}
    assert double_dual_iso(s).assignment == tuple(
        dual_lookup[tuple(ch(i) for ch in chars)] for i in range(n))


def test_double_dual_trivial_is_identity():
    iso = double_dual_iso(validate(["e"], {}, "e"))
    assert iso.assignment == (0,)


def test_ev_matrix_rank_examples():
    assert ev_matrix_rank(chain2()) == 2
    assert ev_matrix_rank(validate(["e"], {}, "e")) == 1
    assert ev_matrix_rank(corpus.boolean_lattice(2)) == 4


def _bareiss_ev_rank(s):
    chars = semilattice.characters(s)
    return rank(Matrix.from_rows([[ch(i) for ch in chars] for i in range(len(s))]))


CORPUS_SLAT = sorted(name[:-len(".slat")] for name in corpus.render_corpus_files()
                     if name.endswith(".slat"))


def test_ev_matrix_rank_is_the_triangle_certificate_on_the_corpus():
    # no elimination on this side: tests/test_source_rules.py keeps rank out of the module
    for name in CORPUS_SLAT:
        s = corpus.load_semilattice(name)
        assert ev_matrix_rank(s) == _bareiss_ev_rank(s) == len(s), name


@given(union_closed_families())
@settings(max_examples=60, deadline=None)
def test_ev_matrix_rank_matches_bareiss_on_union_closed_families(s):
    assert ev_matrix_rank(s) == _bareiss_ev_rank(s) == len(s)


@pytest.mark.parametrize("fault", [
    lambda down: down[::-1],
    lambda down: down[:-1] + down[:1],
    lambda down: down[:-1],
], ids=["reversed", "duplicated", "top-dropped"])
def test_ev_matrix_rank_refuses_a_broken_triangle(monkeypatch, fault):
    real = semilattice._down_sets
    monkeypatch.setattr(semilattice, "_down_sets", lambda s: fault(real(s)))
    message = "the character evaluation matrix is not unitriangular"
    for name in CORPUS_SLAT:
        s = corpus.load_semilattice(name)
        if len(s) < 2:
            continue
        with pytest.raises(ArithmeticError, match=message):
            ev_matrix_rank(s)
        for fmt, line in (("human", f"check: FAIL [{message}]\n"),
                          ("tsv", f"check\tFAIL\t{message}\n")):
            out, err = io.StringIO(), io.StringIO()
            argv = ["slat", "ev-rank", corpus.data_path(f"{name}.slat"), "--format", fmt]
            assert run(argv, out, err) == 1, name
            assert (out.getvalue(), err.getvalue()) == (line, ""), name


def test_no_characters_outside_enumeration():
    # exhaustive bit-vector search agrees for every corpus member
    for name, s in corpus.semilattices().items():
        if len(s) <= 12:
            assert brute_characters(s) == characters(s), name


def test_parse_print_round_trip():
    for s in corpus.semilattices().values():
        assert parse_semilattice(print_semilattice(s)) == s


def test_parse_accepts_comments_and_diagonal():
    text = """
# a two-chain
elements: a b
identity: a
a * a = a
a * b = b  # one orientation is enough
b * a = b
"""
    s = parse_semilattice(text)
    assert s.elements == ("a", "b")


def test_parse_conflicting_entry():
    text = "elements: a b\nidentity: a\na * b = b\n  b * a = a\n"
    with pytest.raises(ConflictingEntryError) as exc:
        parse_semilattice(text, source="s.slat")
    assert str(exc.value) == "s.slat:4:11: conflicting products for pair (b, a): b vs a"


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_semilattice("elements: a b\nidentity: a\na * b\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError) as exc:
        parse_semilattice("elements: a b\nidentity: a\na * z = a\n")
    assert exc.value.line == 3 and exc.value.col == 5


@pytest.mark.parametrize("text, line, col, message", [
    # the unknown label is the second word, not the first substring match
    ("elements: ab\nidentity: ab\nab * a = ab\n", 3, 6, "unknown element 'a'"),
    ("elements: a b\nidentity: a\n  b * a = zz # zz\n", 3, 11, "unknown element 'zz'"),
    ("elements: a b\n  elements: a\n", 2, 3, "elements given twice"),
    # a repeated label is a parse error at its second occurrence
    ("elements: ab b  ab\nidentity: ab\n", 1, 17, "duplicate element 'ab'"),
    ("  elements:\n", 1, 3, "empty elements line"),
    ("elements: a\nidentity: a\n identity: a\n", 3, 2, "identity given twice"),
    ("elements: a b\nidentity: a b\n", 2, 13, "identity line needs exactly one label"),
    ("elements: a b\n  identity:\n", 2, 3, "identity line needs exactly one label"),
    ("identity: a\n   a * a = a\n", 2, 4, "product line before elements line"),
    ("elements: a b\nidentity: a\n\t a * b\n", 3, 3, "expected `a * b = c`, got 'a * b'"),
])
def test_parse_error_columns(text, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse_semilattice(text, source="s.slat")
    assert str(exc.value) == f"s.slat:{line}:{col}: {message}"


@pytest.mark.parametrize("text, line, col", [
    ("elements: a b\nidentity: zz\n", 2, 11),
    # the identity line may come first, and a comment may repeat the label
    ("  identity:   zz # zz\nelements: a b\na * b = b\n", 1, 15),
])
def test_parse_unknown_identity_is_positioned(text, line, col):
    with pytest.raises(NoIdentityError) as exc:
        parse_semilattice(text, source="s.slat")
    assert str(exc.value) == f"s.slat:{line}:{col}: identity 'zz' not among the elements"


def outcome(build, *args):
    """What build(*args) returns, or the class and message of the error it raises."""
    try:
        return build(*args)
    except ValueError as exc:
        return type(exc), str(exc)


# Each fault is injected alone, so it decides the error that both readers raise.
TEXT_FAULTS = {
    None: FiniteSemilattice,
    "disagreeing-orientation": ConflictingEntryError,
    "dropped-line": MissingPairError,
    "non-idempotent-diagonal": NotIdempotentError,
    "identity-not-bottom": NoIdentityError,
    "associativity-broken": NotAssociativeError,
    "unknown-label": ParseError,
}


@st.composite
def slat_texts(draw):
    """(fault, text) of a union-closed family in a drawn order, with at most one fault.

    Each unordered pair gets one product line in a drawn orientation
    (diagonal lines optional), some lines are repeated in the other
    orientation, the lines and the identity line are shuffled, and then
    the drawn fault is injected.
    """
    family = draw(st.permutations(draw(union_closed_masks(max_members=10))))
    n = len(family)
    labels = [f"s{x}" for x in family]
    bottom = family.index(0)
    join = {(i, j): family.index(family[i] | family[j]) for i in range(n) for j in range(n)}
    lines = [[i, j] if draw(st.booleans()) else [j, i]
             for i in range(n) for j in range(i, n) if i != j or draw(st.booleans())]
    if lines:
        lines += [line[::-1] for line in draw(st.lists(st.sampled_from(lines), max_size=4))]
    lines = [[i, j, join[i, j]] for i, j in lines]
    identity = bottom
    fault = draw(st.sampled_from(list(TEXT_FAULTS)))
    if fault == "disagreeing-orientation":
        assume(n >= 2)
        i, j, k = draw(st.sampled_from(lines))
        lines.append([j, i, draw(st.sampled_from([x for x in range(n) if x != k]))])
    elif fault == "dropped-line":
        assume(n >= 2)
        pair = draw(st.sampled_from([{i, j} for i, j, _ in lines if i != j]))
        lines = [line for line in lines if {line[0], line[1]} != pair]
    elif fault == "non-idempotent-diagonal":
        assume(n >= 2)
        i = draw(st.integers(0, n - 1))
        lines = [line for line in lines if line[:2] != [i, i]]
        lines.append([i, i, draw(st.sampled_from([x for x in range(n) if x != i]))])
    elif fault == "identity-not-bottom":
        assume(n >= 2)
        identity = draw(st.sampled_from([x for x in range(n) if x != bottom]))
    elif fault == "associativity-broken":
        # op(i, j) = bottom with i, j, bottom distinct: (ij)j = j but i(jj) = bottom
        pairs = [{i, j} for i, j, _ in lines if i != j and bottom not in (i, j)]
        assume(pairs)
        pair = draw(st.sampled_from(pairs))
        lines = [line[:2] + [bottom] if {line[0], line[1]} == pair else line for line in lines]
    lines = draw(st.permutations(lines))
    words = [[labels[x] for x in line] for line in lines]
    if fault == "unknown-label":
        assume(words)
        line = draw(st.sampled_from(words))
        line[draw(st.integers(0, 2))] = "zz"
    body = [f"{a} * {b} = {c}" for a, b, c in words]
    body.insert(draw(st.integers(0, len(body))), f"identity: {labels[identity]}")
    return fault, "\n".join([f"elements: {' '.join(labels)}"] + body) + "\n"


@given(slat_texts())
@settings(max_examples=300, deadline=None)
def test_one_pass_parse_matches_label_keyed_reference(case):
    fault, text = case
    got = outcome(parse_semilattice, text, "s.slat")
    assert got == outcome(label_keyed_parse, text, "s.slat")
    assert (type(got) if isinstance(got, FiniteSemilattice) else got[0]) is TEXT_FAULTS[fault]


@st.composite
def random_slat_texts(draw):
    """Lines drawn freely over a few labels: any mix of faults, in any order."""
    pool = ["a", "b", "c", "zz"]
    elements = draw(st.lists(st.sampled_from(pool[:3]), min_size=1, max_size=4))
    lines = [f"elements: {' '.join(elements)}"]
    lines += [f"{a} * {b} = {c}" for a, b, c in
              draw(st.lists(st.tuples(*[st.sampled_from(pool)] * 3), max_size=12))]
    lines.insert(draw(st.integers(1, len(lines))), f"identity: {draw(st.sampled_from(pool))}")
    return "\n".join(lines) + "\n"


# Every break str.splitlines knows; "\r" then "\n" is one break, as in a file.
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]
GAPS = [" ", "  ", "\t", " \t ", "\t\t  "]
LABELS = ["a", "b", "c", "zz"]


@st.composite
def _spaced(draw, words):
    """words joined by a drawn gap, maybe indented, maybe with a trailing comment."""
    line = draw(st.sampled_from(["", " ", "\t"])) + draw(st.sampled_from(GAPS)).join(words)
    if draw(st.booleans()):
        line += draw(st.sampled_from([" # ", "#", " #a * b = c", " ##"]))
    return line + draw(st.sampled_from(["", " ", "\t"]))


@st.composite
def _free_line(draw):
    """One line of any kind the reader meets, over a few labels, one of them unknown."""
    label = st.sampled_from(LABELS[:3] * 3 + LABELS[3:])
    kind = draw(st.sampled_from(["product"] * 8 + ["elements", "identity", "header-product",
                                                   "malformed", "blank", "comment"]))
    if kind == "product":
        a, b, c = draw(label), draw(label), draw(label)
        return draw(_spaced([a, "*", b, "=", c]))
    if kind == "elements":
        names = draw(st.lists(st.sampled_from(LABELS[:3]), max_size=4))
        if names and draw(st.booleans()):  # the header glued to its first label
            return draw(_spaced(["elements:" + names[0]] + names[1:]))
        return draw(_spaced(["elements:"] + names))
    if kind == "identity":
        return draw(_spaced(["identity:"] + draw(st.lists(label, max_size=2))))
    if kind == "header-product":
        head = draw(st.sampled_from(["elements:", "identity:", "elements:a", "identity:b"]))
        return draw(_spaced([head, "*", draw(label), "=", draw(label)]))
    if kind == "malformed":
        return draw(_spaced(draw(st.sampled_from([
            ["a", "*", "b"], ["a", "+", "b", "=", "c"], ["a", "*", "b", "=", "c", "d"],
            ["a", "*", "b", "c", "="], ["*"], ["a*b=c"]]))))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t ", "   "]))
    return draw(_spaced([])) + "# " + draw(st.sampled_from(["note", "a * b = c", "elements: a"]))


def _joined(draw, lines):
    """Each line ended by a drawn break, then maybe a comment with no break after it."""
    breaks = st.sampled_from(LINE_BREAKS)
    return "".join(line + draw(breaks) for line in lines) + draw(st.sampled_from(["", "# end"]))


@st.composite
def free_texts(draw):
    """Lines of every kind in any order: headers anywhere, twice or missing, products
    before the elements line, unknown labels, repeated, reversed and conflicting pairs.

    Most texts also get a well-formed elements line near the top and an
    identity line at a drawn place, so that texts also reach the laws."""
    lines = draw(st.lists(_free_line(), max_size=10))
    headers = draw(st.sampled_from([0, 1, 2, 2, 2]))  # how many of the pair to insert
    if headers:
        names = draw(st.permutations(LABELS[:draw(st.sampled_from([1, 2, 3, 3, 3]))]))
        lines.insert(draw(st.integers(0, min(1, len(lines)))),
                     draw(_spaced(["elements:"] + names)))
    if headers == 2:
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(_spaced(["identity:", draw(st.sampled_from(names + ["zz"]))])))
    return _joined(draw, lines)


@st.composite
def respaced_slat_texts(draw):
    """A slat_texts case with its gaps, breaks, comments and blank lines redrawn.

    The layout comes from a drawn seed, so a text of 50 lines costs a few draws."""
    _, text = draw(slat_texts())
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    out = []
    for line in text.splitlines():
        out.append(rng.choice(["", " ", "\t"]) + rng.choice(GAPS).join(line.split())
                   + rng.choice(["", "", " ", "\t", " # c", "#a * b = c"]))
        if rng.random() < 0.2:
            out.append(rng.choice(["", "  ", "# note", "\t# a * b = c"]))
    return "".join(line + rng.choice(LINE_BREAKS) for line in out) + rng.choice(["", "# end"])


@given(st.one_of(random_slat_texts(), free_texts(), respaced_slat_texts()))
@settings(max_examples=300, deadline=None)
def test_parse_matches_label_keyed_reference_on_free_texts(text):
    # an equal structure, or the same error class and message
    assert outcome(parse_semilattice, text, "s.slat") == outcome(label_keyed_parse, text, "s.slat")


def test_free_text_strategies_reach_every_outcome():
    # a fixed draw of free_texts and respaced_slat_texts meets passing texts and every
    # error the reader raises, and the reader agrees with label_keyed_parse on each
    seen = set()

    @given(st.one_of(free_texts(), respaced_slat_texts()))
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    def read(text):
        got = outcome(parse_semilattice, text, "s.slat")
        assert got == outcome(label_keyed_parse, text, "s.slat")
        if isinstance(got, FiniteSemilattice):
            seen.add(FiniteSemilattice)
        else:
            seen.add(got[0] if got[0] is not ParseError else got[1].split(": ", 1)[1][:12])

    read()
    assert seen == {FiniteSemilattice, ConflictingEntryError, MissingPairError,
                    NotIdempotentError, NoIdentityError, NotAssociativeError,
                    "unknown elem", "product line", "expected `a ", "elements giv",
                    "identity giv", "missing elem", "missing iden", "duplicate el",
                    "empty elemen", "identity lin"}


@given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4), st.sampled_from("abcz"),
       st.dictionaries(st.tuples(*[st.sampled_from("abcz")] * 2), st.sampled_from("abcz"),
                       max_size=12))
@settings(max_examples=300, deadline=None)
def test_validate_matches_label_keyed_reference(elements, identity, op_table):
    assert (outcome(validate, elements, op_table, identity)
            == outcome(label_keyed_validate, elements, op_table, identity))


# Two faults each: the first error in validate's order is the one raised.
RPS = {("e", "a"): "a", ("e", "b"): "b", ("e", "c"): "c",
       ("a", "b"): "c", ("a", "c"): "b", ("b", "c"): "a"}


@pytest.mark.parametrize("elements, op_table, identity, error, message", [
    (["a", "b", "a"], {}, "z", DuplicateLabelError, "duplicate element 'a'"),
    (["a", "b"], {("a", "b"): "a", ("b", "a"): "b", ("a", "z"): "a"}, "a",
     UnknownLabelError, "op table mentions unknown element 'z'"),
    (["a", "b", "c"], {("a", "a"): "b", ("a", "b"): "b", ("a", "c"): "c"}, "a",
     MissingPairError, "no product given for pair (b, c)"),
    (["e", "a", "b", "c"], RPS, "a", NoIdentityError, "op(a, e) = a, not e"),
])
def test_validate_error_precedence(elements, op_table, identity, error, message):
    with pytest.raises(error) as exc:
        validate(elements, op_table, identity)
    assert type(exc.value) is error and str(exc.value) == message
    assert outcome(label_keyed_validate, elements, op_table, identity) == (error, message)


def test_parse_missing_sections():
    with pytest.raises(ParseError):
        parse_semilattice("identity: a\n")
    with pytest.raises(ParseError):
        parse_semilattice("elements: a\n")


def test_character_support_ordering():
    # canonical order is ascending support size, then lexicographic bits
    for s in corpus.semilattices().values():
        chars = characters(s)
        keys = [(c.support_size, c.values) for c in chars]
        assert keys == sorted(keys)
