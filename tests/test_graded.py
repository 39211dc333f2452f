import contextlib
import dataclasses
import io
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (all_pairs_dual_action, all_pairs_module_algebra,
                     dense_first_nonassociative_triple, dense_ut_structure,
                     loop_graded_product, loop_unit_law_witness, mutated, validated_copy)
from semidual import corpus, graded
from semidual.cli import run
from semidual.errors import ParseError
from semidual.exactlin import Matrix
from semidual.graded import (BadLabelsError, CharacterMismatchError, GradedFDAlgebra,
                             act_character, check_module_algebra,
                             dual_monoid_action, format_algebra_element,
                             homogeneous_components, parse_graded,
                             print_graded, ut_graded, verify_grading)
from semidual.reporting import INFO
from semidual.semilattice import Character, characters, print_semilattice, validate
from test_semilattice import union_closed_families


def ut2():
    return ut_graded(2, [1, 2])


def sample_element(algebra):
    # the matrix [[1, 2], [0, 3]]
    return algebra.element_from_labels({"E11": 1, "E12": 2, "E22": 3})


def trivial_algebra():
    grading = validate(["e"], {}, "e")
    return GradedFDAlgebra(("u",), {(0, 0): {0: Fraction(1)}}, {0: Fraction(1)},
                           grading, (0,))


def test_ut2_layout():
    a = ut2()
    assert a.basis == ("E11", "E12", "E22")
    degrees = [a.grading.label(d) for d in a.degree]
    assert degrees == ["n2", "n2", "n1"]


def test_ut1_trivial_grading_passes():
    report = verify_grading(ut_graded(1, [1]))
    assert report.passed
    assert not [line for line in report.lines if line.status == INFO]


def test_ut3_product_checks():
    a = ut_graded(3, [1, 2, 3])
    e22 = a.element_from_labels({"E22": 1})
    e33 = a.element_from_labels({"E33": 1})
    e23 = a.element_from_labels({"E23": 1})
    assert (e22 * e33).coords == {}
    assert e23 * e33 == e23
    # E23 sits in the second-from-bottom row: degree n2
    assert a.grading.label(a.degree[a.index("E23")]) == "n2"


def test_verify_grading_ut2_passes_with_info():
    report = verify_grading(ut2())
    assert report.passed
    info = [line for line in report.lines if line.status == INFO]
    assert len(info) == 1 and info[0].name == "unit-degrees"


def test_corrupted_unit_fails_the_unit_law(tmp_path):
    a = ut2()
    bad = GradedFDAlgebra(a.basis, a.structure, {a.index("E11"): 1}, a.grading, a.degree)
    failed = [line.render() for line in verify_grading(bad).lines if line.status == "FAIL"]
    assert failed == ["invariant unit-law: FAIL [witness E12]"]

    (tmp_path / "chain2.slat").write_text(print_semilattice(a.grading))
    (tmp_path / "bad.galg").write_text(print_graded(bad, "chain2.slat"))
    out = io.StringIO()
    assert run(["graded", "verify", str(tmp_path / "bad.galg")], out, io.StringIO()) == 1
    assert "invariant unit-law: FAIL [witness E12]" in out.getvalue().splitlines()
    assert out.getvalue().splitlines()[-1] == "grading: FAIL"


def test_verify_grading_trivial():
    assert verify_grading(trivial_algebra()).passed


def test_verify_grading_swapped_degrees_fails():
    a = ut2()
    swapped = GradedFDAlgebra(a.basis, a.structure, a.unit, a.grading,
                              tuple({0: 1, 1: 0}.get(d, d) for d in a.degree))
    report = verify_grading(swapped)
    assert not report.passed
    bad = [line for line in report.lines if line.status == "FAIL"]
    assert bad and bad[0].name == "grading-law" and bad[0].witness


def test_homogeneous_components_split_by_row():
    a = ut2()
    parts = homogeneous_components(sample_element(a))
    by_label = {a.grading.label(d): part for d, part in parts.items()}
    assert by_label["n1"].coords == {a.index("E22"): 3}
    assert by_label["n2"].coords == {a.index("E11"): 1, a.index("E12"): 2}
    total = sum(parts.values(), a.element({}))
    assert total == sample_element(a)


def test_homogeneous_components_zero_and_basis():
    a = ut2()
    assert homogeneous_components(a.element({})) == {}
    single = homogeneous_components(a.element_from_labels({"E12": 1}))
    assert list(single.values())[0] == a.element_from_labels({"E12": 1})


def test_act_character_projects_bottom_corner():
    a = ut2()
    f1, f2 = characters(a.grading)
    acted = act_character(f1, sample_element(a))
    assert format_algebra_element(acted) == "E22:3"
    assert act_character(f2, sample_element(a)) == sample_element(a)


def test_act_constant_one_character_is_identity():
    a = ut_graded(3, [2, 5, 9])
    top = characters(a.grading)[-1]
    assert top.values == (1, 1, 1)
    x = a.element_from_labels({"E11": 1, "E13": Fraction(-3, 2), "E22": 7})
    assert act_character(top, x) == x


def test_act_character_mismatch():
    a = ut2()
    other = characters(ut_graded(3, [1, 2, 3]).grading)[0]
    with pytest.raises(CharacterMismatchError):
        act_character(other, sample_element(a))


@pytest.mark.parametrize("values", [
    (True, False), (True, True), (1, False), (1.0, 0), (1, 1.0), (Fraction(1), 0),
    (1, Fraction(0)),
])
def test_character_values_other_than_the_ints_0_and_1_are_refused(values):
    # the same values as the ints 1 and 0 are the characters of the chain n1 < n2
    grading = ut2().grading
    assert Character(tuple(int(v) for v in values)).is_character_of(grading)
    assert not Character(values).is_character_of(grading)
    with pytest.raises(CharacterMismatchError):
        act_character(Character(values), sample_element(ut2()))


def test_module_algebra_ut2():
    report = check_module_algebra(ut2())
    assert report.passed
    info = [line for line in report.lines if line.status == INFO]
    assert len(info) == 1


def test_module_algebra_trivial_has_strict_unit_law():
    report = check_module_algebra(trivial_algebra())
    assert report.passed
    assert not [line for line in report.lines if line.status == INFO]
    assert any(line.name.endswith("unit-law") for line in report.lines)


def test_module_algebra_ut4_all_characters():
    report = check_module_algebra(ut_graded(4, [1, 2, 3, 4]))
    assert report.passed
    mult_lines = [line for line in report.lines if line.name.endswith("multiplicative")]
    assert len(mult_lines) == 4


def _monoid_algebra(s):
    """k[S] graded by S: basis u_s in degree s, u_s u_t = u_{st}, unit u_e."""
    n = len(s)
    structure = {(i, j): {s.op(i, j): 1} for i in range(n) for j in range(n)}
    return GradedFDAlgebra([f"u{i}" for i in range(n)], structure, {s.identity: 1},
                           s, range(n))


def test_dual_action_ut2_matrices():
    action = dual_monoid_action(ut2())
    assert action.report.passed
    g1 = action.matrices["f1"]
    g2 = action.matrices["f2"]
    assert g2 == Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert g1.matmul(g1) == g1           # f1 f1 = f1
    assert g1.matmul(g2) == g1           # f1 f2 = f1
    # gamma_f1 projects onto the bottom-right corner
    assert g1 == Matrix.from_rows([[0, 0, 0], [0, 0, 0], [0, 0, 1]])


@pytest.mark.parametrize("algebra", [ut_graded(m, list(range(1, m + 1))) for m in range(2, 7)]
                         + [_monoid_algebra(corpus.boolean_lattice(2)),
                            _monoid_algebra(corpus.load_semilattice("div12"))])
def test_dual_action_builds_its_matrices_on_first_access(monkeypatch, algebra):
    built = []
    true_init = Matrix.__init__

    def counting_init(self, *args):
        built.append(args)
        true_init(self, *args)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    action = dual_monoid_action(algebra)
    assert built == []
    n, basis = algebra.dim, [algebra.element({j: 1}) for j in range(algebra.dim)]
    columns = {name: Matrix.from_rows([[act_character(f, b).coeffs.get(i, 0) for b in basis]
                                       for i in range(n)])
               for name, f in zip(action.labels, characters(algebra.grading))}
    built.clear()
    matrices = action.matrices
    assert matrices == columns
    assert len(built) == len(columns)
    assert action.matrices is matrices  # a planted entry stays in place
    assert len(built) == len(columns)  # and nothing is built again
    for name in ("words", "matrices"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(action, name, {})


def _corrupted_words(corrupt):
    """A patch of _keep_words: each character's true word, then corrupt(word)."""
    true_words = graded._keep_words
    return mock.patch.object(graded, "_keep_words",
                             lambda *args: [corrupt(word) for word in true_words(*args)])


def _drop_bit(i):
    return lambda word: word & ~(1 << i)


def test_dropped_coordinate_is_caught():
    algebra = ut_graded(3, [1, 2, 3])
    with _corrupted_words(_drop_bit(0)):
        lines = dual_monoid_action(algebra).report.render().splitlines()
    assert "action identity-character: FAIL" in lines


@st.composite
def projection_faults(draw, algebra):
    """corrupt(word) for a drawn fault on this algebra's character words, or None for none."""
    n, kind = algebra.dim, draw(st.sampled_from(["none", "drop", "add", "flip"]))
    if kind == "none":
        return None
    i = draw(st.integers(0, n - 1))
    if kind == "drop":
        return _drop_bit(i)
    if kind == "add":
        return lambda word: word | 1 << i
    target = _true_words(algebra)[draw(st.integers(0, len(algebra.grading) - 1))]
    return lambda word: word ^ 1 << i if word == target else word


@st.composite
def ut_or_monoid_algebras(draw):
    """ut_graded(1..8) or k[S] for a drawn union-closed family S."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 8))
        return ut_graded(m, list(range(1, m + 1)))
    return _monoid_algebra(draw(union_closed_families(max_members=8)))


@st.composite
def graded_algebras_with_faults(draw):
    algebra = draw(ut_or_monoid_algebras())
    return algebra, draw(projection_faults(algebra))


def _reports_and_oracle(algebra, corrupt=None):
    """The rendered dual_monoid_action and check_module_algebra reports, and the oracle's.

    corrupt(word) follows the true word of each character behind the
    action; the all-pairs oracle acts through act_character, which
    projects through the same corrupted word.
    """
    with contextlib.nullcontext() if corrupt is None else _corrupted_words(corrupt):
        got = (dual_monoid_action(algebra).report, check_module_algebra(algebra))
        want = (all_pairs_dual_action(algebra), all_pairs_module_algebra(algebra))
    return [r.render() for r in got], [r.render() for r in want]


@given(graded_algebras_with_faults())
@settings(max_examples=60, deadline=None)
def test_action_reports_match_all_pairs_oracle(case):
    got, want = _reports_and_oracle(*case)
    assert got == want


def _true_words(algebra):
    """The word of each character, in characters() order: bit j set iff it keeps b_j."""
    return [sum(1 << j for j, d in enumerate(algebra.degree) if f(d) == 1)
            for f in characters(algebra.grading)]


# the FAIL lines of dual_monoid_action with the flipped bit, by the first basis label
_FLIPPED_FAILS = {
    # f2 also keeps E12, but not E11, and E11 E12 = E12
    "E11": ["endomorphism f2 multiplicative: FAIL [witness ('E11', 'E12')]"],
    # f1 also keeps u1: still a down-set, but the word of f3, so f1 f2 = f1 breaks
    "u0": ["action composition: FAIL [witness ('f1', 'f2')]"],
}


@pytest.mark.parametrize("algebra, character, bit", [
    (ut_graded(3, [1, 2, 3]), 1, 1),
    (_monoid_algebra(corpus.boolean_lattice(2)), 0, 1),
])
def test_flipped_word_bit_is_caught(algebra, character, bit):
    target = _true_words(algebra)[character]
    got, want = _reports_and_oracle(algebra, lambda word: word ^ 1 << bit if word == target
                                    else word)
    assert got == want
    assert ([line for line in got[0].splitlines() if "FAIL" in line]
            == _FLIPPED_FAILS[algebra.basis[0]])


def test_dropped_unit_coordinate_on_a_monoid_algebra_is_pinned():
    # dropping u0 from every word keeps every action a coordinate projection,
    # one that kills the unit u0
    algebra = _monoid_algebra(corpus.boolean_lattice(2))
    multiplicative = ["f1 multiplicative: PASS",
                      "f2 multiplicative: FAIL [witness ('u0', 'u2')]",
                      "f3 multiplicative: FAIL [witness ('u0', 'u1')]",
                      "f4 multiplicative: FAIL [witness ('u0', 'u1')]"]
    with _corrupted_words(_drop_bit(0)):
        assert dual_monoid_action(algebra).report.render().splitlines() == [
            *(f"endomorphism {line}" for line in multiplicative),
            *(f"endomorphism f{c} unital: FAIL" for c in range(1, 5)),
            "action composition: PASS",
            "action identity-character: FAIL",
        ]
        assert check_module_algebra(algebra).render().splitlines() == [
            *(f"character {line}" for line in multiplicative),
            *(f"character f{c} unit-law: FAIL" for c in range(1, 5)),
        ]


def test_dropped_term_of_a_two_term_unit_is_caught():
    # k[S] x k[S]: basis u_s, w_s, the copies multiply to 0 with each other,
    # and the unit u_e + w_e lies in the identity degree, so the strict unit
    # law applies; dropping u_e from every word breaks it for every character
    s = corpus.boolean_lattice(2)
    n = len(s)
    structure = {(c * n + i, c * n + j): {c * n + s.op(i, j): 1}
                 for c in (0, 1) for i in range(n) for j in range(n)}
    algebra = GradedFDAlgebra([f"{x}{i}" for x in "uw" for i in range(n)], structure,
                              {s.identity: 1, n + s.identity: 1}, s, [*range(n), *range(n)])
    got, want = _reports_and_oracle(algebra, _drop_bit(s.identity))
    assert got == want
    assert [line for line in got[1].splitlines() if "unit-law" in line] == [
        f"character f{c} unit-law: FAIL" for c in range(1, n + 1)]


@given(ut_or_monoid_algebras())
@settings(max_examples=40, deadline=None)
def test_action_images_are_the_character_action_on_the_basis(algebra):
    action = dual_monoid_action(algebra)
    chars = characters(algebra.grading)
    n = algebra.dim
    assert action.labels == [f"f{c}" for c in range(1, len(chars) + 1)]
    assert len(action.words) == len(chars)
    for name, f, word in zip(action.labels, chars, action.words):
        bits = [word >> j & 1 for j in range(n)]
        assert [act_character(f, algebra.element({j: 1})) for j in range(n)] == [
            algebra.element({j: 1} if bit else {}) for j, bit in enumerate(bits)]
        assert word >> n == 0
        assert action.matrices[name] == Matrix.from_rows(
            [[bits[j] if i == j else 0 for j in range(n)] for i in range(n)])


def test_unit_law_sums_cancel_exactly():
    # k[chain2] on the basis v0 = u0 + u1, v1 = u1: the unit is v0 - v1, and
    # 1 v0 = (v0 + 2 v1) - 2 v1 leaves a zero coordinate on v1 that must vanish
    grading = validate(["a", "b"], {("a", "b"): "b"}, "a")
    structure = {(0, 0): {0: 1, 1: 2}, (0, 1): {1: 2}, (1, 0): {1: 2}, (1, 1): {1: 1}}
    algebra = GradedFDAlgebra(("v0", "v1"), structure, {0: 1, 1: -1}, grading, (0, 1))
    assert loop_unit_law_witness(algebra) is None
    lines = [line.render() for line in verify_grading(algebra).lines]
    assert "invariant unit-law: PASS" in lines
    assert "invariant grading-law: FAIL [witness ('v0', 'v0', 'v1')]" in lines


def _rescaled(algebra, scale):
    """The same algebra on the basis scale[i] b_i: rational constants, the same laws."""
    structure = {(i, j): {k: c * scale[i] * scale[j] / scale[k] for k, c in vec.items()}
                 for (i, j), vec in algebra.structure.items()}
    unit = {k: c / scale[k] for k, c in algebra.unit.items()}
    return GradedFDAlgebra(algebra.basis, structure, unit, algebra.grading, algebra.degree)


_NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


_UNIT_EDGES = ("none", "row", "column", "one-side")


def _unit_edge(algebra, kind, rng, change):
    """The algebra with the stored products of one unit term's row or column deleted, or
    change(vec) in place of one stored product vec with a unit term as exactly one factor.

    "row" and "column" leave a unit term whose row or column holds no
    stored product; "one-side" changes a product that only one of the
    unit's left and right actions reads. An algebra with no unit term or
    no such product comes back as it is.
    """
    structure, unit = dict(algebra.structure), algebra.unit
    if kind in ("row", "column") and unit:
        u, side = rng.choice(sorted(unit)), kind == "column"
        structure = {key: vec for key, vec in structure.items() if key[side] != u}
    elif kind == "one-side":
        one_sided = [key for key in sorted(structure) if (key[0] in unit) != (key[1] in unit)]
        if one_sided:
            key = rng.choice(one_sided)
            structure[key] = change(structure[key])
    return GradedFDAlgebra(algebra.basis, structure, unit, algebra.grading, algebra.degree)


@st.composite
def perturbed_units(draw):
    """ut_graded(1..6) or a k[S], maybe rescaled, its unit left alone or with one term
    dropped, added or scaled, then maybe with a unit edge of _unit_edge: a unit term's
    row or column emptied, or a product with a unit factor on one side only rescaled."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 6))
        algebra = ut_graded(m, list(range(1, m + 1)))
    else:
        algebra = _monoid_algebra(draw(union_closed_families(max_members=8)))
    if draw(st.booleans()):
        algebra = _rescaled(algebra, draw(st.lists(_NONZERO, min_size=algebra.dim,
                                                   max_size=algebra.dim)))
    unit = dict(algebra.unit)
    kind = draw(st.sampled_from(["none", "drop", "add", "scale"]))
    if kind == "drop":
        del unit[draw(st.sampled_from(sorted(unit)))]
    elif kind == "add":
        i = draw(st.integers(0, algebra.dim - 1))
        unit[i] = unit.get(i, 0) + draw(_NONZERO)
    elif kind == "scale":
        i = draw(st.sampled_from(sorted(unit)))
        unit[i] *= draw(_NONZERO)
    algebra = GradedFDAlgebra(algebra.basis, algebra.structure, unit, algebra.grading,
                              algebra.degree)
    scale = draw(_NONZERO)
    return _unit_edge(algebra, draw(st.sampled_from(_UNIT_EDGES)),
                      draw(st.randoms(use_true_random=False)),
                      lambda vec: {k: v * scale for k, v in vec.items()})


@given(perturbed_units())
@settings(max_examples=80, deadline=None)
def test_unit_law_matches_loop_oracle(algebra):
    witness = loop_unit_law_witness(algebra)
    want = f"invariant unit-law: FAIL [witness {witness}]" if witness else "invariant unit-law: PASS"
    assert [line.render() for line in verify_grading(algebra).lines
            if line.name == "unit-law"] == [want]


def test_dual_action_chain_gradings():
    for m in range(1, 5):
        action = dual_monoid_action(ut_graded(m, list(range(1, m + 1))))
        assert action.report.passed


def test_ut_bad_labels():
    for m, labels, message in [
        (2, [2, 1], "labels must be strictly increasing"),
        (2, [1], "need exactly 2 labels, got 1"),
        (0, [], "size must be at least 1"),
        (2, [1, 1], "labels must be strictly increasing"),
        (2, [-1, 2], "labels must be naturals"),
        # bool is a subclass of int, but True is no natural
        (2, [True, 2], "labels must be naturals"),
        (2, [0, False], "labels must be naturals"),
    ]:
        with pytest.raises(BadLabelsError, match=re.escape(message)):
            ut_graded(m, labels)


def test_ut_refuses_colliding_labels_before_building(monkeypatch):
    # from m = 111 on, E1111 names both E(11,11) and E(1,111)
    built = []
    monkeypatch.setattr(graded, "_ut_products", lambda *args: built.append("products"))
    monkeypatch.setattr(graded, "FiniteSemilattice", lambda *args: built.append("grading"))
    for m in (111, 400):
        with pytest.raises(BadLabelsError, match="^duplicate basis labels$"):
            ut_graded(m, range(1, m + 1))
    assert built == []


@pytest.mark.parametrize("structure, unit, message", [
    ({(0, 0): {3: 1}}, {0: 1}, "product (0, 0) uses index 3 outside the basis"),
    ({(0, 0): {0: 1}}, {2: 1}, "unit index 2 outside the basis"),
    ({(5, 0): {0: 1}}, {0: 1}, "product (5, 0) uses index 5 outside the basis"),
])
def test_indices_outside_the_basis_are_rejected(structure, unit, message):
    grading = validate(["e"], {}, "e")
    with pytest.raises(BadLabelsError, match=re.escape(message)):
        GradedFDAlgebra(("u",), structure, unit, grading, (0,))


@pytest.mark.parametrize("basis, degree, message", [
    (("u", "u"), (0, 0), "duplicate basis labels"),
    (("u", "v"), (0,), "degree map must cover the whole basis"),
    (("u",), (1,), "degree index 1 outside the grading semilattice"),
    (("u",), (-1,), "degree index -1 outside the grading semilattice"),
])
def test_bad_basis_or_degree_map_is_rejected(basis, degree, message):
    grading = validate(["e"], {}, "e")
    with pytest.raises(BadLabelsError, match=re.escape(message)):
        GradedFDAlgebra(basis, {}, {0: 1}, grading, degree)


def test_only_nonzero_products_are_stored():
    grading = validate(["e"], {}, "e")
    a = GradedFDAlgebra(("u", "x"), {(1, 1): {0: 0}, (0, 1): {1: 1}, (0, 0): {0: 1, 1: 0}},
                        {0: 1}, grading, (0, 0))
    assert a.structure == {(0, 0): {0: 1}, (0, 1): {1: 1}}
    assert list(a.structure) == [(0, 0), (0, 1)]
    assert a.mul_basis(1, 1) == {} and a.mul_basis(1, 0) == {}


@pytest.mark.parametrize("m", range(1, 9))
def test_ut_graded_matches_dense_construction(m):
    a = ut_graded(m, list(range(1, m + 1)))
    assert a.structure == dense_ut_structure(m)
    assert len(a.structure) == m * (m + 1) * (m + 2) // 6


@pytest.mark.parametrize("m", range(1, 13))
def test_ut_grading_equals_its_validated_table(m):
    # ut_graded builds the chain as max on indices; validate re-checks the laws
    grading = ut_graded(m, [2 * v + 1 for v in range(m)]).grading
    assert validated_copy(grading) == grading
    assert grading.elements == tuple(f"n{2 * v + 1}" for v in range(m))
    assert grading.label(grading.identity) == "n1"


_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2))


def _random_algebra(rng):
    """A rescaled monoid algebra k[S] (associative) or random sparse constants."""
    if rng.random() < 0.2:
        s = rng.choice([corpus.chain(m) for m in range(1, 6)] + [corpus.boolean_lattice(2)])
        n = len(s)
        scale = [rng.choice(_COEFFS) for _ in range(n)]
        structure = {(i, j): {s.op(i, j): scale[i] * scale[j] / scale[s.op(i, j)]}
                     for i in range(n) for j in range(n)}
        return GradedFDAlgebra([f"b{i}" for i in range(n)], structure,
                               {s.identity: 1 / scale[s.identity]}, s, range(n))
    s = rng.choice([corpus.chain(2), corpus.chain(3), corpus.boolean_lattice(2)])
    n = rng.randint(1, 5)
    density = rng.random()
    structure = {(i, j): {k: rng.choice(_COEFFS)
                          for k in rng.sample(range(n), rng.randint(1, min(2, n)))}
                 for i in range(n) for j in range(n) if rng.random() < density}
    unit = {k: rng.choice(_COEFFS) for k in rng.sample(range(n), rng.randint(0, n))}
    return GradedFDAlgebra([f"b{i}" for i in range(n)], structure, unit, s,
                           [rng.randrange(len(s)) for _ in range(n)])


def test_associativity_witness_matches_dense_search():
    rng = random.Random(41)
    failing = 0
    for _ in range(320):
        algebra = _random_algebra(rng)
        line = verify_grading(algebra).lines[0]
        want = dense_first_nonassociative_triple(algebra)
        assert line.name == "associativity"
        assert (line.status, line.witness) == (
            ("FAIL", f"[witness {want}]") if want else ("PASS", ""))
        failing += want is not None
    assert 160 < failing < 270  # most fail, and at least 50 are associative


_SCALES = (1, 2, -1, Fraction(1, 2), Fraction(-2, 3))


def _rescaled_monoid_algebra(s, scale):
    """k[S] in the basis scale[i] u_i: associative, with int and Fraction constants."""
    n = len(s)
    structure = {(i, j): {s.op(i, j): Fraction(scale[i] * scale[j]) / scale[s.op(i, j)]}
                 for i in range(n) for j in range(n)}
    return GradedFDAlgebra([f"b{i}" for i in range(n)], structure,
                           {s.identity: 1 / Fraction(scale[s.identity])}, s, range(n))


def _one_fault(algebra, rng):
    """The algebra with one stored product rescaled or deleted, or one coefficient set."""
    structure = dict(algebra.structure)
    kind = rng.choice(["scale", "delete", "set"])
    if kind == "set":
        key = (rng.randrange(algebra.dim), rng.randrange(algebra.dim))
        structure[key] = {**structure.get(key, {}), rng.randrange(algebra.dim): rng.choice(_SCALES)}
    else:
        key = rng.choice(sorted(structure))
        if kind == "delete":
            del structure[key]
        else:
            structure[key] = {k: v * rng.choice(_SCALES[1:]) for k, v in structure[key].items()}
    return GradedFDAlgebra(algebra.basis, structure, algebra.unit, algebra.grading,
                           algebra.degree)


def _monomial_fault(algebra, rng, kind):
    """The algebra with one stored product redirected to another basis vector, or deleted.

    Every stored product stays one basis vector with coefficient 1, so
    the copy still goes through the monomial certificate of verify_grading.
    """
    structure = dict(algebra.structure)
    key = rng.choice(sorted(structure))
    if kind == "redirect":
        structure[key] = {rng.choice([k for k in range(algebra.dim) if k not in structure[key]]): 1}
    else:
        del structure[key]
    return GradedFDAlgebra(algebra.basis, structure, algebra.unit, algebra.grading,
                           algebra.degree)


def _wide_oracle_cases():
    """ut_graded(m), m <= 8, and k[S] on chain8 and bool3, each with and without a fault.

    The k[S] are rescaled (not monomial) or plain (monomial); the faults
    rescale, delete, set, or redirect one stored product.
    """
    rng = random.Random(47)
    out = []
    for m in range(1, 9):
        ut = ut_graded(m, list(range(1, m + 1)))
        out += [ut] + [_one_fault(ut, rng) for _ in range(3)]
    for s in (corpus.chain(8), corpus.boolean_lattice(3)):
        for _ in range(3):
            ks = _rescaled_monoid_algebra(s, [rng.choice(_SCALES) for _ in range(len(s))])
            out += [ks] + [_one_fault(ks, rng) for _ in range(2)]
    rng = random.Random(53)
    monomial = [ut_graded(m, list(range(1, m + 1))) for m in range(2, 9)]
    for algebra in monomial + [_monoid_algebra(s) for s in (corpus.chain(8),
                                                            corpus.boolean_lattice(3))]:
        out += [_monomial_fault(algebra, rng, kind) for kind in ("redirect", "redirect", "delete")]
    return out


def _witness_mismatches(verify, algebras):
    """The algebras where verify's associativity line disagrees with the dense search."""
    out = []
    for algebra in algebras:
        want = dense_first_nonassociative_triple(algebra)
        line = verify(algebra).lines[0]
        if (line.status, line.witness) != (("FAIL", f"[witness {want}]") if want else ("PASS", "")):
            out.append(algebra)
    return out


def test_associativity_witness_matches_dense_search_up_to_ut8():
    cases = _wide_oracle_cases()
    failing = sum(dense_first_nonassociative_triple(a) is not None for a in cases)
    assert 20 < failing < len(cases) - 14  # both outcomes are well represented
    mixed = [a for a in cases if {v.denominator == 1 for vec in a.structure.values()
                                  for v in vec.values()} == {True, False}]
    assert len(mixed) > 10  # int and Fraction constants in one algebra
    assert _witness_mismatches(verify_grading, cases) == []


@pytest.mark.parametrize("old, new", [
    # drop the right-hand side b_i (b_j b_k)
    ("for m, out in rows[i].items():", "for m, out in ():"),
    # walk the right side only where (i, j) is stored, skipping right-only triples
    ("for j, k, c in into[m]:", "for j, k, c in (t for t in into[m] if t[0] in rows[i]):"),
    # certify a monomial left factor when the two sides are nonzero at the same (j, k) only
    ("{j: prod[m] for j, m in prod[i].items() if prod[m]} == right:",
     "{j: prod[m].keys() for j, m in prod[i].items() if prod[m]}"
     " == {j: row.keys() for j, row in right.items()}:"),
    # build the monomial right side only where (i, j) is stored
    ("for j, k in made[m]:", "for j, k in (jk for jk in made[m] if jk[0] in prod[i]):"),
])
def test_wide_associativity_oracle_catches_a_broken_certificate(old, new):
    assert _witness_mismatches(mutated(verify_grading, old, new), _wide_oracle_cases())


@st.composite
def monomial_algebras(draw):
    """ut_graded(m) or k[S], as it is or with one stored product redirected or deleted,
    or with a unit edge of _unit_edge: a unit term's row or column emptied, or a product
    with a unit factor on one side only redirected; every product stays monomial."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 7))
        algebra = ut_graded(m, list(range(1, m + 1)))
    else:
        algebra = _monoid_algebra(draw(union_closed_families(max_members=8)))
    kinds = ["none", "delete"] + ["redirect"] * (algebra.dim > 1)
    kind = draw(st.sampled_from(kinds + ["edge"]))
    rng = draw(st.randoms(use_true_random=False))
    if kind == "none":
        return algebra
    if kind == "edge":
        dim = algebra.dim
        return _unit_edge(algebra, draw(st.sampled_from(_UNIT_EDGES)), rng,
                          lambda vec: {rng.choice([k for k in range(dim) if k not in vec]
                                                  or list(vec)): 1})
    return _monomial_fault(algebra, rng, kind)


@given(monomial_algebras())
@settings(max_examples=80, deadline=None)
def test_monomial_certificate_matches_dense_search(algebra):
    assert _witness_mismatches(verify_grading, [algebra]) == []
    witness = loop_unit_law_witness(algebra)
    assert verify_grading(algebra).lines[1].render() == (
        f"invariant unit-law: FAIL [witness {witness}]" if witness else "invariant unit-law: PASS")


@pytest.mark.parametrize("algebra", [ut_graded(8, list(range(1, 9))),
                                     _monoid_algebra(corpus.boolean_lattice(3))])
def test_monomial_certificate_needs_no_walk_when_associative(algebra):
    walkless = mutated(verify_grading, "diff = {}", "raise AssertionError('walked')")
    assert walkless(algebra).lines[0].status == "PASS"


def test_product_matches_loop_oracle():
    rng = random.Random(43)
    for _ in range(200):
        algebra = _random_algebra(rng)
        x, y = (algebra.element({i: rng.choice(_COEFFS) for i in
                                 rng.sample(range(algebra.dim), rng.randint(0, algebra.dim))})
                for _ in range(2))
        assert (x * y).coeffs == loop_graded_product(x, y)


def test_verify_grading_ut_family():
    for m in range(1, 6):
        assert verify_grading(ut_graded(m, list(range(1, m + 1)))).passed


def test_action_properties_random_elements():
    rng = random.Random(23)
    a = ut_graded(3, [1, 2, 3])
    chars = characters(a.grading)
    lookup = {ch.values: ch for ch in chars}
    pool = [Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(3)]
    for _ in range(30):
        def rand_elem():
            support = rng.sample(range(a.dim), rng.randint(1, a.dim))
            return a.element({i: rng.choice(pool) for i in support})
        x, y = rand_elem(), rand_elem()
        for f in chars:
            assert act_character(f, x * y) == act_character(f, x) * act_character(f, y)
            assert act_character(f, act_character(f, x)) == act_character(f, x)
            for g in chars:
                fg = lookup[f.pointwise_mul(g).values]
                assert act_character(fg, x) == act_character(f, act_character(g, x))


def test_components_are_homogeneous():
    rng = random.Random(29)
    a = ut_graded(4, [1, 2, 3, 4])
    for _ in range(10):
        support = rng.sample(range(a.dim), rng.randint(1, a.dim))
        x = a.element({i: Fraction(rng.randint(1, 5)) for i in support})
        parts = homogeneous_components(x)
        assert sum(parts.values(), a.element({})) == x
        for d, part in parts.items():
            assert {a.degree[i] for i in part.coords} == {d}


def test_print_parse_round_trip():
    a = ut2()
    text = print_graded(a, "chain2.slat")
    parsed = parse_graded(text, slat_loader=lambda ref: a.grading)
    assert parsed == a


def test_print_parse_round_trip_with_rationals():
    grading = validate(["e"], {}, "e")
    a = GradedFDAlgebra(("u", "x"),
                        {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)},
                         (1, 0): {1: Fraction(1)}, (1, 1): {1: Fraction(1, 2)}},
                        {0: Fraction(1)}, grading, (0, 0))
    assert verify_grading(a).passed
    text = print_graded(a, "point.slat")
    assert "x:1/2" in text
    parsed = parse_graded(text, slat_loader=lambda ref: grading)
    assert parsed == a


def test_parse_graded_errors():
    grading = validate(["e"], {}, "e")
    loader = lambda ref: grading
    with pytest.raises(ParseError):
        parse_graded("unit: u:1\nsemilattice: x\ndegree u e\n", slat_loader=loader)
    with pytest.raises(ParseError):
        parse_graded("basis: u\nunit: u:1\nsemilattice: x\n", slat_loader=loader)
    with pytest.raises(ParseError):
        parse_graded("basis: u\nunit: u:1\nsemilattice: x\ndegree u e\nmul u u = u:1\nmul u u = u:2\n",
                     slat_loader=loader)
    with pytest.raises(ParseError, match="<input>:3:2: no semilattice loader available"):
        parse_graded("basis: u\nunit: u:1\n semilattice: x\n")


@pytest.mark.parametrize("old, new, line, message, col", [
    ("degree E22 n1", "degree E99 n1", 6, "unknown basis element 'E99'", 8),
    ("mul E11 E12 = E12:1", "mul E11 E12 = E13:1", 8, "unknown basis element 'E13'", 15),
    ("unit: E11:1 E22:1", "unit: E11:1 E33:1", 2, "unknown basis element 'E33'", 13),
    ("degree E11 n2", "degree E11 n9", 4, "unknown degree element 'n9'", 12),
])
def test_parse_graded_unknown_labels_are_positioned(old, new, line, message, col):
    text = print_graded(ut2(), "chain2.slat")
    assert old in text.splitlines()
    with pytest.raises(ParseError) as info:
        parse_graded(text.replace(old, new), source="bad.galg",
                     slat_loader=lambda ref: ut2().grading)
    assert (info.value.line, info.value.message) == (line, message)
    assert str(info.value) == f"bad.galg:{line}:{col}: {message}"


def test_parse_graded_file_resolves_sibling(tmp_path):
    from semidual.graded import parse_graded_file
    a = ut2()
    (tmp_path / "chain2.slat").write_text(print_semilattice(a.grading))
    (tmp_path / "ut2.galg").write_text(print_graded(a, "chain2.slat"))
    parsed = parse_graded_file(str(tmp_path / "ut2.galg"))
    assert parsed == a


POINT = validate(["e"], {}, "e")
POINT_GALG = ["basis: u v", "unit: u:1", "semilattice: point.slat",
              "degree u e", "degree v e", "mul u u = u:1"]


def parse_point(lines, loader=lambda ref: POINT):
    return parse_graded("\n".join(lines) + "\n", source="p.galg", slat_loader=loader)


@pytest.mark.parametrize("header", ["basis: u", "unit: u:1", "semilattice: point.slat"])
def test_parse_graded_rejects_repeated_header(header):
    # a repeated header is an error, never read over the first one (basis u v
    # then basis u would leave ('u',), which this file's degree lines fit)
    lines = ["basis: u v", "unit: u:1", "semilattice: point.slat", "degree u e", "mul u u = u:1"]
    calls = []

    def loader(ref):
        calls.append(ref)
        return POINT

    with pytest.raises(ParseError) as info:
        parse_point(lines[:3] + [f"  {header}"] + lines[3:], loader)
    name = header.partition(":")[0]
    assert str(info.value) == f"p.galg:4:3: {name} given twice"
    assert len(calls) <= 1


@pytest.mark.parametrize("index, new, line, col, message", [
    (3, "   degree u n9", 4, 13, "unknown degree element 'n9'"),
    (3, "  degree u", 4, 3, "degree line needs basis label and element"),
    (3, "degree u e extra", 4, 12, "degree line needs basis label and element"),
    (5, " mul u = u:1", 6, 2, "mul line needs two factors"),
    (5, "mul u v w = u:1", 6, 9, "mul line needs two factors"),
    (5, "mul u v u:1", 6, 1, "mul line needs `= products`"),
    (5, "  bogus line", 6, 3, "unrecognized line 'bogus line'"),
    (5, "mul u v = u:1 + v:1/0", 6, 19, "bad rational '1/0'"),
    (1, "unit: u:1 v:x", 2, 13, "bad rational 'x'"),
    (5, "mul u v = u:1 +v", 6, 16, "expected label:rational, got 'v'"),
    (5, "mul u w = u:1", 6, 7, "unknown basis element 'w'"),
    (5, "mul u v = u:1+w:2", 6, 15, "unknown basis element 'w'"),
    (4, "degree u e", 1, 10, "no degree for basis element 'v'"),
    (5, "mul u u = u:1\n  mul u u = v:1", 7, 7, "duplicate mul line for ('u', 'u')"),
    (1, "", 1, 1, "missing unit line"),
    (2, "", 1, 1, "missing semilattice line"),
])
def test_parse_graded_errors_are_positioned(index, new, line, col, message):
    lines = list(POINT_GALG)
    lines[index] = new
    with pytest.raises(ParseError) as info:
        parse_point(lines)
    assert str(info.value) == f"p.galg:{line}:{col}: {message}"


@pytest.mark.parametrize("index, new, line, col, message", [
    # a second degree line for a label is refused, not read over the first
    (4, "degree v e\n  degree  v e", 6, 11, "degree of 'v' given twice"),
    # a label named twice in one term list is refused, not kept as its last value
    (5, "mul u u = u:1 + u:2", 6, 17, "'u' named twice in one term list"),
    (5, "mul u u = u:1+v:1+u:1", 6, 19, "'u' named twice in one term list"),
    (1, "unit: u:1  u:1", 2, 12, "'u' named twice in one term list"),
    # a repeated basis label is a parse error at its second occurrence
    (0, "basis: u v  u", 1, 13, "duplicate basis element 'u'"),
])
def test_parse_graded_rejects_repeated_entries(index, new, line, col, message):
    lines = list(POINT_GALG)
    lines[index] = new
    with pytest.raises(ParseError) as info:
        parse_point(lines)
    assert str(info.value) == f"p.galg:{line}:{col}: {message}"


def test_parse_graded_reads_glued_terms_before_a_comment():
    lines = POINT_GALG[:5] + ["mul u u=u:1+v:-1/2 # mul u u = u:2"]
    assert parse_point(lines).structure == {(0, 0): {0: 1, 1: Fraction(-1, 2)}}


@pytest.mark.parametrize("command", ["module-algebra", "action-table"])
def test_verifiers_refuse_an_ungraded_algebra(tmp_path, command):
    # (u u) u = v u = u but u (u u) = u v = 0
    (tmp_path / "point.slat").write_text(print_semilattice(POINT))
    path = tmp_path / "bad.galg"
    path.write_text("\n".join(POINT_GALG[:5] + ["mul u u = v:1", "mul v u = u:1"]))
    out, err = io.StringIO(), io.StringIO()
    assert run(["graded", command, str(path)], out, err) == 2
    assert out.getvalue() == ""
    assert err.getvalue() == "error: algebra does not pass verify_grading\n"
