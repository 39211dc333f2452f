import pytest

from semidual import corpus
from semidual.bialgebra import congruence_closure, is_grouplike, quotient_grouplikes
from semidual.graded import print_graded, verify_grading
from semidual.semilattice import characters, print_semilattice, validate

from oracles import SizeLimitError, brute_characters, brute_grouplikes_smallfield


def test_all_semilattices_validate():
    # construction goes through validate(), so reaching here means they pass;
    # spot-check the shapes
    sls = corpus.semilattices()
    assert len(sls) == 14
    assert len(sls["chain8"]) == 8
    assert len(sls["bool3"]) == 8
    assert len(sls["div12"]) == 6
    assert len(sls["div30"]) == 8
    assert len(sls["div36"]) == 9


def test_all_ut_algebras_pass_grading():
    for name, algebra in corpus.ut_algebras().items():
        assert verify_grading(algebra).passed, name


def test_divisor_lattice_operation():
    s = corpus.divisor_lattice(12)
    assert s.label(s.op(s.index("4"), s.index("6"))) == "12"
    assert s.label(s.identity) == "1"


def test_brute_characters_agreement():
    for name, s in corpus.semilattices().items():
        if len(s) <= 12:
            assert brute_characters(s) == characters(s), name


def test_brute_characters_examples():
    assert [c.values for c in brute_characters(corpus.chain(2))] == [(1, 0), (1, 1)]
    assert len(brute_characters(corpus.chain(1))) == 1
    assert len(brute_characters(corpus.boolean_lattice(2))) == 4


def test_brute_characters_size_limit():
    labels = [f"x{i}" for i in range(17)]
    table = {(labels[i], labels[j]): labels[max(i, j)]
             for i in range(17) for j in range(i, 17)}
    s = validate(labels, table, labels[0])
    with pytest.raises(SizeLimitError):
        brute_characters(s)


def test_brute_grouplikes_discrete_two_chain():
    s = corpus.chain(2)
    found = brute_grouplikes_smallfield(s, congruence_closure(s, []))
    assert sorted(tuple(x.coeffs.items()) for x in found) == [((0, 1),), ((1, 1),)]


def test_brute_grouplikes_glued_three_chain():
    s = corpus.chain(3)
    c = congruence_closure(s, [("n2", "n3")])
    found = brute_grouplikes_smallfield(s, c)
    assert len(found) == 2
    assert all(is_grouplike(x) for x in found)
    assert len(found) == len(quotient_grouplikes(s, c).cosets)


def test_brute_grouplikes_full_collapse():
    s = corpus.chain(2)
    c = congruence_closure(s, [("n1", "n2")])
    assert len(brute_grouplikes_smallfield(s, c)) == 1


def test_brute_grouplikes_size_limit():
    s = corpus.chain(7)
    with pytest.raises(SizeLimitError):
        brute_grouplikes_smallfield(s, congruence_closure(s, []))


def test_data_files_match_constructors():
    # the shipped files are the canonical prints of the constructors
    rendered = corpus.render_corpus_files()
    for name, text in rendered.items():
        with open(corpus.data_path(name), encoding="utf-8") as fh:
            assert fh.read() == text, name


def test_data_files_round_trip():
    for name, s in corpus.semilattices().items():
        loaded = corpus.load_semilattice(name)
        assert loaded == s
        assert print_semilattice(loaded) == print_semilattice(s)
    for name, algebra in corpus.ut_algebras().items():
        loaded = corpus.load_graded(name)
        assert loaded == algebra
        ref = f"chain{name[2:]}.slat"
        assert print_graded(loaded, ref) == print_graded(algebra, ref)
