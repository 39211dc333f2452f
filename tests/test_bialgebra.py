import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (all_pairs_congruence_classes, all_pairs_is_congruence,
                     loop_monoid_product, loop_tensor_product, validated_copy)
from semidual import bialgebra, corpus
from semidual.bialgebra import (Congruence, MonoidAlgebraElement,
                                NotACongruenceError, ParentMismatchError,
                                TensorElement, alg_homs, check_bialgebra_axioms,
                                comultiply, congruence_closure, counit,
                                is_grouplike, multiply, quotient_grouplikes,
                                quotient_semilattice, tensor_square)
from semidual.semilattice import characters, dual_semilattice, validate
from test_semilattice import union_closed_families


def chain(m):
    return corpus.chain(m)


def elem(s, **labelled):
    return MonoidAlgebraElement.from_labels(s, labelled)


def test_multiply_basis_join():
    s = chain(2)
    assert elem(s, n1=1) * elem(s, n2=1) == elem(s, n2=1)


def test_multiply_unit_law():
    s = chain(3)
    one = MonoidAlgebraElement.unit(s)
    a = elem(s, n1=2, n3=Fraction(-1, 2))
    assert one * a == a and a * one == a


def test_multiply_hand_expansion():
    s = chain(2)
    a = elem(s, n1=1, n2=1)
    b = elem(s, n1=1, n2=-1)
    # n1 n1 - n1 n2 + n2 n1 - n2 n2 = n1 - n2
    assert a * b == elem(s, n1=1, n2=-1)


def test_multiply_parent_mismatch():
    with pytest.raises(ParentMismatchError):
        multiply(elem(chain(2), n1=1), elem(chain(3), n1=1))


def test_products_match_loop_oracles():
    rng = random.Random(53)
    pool = [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 3), Fraction(1)]

    def coeffs(keys):
        return {k: rng.choice(pool) for k in rng.sample(keys, rng.randint(0, min(6, len(keys))))}

    for name in ("chain1", "chain4", "bool2", "bool3", "div12", "div30"):
        s = corpus.load_semilattice(name)
        indices = list(range(len(s)))
        pairs = [(i, j) for i in indices for j in indices]
        for _ in range(40):
            a, b = (MonoidAlgebraElement(s, coeffs(indices)) for _ in range(2))
            assert multiply(a, b).coeffs == loop_monoid_product(a, b)
            t, u = (TensorElement(s, coeffs(pairs)) for _ in range(2))
            assert (t * u).coeffs == loop_tensor_product(t, u)


def test_comultiply_examples():
    s = chain(2)
    assert comultiply(elem(s, n1=1)).coeffs == {(0, 0): 1}
    assert comultiply(elem(s, n1=2, n2=3)).coeffs == {(0, 0): 2, (1, 1): 3}
    assert comultiply(MonoidAlgebraElement.zero(s)).coeffs == {}


def test_counit_examples():
    s = chain(2)
    assert counit(elem(s, n2=1)) == 1
    assert counit(elem(s, n1=2, n2=3)) == 5
    assert counit(elem(s, n1=1, n2=-1)) == 0  # a coideal element


def test_axioms_pass_on_corpus():
    for name, s in corpus.semilattices().items():
        assert check_bialgebra_axioms(s).passed, name


def test_axioms_pass_on_duals():
    for name, s in corpus.semilattices().items():
        assert check_bialgebra_axioms(dual_semilattice(s)).passed, name


def test_axiom_report_format():
    lines = check_bialgebra_axioms(chain(2)).render().splitlines()
    assert lines[0] == "axiom coassociativity: PASS"
    assert all(line.startswith("axiom ") for line in lines)


def test_grouplike_basis_elements():
    s = corpus.divisor_lattice(12)
    for i in range(len(s)):
        assert is_grouplike(MonoidAlgebraElement.basis(s, i))


def test_grouplike_rejects_sums():
    s = chain(2)
    assert not is_grouplike(elem(s, n1=1, n2=1))  # counit 2
    a = elem(s, n1=Fraction(1, 2), n2=Fraction(1, 2))
    # comultiply(a) - a (x) a has cross coefficient -1/4 at (n1, n2)
    assert counit(a) == 1
    delta = comultiply(a)
    square = tensor_square(a)
    assert square.coeffs[(0, 1)] == Fraction(1, 4) and (0, 1) not in delta.coeffs
    assert not is_grouplike(a)


def test_random_sums_never_grouplike():
    rng = random.Random(7)
    pool = [Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]
    for s in (chain(3), corpus.boolean_lattice(2)):
        for _ in range(50):
            support = rng.sample(range(len(s)), rng.randint(2, len(s)))
            coeffs = {i: rng.choice(pool) for i in support}
            total = sum(coeffs.values(), Fraction(0))
            if total == 0:
                continue
            coeffs = {i: v / total for i, v in coeffs.items()}  # force counit 1
            a = MonoidAlgebraElement(s, coeffs)
            if len(a.coeffs) >= 2:
                assert not is_grouplike(a)


def test_alg_homs_match_characters():
    for s in corpus.semilattices().values():
        assert alg_homs(s) == characters(s)


def test_alg_homs_three_chain():
    homs = alg_homs(chain(3))
    assert [h.values for h in homs] == [(1, 0, 0), (1, 1, 0), (1, 1, 1)]


def test_congruence_closure_discrete():
    s = chain(3)
    c = congruence_closure(s, [])
    assert c.classes == ((0,), (1,), (2,))


def test_congruence_closure_glue_top():
    c = congruence_closure(chain(3), [("n2", "n3")])
    assert c.classes == ((0,), (1, 2))
    assert c.is_congruence()


def test_congruence_closure_collapse():
    c = congruence_closure(chain(2), [("n1", "n2")])
    assert c.classes == ((0, 1),)


def test_congruence_closure_propagates():
    # gluing bottom to middle of a 3-chain drags nothing else, but gluing
    # the bottom of a boolean square to an atom forces the other products
    s = corpus.boolean_lattice(2)
    c = congruence_closure(s, [("0", "1")])
    # 0 ~ 1 forces 2 = 0|2 ~ 1|2 = 12
    assert c.class_of(s.index("2")) == c.class_of(s.index("12"))


def test_quotient_grouplikes_three_chain():
    s = chain(3)
    result = quotient_grouplikes(s, congruence_closure(s, [("n2", "n3")]))
    assert len(result.cosets) == 2
    assert result.report.passed
    assert result.quotient.elements == ("n1", "n2+n3")
    for coset in result.cosets:
        assert is_grouplike(coset)


def test_quotient_grouplikes_discrete_gives_basis():
    s = chain(2)
    result = quotient_grouplikes(s, congruence_closure(s, []))
    assert len(result.cosets) == len(s)
    assert result.report.passed


def test_quotient_grouplikes_full_collapse():
    s = chain(2)
    result = quotient_grouplikes(s, congruence_closure(s, [("n1", "n2")]))
    assert len(result.cosets) == 1
    assert result.report.passed


def test_quotient_completeness_fails_when_projection_merges_classes(monkeypatch):
    # both classes of chain3 / (n2 = n3) sent to the first: the quotient keeps a
    # group-like that no coset reaches
    real = bialgebra.quotient_semilattice
    monkeypatch.setattr(bialgebra, "quotient_semilattice",
                        lambda c: (real(c)[0], (0,) * len(c.parent)))
    s = chain(3)
    report = quotient_grouplikes(s, congruence_closure(s, [("n2", "n3")])).report
    assert [line.render() for line in report.failures()] == [
        "check linear-independence: FAIL [coefficient rank 1 of 2]",
        "check completeness: FAIL"]


def test_quotient_grouplikes_rejects_non_congruence():
    s = corpus.boolean_lattice(2)
    # {0, 1} vs rest is not a congruence: 0~1 but 2 = 0|2 !~ 1|2 = 12
    bad = Congruence(s, [(0, 1), (2,), (3,)])
    with pytest.raises(NotACongruenceError):
        quotient_grouplikes(s, bad)
    with pytest.raises(NotACongruenceError):
        quotient_semilattice(bad)


def test_congruence_rejects_a_non_partition():
    s = chain(3)
    for classes in ([(0,), (1,)], [(0, 1), (1, 2)], [(0,), (1,), (2,), (3,)]):
        with pytest.raises(NotACongruenceError, match="classes do not partition the elements"):
            Congruence(s, classes)


def test_quotient_grouplikes_rejects_a_foreign_congruence():
    c = Congruence(chain(2), [(0, 1)])
    with pytest.raises(NotACongruenceError,
                       match="congruence belongs to a different semilattice"):
        quotient_grouplikes(chain(3), c)


@given(s=union_closed_families(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_congruences_match_all_pairs_oracles(s, data):
    n = len(s)
    index = st.integers(0, n - 1)
    glue = data.draw(st.lists(st.tuples(index, index), max_size=5))
    pairs = [(s.label(a), s.label(b)) for a, b in glue]
    closure = congruence_closure(s, pairs)
    assert list(closure.classes) == all_pairs_congruence_classes(s, pairs)
    assert closure.is_congruence() and all_pairs_is_congruence(closure)
    # a random partition, a congruence or not
    blocks = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    groups = {}
    for i, block in enumerate(blocks):
        groups.setdefault(block, []).append(i)
    partition = Congruence(s, groups.values())
    assert partition.is_congruence() == all_pairs_is_congruence(partition)
    for c in (closure, partition):
        if c.is_congruence():
            quotient, _ = quotient_semilattice(c)
            assert validated_copy(quotient) == quotient


def test_congruence_closure_beyond_one_pass():
    # s28 ~ s56 unites s28, s56, s60 and s54 ~ s60 unites s54, s60, s62: the two
    # pairs' congruences meet in s60, so the join is one class above s0
    masks = [0, 28, 54, 56, 60, 62]
    labels = {x: f"s{x}" for x in masks}
    s = validate(list(labels.values()),
                 {(labels[x], labels[y]): labels[x | y] for x in masks for y in masks}, "s0")
    pairs = [("s28", "s56"), ("s54", "s60")]
    closure = congruence_closure(s, pairs)
    assert closure.classes == ((0,), (1, 2, 3, 4, 5))
    assert list(closure.classes) == all_pairs_congruence_classes(s, pairs)


def test_congruence_closure_makes_one_pass_per_pair(monkeypatch):
    # the all-pairs fixpoint spends 2 n^2 products on each pass; the principal
    # congruence formula spends at most 3 table reads per element and pair
    s = corpus.boolean_lattice(6)
    pairs = [("12", "34"), ("5", "6"), ("1", "123456")]
    calls = []
    for name in ("op", "leq"):
        read = getattr(type(s), name)
        monkeypatch.setattr(type(s), name,
                            lambda self, i, j, read=read: calls.append(1) or read(self, i, j))
    closure = congruence_closure(s, pairs)
    monkeypatch.undo()
    assert len(calls) <= 4 * len(s) * len(pairs)
    assert list(closure.classes) == all_pairs_congruence_classes(s, pairs)


def test_every_single_pair_quotient_of_corpus_validates():
    # quotient_semilattice trusts the congruence; validate re-checks the laws on its table
    for name, s in corpus.semilattices().items():
        for a in s.elements:
            for b in s.elements:
                quotient, projection = quotient_semilattice(congruence_closure(s, [(a, b)]))
                assert validated_copy(quotient) == quotient, (name, a, b)
                assert all(projection[s.op(i, j)] == quotient.op(projection[i], projection[j])
                           for i in range(len(s)) for j in range(len(s))), (name, a, b)


def test_quotient_count_equals_class_count():
    for s in corpus.semilattices().values():
        if len(s) > 6:
            continue
        pairs = [] if len(s) < 2 else [(s.label(len(s) - 2), s.label(len(s) - 1))]
        c = congruence_closure(s, pairs)
        result = quotient_grouplikes(s, c)
        assert len(result.cosets) == len(c.classes)


def test_quotient_semilattice_is_valid():
    s = corpus.divisor_lattice(12)
    c = congruence_closure(s, [("4", "12")])
    quotient, projection = quotient_semilattice(c)
    assert len(quotient) == len(c.classes)
    for i in range(len(s)):
        for j in range(len(s)):
            assert projection[s.op(i, j)] == quotient.op(projection[i], projection[j])


def test_multiply_associative_and_unital_property():
    rng = random.Random(11)
    pool = [Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(3)]
    for s in corpus.semilattices().values():
        one = MonoidAlgebraElement.unit(s)
        for _ in range(10):
            def rand_elem():
                support = rng.sample(range(len(s)), min(len(s), rng.randint(1, 5)))
                return MonoidAlgebraElement(s, {i: rng.choice(pool) for i in support})
            a, b, c = rand_elem(), rand_elem(), rand_elem()
            assert (a * b) * c == a * (b * c)
            assert one * a == a and a * one == a


def _right_identity(a):
    # s -> s (x) e is coassociative and counital on the right, not on the left
    return TensorElement(a.parent, {(i, a.parent.identity): v for i, v in a.coeffs.items()})


def _shifted_right_factor(a):
    # s -> s (x) g(s) with g(i) = min(i + 1, n - 1): g is not idempotent, so not coassociative
    n = len(a.parent)
    return TensorElement(a.parent, {(i, min(i + 1, n - 1)): v for i, v in a.coeffs.items()})


def _scaled_diagonal(a):
    return TensorElement(a.parent, {(i, i): 2 * v for i, v in a.coeffs.items()})


@pytest.mark.parametrize("attr, fault, want", [
    ("comultiply", _right_identity, {
        "chain3": ["counit-left: FAIL [witness s=n2]"],
        "bool2": ["counit-left: FAIL [witness s=1]"],
        "div12": ["counit-left: FAIL [witness s=2]"]}),
    ("comultiply", _shifted_right_factor, {
        "chain3": ["coassociativity: FAIL [witness s=n1]", "counit-left: FAIL [witness s=n1]",
                   "comultiplication-unit: FAIL"],
        "bool2": ["coassociativity: FAIL [witness s=0]", "counit-left: FAIL [witness s=0]",
                  "comultiplication-multiplicative: FAIL [witness s=0 t=1]",
                  "comultiplication-unit: FAIL"],
        "div12": ["coassociativity: FAIL [witness s=1]", "counit-left: FAIL [witness s=1]",
                  "comultiplication-multiplicative: FAIL [witness s=1 t=2]",
                  "comultiplication-unit: FAIL"]}),
    ("comultiply", _scaled_diagonal, {
        name: [f"counit-left: FAIL [witness s={b}]", f"counit-right: FAIL [witness s={b}]",
               f"comultiplication-multiplicative: FAIL [witness s={b} t={b}]",
               "comultiplication-unit: FAIL"]
        for name, b in (("chain3", "n1"), ("bool2", "0"), ("div12", "1"))}),
    ("multiply", lambda a, b: a, {
        name: [f"comultiplication-multiplicative: FAIL [witness s={s} t={t}]"]
        for name, s, t in (("chain3", "n1", "n2"), ("bool2", "0", "1"), ("div12", "1", "2"))}),
    ("counit", lambda a: 2 * sum(a.coeffs.values(), Fraction(0)), {
        name: [f"counit-left: FAIL [witness s={b}]", f"counit-right: FAIL [witness s={b}]",
               f"counit-multiplicative: FAIL [witness s={b} t={b}]", "counit-unit: FAIL"]
        for name, b in (("chain3", "n1"), ("bool2", "0"), ("div12", "1"))}),
], ids=["right-identity-comultiply", "shifted-right-factor", "scaled-diagonal",
        "left-factor-multiply", "doubled-counit"])
def test_axiom_faults_are_caught(monkeypatch, attr, fault, want):
    monkeypatch.setattr(bialgebra, attr, fault)
    for name, s in (("chain3", chain(3)), ("bool2", corpus.boolean_lattice(2)),
                    ("div12", corpus.divisor_lattice(12))):
        report = check_bialgebra_axioms(s)
        assert [line.render() for line in report.failures()] == [
            f"axiom {line}" for line in want[name]], name


FAULT_SEMILATTICES = (("chain3", chain(3)), ("bool2", corpus.boolean_lattice(2)),
                      ("div12", corpus.divisor_lattice(12)))


def _recorded_table_laws(monkeypatch):
    """What each _table_laws call returns, recorded while the check runs."""
    results, real = [], bialgebra._table_laws
    monkeypatch.setattr(bialgebra, "_table_laws",
                        lambda *args: results.append(real(*args)) or results[-1])
    return results


def test_axioms_on_the_table_apply_each_map_once_per_basis_element(monkeypatch):
    # certify, then walk: on kS both multiplicative laws come off the table, so
    # comultiply and counit see each basis vector once (the walk calls each n^2
    # more times), and the n^2 basis products stay with multiply
    s = corpus.boolean_lattice(4)
    calls = {name: 0 for name in ("comultiply", "counit", "multiply")}
    for name in calls:
        def counted(*args, real=getattr(bialgebra, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(bialgebra, name, counted)
    laws = _recorded_table_laws(monkeypatch)
    assert check_bialgebra_axioms(s).passed
    n = len(s)
    assert calls == {"comultiply": n, "counit": n, "multiply": n * n}
    assert laws == [(True, True)]


def _diagonal_plus_identity(a):
    # s -> s (x) s + s (x) e: two terms off the identity, so the table shape fails
    p = a.parent
    return (TensorElement(p, {(i, i): v for i, v in a.coeffs.items()})
            + TensorElement(p, {(i, p.identity): v for i, v in a.coeffs.items()}))


def test_axiom_fault_off_the_table_shape_runs_the_walk(monkeypatch):
    # the lines the walk printed before the table certificate was added
    want = {name: [f"coassociativity: FAIL [witness s={a}]", f"counit-left: FAIL [witness s={e}]",
                   f"counit-right: FAIL [witness s={e}]",
                   f"comultiplication-multiplicative: FAIL [witness s={e} t={e}]",
                   "comultiplication-unit: FAIL"]
            for name, a, e in (("chain3", "n2", "n1"), ("bool2", "1", "0"), ("div12", "2", "1"))}
    monkeypatch.setattr(bialgebra, "comultiply", _diagonal_plus_identity)
    laws = _recorded_table_laws(monkeypatch)
    for name, s in FAULT_SEMILATTICES:
        assert [line.render() for line in check_bialgebra_axioms(s).failures()] == [
            f"axiom {line}" for line in want[name]], name
    assert laws == [None, None, None]


class _FirstFactorTensor(TensorElement):
    """One-term basis tensors whose product keeps the first factor: (a, b)(c, d) = (a, bd)."""

    __slots__ = ()

    def basis_product(self, ab, cd):
        (a, b), (_, d) = ab, cd
        return {(a, self.parent.op(b, d)): 1}


def test_axiom_deltas_of_another_type_run_the_walk(monkeypatch):
    # the table reads the product of two one-term deltas as a TensorElement product;
    # a delta of another class, with its own product, is left to the walk
    monkeypatch.setattr(bialgebra, "comultiply", lambda a: _FirstFactorTensor(
        a.parent, {(i, i): v for i, v in a.coeffs.items()}))
    laws = _recorded_table_laws(monkeypatch)
    for name, s in FAULT_SEMILATTICES:
        n = len(s)
        i, j = next((i, j) for i in range(n) for j in range(n) if s.op(i, j) != i)
        lines = [line.render() for line in check_bialgebra_axioms(s).failures()]
        assert (f"axiom comultiplication-multiplicative: FAIL"
                f" [witness s={s.label(i)} t={s.label(j)}]") in lines, name
    assert laws == [None, None, None]


def _right_on_the_basis(real, double):
    """real on a basis vector with coefficient 1, doubled on anything else."""
    return lambda a: real(a) if list(a.coeffs.values()) == [1] else double(real(a))


@pytest.mark.parametrize("attr, double", [
    ("comultiply", lambda t: t.scale(2)),
    ("counit", lambda c: 2 * c),
], ids=["comultiply", "counit"])
def test_maps_right_on_the_basis_but_not_linear_pass(monkeypatch, attr, double):
    # the assumption the check rests on: linearity is not tested, only the basis is
    real = getattr(bialgebra, attr)
    fault = _right_on_the_basis(real, double)
    monkeypatch.setattr(bialgebra, attr, fault)
    laws = _recorded_table_laws(monkeypatch)
    for _, s in FAULT_SEMILATTICES:
        twice = MonoidAlgebraElement(s, {s.identity: 2})
        assert fault(twice) != double(real(MonoidAlgebraElement.basis(s, s.identity)))
        assert check_bialgebra_axioms(s).passed
    assert laws == [(True, True)] * 3


@given(s=union_closed_families(max_members=8), data=st.data())
@settings(max_examples=150, deadline=None)
def test_table_laws_agree_with_the_walk(s, data):
    # comultiplies v_i b_f(i) (x) b_g(i) and counits u_i: f and g each the identity
    # or constant at the unit (s -> s (x) s, s (x) e, e (x) s, e (x) e), v and u all 1,
    # then up to two entries redrawn. The laws read off the table are the walk's
    # verdicts, and the report is the report of the walk alone, witnesses included
    n, e = len(s), s.identity
    f, g = ([data.draw(st.sampled_from([i, e])) for i in range(n)] for _ in range(2))
    v, u = [1] * n, [1] * n
    values = st.sampled_from([-1, 0, 2, Fraction(1, 2)])
    for _ in range(data.draw(st.integers(0, 2))):
        entries, i = data.draw(st.sampled_from([f, g, v, u])), data.draw(st.integers(0, n - 1))
        entries[i] = data.draw(st.integers(0, n - 1) if entries in (f, g) else values)

    def comultiply(a):
        return TensorElement(a.parent, {(f[i], g[i]): c * v[i] for i, c in a.coeffs.items()})

    def counit(a):
        return sum(c * u[i] for i, c in a.coeffs.items())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bialgebra, "comultiply", comultiply)
        mp.setattr(bialgebra, "counit", counit)
        laws = _recorded_table_laws(mp)
        certified = check_bialgebra_axioms(s)
        mp.setattr(bialgebra, "_table_laws", lambda *args: None)
        walked = check_bialgebra_axioms(s)
    assert certified.render() == walked.render()
    if 0 in v:  # a zero coefficient leaves a delta with no term
        assert laws == [None]
    else:
        verdicts = {line.name: line.status == "PASS" for line in walked.lines}
        assert laws == [(verdicts["comultiplication-multiplicative"],
                         verdicts["counit-multiplicative"])]
