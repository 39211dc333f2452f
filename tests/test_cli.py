import io
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import semidual
from semidual import bialgebra, cli, corpus, exactlin, graded, nbar_dual
from semidual.cli import run
from semidual.errors import read_rational


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def slat(name):
    return corpus.data_path(f"{name}.slat")


def galg(name):
    return corpus.data_path(f"{name}.galg")


def check_golden(argv, expected, exit_code=0):
    code, out, err = invoke(*argv)
    assert err == ""
    assert out == expected
    assert code == exit_code
    # determinism: a second run is byte-identical
    code2, out2, _ = invoke(*argv)
    assert (code2, out2) == (code, out)


def test_slat_check():
    check_golden(["slat", "check", slat("chain2")],
                 "elements: n1 n2\nidentity: n1\nvalid: yes\n")


def test_slat_check_invalid_table(tmp_path):
    bad = tmp_path / "bad.slat"
    bad.write_text("elements: a b\nidentity: a\na * b = a\n")
    code, out, err = invoke("slat", "check", str(bad))
    assert code == 1
    assert out.startswith("valid: no\n")


def test_slat_order():
    check_golden(["slat", "order", slat("chain3")],
                 "n1 <= n2\nn1 <= n3\nn2 <= n3\n")


def test_slat_characters_two_chain():
    check_golden(["slat", "characters", slat("chain2")],
                 "f1: 1 0\nf2: 1 1\n")


def test_slat_characters_tsv():
    check_golden(["slat", "characters", slat("chain2"), "--format", "tsv"],
                 "f1\t1 0\nf2\t1 1\n")


def test_slat_dual_is_reusable_document():
    expected = "elements: f1 f2\nidentity: f2\nf1 * f2 = f1\n"
    check_golden(["slat", "dual", slat("chain2")], expected)
    # the output parses as a semilattice document
    from semidual.semilattice import parse_semilattice
    parse_semilattice(expected)


def test_slat_double_dual():
    check_golden(["slat", "double-dual", slat("chain2")],
                 "n1 -> f2\nn2 -> f1\nisomorphism: OK\n")


def test_dual_output_composes(tmp_path):
    # the dual document round-trips through the other slat commands
    code, out, _ = invoke("slat", "dual", slat("div12"))
    assert code == 0
    dual_file = tmp_path / "dual.slat"
    dual_file.write_text(out)
    code, check_out, _ = invoke("slat", "check", str(dual_file))
    assert code == 0 and check_out.endswith("valid: yes\n")
    code, _, _ = invoke("balg", "axioms", str(dual_file))
    assert code == 0
    code, rank_out, _ = invoke("slat", "ev-rank", str(dual_file))
    assert code == 0 and "full-rank: yes" in rank_out


def test_slat_ev_rank():
    check_golden(["slat", "ev-rank", slat("bool2")],
                 "rank: 4\nsize: 4\nfull-rank: yes\n")


def test_balg_axioms():
    expected = (
        "axiom coassociativity: PASS\n"
        "axiom counit-left: PASS\n"
        "axiom counit-right: PASS\n"
        "axiom comultiplication-multiplicative: PASS\n"
        "axiom counit-multiplicative: PASS\n"
        "axiom comultiplication-unit: PASS\n"
        "axiom counit-unit: PASS\n"
        "axioms: PASS\n"
    )
    check_golden(["balg", "axioms", slat("chain2")], expected)


def test_balg_quotient():
    expected = (
        "class n1: n1\n"
        "class n2+n3: n2 n3\n"
        "grouplike n1: PASS\n"
        "grouplike n2+n3: PASS\n"
        "check linear-independence: PASS [coefficient rank 2 of 2]\n"
        "check completeness: PASS [alpha^2 = alpha forcing over characteristic 0]\n"
        "quotient: PASS\n"
    )
    check_golden(["balg", "quotient", slat("chain3"), "--glue", "n2=n3"], expected)


def test_graded_verify():
    expected = (
        "invariant associativity: PASS\n"
        "invariant unit-law: PASS\n"
        "invariant grading-law: PASS\n"
        "invariant unit-degrees: INFO [unit has components in non-identity-acting"
        " degrees n2; strict module-algebra unit law does not apply]\n"
        "grading: PASS\n"
    )
    check_golden(["graded", "verify", galg("ut2")], expected)


def test_graded_act_projects_bottom_corner():
    check_golden(["graded", "act", galg("ut2"), "--char", "f1",
                  "--element", "E11:1,E12:2,E22:3"],
                 "E22:3\n")
    check_golden(["graded", "act", galg("ut2"), "--char", "f2",
                  "--element", "E11:1,E12:2,E22:3"],
                 "E11:1,E12:2,E22:3\n")


def test_graded_module_algebra():
    expected = (
        "character f1 multiplicative: PASS\n"
        "character f2 multiplicative: PASS\n"
        "check unit-law: INFO [unit not concentrated in identity-acting degrees;"
        " gamma(f,1) is the projection of 1 onto the degrees where f = 1]\n"
        "module-algebra: PASS\n"
    )
    check_golden(["graded", "module-algebra", galg("ut2")], expected)


def test_graded_action_table():
    expected = (
        "gamma f1: E11 -> 0, E12 -> 0, E22 -> E22:1\n"
        "gamma f2: E11 -> E11:1, E12 -> E12:1, E22 -> E22:1\n"
        "endomorphism f1 multiplicative: PASS\n"
        "endomorphism f2 multiplicative: PASS\n"
        "check unital: INFO [unit not concentrated in identity-acting degrees;"
        " gamma(f,1) != 1 for characters vanishing on a unit degree]\n"
        "action composition: PASS\n"
        "action identity-character: PASS\n"
        "action: PASS\n"
    )
    check_golden(["graded", "action-table", galg("ut2")], expected)


def test_unit_outside_the_identity_degree_is_info_in_every_command(tmp_path):
    # the unit sits in n2 > n1 of chain3, which every degree in use absorbs,
    # but the character f1 = [t <= n1] kills it, so gamma(f1, 1) = 0
    (tmp_path / "chain3.slat").write_text(corpus.render_corpus_files()["chain3.slat"])
    path = tmp_path / "u.galg"
    path.write_text("basis: u\nunit: u:1\nsemilattice: chain3.slat\n"
                    "degree u n2\nmul u u = u:1\n")
    lines = {
        "verify": "invariant unit-degrees: INFO [unit has components in non-identity-acting"
                  " degrees n2; strict module-algebra unit law does not apply]\n",
        "module-algebra": "check unit-law: INFO [unit not concentrated in identity-acting"
                          " degrees; gamma(f,1) is the projection of 1 onto the degrees"
                          " where f = 1]\n",
        "action-table": "check unital: INFO [unit not concentrated in identity-acting"
                        " degrees; gamma(f,1) != 1 for characters vanishing on a unit"
                        " degree]\n",
    }
    for command, line in lines.items():
        code, out, err = invoke("graded", command, str(path))
        assert (code, err) == (0, ""), command
        assert line in out and "FAIL" not in out, command


def test_graded_ut_prints_document():
    with open(galg("ut2"), encoding="utf-8") as fh:
        expected = fh.read()
    check_golden(["graded", "ut", "--size", "2", "--labels", "1,2"], expected)


def test_graded_ut_custom_labels_compose(tmp_path):
    # the emitted document names a label-derived companion; generating that
    # companion makes the pair fully parseable again
    from semidual.graded import ut_graded
    from semidual.semilattice import print_semilattice
    code, out, _ = invoke("graded", "ut", "--size", "3", "--labels", "2,5,9")
    assert code == 0
    assert "semilattice: chain-2-5-9.slat" in out
    (tmp_path / "alg.galg").write_text(out)
    (tmp_path / "chain-2-5-9.slat").write_text(
        print_semilattice(ut_graded(3, [2, 5, 9]).grading))
    code, verify_out, _ = invoke("graded", "verify", str(tmp_path / "alg.galg"))
    assert code == 0 and "grading: PASS" in verify_out


def test_nbar_is_char():
    check_golden(["nbar", "is-char", "--prefix", "1,1,1", "--tail", "0"],
                 "character: yes\nthreshold: 1\n")
    check_golden(["nbar", "is-char", "--prefix", "1,2", "--tail", "2"],
                 "character: no\n")
    check_golden(["nbar", "is-char", "--tail", "1"],
                 "character: yes\nthreshold: +inf\n")


def test_nbar_decompose():
    check_golden(["nbar", "decompose", "--prefix", "3,3,2", "--tail", "5"],
                 "+inf:5 1:-3 0:1\nverified: OK\n")


def test_nbar_decompose_rationals():
    check_golden(["nbar", "decompose", "--prefix=3/2", "--tail=-1/2"],
                 "+inf:-1/2 -inf:2\nverified: OK\n")


def test_nbar_translate_basis():
    check_golden(["nbar", "translate-basis", "--prefix", "3,2", "--tail", "1"],
                 "breakpoints: -inf 0\ntail-point: 1\ndimension: 3\nverified: OK\n")
    check_golden(["nbar", "translate-basis", "--tail", "4"],
                 "breakpoints:\ntail-point: -inf\ndimension: 1\nverified: OK\n")


def test_nbar_det():
    check_golden(["nbar", "det", "--row", "1,2"],
                 "det: -2\nclosed-form: -2\nagree: yes\npreconditions: met\nnonzero: yes\n")
    check_golden(["nbar", "det", "--row", "2,2"],
                 "det: 0\nclosed-form: 0\nagree: yes\npreconditions: violated\nnonzero: no\n")


def test_lp_mul():
    check_golden(["lp", "mul", "(x1|1)", "(x2|1)", "--odd-letters", "1,2"],
                 "(x1|1)*(x2|1)\n")
    check_golden(["lp", "mul", "(x2|1)", "(x1|1)", "--odd-letters", "1,2"],
                 "-(x1|1)*(x2|1)\n")
    # an expression may start with a minus sign, with or without `--` before it
    check_golden(["lp", "mul", "(x1|1)", "-(x2|1)"], "-(x1|1)*(x2|1)\n")
    check_golden(["lp", "mul", "--", "(x1|1)", "-(x2|1)"], "-(x1|1)*(x2|1)\n")


def test_lp_weight():
    check_golden(["lp", "weight", "1 + (x1|3)"],
                 "-inf: 1\n3: (x1|3)\n")
    check_golden(["lp", "weight", "-1/2*(x1|1)"], "1: -1/2*(x1|1)\n")
    check_golden(["lp", "weight", "--", "-1/2*(x1|1)"], "1: -1/2*(x1|1)\n")


def test_lp_act():
    check_golden(["lp", "act", "--z", "2", "(x1|1)*(x2|2) + (x1|3)"],
                 "(x1|1)*(x2|2)\n")
    check_golden(["lp", "act", "--z=-inf", "5 + (x1|1)"], "5\n")


def test_lp_embed():
    check_golden(["lp", "embed", "2", "1"], "(x1|2)*(x2|1)\n")
    check_golden(["lp", "embed", "1", "1", "--odd-letters", "1"],
                 "(x1|1)*(x1|2)\n")


def test_exit_2_on_missing_file():
    code, out, err = invoke("slat", "characters", "does-not-exist.slat")
    assert code == 2 and out == "" and err


def test_exit_2_on_parse_error_with_position(tmp_path):
    bad = tmp_path / "bad.slat"
    bad.write_text("elements: a b\nidentity: a\na * b\n")
    code, out, err = invoke("slat", "characters", str(bad))
    assert code == 2
    assert ":3:" in err


@pytest.mark.parametrize("name, text, argv, where", [
    ("dup.slat", "elements: a b a\nidentity: a\n", ["slat", "check"],
     ":1:15: duplicate element 'a'"),
    ("dup.galg", "basis: u u\nunit: u:1\nsemilattice: chain1.slat\ndegree u n1\n",
     ["graded", "verify"], ":1:10: duplicate basis element 'u'"),
])
def test_exit_2_on_duplicate_label_with_position(tmp_path, name, text, argv, where):
    (tmp_path / "chain1.slat").write_text(corpus.render_corpus_files()["chain1.slat"])
    path = tmp_path / name
    path.write_text(text)
    code, out, err = invoke(*argv, str(path))
    assert (code, out, err) == (2, "", f"{path}{where}\n")


@pytest.mark.parametrize("fmt, sep", [("human", ": "), ("tsv", "\t")])
def test_unknown_identity_is_positioned(tmp_path, fmt, sep):
    # the identity line may come before the elements line
    path = tmp_path / "id.slat"
    path.write_text("identity:  zz\nelements: a b\na * b = b\n")
    message = f"{path}:1:12: identity 'zz' not among the elements"
    assert invoke("slat", "check", str(path), "--format", fmt) == (
        1, f"valid{sep}no\nerror{sep}{message}\n", "")
    assert invoke("slat", "order", str(path), "--format", fmt) == (2, "", f"error: {message}\n")


def test_exit_2_on_unknown_basis_element():
    assert invoke("graded", "act", galg("ut2"), "--char", "f1", "--element", "ZZ:1") == (
        2, "", "error: no basis element 'ZZ'\n")


def test_exit_2_on_unknown_flag():
    code, _, err = invoke("slat", "characters", slat("chain2"), "--bogus")
    assert code == 2 and err


@pytest.mark.parametrize("argv", [
    ["graded", "verify", "ut2.galg", "--char", "f9", "--element", "zz:1"],
    ["graded", "verify", "ut2.galg", "--char", "f1"],
    ["graded", "module-algebra", "ut2.galg", "--element", "E11:1"],
    ["graded", "action-table", "ut2.galg", "--char=f1"],
    ["graded", "act", "ut2.galg", "--char", "f1"],
    ["graded", "act", "ut2.galg", "--element", "E11:1"],
    ["lp", "mul", "(x1|1)", "(x2|2)", "--z", "2"],
    ["lp", "weight", "(x1|1)", "--z=-inf"],
    ["lp", "embed", "1", "2", "--z", "3"],
    ["lp", "act", "(x1|1)"],
])
def test_exit_2_on_misplaced_or_missing_flag(argv):
    argv = [galg("ut2") if a == "ut2.galg" else a for a in argv]
    code, out, err = invoke(*argv)
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["nbar", "det", "--row", "1/0"],
    ["nbar", "decompose", "--tail", "1/0"],
    ["nbar", "is-char", "--tail", "1/0"],
    ["graded", "act", "ut2.galg", "--char", "f1", "--element", "E11:1/0"],
])
def test_exit_2_on_zero_denominator(argv):
    argv = [galg("ut2") if a == "ut2.galg" else a for a in argv]
    code, out, err = invoke(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("value", ["1e10000000", "1.5", "1e3", "+3", " 3", "٣"])
def test_exit_2_on_rational_outside_p_over_q(value):
    # Fraction() alone would spend seconds building 10**10000000
    code, out, err = invoke("nbar", "det", "--row", f"1,{value}")
    assert (code, out, err) == (2, "", f"error: bad rational {value!r}\n")


@pytest.mark.parametrize("text, value", [("4", 4), ("6/3", 2), ("-0", 0), ("0/7", 0),
                                         ("-8/4", -2)])
def test_read_rational_gives_an_int_when_integral(text, value):
    got = read_rational(text)
    assert type(got) is int and got == value


@pytest.mark.parametrize("text, value", [("1/2", Fraction(1, 2)), ("-6/4", Fraction(-3, 2))])
def test_read_rational_gives_a_fraction_otherwise(text, value):
    got = read_rational(text)
    assert type(got) is Fraction and got == value


# each entry point that reads a rational, with {} where it goes, and what it prints for 2
RATIONAL_READERS = [
    (["nbar", "det", "--row={},1"], "det: 1\nclosed-form: 1\nagree: yes\n"
     "preconditions: met\nnonzero: yes\n"),
    (["lp", "mul", "{}*(x1|1)", "(x2|2)"], "2*(x1|1)*(x2|2)\n"),
    (["graded", "act", "ut2.galg", "--char=f2", "--element=E11:{},E12:1"], "E11:2,E12:1\n"),
]


@pytest.mark.parametrize("argv, printed", RATIONAL_READERS, ids=["cli", "lp", "element"])
@pytest.mark.parametrize("text", ["2", "6/3", "4/2", "10/5"])
def test_an_integral_rational_prints_as_its_int(argv, printed, text):
    argv = [galg("ut2") if a == "ut2.galg" else a.replace("{}", text) for a in argv]
    assert invoke(*argv) == (0, printed, "")


def test_a_galg_term_written_as_a_quotient_prints_as_its_int():
    text = ("basis: u\nunit: u:3/3\nsemilattice: chain1.slat\ndegree u n1\n"
            "mul u u = u:4/4\n")
    algebra = graded.parse_graded(text, slat_loader=lambda _: corpus.load_semilattice("chain1"))
    assert type(algebra.unit[0]) is int and type(algebra.structure[0, 0][0]) is int
    assert graded.print_graded(algebra, "chain1.slat") == text.replace("3/3", "1").replace(
        "4/4", "1")


def _with_files(argv, text=""):
    """argv with the corpus paths of ut2.galg and chain3.slat, and {} replaced by text."""
    files = {"ut2.galg": galg("ut2"), "chain3.slat": slat("chain3")}
    return [files.get(a, a).replace("{}", text) for a in argv]


@pytest.mark.parametrize("argv, items, message", [
    (["nbar", "decompose", "--prefix={}", "--tail=5"], "3,2", "bad rational ''"),
    (["nbar", "det", "--row={}"], "3,2", "bad rational ''"),
    (["graded", "ut", "--size=3", "--labels={}"], "1,2,3", "bad natural number ''"),
    (["lp", "mul", "(x1|1)", "1", "--odd-letters={}"], "1,2", "bad natural number ''"),
    (["lp", "mul", "(x1|1)", "1", "--odd-places={}"], "1,2", "bad natural number ''"),
    (["graded", "act", "ut2.galg", "--char=f1", "--element={}"], "E11:1,E22:3",
     "element coordinate '' needs label:rational"),
    (["balg", "quotient", "chain3.slat", "--glue={}"], "n2=n3,n1=n2", "glue pair '' needs a=b"),
], ids=["prefix", "row", "labels", "odd-letters", "odd-places", "element", "glue"])
def test_exit_2_on_an_empty_item_in_a_comma_list(argv, items, message):
    code, _, err = invoke(*_with_files(argv, items))
    assert (code, err) == (0, "")
    for text in (items.replace(",", ",,", 1), items + ",", "," + items, ",", ",,"):
        assert invoke(*_with_files(argv, text)) == (2, "", f"error: {message}\n"), text


@pytest.mark.parametrize("argv", [
    ["nbar", "decompose", "--prefix=", "--tail=5"],
    ["graded", "act", "ut2.galg", "--char=f1", "--element="],
    ["balg", "quotient", "chain3.slat"],
    ["balg", "quotient", "chain3.slat", "--glue="],
    ["lp", "mul", "(x1|1)", "1", "--odd-letters=", "--odd-places="],
])
def test_an_empty_comma_list_is_the_empty_list(argv):
    code, out, err = invoke(*_with_files(argv))
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("flag", ["--odd-letters", "--odd-places"])
@pytest.mark.parametrize("items", ["0", "1,0", "0,2"])
@pytest.mark.parametrize("argv", [["lp", "mul", "(x1|1)", "(x2|2)"], ["lp", "embed", "1", "2"]],
                         ids=["mul", "embed"])
def test_lp_exit_2_on_a_parity_context_naming_0(argv, flag, items):
    # as a variable (x0|1) is refused, so is letter or place 0 in a parity context
    assert invoke(*argv, flag, items) == (2, "", "error: letters and places start at 1, got 0\n")


@pytest.mark.parametrize("letters, got", [(["0"], "(0, 1)"), (["1", "0"], "(0, 2)")])
def test_lp_embed_exit_2_on_letter_0(letters, got):
    assert invoke("lp", "embed", *letters) == (
        2, "", f"error: letters and places start at 1, got {got}\n")


def test_galg_rational_outside_p_over_q_is_refused_at_its_column(tmp_path):
    (tmp_path / "chain1.slat").write_text(corpus.render_corpus_files()["chain1.slat"])
    path = tmp_path / "big.galg"
    path.write_text("basis: u\nunit: u:1\nsemilattice: chain1.slat\ndegree u n1\n"
                    "mul u u = u:1e10000000\n")
    code, out, err = invoke("graded", "verify", str(path))
    assert (code, out, err) == (2, "", f"{path}:5:13: bad rational '1e10000000'\n")


NUMERIC_ENTRY_POINTS = [
    ["graded", "ut", "--size={}", "--labels=1"],
    ["graded", "ut", "--size=1", "--labels={}"],
    ["lp", "embed", "{}"],
    ["lp", "mul", "(x1|1)", "1", "--odd-letters={}"],
    ["lp", "mul", "(x1|1)", "1", "--odd-places={}"],
    ["lp", "act", "(x1|1)", "--z={}"],
    ["nbar", "det", "--row={}"],
    ["nbar", "is-char", "--prefix={}", "--tail=0"],
    ["nbar", "is-char", "--tail={}"],
    ["graded", "act", "ut2.galg", "--char=f1", "--element=E11:{}"],
]
OUTSIDE_THE_GRAMMAR = ["+3", "1_0", "\u0663", "\u00b2", " 3", "x"]


@pytest.mark.parametrize("value", OUTSIDE_THE_GRAMMAR)
@pytest.mark.parametrize("argv", NUMERIC_ENTRY_POINTS, ids=" ".join)
def test_exit_2_on_number_outside_the_ascii_grammar(argv, value):
    argv = [galg("ut2") if a == "ut2.galg" else a.format(value) for a in argv]
    code, out, err = invoke(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"{value!r}\n" in err, err


# spaces between the tokens of an expression are allowed, so ` 3` is left out there
@pytest.mark.parametrize("expr", [
    form.format(value) for form in ("(x{}|1)", "(x1|{})", "(x1|1)*{}")
    for value in OUTSIDE_THE_GRAMMAR if value != " 3"] + ["1 / 2", "(x1|1)*1 / 2"])
def test_exit_2_on_lp_number_outside_the_ascii_grammar(expr):
    code, out, err = invoke("lp", "mul", expr, "1")
    assert (code, out) == (2, "")
    assert re.match(r"<expr>:1:\d+: ", err) and "invalid literal" not in err, err


# int() of a string refuses more than 4300 digits unless the interpreter is told otherwise
def test_exit_2_on_lp_letter_beyond_the_int_digit_limit():
    code, out, err = invoke("lp", "mul", f"(x{'1' * 5000}|1)", "1")
    assert (code, out, err) == (2, "", "<expr>:1:3: number too long\n")


def test_exit_2_on_lp_coefficient_beyond_the_int_digit_limit():
    code, out, err = invoke("lp", "mul", "1", f"2 + {'1' * 5000}")
    assert (code, out, err) == (2, "", "<expr>:1:5: number too long\n")


def _beyond_the_digit_limit(value, limit):
    """The tail of the message refusing an item whose digits int() does not read."""
    return f"{value[:20]!r}... (more than {limit} digits, the bound of sys.get_int_max_str_digits())\n"


@pytest.mark.parametrize("form", ["{}", "-{}", "1/{}", "{}/3"])
@pytest.mark.parametrize("argv", NUMERIC_ENTRY_POINTS, ids=" ".join)
def test_exit_2_on_number_beyond_the_int_digit_limit_quotes_20_characters(argv, form):
    limit = sys.get_int_max_str_digits()
    value = form.format("1" * (limit + 1))
    code, out, err = invoke(*[galg("ut2") if a == "ut2.galg" else a.format(value) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(_beyond_the_digit_limit(value, limit)), err
    assert len(err) < 200
    # an item with no digit run past the bound is still quoted whole
    value = "1" * limit + "x"
    code, out, err = invoke(*[galg("ut2") if a == "ut2.galg" else a.format(value) for a in argv])
    assert (code, out) == (2, "") and err.endswith(f"{value!r}\n")


def test_galg_rational_beyond_the_int_digit_limit_quotes_20_characters(tmp_path):
    limit = sys.get_int_max_str_digits()
    value = "7" * (limit + 1)
    (tmp_path / "chain1.slat").write_text(corpus.render_corpus_files()["chain1.slat"])
    path = tmp_path / "big.galg"
    path.write_text("basis: u\nunit: u:1\nsemilattice: chain1.slat\ndegree u n1\n"
                    f"mul u u = u:{value}\n")
    assert invoke("graded", "verify", str(path)) == (
        2, "", f"{path}:5:13: bad rational " + _beyond_the_digit_limit(value, limit))


def _unprintable_results(nines):
    """Commands whose result has a coefficient of one digit more than nines."""
    return [["lp", "mul", f"{nines}*(x1|1)", "2*(x2|2)"],
            ["lp", "mul", f"1/{nines}*(x1|1)", "1/2*(x2|2)"],
            ["lp", "act", f"2*{nines}*(x1|1)", "--z=+inf"],
            ["lp", "weight", f"(x1|1) + 2*{nines}*(x1|2)"],
            ["nbar", "decompose", f"--prefix={nines},-{nines}", "--tail=0"]]


@pytest.mark.parametrize("fmt", ["human", "tsv"])
@pytest.mark.parametrize("k", range(5), ids=["mul", "mul-denominator", "act", "weight", "decompose"])
def test_exit_2_when_a_result_coefficient_has_more_digits_than_can_be_printed(k, fmt):
    limit = sys.get_int_max_str_digits()
    argv = _unprintable_results("9" * limit)[k]
    # nothing is printed, not even the weight components before the unprintable one
    assert invoke(*argv, f"--format={fmt}") == (
        2, "", f"error: coefficient has more than {limit} digits, the bound on printing an "
               "integer (sys.get_int_max_str_digits)\n")
    # one digit fewer prints
    code, out, err = invoke(*_unprintable_results("9" * (limit - 1))[k], f"--format={fmt}")
    assert (code, err) == (0, "") and out


def test_exit_2_on_element_label_named_twice():
    code, out, err = invoke("graded", "act", galg("ut2"), "--char", "f2",
                            "--element", "E11:1,E11:2")
    assert (code, out, err) == (2, "", "error: 'E11' named twice in --element\n")


def test_python_m_cli_runs_main():
    src = os.path.dirname(os.path.dirname(os.path.abspath(semidual.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "semidual.cli", "slat", "check",
                           slat("chain2")], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert "valid: yes" in proc.stdout.splitlines()


def _main_exit(monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["semidual", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    return exc.value.code


@pytest.mark.parametrize("crash", [ZeroDivisionError, OverflowError, TypeError, KeyError])
def test_main_exits_3_with_the_traceback_when_run_crashes(monkeypatch, capsys, crash):
    def run(argv):
        raise crash("planted")

    monkeypatch.setattr(cli, "run", run)
    assert _main_exit(monkeypatch, "slat", "check", slat("chain2")) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith(f"{crash.__name__}: {crash('planted')}\n")


@pytest.mark.parametrize("crash", [ZeroDivisionError, OverflowError])
def test_numeric_faults_in_a_command_escape_run_and_exit_3(monkeypatch, capsys, crash):
    # both are ArithmeticErrors, which run would otherwise report as check: FAIL
    def special_det(row):
        raise crash("planted")

    monkeypatch.setattr(nbar_dual, "special_det", special_det)
    with pytest.raises(crash, match="planted"):
        invoke("nbar", "det", "--row=1,2,3")
    assert _main_exit(monkeypatch, "nbar", "det", "--row=1,2,3") == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith(f"{crash.__name__}: planted\n")


def test_main_passes_the_exit_codes_of_run_through(monkeypatch, capsys):
    assert _main_exit(monkeypatch, "slat", "check", slat("chain2")) == 0
    assert _main_exit(monkeypatch, "nbar", "det", "--row", "1/0") == 2
    assert _main_exit(monkeypatch, "--help") == 0
    monkeypatch.setattr(cli, "run", lambda argv: 1)
    assert _main_exit(monkeypatch) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_exit_1_on_failing_report(tmp_path):
    # swap the two degrees of ut2: the grading law breaks
    text = corpus.render_corpus_files()["ut2.galg"]
    text = text.replace("degree E22 n1", "degree E22 n2").replace(
        "degree E11 n2", "degree E11 n1").replace("degree E12 n2", "degree E12 n1")
    (tmp_path / "chain2.slat").write_text(
        corpus.render_corpus_files()["chain2.slat"])
    bad = tmp_path / "bad.galg"
    bad.write_text(text)
    code, out, err = invoke("graded", "verify", str(bad))
    assert code == 1
    assert "grading-law: FAIL" in out
    assert "grading: FAIL" in out


def test_exit_1_on_failing_cross_check(monkeypatch):
    monkeypatch.setattr(nbar_dual, "translate", lambda f, n: f)
    argv = ["nbar", "translate-basis", "--prefix", "3,2", "--tail", "1"]
    message = "breakpoint translates are not linearly independent"
    assert invoke(*argv) == (1, f"check: FAIL [{message}]\n", "")
    assert invoke(*argv, "--format", "tsv") == (1, f"check\tFAIL\t{message}\n", "")


def test_exit_1_when_glued_pair_is_not_glued(monkeypatch):
    # a closure that drops the requested pair: the quotient itself is still consistent
    monkeypatch.setattr(bialgebra, "congruence_closure",
                        lambda s, pairs: bialgebra.Congruence(s, [[i] for i in range(len(s))]))
    argv = ["balg", "quotient", slat("chain3"), "--glue=n2=n3"]
    message = "glued pair n2=n3 lies in two classes"
    assert invoke(*argv) == (1, f"check: FAIL [{message}]\n", "")
    assert invoke(*argv, "--format", "tsv") == (1, f"check\tFAIL\t{message}\n", "")


def test_exit_1_when_projection_merges_classes(monkeypatch):
    # both classes of chain3 / (n2 = n3) projected onto the first: their cosets coincide
    quotient_semilattice = bialgebra.quotient_semilattice
    monkeypatch.setattr(bialgebra, "quotient_semilattice",
                        lambda c: (quotient_semilattice(c)[0], (0,) * len(c.parent)))
    code, out, err = invoke("balg", "quotient", slat("chain3"), "--glue=n2=n3")
    assert (code, err) == (1, "")
    assert "check linear-independence: FAIL [coefficient rank 1 of 2]\n" in out
    assert "check completeness: FAIL\n" in out
    assert out.endswith("quotient: FAIL\n")


def test_exit_1_when_det_disagrees_with_closed_form(monkeypatch):
    closed_form = nbar_dual._special_closed_form
    monkeypatch.setattr(nbar_dual, "_special_closed_form", lambda row: closed_form(row) + 1)
    message = "determinant 3 disagrees with closed form 4"
    assert invoke("nbar", "det", "--row=1,2,3") == (1, f"check: FAIL [{message}]\n", "")


@pytest.mark.parametrize("i", range(3))
def test_exit_1_when_the_diagonal_does_not_factor_the_row(monkeypatch, i):
    # d of 1,2,3 is -1,-1,3; one corrupted d_i breaks the suffix sum at i
    diagonal = nbar_dual._special_diagonal

    def corrupted(row):
        d = diagonal(row)
        d[i] += 1
        return d

    monkeypatch.setattr(nbar_dual, "_special_diagonal", corrupted)
    message = "suffix sums of the diagonal do not give back the row"
    assert invoke("nbar", "det", "--row=1,2,3") == (1, f"check: FAIL [{message}]\n", "")
    assert invoke("nbar", "det", "--row=1,2,3", "--format=tsv") == (
        1, f"check\tFAIL\t{message}\n", "")


def test_nbar_det_on_a_long_row_eliminates_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(exactlin, "det", lambda m: calls.append("det"))
    monkeypatch.setattr(exactlin, "_eliminate", lambda *a: calls.append("_eliminate"))
    row = ",".join(str(v) for v in range(10000, 0, -1))
    assert invoke("nbar", "det", f"--row={row}") == (
        0, "det: 1\nclosed-form: 1\nagree: yes\npreconditions: met\nnonzero: yes\n", "")
    assert calls == []


def _unprintable_rows():
    b = 10 ** 2000
    rng = random.Random(31)
    # 900 distinct 6-digit entries in no order: their differences have about 5.5 digits each
    return [f"{3 * b},{2 * b},{b}", ",".join(map(str, rng.sample(range(10 ** 5, 10 ** 6), 900)))]


@pytest.mark.parametrize("row", _unprintable_rows(), ids=["3b,2b,b", "900-entries"])
def test_exit_2_when_det_has_more_digits_than_can_be_printed(row):
    limit = sys.get_int_max_str_digits()
    message = (f"error: det has more than {limit} digits, the bound on printing an integer "
               "(sys.get_int_max_str_digits)\n")
    assert invoke("nbar", "det", f"--row={row}") == (2, "", message)
    assert invoke("nbar", "det", f"--row={row}", "--format=tsv") == (2, "", message)
    assert sys.get_int_max_str_digits() == limit


def test_nbar_det_prints_up_to_the_digit_bound():
    limit = sys.get_int_max_str_digits()
    b, c = 10 ** (limit // 2) - 1, 10 ** (limit // 2)
    # d = b, b: det b*b has exactly `limit` digits
    code, out, err = invoke("nbar", "det", f"--row={2 * b},{b}")
    assert (code, err, out.splitlines()[0]) == (0, "", f"det: {b * b}")
    # det c*c = 10**limit has one digit more; so has the denominator of 1/(c*c)
    assert invoke("nbar", "det", f"--row={2 * c},{c}")[0] == 2
    code, out, err = invoke("nbar", "det", f"--row=2/{c},1/{c}")
    assert (code, out) == (2, "") and err.startswith("error: det has more than")


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [
    ["graded", "ut", "--size", "3", "--labels", "1,2,3"],
    ["nbar", "det", "--row=1,2"],
    ["slat", "characters", slat("chain2"), "--format=tsv"],
])
def test_a_closed_stdout_exits_quietly(argv):
    err = io.StringIO()
    assert run(argv, _ClosedPipe(), err) == cli.OUTPUT_CLOSED == 141
    assert err.getvalue() == ""


def test_a_closed_stdout_during_a_failed_check_exits_quietly(monkeypatch):
    monkeypatch.setattr(nbar_dual, "translate", lambda f, n: f)
    argv = ["nbar", "translate-basis", "--prefix", "3,2", "--tail", "1"]
    err = io.StringIO()
    assert run(argv, _ClosedPipe(), err) == cli.OUTPUT_CLOSED
    assert err.getvalue() == ""


def _cli_env(buffered):
    src = os.path.dirname(os.path.dirname(os.path.abspath(semidual.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=src, **({} if buffered else {"PYTHONUNBUFFERED": "1"}))


@pytest.mark.parametrize("buffered", [True, False])
def test_a_closed_pipe_ends_the_process_quietly(buffered):
    # ut60 prints far more than a pipe holds, so the writer meets the closed end
    labels = ",".join(str(v) for v in range(1, 61))
    proc = subprocess.Popen([sys.executable, "-m", "semidual.cli", "graded", "ut", "--size",
                             "60", "--labels", labels], env=_cli_env(buffered),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b"basis: E11"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


def test_a_pipe_closed_before_the_report_ends_the_process_quietly():
    # a short report waits in the buffer until main flushes it into the closed pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "semidual.cli", "nbar", "det", "--row=1,2"],
                              env=_cli_env(True), stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize("attr, fault, raised", [
    # s -> s (x) e: comultiplication is not diagonal on the basis
    ("comultiply", lambda a: bialgebra.TensorElement(
        a.parent, {(i, a.parent.identity): v for i, v in a.coeffs.items()}),
     "comultiplication is not diagonal on the basis"),
    # a doubled counit: the basis elements stop being group-like
    ("counit", lambda a: 2 * sum(a.coeffs.values()), "basis element n1 fails the group-like test"),
])
def test_completeness_fails_when_basis_is_not_grouplike(monkeypatch, attr, fault, raised):
    monkeypatch.setattr(bialgebra, attr, fault)
    with pytest.raises(AssertionError, match=raised):
        bialgebra.grouplike_basis_classification(corpus.chain(2))
    code, out, err = invoke("balg", "quotient", slat("chain3"), "--glue=n2=n3")
    assert (code, err) == (1, "")
    assert "check completeness: FAIL\n" in out
    assert out.endswith("quotient: FAIL\n")


def test_tsv_mirror_report():
    code, out, err = invoke("graded", "module-algebra", galg("ut2"),
                            "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "character\tf1 multiplicative\tPASS\t"
    assert lines[-1] == "module-algebra\tPASS"
