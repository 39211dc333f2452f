"""Rules on the package source that keep its input edge in one place
and its arithmetic exact.

Numbers from outside the program are read only through the ASCII
grammar of `semidual.errors`, and files are opened only by the two
readers `parse_semilattice_file` and `parse_graded_file`. Coefficients
are ints wherever they are integral, and `int / int` is a float, so `/`
divides only where one operand is built as a `Fraction(...)`; the one
other `/` is the path join of `corpus.data_path`. A value becomes a
Fraction only in `exactlin.exact`, which keeps integral values as ints
and refuses floats: everywhere else `Fraction(...)` is a quotient of two
arguments. The finite side, `semilattice` and `bialgebra`, reads its
ranks off the structure and never eliminates: it imports none of the
dense `Matrix`, `rank`, `det` or `solve`. Nor does the max-monoid side,
`nbar_dual`, which certifies its special_det by a factorization, nor
any other module but `exactlin`, which defines them, and `graded`,
whose one `Matrix` import serves `DualAction.matrices`; the package
re-exports none of them. The max-monoid decomposition
certificate `verify_decomposition` stays independent of the telescoping
that builds the coefficients: it names neither `finite_runs` nor
`threshold_functional`. The graded action laws, `_character_laws` and
`dual_monoid_action`, read one keep word per character and never act on
or build an element: they name none of `_project`, `mul_basis` and
`AlgebraElement`. The finite side's dual, double dual and evaluation
rank work on the int down-set masks alone: `_and_table`,
`dual_semilattice`, `double_dual_iso` and `ev_matrix_rank` name none of
`characters`, `Character` and `join`. The bialgebra certificate
`_table_laws` reads the multiplicative laws off the semilattice table
and the maps' values on the basis, which it is given: it names none of
`comultiply`, `counit`, `multiply`, `TensorElement` and `tensor_square`,
so it never applies a map it certifies or builds a tensor; a class name
that only a `type(x) is C` test compares is no use of it. A max-monoid functional is held as
its runs: nothing in `nbar_dual` reads the dense `.prefix` view but the
`StepFunctional` constructor, the view itself and `__repr__`.
"""

import ast
import pathlib
import re
import textwrap

import semidual

SRC = pathlib.Path(semidual.__file__).parent
FILE_READERS = {"semilattice.py": "parse_semilattice_file", "graded.py": "parse_graded_file"}
NUMBER_READING = re.compile(r"\.isdigit\(|\.isdecimal\(|\.isnumeric\(|type=int")
FILE_OPENING = re.compile(r"\bopen\(|\.read_text\(|\.read_bytes\(")
PATH_JOINS = {"corpus.py": "data_path"}
EXACT = ("exactlin.py", "exact")  # the one function that calls Fraction on one value
NO_ELIMINATION = ("semilattice.py", "bialgebra.py")
NO_ELIMINATION_MAX_MONOID = "nbar_dual.py"
ELIMINATION = {"Matrix", "rank", "det", "solve", "exactlin", "*"}
# what each module may import of ELIMINATION: exactlin defines it, and graded
# keeps the one Matrix import behind DualAction.matrices
ELIMINATION_ALLOWED = {"exactlin.py": ELIMINATION, "graded.py": {"Matrix"}}
RETIRED = ("Matrix", "Rational", "det", "rank", "solve")  # no longer names of the package
# (module, functions, names those functions may not name)
CERTIFICATE = ("nbar_dual.py", ("verify_decomposition",), {"finite_runs", "threshold_functional"})
WORD_LAWS = ("graded.py", ("_character_laws", "dual_monoid_action"),
             {"_project", "mul_basis", "AlgebraElement"})
DOWN_SET_MASKS = ("semilattice.py",
                  ("_and_table", "dual_semilattice", "double_dual_iso", "ev_matrix_rank"),
                  {"characters", "Character", "join"})
TABLE_LAWS = ("bialgebra.py", ("_table_laws",),
              {"comultiply", "counit", "multiply", "TensorElement", "tensor_square"})
# (module, class, the methods of that class that may read the attribute, the attribute)
PREFIX_VIEW = ("nbar_dual.py", "StepFunctional", ("__init__", "prefix", "__repr__"), "prefix")


def _lines(path):
    return enumerate(path.read_text(encoding="utf-8").splitlines(), 1)


def _function_lines(tree, name):
    """The line numbers of the top-level function name in tree, if any."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


def _reader_lines(path):
    """The line numbers of the file reader that path defines, if any."""
    return _function_lines(ast.parse(path.read_text(encoding="utf-8")),
                           FILE_READERS.get(path.name))


def _is_fraction(node):
    """Whether node is a call Fraction(...)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def _inexact_divisions(source, name):
    """Each `/` or `/=` in the source of module name with no Fraction(...) operand,
    outside the path-join function that PATH_JOINS names for it."""
    tree = ast.parse(source)
    joins = _function_lines(tree, PATH_JOINS.get(name))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            operands = (node.target, node.value)
        else:
            continue
        if not any(map(_is_fraction, operands)) and node.lineno not in joins:
            hits.append(f"{name}:{node.lineno}: {ast.unparse(node)}")
    return hits


def _fractions_of_one_value(source, name):
    """Each Fraction(...) call in the source of module name that is not Fraction(a, b),
    outside the function that EXACT names in its module."""
    tree = ast.parse(source)
    inside = _function_lines(tree, EXACT[1]) if name == EXACT[0] else range(0)
    return [f"{name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if _is_fraction(node) and node.lineno not in inside
            and (len(node.args) != 2 or node.keywords
                 or any(isinstance(arg, ast.Starred) for arg in node.args))]


def _elimination_imports(source, name):
    """Each import in the source of module name that can reach dense elimination:
    a name in ELIMINATION from any module, or the exactlin module itself, unless
    ELIMINATION_ALLOWED allows it to module name."""
    forbidden = ELIMINATION - ELIMINATION_ALLOWED.get(name, set())
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names if alias.name in forbidden]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if alias.name.rpartition(".")[2] in forbidden & {"exactlin"}]
        else:
            continue
        hits += [f"{name}:{node.lineno}: {n}" for n in names]
    return hits


def _type_tests(tree):
    """The ids of the names that a `type(x) is C` or `type(x) is not C` test compares."""
    return {id(c) for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Call) and isinstance(node.left.func, ast.Name)
            and node.left.func.id == "type"
            and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            for c in node.comparators if isinstance(c, ast.Name)}


def _forbidden_names(source, name, rule):
    """Each name that rule forbids, as a name, attribute, import or string,
    inside the functions that rule names in its module; a class name in a
    type test is no use of it."""
    module, functions, forbidden = rule
    tree = ast.parse(source)
    inside = {n for fn in functions for n in _function_lines(tree, fn)} if name == module else ()
    tests = _type_tests(tree)
    return [f"{name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if getattr(node, "lineno", None) in inside and id(node) not in tests
            and {getattr(node, field, None) for field in ("id", "attr", "name", "value")}
            & forbidden]


def _rule_violations(rule):
    """The forbidden names the package source has where rule forbids them,
    after asserting that every function rule names exists."""
    source = (SRC / rule[0]).read_text(encoding="utf-8")
    assert all(_function_lines(ast.parse(source), fn) for fn in rule[1])
    return _forbidden_names(source, rule[0], rule)


def _attribute_reads(source, name, rule):
    """Each read of the attribute rule names, as `.attribute` or the string, anywhere
    in rule's module but in the methods of rule's class that it exempts."""
    module, cls, exempt, attribute = rule
    if name != module:
        return []
    tree = ast.parse(source)
    allowed = {n for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls
               for m in c.body if isinstance(m, ast.FunctionDef) and m.name in exempt
               for n in range(m.lineno, m.end_lineno + 1)}
    return [f"{name}:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(tree)
            if getattr(node, "lineno", None) not in allowed
            and (isinstance(node, ast.Attribute) and node.attr == attribute
                 or isinstance(node, ast.Constant) and node.value == attribute)]


def test_numbers_are_read_only_through_the_shared_grammar():
    hits = [f"{path.name}:{n}: {line.strip()}" for path in sorted(SRC.glob("*.py"))
            for n, line in _lines(path) if NUMBER_READING.search(line)]
    assert hits == []


def test_files_are_opened_only_by_the_two_readers():
    assert all(_reader_lines(SRC / name) for name in FILE_READERS)
    hits = [f"{path.name}:{n}: {line.strip()}" for path in sorted(SRC.glob("*.py"))
            for n, line in _lines(path)
            if FILE_OPENING.search(line) and n not in _reader_lines(path)]
    assert hits == []


def test_division_is_exact():
    assert all(_function_lines(ast.parse((SRC / name).read_text(encoding="utf-8")), join)
               for name, join in PATH_JOINS.items())
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in _inexact_divisions(path.read_text(encoding="utf-8"), path.name)]
    assert hits == []


def test_division_rule_rejects_a_planted_int_quotient():
    planted = textwrap.dedent("""\
        from fractions import Fraction

        def data_path(name):
            return root / "data" / name

        def ratio(a, b):
            exact = Fraction(a) / b + a / Fraction(b)
            a /= Fraction(b)
            b /= 2
            return exact + a / b
        """)
    assert set(_inexact_divisions(planted, "corpus.py")) == {
        "corpus.py:9: b /= 2", "corpus.py:10: a / b"}
    # outside corpus.py the path join is no exception
    assert set(_inexact_divisions(planted, "graded.py")) == {
        "graded.py:4: root / 'data' / name", "graded.py:4: root / 'data'",
        "graded.py:9: b /= 2", "graded.py:10: a / b"}


def test_fractions_are_built_from_one_value_only_by_exact():
    assert _function_lines(ast.parse((SRC / EXACT[0]).read_text(encoding="utf-8")), EXACT[1])
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in _fractions_of_one_value(path.read_text(encoding="utf-8"), path.name)]
    assert hits == []


def test_fraction_rule_rejects_a_planted_conversion():
    planted = textwrap.dedent("""\
        from fractions import Fraction

        def exact(v):
            return Fraction(v)

        def ratio(a, b, pair):
            q = Fraction(a, b) + Fraction(a)
            return q + Fraction(*pair) + Fraction(a, denominator=b) + Fraction()
        """)
    assert set(_fractions_of_one_value(planted, "exactlin.py")) == {
        "exactlin.py:7: Fraction(a)", "exactlin.py:8: Fraction(*pair)",
        "exactlin.py:8: Fraction(a, denominator=b)", "exactlin.py:8: Fraction()"}
    # outside exactlin.py a function named exact is no exception
    assert "letterplace.py:4: Fraction(v)" in _fractions_of_one_value(planted, "letterplace.py")


def test_the_finite_side_imports_no_elimination():
    hits = [hit for name in NO_ELIMINATION
            for hit in _elimination_imports((SRC / name).read_text(encoding="utf-8"), name)]
    assert hits == []


def test_the_max_monoid_side_imports_no_elimination():
    name = NO_ELIMINATION_MAX_MONOID
    assert _elimination_imports((SRC / name).read_text(encoding="utf-8"), name) == []


def test_elimination_rule_rejects_planted_imports():
    planted = textwrap.dedent("""\
        from .exactlin import SparseVector, clean
        from .exactlin import Matrix, clean, rank as r
        from . import exactlin
        import semidual.exactlin
        from semidual import det
        from .nbar_dual import solve
        from .exactlin import *
        """)
    assert _elimination_imports(planted, "bialgebra.py") == [
        "bialgebra.py:2: Matrix", "bialgebra.py:2: rank", "bialgebra.py:3: exactlin",
        "bialgebra.py:4: semidual.exactlin", "bialgebra.py:5: det", "bialgebra.py:6: solve",
        "bialgebra.py:7: *"]
    # exact is no elimination; each of the dense four is, in nbar_dual as anywhere
    planted = "from .exactlin import Matrix, det, exact, rank, solve\n"
    assert _elimination_imports(planted, NO_ELIMINATION_MAX_MONOID) == [
        "nbar_dual.py:1: Matrix", "nbar_dual.py:1: det", "nbar_dual.py:1: rank",
        "nbar_dual.py:1: solve"]


def test_no_module_imports_elimination_but_graded_its_matrix():
    assert ELIMINATION_ALLOWED.keys() <= {path.name for path in SRC.glob("*.py")}
    hits = [hit for path in sorted(SRC.glob("*.py"))
            for hit in _elimination_imports(path.read_text(encoding="utf-8"), path.name)]
    assert hits == []


def test_elimination_rule_rejects_planted_imports_in_every_module():
    assert _elimination_imports("from .exactlin import Matrix, det\n", "__init__.py") == [
        "__init__.py:1: Matrix", "__init__.py:1: det"]
    assert _elimination_imports("from .exactlin import solve\n", "cli.py") == ["cli.py:1: solve"]
    # graded keeps Matrix, and only Matrix
    planted = "from .exactlin import Matrix, SparseVector, rank\nfrom . import exactlin\n"
    assert _elimination_imports(planted, "graded.py") == [
        "graded.py:1: rank", "graded.py:2: exactlin"]
    # exactlin defines the elimination
    assert _elimination_imports(planted, "exactlin.py") == []


def test_package_names_resolve_and_the_elimination_is_not_among_them():
    assert [name for name in semidual.__all__ if not hasattr(semidual, name)] == []
    assert [name for name in RETIRED if hasattr(semidual, name)] == []
    assert not set(RETIRED) & set(semidual.__all__)


def test_decomposition_certificate_names_no_telescoping():
    assert _rule_violations(CERTIFICATE) == []


def test_telescoping_rule_rejects_planted_uses():
    planted = textwrap.dedent("""\
        def finite_runs(f):
            return threshold_functional(f)

        def verify_decomposition(f, coeffs):
            "Never through finite_runs."
            from .nbar_dual import threshold_functional as t
            runs = finite_runs(f)
            return nbar_dual.threshold_functional, getattr(nbar_dual, "finite_runs")
        """)
    assert sorted(_forbidden_names(planted, "nbar_dual.py", CERTIFICATE)) == [
        "nbar_dual.py:6: threshold_functional as t", "nbar_dual.py:7: finite_runs",
        "nbar_dual.py:8: 'finite_runs'", "nbar_dual.py:8: nbar_dual.threshold_functional"]
    # outside nbar_dual.py a function of that name is no certificate
    assert _forbidden_names(planted, "graded.py", CERTIFICATE) == []


def test_character_laws_act_on_no_element():
    assert _rule_violations(WORD_LAWS) == []


def test_acting_rule_rejects_planted_uses():
    planted = textwrap.dedent("""\
        def _project(word, a):
            return a.parent.mul_basis(0, 0)

        def _character_laws(algebra, kind, unit_name, unit_note):
            "Never through _project."
            from .graded import _project as p
            return [_project(w, algebra.one()) for w in words]

        def dual_monoid_action(algebra):
            return algebra.mul_basis(0, 1), getattr(algebra, "mul_basis")
            images = [AlgebraElement(algebra, {j: 1}) for j in range(algebra.dim)]
        """)
    assert sorted(_forbidden_names(planted, "graded.py", WORD_LAWS)) == [
        "graded.py:10: 'mul_basis'", "graded.py:10: algebra.mul_basis",
        "graded.py:11: AlgebraElement", "graded.py:6: _project as p", "graded.py:7: _project"]
    # outside graded.py functions of those names are no action laws
    assert _forbidden_names(planted, "nbar_dual.py", WORD_LAWS) == []


def test_duality_works_on_down_set_masks_only():
    assert _rule_violations(DOWN_SET_MASKS) == []


def test_mask_rule_rejects_planted_uses():
    planted = textwrap.dedent("""\
        def characters(s):
            return [Character(v) for v in s.table]

        def _and_table(rows, width):
            return [int("".join(map(str, values)), 2) for values in rows]

        def double_dual_iso(s):
            from .semilattice import Character as C, characters
            return getattr(semilattice, "characters")(s)

        def ev_matrix_rank(s):
            return [ch(x) for ch in characters(s) for x in range(len(s))]
        """)
    assert sorted(_forbidden_names(planted, "semilattice.py", DOWN_SET_MASKS)) == [
        "semilattice.py:12: characters", "semilattice.py:5: ''.join",
        "semilattice.py:8: Character as C", "semilattice.py:8: characters",
        "semilattice.py:9: 'characters'"]
    # outside semilattice.py functions of those names are not the duality
    assert _forbidden_names(planted, "graded.py", DOWN_SET_MASKS) == []


def test_axiom_table_laws_apply_no_map():
    assert _rule_violations(TABLE_LAWS) == []


def test_table_law_rule_rejects_planted_uses():
    planted = textwrap.dedent("""\
        def comultiply(a):
            return TensorElement(a.parent, {})

        def _table_laws(s, products, deltas, counits):
            "Never through comultiply."
            from .bialgebra import counit as eps, tensor_square
            delta_law = all(comultiply(p) == deltas[0] * deltas[0] for p in products[0])
            shaped = type(deltas[0]) is TensorElement and type(deltas[1]) is not TensorElement
            built = type(deltas[0]) == TensorElement or TensorElement(s, {}) is deltas[0]
            return delta_law, getattr(bialgebra, "multiply") is bialgebra.counit, TensorElement
        """)
    # the type tests of line 8 pass; the == of line 9 and the call build or compare otherwise
    assert sorted(_forbidden_names(planted, "bialgebra.py", TABLE_LAWS)) == [
        "bialgebra.py:10: 'multiply'", "bialgebra.py:10: TensorElement",
        "bialgebra.py:10: bialgebra.counit", "bialgebra.py:6: counit as eps",
        "bialgebra.py:6: tensor_square", "bialgebra.py:7: comultiply",
        "bialgebra.py:9: TensorElement", "bialgebra.py:9: TensorElement"]
    # outside bialgebra.py a function of that name certifies nothing
    assert _forbidden_names(planted, "graded.py", TABLE_LAWS) == []


def test_max_monoid_functionals_work_on_runs():
    source = (SRC / PREFIX_VIEW[0]).read_text(encoding="utf-8")
    cls = next(c for c in ast.parse(source).body
               if isinstance(c, ast.ClassDef) and c.name == PREFIX_VIEW[1])
    assert set(PREFIX_VIEW[2]) <= {m.name for m in cls.body if isinstance(m, ast.FunctionDef)}
    assert _attribute_reads(source, PREFIX_VIEW[0], PREFIX_VIEW) == []


def test_prefix_rule_rejects_planted_reads():
    planted = textwrap.dedent("""\
        class StepFunctional:
            def __init__(self, prefix, tail):
                self.runs = list(prefix)

            @property
            def prefix(self):
                return tuple(self.runs)

            def _at(self, i):
                return self.prefix[i]

            def __repr__(self):
                return f"StepFunctional(prefix={self.prefix})"

        class TranslateSpanBasis:
            def __repr__(self):
                return str(self.f.prefix)

        def translate(f, n):
            key = lambda g: g.prefix
            return getattr(f, "prefix")[n:], key

        TAIL = StepFunctional((), 0).prefix
        """)
    assert sorted(_attribute_reads(planted, "nbar_dual.py", PREFIX_VIEW)) == [
        "nbar_dual.py:10: self.prefix", "nbar_dual.py:17: self.f.prefix",
        "nbar_dual.py:20: g.prefix", "nbar_dual.py:21: 'prefix'",
        "nbar_dual.py:23: StepFunctional((), 0).prefix"]
    # outside nbar_dual.py a functional may hold a prefix
    assert _attribute_reads(planted, "graded.py", PREFIX_VIEW) == []
