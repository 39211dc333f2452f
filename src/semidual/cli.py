"""Command-line surface: batch commands with deterministic text reports.

Exit codes: 0 for success / all-PASS reports, 1 when any check FAILs,
2 for input errors (with a position diagnostic where available), and 3
when an exception escapes `run`, a crash such as ZeroDivisionError, with
the traceback on stderr. An internal cross-check that finds its two
computations disagreeing (an ArithmeticError from the nbar certificates,
a character evaluation matrix that `slat ev-rank` finds not
unitriangular, or a glued pair that `balg quotient` finds in two
classes) is a FAIL: it prints `check: FAIL [message]` and exits 1.
When stdout closes before the report is written, as in `| head`, the
command stops at the failed write and exits 141 (128 + SIGPIPE, the
status a shell reports for a writer killed by its closed pipe) with
nothing on stderr. `--format tsv` mirrors every line as tab-separated
fields for scripts.
"""

import argparse
import functools
import sys
import traceback

from . import bialgebra, graded, letterplace, nbar_dual, semilattice
from .errors import ParseError, quoted, read_natural, read_rational
from .extnat import parse_point
from .reporting import FAIL, PASS


OUTPUT_CLOSED = 141


class _UsageError(ValueError):
    pass


class _OutputClosed(Exception):
    """stdout refused a write: nobody reads the report any more."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _parse_optional(self, arg_string):
        # a minus sign before anything but a letter or a second minus starts
        # a value, such as the letterplace expression -(x2|1), not a flag
        if arg_string[:1] == "-" and len(arg_string) > 1 and not (
                arg_string[1] == "-" or arg_string[1].isalpha()):
            return None
        return super()._parse_optional(arg_string)


class Output:
    def __init__(self, stream, fmt):
        self.stream = stream
        self.fmt = fmt

    def emit(self, human, record=None):
        if self.fmt == "tsv":
            fields = record if record is not None else (human,)
            text = "\t".join(str(f) for f in fields) + "\n"
        else:
            text = human + "\n"
        try:
            self.stream.write(text)
        except OSError as exc:
            raise _OutputClosed from exc

    def fields(self, *pairs):
        """One `key: value` line per (key, value) pair, `key<TAB>value` in tsv."""
        for key, value in pairs:
            self.emit(f"{key}: {value}", (key, value))

    def emit_verdict(self, name, report):
        """The report's lines, then `name: PASS|FAIL`; returns the exit code."""
        for line in report.lines:
            self.emit(line.render(), (line.kind, line.name, line.status, line.witness))
        self.fields((name, PASS if report.passed else FAIL))
        return 0 if report.passed else 1


def _rational(text):
    try:
        return read_rational(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"bad rational {quoted(text)}") from None


def _natural(text):
    try:
        return read_natural(text)
    except ValueError:
        raise _UsageError(f"bad natural number {quoted(text)}") from None


def _items(text):
    """The comma-separated items of text: none in the empty string, and an empty item kept."""
    return text.split(",") if text else []


def _parse_list(text, read):
    return [read(part) for part in _items(text)]


def _parse_element(algebra, text):
    coords = {}
    for part in _items(text):
        label, sep, value = part.partition(":")
        if not sep:
            raise _UsageError(f"element coordinate {part!r} needs label:rational")
        if label in coords:
            raise _UsageError(f"{label!r} named twice in --element")
        coords[label] = _rational(value)
    return algebra.element_from_labels(coords)


def _char_by_name(s, name):
    chars = semilattice.characters(s)
    for i, ch in enumerate(chars):
        if semilattice.character_label(i) == name:
            return ch
    raise _UsageError(f"no character named {name!r} (have f1..f{len(chars)})")


def _cmd_slat(args, out):
    if args.slat_cmd == "check":
        try:
            s = semilattice.parse_semilattice_file(args.file)
        except semilattice.SemilatticeError as exc:
            out.fields(("valid", "no"), ("error", exc))
            return 1
        out.fields(("elements", " ".join(s.elements)), ("identity", s.label(s.identity)),
                   ("valid", "yes"))
        return 0

    s = semilattice.parse_semilattice_file(args.file)
    if args.slat_cmd == "order":
        for i, j in semilattice.induced_order(s):
            if i != j:
                out.emit(f"{s.label(i)} <= {s.label(j)}", ("order", s.label(i), s.label(j)))
        return 0
    if args.slat_cmd == "characters":
        out.fields(*((semilattice.character_label(i), ch.bits())
                     for i, ch in enumerate(semilattice.characters(s))))
        return 0
    if args.slat_cmd == "dual":
        text = semilattice.print_semilattice(semilattice.dual_semilattice(s))
        for line in text.rstrip("\n").split("\n"):
            out.emit(line)
        return 0
    if args.slat_cmd == "double-dual":
        try:
            iso = semilattice.double_dual_iso(s)
        except semilattice.DoubleDualError as exc:
            out.emit(f"isomorphism: FAIL {exc}", ("isomorphism", "FAIL", str(exc)))
            return 1
        for i in range(len(s)):
            target = iso.target.label(iso.apply(i))
            out.emit(f"{s.label(i)} -> {target}", ("map", s.label(i), target))
        out.fields(("isomorphism", "OK"))
        return 0
    # ev-rank: a rank other than len(s) is an ArithmeticError, a failed check
    out.fields(("rank", semilattice.ev_matrix_rank(s)), ("size", len(s)), ("full-rank", "yes"))
    return 0


def _cmd_balg(args, out):
    s = semilattice.parse_semilattice_file(args.file)
    if args.balg_cmd == "axioms":
        return out.emit_verdict("axioms", bialgebra.check_bialgebra_axioms(s))
    # quotient
    pairs = []
    for piece in _items(args.glue):
        a, sep, b = piece.partition("=")
        if not sep:
            raise _UsageError(f"glue pair {piece!r} needs a=b")
        pairs.append((a, b))
    congruence = bialgebra.congruence_closure(s, pairs)
    for a, b in pairs:
        if congruence.class_of(s.index(a)) != congruence.class_of(s.index(b)):
            raise ArithmeticError(f"glued pair {a}={b} lies in two classes")
    result = bialgebra.quotient_grouplikes(s, congruence)
    for ci, members in enumerate(congruence.classes):
        label = congruence.class_label(ci)
        names = " ".join(s.label(m) for m in members)
        out.emit(f"class {label}: {names}", ("class", label, names))
    return out.emit_verdict("quotient", result.report)


def _cmd_graded(args, out):
    if args.graded_cmd == "ut":
        size = _natural(args.size)
        labels = _parse_list(args.labels, _natural)
        algebra = graded.ut_graded(size, labels)
        if labels == list(range(1, size + 1)):
            ref = f"chain{size}.slat"  # matches the bundled corpus file
        else:
            ref = "chain-" + "-".join(str(v) for v in labels) + ".slat"
        text = graded.print_graded(algebra, ref)
        for line in text.rstrip("\n").split("\n"):
            out.emit(line)
        return 0

    algebra = graded.parse_graded_file(args.file)
    if args.graded_cmd == "verify":
        return out.emit_verdict("grading", graded.verify_grading(algebra))
    if args.graded_cmd == "act":
        ch = _char_by_name(algebra.grading, args.char)
        element = _parse_element(algebra, args.element)
        image = graded.act_character(ch, element)
        text = graded.format_algebra_element(image)
        out.emit(text, ("result", text))
        return 0
    if args.graded_cmd == "module-algebra":
        return out.emit_verdict("module-algebra", graded.check_module_algebra(algebra))
    # action-table
    action = graded.dual_monoid_action(algebra)
    for name, word in zip(action.labels, action.words):
        images = [f"{b} -> {b}:1" if word >> j & 1 else f"{b} -> 0"
                  for j, b in enumerate(algebra.basis)]
        out.emit(f"gamma {name}: {', '.join(images)}",
                 ("gamma", name, "; ".join(images)))
    return out.emit_verdict("action", action.report)


def _nbar_functional(args):
    prefix = _parse_list(args.prefix, _rational)
    return nbar_dual.StepFunctional(prefix, _rational(args.tail))


def _refuse_unprintable(pairs):
    """Refuse, before any line is printed, the first (name, value) pair whose integers
    have more decimal digits than this interpreter converts to text; its global bound stays."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    bound = 10 ** limit
    for name, value in pairs:
        if abs(value.numerator) >= bound or value.denominator >= bound:
            raise _UsageError(f"{name} has more than {limit} digits, the bound on printing "
                              "an integer (sys.get_int_max_str_digits)")


def _printable_poly(p):
    """p, once each of its coefficients is known to print."""
    _refuse_unprintable(("coefficient", c) for c in p.coeffs.values())
    return p


def _cmd_nbar(args, out):
    if args.nbar_cmd == "det":
        result = nbar_dual.special_det(_parse_list(args.row, _rational))
        _refuse_unprintable((("det", result.det), ("closed-form", result.closed_form)))
        out.fields(("det", result.det), ("closed-form", result.closed_form), ("agree", "yes"),
                   ("preconditions", "met" if result.preconditions_met else "violated"),
                   ("nonzero", "yes" if result.nonzero else "no"))
        return 0

    f = _nbar_functional(args)
    if args.nbar_cmd == "is-char":
        threshold = nbar_dual.is_character(f)
        if threshold is None:
            out.fields(("character", "no"))
        else:
            out.fields(("character", "yes"), ("threshold", threshold))
        return 0
    if args.nbar_cmd == "decompose":
        coeffs = nbar_dual.grouplike_decompose(f)
        _refuse_unprintable(("coefficient", c) for c in coeffs.values())
        points = sorted(coeffs, reverse=True)
        body = " ".join(f"{p}:{coeffs[p]}" for p in points)
        out.emit(body, tuple(f"{p}:{coeffs[p]}" for p in points))
        out.fields(("verified", "OK"))
        return 0
    # translate-basis
    basis = nbar_dual.translate_span_basis(f)
    points = " ".join(str(p) for p in basis.breakpoints)
    out.emit(f"breakpoints:{(' ' + points) if points else ''}", ("breakpoints", points))
    tail = basis.tail_point if basis.tail_point is not None else "none"
    out.fields(("tail-point", tail), ("dimension", basis.dimension), ("verified", "OK"))
    return 0


def _lp_context(args):
    odd_letters = _parse_list(args.odd_letters, _natural)
    odd_places = _parse_list(args.odd_places, _natural)
    return letterplace.ParityContext.make(odd_letters, odd_places)


def _cmd_lp(args, out):
    ctx = _lp_context(args)
    if args.lp_cmd == "mul":
        if len(args.expr) != 2:
            raise _UsageError("mul needs exactly two expressions")
        p = letterplace.parse_poly(args.expr[0], ctx)
        q = letterplace.parse_poly(args.expr[1], ctx)
        text = letterplace.format_poly(_printable_poly(p * q))
        out.emit(text, ("product", text))
        return 0
    if args.lp_cmd == "weight":
        p = letterplace.parse_poly(" ".join(args.expr), ctx)
        components = letterplace.weight_components(_printable_poly(p))
        if not components:
            out.emit("0", ("weight", "", "0"))
        for w, part in components.items():
            text = letterplace.format_poly(part)
            out.emit(f"{w}: {text}", ("weight", w, text))
        return 0
    if args.lp_cmd == "act":
        z = parse_point(args.z)
        p = letterplace.parse_poly(" ".join(args.expr), ctx)
        text = letterplace.format_poly(_printable_poly(letterplace.act_min(z, p)))
        out.emit(text, ("result", text))
        return 0
    # embed
    letters = [_natural(x) for x in args.expr]
    text = letterplace.format_poly(letterplace.embed_word(letters, ctx))
    out.emit(text, ("result", text))
    return 0


@functools.cache
def build_parser():
    common = _ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("human", "tsv"), default="human")

    parser = _ArgumentParser(prog="semidual", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    slat = top.add_parser("slat", help="finite semilattice commands")
    slat_sub = slat.add_subparsers(dest="slat_cmd", required=True)
    for name in ("check", "order", "characters", "dual", "double-dual", "ev-rank"):
        sub = slat_sub.add_parser(name, parents=[common])
        sub.add_argument("file")
        sub.set_defaults(func=_cmd_slat)

    balg = top.add_parser("balg", help="monoid-algebra bialgebra commands")
    balg_sub = balg.add_subparsers(dest="balg_cmd", required=True)
    axioms = balg_sub.add_parser("axioms", parents=[common])
    axioms.add_argument("file")
    axioms.set_defaults(func=_cmd_balg)
    quotient = balg_sub.add_parser("quotient", parents=[common])
    quotient.add_argument("file")
    quotient.add_argument("--glue", default="", help="pairs a=b[,c=d] to identify")
    quotient.set_defaults(func=_cmd_balg)

    gr = top.add_parser("graded", help="graded finite-dimensional algebra commands")
    gr_sub = gr.add_subparsers(dest="graded_cmd", required=True)
    for name in ("verify", "act", "module-algebra", "action-table"):
        sub = gr_sub.add_parser(name, parents=[common])
        sub.add_argument("file")
        if name == "act":
            sub.add_argument("--char", required=True)
            sub.add_argument("--element", required=True)
        sub.set_defaults(func=_cmd_graded)
    ut = gr_sub.add_parser("ut", parents=[common])
    ut.add_argument("--size", required=True)
    ut.add_argument("--labels", required=True)
    ut.set_defaults(func=_cmd_graded)

    nbar = top.add_parser("nbar", help="finite dual of the max-monoid")
    nbar_sub = nbar.add_subparsers(dest="nbar_cmd", required=True)
    for name in ("is-char", "decompose", "translate-basis"):
        sub = nbar_sub.add_parser(name, parents=[common])
        sub.add_argument("--prefix", default="")
        sub.add_argument("--tail", required=True)
        sub.set_defaults(func=_cmd_nbar)
    ndet = nbar_sub.add_parser("det", parents=[common])
    ndet.add_argument("--row", required=True)
    ndet.set_defaults(func=_cmd_nbar)

    lp = top.add_parser("lp", help="letterplace superalgebra commands")
    lp_sub = lp.add_subparsers(dest="lp_cmd", required=True)
    for name in ("mul", "weight", "act", "embed"):
        sub = lp_sub.add_parser(name, parents=[common])
        sub.add_argument("expr", nargs="+")
        sub.add_argument("--odd-letters", default="")
        sub.add_argument("--odd-places", default="")
        if name == "act":
            sub.add_argument("--z", required=True)
        sub.set_defaults(func=_cmd_lp)

    return parser


def run(argv, out_stream=None, err_stream=None):
    out_stream = out_stream if out_stream is not None else sys.stdout
    err_stream = err_stream if err_stream is not None else sys.stderr
    try:
        return _run(argv, out_stream, err_stream)
    except _OutputClosed:
        return OUTPUT_CLOSED


def _run(argv, out_stream, err_stream):
    try:
        args = build_parser().parse_args(argv)
        out = Output(out_stream, args.format)
        return args.func(args, out)
    except (ZeroDivisionError, OverflowError):
        raise  # numeric faults are bugs, not failed checks
    except ArithmeticError as exc:
        out.emit(f"check: FAIL [{exc}]", ("check", FAIL, str(exc)))
        return 1
    except ParseError as exc:
        err_stream.write(f"{exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        err_stream.write(f"error: {exc}\n")
        return 2


def main():
    try:
        code = run(sys.argv[1:])
    except Exception:  # a crash, never a failed check or a bad input
        traceback.print_exc()
        sys.exit(3)
    try:
        sys.stdout.flush()  # a short report may still wait in the buffer
    except OSError:
        code = OUTPUT_CLOSED
    if code == OUTPUT_CLOSED:
        sys.stdout = None  # the buffered rest can never be written: no flush at exit
    sys.exit(code)


if __name__ == "__main__":
    main()
