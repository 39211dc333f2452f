"""Errors and parsing helpers shared by more than one module."""

import re
import sys
from fractions import Fraction
from itertools import islice


class ParseError(ValueError):
    """A text input could not be parsed. Carries a 1-based position."""

    def __init__(self, message, line=1, col=1, source="<input>"):
        super().__init__(f"{source}:{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.source = source


def word_column(raw, k, start=0, word=r"\S+"):
    """1-based column in raw of the k-th match of the regex word from index start.

    The parsers split lines with str.split and call this only to position
    an error, so well-formed input never pays for a regex scan.
    """
    return next(islice(re.compile(word).finditer(raw, start), k, None)).start() + 1


def reject_repeats(labels, what, raw, lineno, source):
    """Raise a ParseError at the first of labels, read after the `:` of raw, seen before."""
    seen = set()
    for k, label in enumerate(labels):
        if label in seen:
            raise ParseError(f"duplicate {what} {label!r}",
                             lineno, word_column(raw, k, raw.index(":") + 1), source)
        seen.add(label)


NATURAL = re.compile(r"[0-9]+")
RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def read_natural(text):
    """The int written as ASCII digits [0-9]+, and no other form.

    Raises ValueError on any other form; int() alone also takes signs,
    surrounding spaces, underscores and non-ASCII digits.
    """
    if NATURAL.fullmatch(text) is None:
        raise ValueError(f"not a natural number: {text!r}")
    return int(text)


def read_rational(text):
    """The Fraction written as -?digits(/digits)? in ASCII digits, and no other form.

    Raises ValueError on any other form and ZeroDivisionError on a zero
    denominator. Fraction() alone also takes decimals and exponents, and
    would spend seconds building the integer of 1e10000000.
    """
    match = RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"not a rational: {text!r}")
    num, den = match.groups()
    return Fraction(int(num), int(den or 1))


def quoted(text):
    """repr(text) for a message refusing text; when text holds a run of more digits than
    int() reads (sys.get_int_max_str_digits()), its first 20 characters and that bound."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and any(len(run) > limit for run in NATURAL.findall(text)):
        return (f"{text[:20]!r}... (more than {limit} digits, the bound of "
                "sys.get_int_max_str_digits())")
    return repr(text)
