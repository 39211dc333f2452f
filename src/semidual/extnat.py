"""The extended natural chain -inf < 0 < 1 < 2 < ... < +inf.

Monomial weights live in the lower part (no +inf) with max as the monoid
operation; threshold characters are indexed by the whole chain with min.
Both are represented by the same tagged point type.
"""

from dataclasses import dataclass

from .errors import quoted, read_natural

_NEG, _FIN, _POS = -1, 0, 1


@dataclass(frozen=True, order=True)
class ExtNat:
    """One point of the chain, ordered by (kind, n). Build with NEG_INF, POS_INF and fin(n)."""

    kind: int
    n: int = 0

    def __post_init__(self):
        if self.kind not in (_NEG, _FIN, _POS):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == _FIN and (type(self.n) is not int or self.n < 0):
            raise ValueError(f"finite point needs a natural number, got {self.n!r}")
        if self.kind != _FIN and self.n != 0:
            raise ValueError("infinite points carry no number")

    @property
    def finite(self):
        return self.kind == _FIN

    def succ(self):
        """The next point up; +inf is its own successor."""
        if self.kind == _NEG:
            return fin(0)
        if self.kind == _FIN:
            return fin(self.n + 1)
        return self

    def __str__(self):
        if self.kind == _NEG:
            return "-inf"
        if self.kind == _POS:
            return "+inf"
        return str(self.n)

    def __repr__(self):
        return f"ExtNat({self})"


NEG_INF = ExtNat(_NEG)
POS_INF = ExtNat(_POS)


def fin(n):
    return ExtNat(_FIN, n)


def parse_point(text):
    """Parse exactly '-inf', '+inf' or a natural number in ASCII digits."""
    if text == "-inf":
        return NEG_INF
    if text == "+inf":
        return POS_INF
    try:
        return fin(read_natural(text))
    except ValueError:
        raise ValueError(f"not a point of the extended chain: {quoted(text)}") from None
