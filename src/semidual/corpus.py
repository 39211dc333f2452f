"""Bundled example structures.

Chains, small Boolean lattices, divisor lattices and the graded
upper-triangular algebras, both as constructors and as shipped text
files (data/*.slat, data/*.galg).
"""

from importlib import resources
from math import gcd

from .graded import parse_graded_file, print_graded, ut_graded
from .semilattice import parse_semilattice_file, print_semilattice, validate


def chain(m):
    """The chain n1 < ... < nm under max, identity n1."""
    labels = tuple(f"n{i}" for i in range(1, m + 1))
    op_table = {(labels[i], labels[j]): labels[max(i, j)]
                for i in range(m) for j in range(i, m)}
    return validate(labels, op_table, labels[0])


def boolean_lattice(k):
    """Subsets of {1..k} under union; the empty set is labelled 0."""
    def label(mask):
        if mask == 0:
            return "0"
        return "".join(str(i + 1) for i in range(k) if mask >> i & 1)

    masks = list(range(1 << k))
    labels = tuple(label(mask) for mask in masks)
    op_table = {(label(a), label(b)): label(a | b)
                for a in masks for b in masks}
    return validate(labels, op_table, "0")


def divisor_lattice(n):
    """Divisors of n under lcm, identity 1."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    labels = tuple(str(d) for d in divisors)
    op_table = {(str(a), str(b)): str(a * b // gcd(a, b))
                for a in divisors for b in divisors}
    return validate(labels, op_table, "1")


def semilattices():
    """All bundled semilattices, keyed by corpus name."""
    out = {f"chain{m}": chain(m) for m in range(1, 9)}
    out.update({f"bool{k}": boolean_lattice(k) for k in range(1, 4)})
    out.update({f"div{n}": divisor_lattice(n) for n in (12, 30, 36)})
    return out


def ut_algebras():
    """The bundled graded upper-triangular algebras UT_1 .. UT_5."""
    return {f"ut{m}": ut_graded(m, list(range(1, m + 1))) for m in range(1, 6)}


def data_path(name):
    """Filesystem path of a bundled corpus file (for the CLI and tests)."""
    return str(resources.files("semidual") / "data" / name)


def load_semilattice(name):
    return parse_semilattice_file(data_path(f"{name}.slat"))


def load_graded(name):
    return parse_graded_file(data_path(f"{name}.galg"))


def render_corpus_files():
    """Canonical text of every bundled structure, keyed by file name."""
    files = {}
    for name, s in semilattices().items():
        files[f"{name}.slat"] = print_semilattice(s)
    for name, algebra in ut_algebras().items():
        m = int(name[2:])
        files[f"{name}.galg"] = print_graded(algebra, f"chain{m}.slat")
    return files
