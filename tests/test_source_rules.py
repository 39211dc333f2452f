"""Rules on the package source that keep its input edge in one place.

Numbers from outside the program are read only through the ASCII
grammar of `semidual.errors`, and files are opened only by the two
readers `parse_semilattice_file` and `parse_graded_file`.
"""

import ast
import pathlib
import re

import semidual

SRC = pathlib.Path(semidual.__file__).parent
FILE_READERS = {"semilattice.py": "parse_semilattice_file", "graded.py": "parse_graded_file"}
NUMBER_READING = re.compile(r"\.isdigit\(|\.isdecimal\(|\.isnumeric\(|type=int")
FILE_OPENING = re.compile(r"\bopen\(|\.read_text\(|\.read_bytes\(")


def _lines(path):
    return enumerate(path.read_text(encoding="utf-8").splitlines(), 1)


def _reader_lines(path):
    """The line numbers of the file reader that path defines, if any."""
    name = FILE_READERS.get(path.name)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    return range(0)


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
