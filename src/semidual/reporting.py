"""PASS/FAIL/INFO check lines used by the verification reports."""

from dataclasses import dataclass

PASS = "PASS"
FAIL = "FAIL"
INFO = "INFO"


@dataclass(frozen=True)
class CheckLine:
    kind: str
    name: str
    status: str
    witness: str = ""

    def render(self):
        text = f"{self.kind} {self.name}: {self.status}"
        if self.witness:
            text += f" {self.witness}"
        return text


class Report:
    """An ordered list of check lines; INFO lines do not fail a report."""

    def __init__(self, lines=()):
        self.lines = list(lines)

    def add(self, kind, name, status, witness=""):
        self.lines.append(CheckLine(kind, name, status, witness))

    def check(self, kind, name, witness):
        """PASS when witness is None, otherwise FAIL with `[witness ...]`."""
        failed = witness is not None
        self.add(kind, name, FAIL if failed else PASS, f"[witness {witness}]" if failed else "")

    @property
    def passed(self):
        return all(line.status != FAIL for line in self.lines)

    def failures(self):
        return [line for line in self.lines if line.status == FAIL]

    def render(self):
        return "\n".join(line.render() for line in self.lines)

    def __repr__(self):
        return f"Report({'PASS' if self.passed else 'FAIL'}, {len(self.lines)} lines)"
