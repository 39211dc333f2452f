"""The unit of work the benchmark times and checks."""

_UNSET = object()


class Job:
    """One timed operation and its oracle.

    `run()` is the timed call into the program. `expect()` derives the
    right answer from the generated input; it runs once, lazily, outside
    every timed region, and `compare(output, wanted)` returns None or a
    description of the first disagreement.
    """

    __slots__ = ("name", "run", "_expect", "_compare", "_wanted")

    def __init__(self, name, run, expect, compare):
        self.name = name
        self.run = run
        self._expect = expect
        self._compare = compare
        self._wanted = _UNSET

    def check(self, output):
        if self._wanted is _UNSET:
            self._wanted = self._expect()
        return self._compare(output, self._wanted)
