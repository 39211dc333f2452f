"""The fixed reference kernel that `cost_ref` divides job times by.

Pure Python, standard library only, and nothing from `semidual`:
dict updates keyed by small tuples, the operation the package spends most
of its time on. The machine's speed drifts from second to second (see
README.md), and a job and the kernel timed just before and just after it
see the same drift, so their ratio cancels it. Dict work was chosen
because it slows by the same factor as the workloads do when the machine
is busy. Fraction-heavy or big-integer loops slow by more or less than
that, and their ratio would still drift.

Never change this file. Every `cost_ref` ever recorded is in units of
this kernel; changing it breaks the comparison with all of them.
"""

import time

CHECKSUM = (407, 6123250)


def reference_kernel():
    counts = {}
    for i in range(3500):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
    return len(counts), sum(counts.values())


def time_kernel(repeats=3):
    """Median wall time in seconds of `repeats` back-to-back kernel calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]
