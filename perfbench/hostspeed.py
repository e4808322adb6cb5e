"""A fixed reference kernel that measures how fast the shared host runs now.

The benchmark runs on a few cores of a shared host that other tenants slow
by 10-80%, in spells from under a second to minutes.  The process's own CPU
time moves with wall time, so the loss is contention for the core, not time
spent off it.  Every job time carries the host's speed at that moment, and
runs of the same code a minute apart differ by more than any bound worth
setting.

The kernel below does the same kinds of work as the program (integer
products summed over zipped rows, row elimination, dict and tuple look-ups)
on fixed data, and never touches the package.  Timed between the jobs of a
pass, it tracks the host's speed around each job, and `scaled` brings each
job's time to a nominal host on which the kernel takes `NOMINAL_S`.  A
change to the program moves job times and leaves the kernel alone, so it
moves the scaled times by the same share.
"""

from __future__ import annotations

import gc
import time

# The kernel's time on an idle 2-vCPU x86 VM (Intel Xeon), Python 3.11.
NOMINAL_S = 0.004
ROUNDS = 8  # kernel runs per sample, about NOMINAL_S
WINDOW = 2  # samples on each side of a job that stand for the host's speed during it

_N = 14
_A = [[(3 * i + 7 * j) % 11 - 5 for j in range(_N)] for i in range(_N)]
_B = [[(5 * i + 2 * j) % 13 - 6 for j in range(_N)] for i in range(_N)]


def kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum of it."""
    cols = [list(col) for col in zip(*_B)]
    rows = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in _A]
    for p in range(_N - 1):  # fraction-free elimination below the diagonal
        pivot = rows[p][p] or 1
        for r in range(p + 1, _N):
            f = rows[r][p]
            if f:
                rows[r] = [pivot * x - f * y for x, y in zip(rows[r], rows[p])]
    index = {}
    for i, row in enumerate(rows):
        for j in range(0, _N, 2):
            index[(i, j)] = row[j] % 1000003
    return sum(index.values())


CHECKSUM = kernel()


def sample() -> float:
    """Wall time of ROUNDS runs of the kernel.

    The collector runs first and is off while the kernel runs, so the
    sample never pays for the garbage of the job before it.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        values = {kernel() for _ in range(ROUNDS)}
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    if values != {CHECKSUM}:
        raise RuntimeError("reference kernel gave a different checksum")
    return elapsed


def scaled(job_s: list[float], kernel_s: list[float]) -> list[float]:
    """The job times brought to the nominal host.

    `kernel_s` holds one sample before each job and one after the last, so
    job i lies between samples i and i+1.  The host's load changes within
    seconds, so a job's own stretch of the run stands for its speed: the mean
    of the WINDOW samples on each side of the job.
    """
    out = []
    for i, t in enumerate(job_s):
        near = kernel_s[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out.append(t * NOMINAL_S * len(near) / sum(near))
    return out
