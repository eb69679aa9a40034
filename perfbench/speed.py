"""Machine-speed reference: a fixed kernel timed next to every measured command.

The benchmark runs on shared virtual CPUs whose speed drifts by 10-20% over
seconds to minutes as other tenants load the host, and that drift swamps
differences between two versions of the program. The kernel below does the
same kinds of work as tarstop (splitting text lines into dicts of tuples,
small dense matrix products) but is the benchmark's own code, so a change
to the program cannot change it. Timing it just before and just after each
command measures how fast the machine ran at that moment; a command's time
divided by that speed factor is its time at the reference speed, given in
seconds on the machine where ``NOMINAL_S`` was measured.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

# Median of ``kernel`` on the reference machine: 2 vCPUs of an Intel Xeon,
# Python 3.11.7, numpy 2.4.6.
NOMINAL_S = 0.0055
REPEATS = 3  # kernel runs per sample

_LINES = [f"T{t} Q0 D{(t * 7919 + r * 104729) % 10**7:07d} {r + 1} {1 - r / 2000:.6f} ref"
          for t in range(2) for r in range(2000)]
_MATRIX = np.arange(4096.0).reshape(64, 64)


def kernel() -> None:
    table: dict[str, list] = {}
    for line in _LINES:
        fields = line.split()
        table.setdefault(fields[0], []).append((fields[2], int(fields[3]), float(fields[4])))
    a = _MATRIX
    for _ in range(30):
        a = np.tanh(a @ a.T * 1e-6)


def sample(repeats: int = REPEATS) -> list[float]:
    """Seconds of ``repeats`` kernel runs, one value each."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


def factor(samples: list[float]) -> float:
    """How much slower than the reference machine these kernel timings ran."""
    return median(samples) / NOMINAL_S
