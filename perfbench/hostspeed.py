"""Host slowness from a frozen calibration kernel.

On a shared virtual machine the speed of a vCPU follows its neighbours on
the host: a fixed pure-Python loop runs up to twice as slowly for seconds
or minutes at a time, with CPU time stretching as much as wall time.  The
benchmark therefore times this kernel right before and right after every
operation and divides the operation's seconds by the host's slowness, the
kernel's time over its reference time.  Reported times are then seconds at
the reference speed, and what they measure is the program, not the host.

The kernel mixes the three kinds of work gutzmc does: an interpreter loop,
small dense linear algebra, and a pass over a 2 MB complex register.  It is
part of the benchmark's definition: changing it, its inputs or the
reference times changes every reported time, so leave them fixed.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds each part takes at the reference speed: medians on a 2-vCPU
# Intel Xeon virtual machine in a quiet phase, with one BLAS thread.
REFERENCE_S = {"python": 0.0036, "linalg": 0.0037, "stream": 0.0035}

_MATRIX = np.random.default_rng(0).standard_normal((10, 10))
_REGISTER = np.random.default_rng(1).standard_normal(1 << 17) + 0j


def _python() -> int:
    total = 0
    for i in range(60000):
        total += i * i
    return total


def _linalg() -> None:
    for _ in range(500):
        np.linalg.det(_MATRIX)
        _MATRIX @ _MATRIX[:, 0]
        np.outer(_MATRIX[0], _MATRIX[1])


def _stream() -> None:
    for _ in range(8):
        (_REGISTER * 1.0001).sum()


_PARTS = {"python": _python, "linalg": _linalg, "stream": _stream}


def slowness() -> float:
    """The host's current slowness: 1.0 at the reference speed, 1.5 when
    the kernel takes half as long again."""
    ratios = []
    for name, part in _PARTS.items():
        start = time.perf_counter()
        part()
        ratios.append((time.perf_counter() - start) / REFERENCE_S[name])
    return sum(ratios) / len(ratios)


def warm_up() -> float:
    """Pay the kernel's first-call costs, then return the median of three readings."""
    slowness()
    return statistics.median(slowness() for _ in range(3))
