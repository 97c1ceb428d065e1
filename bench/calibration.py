"""A fixed reference kernel that measures how fast this machine runs right now.

On a shared machine the CPU speed a process gets changes by tens of percent
over seconds to minutes, and by up to 1.8x between minutes.  The benchmark
runs this kernel before and after every timed repetition and reports
throughput at the reference speed, the speed at which one kernel run takes
``REFERENCE_KERNEL_S``: a rate measured while the kernel took c seconds is
reported as ``rate * c / REFERENCE_KERNEL_S``.  Kernel and program slow down
together, so the scaled rate stays steady where the raw one does not; the
raw rate is printed next to it.

The kernel uses only the standard library and numpy, never opmeans, so no
change to the program can change it.  Its mix follows the program's: a
SplitMix64 stream in pure Python, small Hermitian eigenproblems through
numpy's wrappers, and a few dim-32 eigensolves in LAPACK.
"""

from __future__ import annotations

import time

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

#: Rounds per kernel run.
ROUNDS = 1500

#: Kernel duration that defines the reference speed: about the fastest a run
#: takes on an idle 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31).
REFERENCE_KERNEL_S = 0.100


def _uniforms(state: int, count: int) -> tuple[int, list[float]]:
    out = []
    for _ in range(count):
        state = (state + _GOLDEN) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(((z ^ (z >> 31)) >> 11) * 2.0**-53)
    return state, out


def kernel() -> float:
    """Run the reference work once; return a checksum so it cannot be skipped."""
    state = 1
    total = 0.0
    for r in range(ROUNDS):
        state, u = _uniforms(state, 32)
        g = np.array(u[:16]).reshape(4, 4) + 1j * np.array(u[16:]).reshape(4, 4)
        a = (g @ g.conj().T + np.eye(4)) / 2.0
        w, v = np.linalg.eigh(a)
        b = (v * np.sqrt(w)) @ v.conj().T
        total += float(np.linalg.eigvalsh((b + b.conj().T) / 2.0)[0])
        if r % 12 == 0:
            big = np.kron(a, np.eye(8)) + np.diag(np.arange(32.0))
            total += float(np.linalg.eigh(big)[0][-1])
    return total


def kernel_seconds() -> float:
    """Wall time of one kernel run: REFERENCE_KERNEL_S at the reference speed."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started
