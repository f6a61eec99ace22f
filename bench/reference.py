"""Reference work that the benchmark's times are scaled by (see run.py).

The kernel is a sparse product of a fixed 12-term polynomial with itself,
on Fraction dicts: the same kind of interpreter work as polyauto's
kernels, in the standard library only, sharing no code with polyauto.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel time that scaled figures refer to: about the kernel's best
# sustained time on a 2-vCPU x86-64 host with Python 3.11.7.
REFERENCE_S = 0.40e-3
BURST = 4  # kept samples per burst between ops

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}


def kernel() -> dict:
    out = {}
    for (a1, a2), a in _TERMS.items():
        for (b1, b2), b in _TERMS.items():
            key = (a1 + b1, a2 + b2)
            out[key] = out.get(key, 0) + a * b
    return out


def burst(kept: int = BURST) -> list:
    """Times of kept + 1 back-to-back kernel runs, less the first, which
    runs on caches the op before it left cold."""
    times = []
    for _ in range(kept + 1):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times[1:]
