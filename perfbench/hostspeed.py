"""Host-speed reference for the timed metrics.

On a shared virtual machine the CPU speed one process sees changes by up to
2x in phases of seconds to minutes, and every wall-clock time moves with it.
A fixed piece of work, the *kernel* (Python big-integer arithmetic, complex
FFTs and a small Cholesky factorization: the kinds of work the program
does), is timed next to the requests, and a request's time is scaled by
``REFERENCE_S`` over the kernel's time around it.  On a host that runs the
kernel in ``REFERENCE_S`` the scaled time is the wall time.  The kernel uses
no program code, so a change to the program cannot change it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: kernel time, in seconds, on a 2-vCPU Intel Xeon VM in its faster phase
REFERENCE_S = 0.003

_rng = np.random.default_rng(0)
_SIGNAL = _rng.standard_normal(2048) + 1j * _rng.standard_normal(2048)
_GRAM = _rng.standard_normal((96, 96))
_GRAM = _GRAM @ _GRAM.T + 96 * np.eye(96)


def kernel() -> int:
    a, b = (1 << 130) // 3, (1 << 131) // 7
    acc = 0
    for i in range(12000):
        c = (a * b) >> 130
        acc ^= (c & 0xFFFF) + i if c > a else i
        a, b = b, c | 1
    for _ in range(20):
        np.fft.ifft(np.fft.fft(_SIGNAL))
        np.linalg.cholesky(_GRAM)
    return acc


def sample() -> float:
    """Seconds one kernel call takes now.  A first, untimed call brings the
    kernel's code and data back into the caches, so that what the request
    before it left there does not count."""
    kernel()
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def now(repeat: int = 3) -> float:
    """Median of ``repeat`` kernel samples taken back to back."""
    return statistics.median(sample() for _ in range(repeat))


def factors(samples: list[tuple[int, float]], count: int) -> list[float]:
    """Scale factor for each of ``count`` requests.

    ``samples`` holds (position, seconds) in the order taken, where a sample
    at position i was taken just before request i (position ``count`` is
    after the last one).  A request's kernel time is the median of the
    samples just before and just after it and one more on either side, so a
    single disturbed sample does not move it.
    """
    out = []
    j = 0
    for i in range(count):
        while j + 1 < len(samples) and samples[j + 1][0] <= i:
            j += 1
        window = [s for _, s in samples[max(0, j - 1): j + 3]]
        out.append(REFERENCE_S / statistics.median(window))
    return out
