"""Host speed reference for the timings.

The benchmark runs on a shared host whose other tenants slow the cores by
up to 2x, for seconds or for minutes at a time.  Raw op times swing with
them: best-of-4 medians of one workload differed by 1.7x between two runs a
minute apart.  So every op is bracketed by calibrations, fixed kernels that
do not touch ``densecode``, and its time is divided by their slowdown, the
mean over the kernels of time / reference time.  The result is the time the
op would take on a host as fast as the reference.  A slower ``densecode``
still reads slower, since the kernels do not change with it.

Contention slows kinds of work unequally, so each use takes the kernels
whose slowdown tracked its ops best.  Over 256 samples per op the scaled
times spread 2.7-5x less than the raw ones: interpreter work plus a 4 MiB
array pass for roundtrip, interpreter work, small-array numpy calls and
small eigensolves for audit, small-array numpy calls for security,
interpreter work for imports.
numpy is imported only when a kernel needs it, so that an import probe can
calibrate before it imports ``densecode`` (and numpy with it).
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter


@functools.cache
def _data():
    import numpy as np

    return np, np.arange(2**18, dtype=complex), np.eye(16) / 16, np.random.default_rng(0)


def _interpreter() -> None:
    total = 0
    for i in range(30_000):
        total += i * i
    {str(i): i for i in range(3_000)}.clear()


def _memory() -> None:
    np, array, _, _ = _data()
    x = array.copy()  # 4 MiB
    x *= 0.5
    float(np.abs(x).sum())


def _small_numpy() -> None:
    np, _, _, rng = _data()
    for i in range(150):
        a = np.zeros(32)
        a[i % 32] = a[-1] = 1.0
        p = np.abs(a) ** 2
        int(rng.choice(32, p=p / p.sum()))


def _eig() -> None:
    np, _, hermitian, _ = _data()
    for _ in range(200):
        np.linalg.eigvalsh(hermitian)


# kernel -> its time in seconds on an idle core of a 2 GHz x86-64 host
REFERENCE_S = {_interpreter: 2.5e-3, _memory: 1.6e-3, _small_numpy: 2.1e-3, _eig: 1.4e-3}
KERNELS = {
    "roundtrip": (_interpreter, _memory),
    "audit": (_interpreter, _small_numpy, _eig),
    "security": (_small_numpy,),
    "import": (_interpreter,),
}


def slowdown(use: str) -> float:
    """How many times slower than the reference the host runs right now."""
    factors = []
    for kernel in KERNELS[use]:
        t0 = perf_counter()
        kernel()
        factors.append((perf_counter() - t0) / REFERENCE_S[kernel])
    return statistics.fmean(factors)
