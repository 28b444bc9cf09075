"""Fixed reference work that measures how fast the host runs right now.

On a shared host the speed of the same code drifts by up to a factor of two
over minutes, and CPU time drifts with wall time.  Two references, neither of
which imports ``testerbounds``, so no change to the package changes them:

- ``kernel`` does the kind of work the solver does (small complex Hermitian
  matrices through ``kron``, ``inv``, ``eigh``, ``eigvalsh``, ``einsum``,
  ``solve`` and ``cholesky``, called from a Python loop) on fixed inputs.
  Timed right before and right after a report, it gives the host's speed
  during that report.
- ``startup_seconds`` times a fresh interpreter that imports numpy.  Set-up
  time follows it closely and does not follow the kernel: a fresh process
  pays for exec, imports and page faults, not for small-matrix arithmetic.

``normalize`` scales a wall time to a host on which the reference takes its
nominal time.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# seconds each reference takes on a quiet 2-core x86_64 host (Python 3, numpy 2.4.6,
# OpenBLAS 0.3.31): one kernel call, and one fresh ``python3 -c "import numpy"``
NOMINAL_S = 0.025
STARTUP_NOMINAL_S = 0.14


def _hermitian(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + n * np.eye(n)


_RNG = np.random.default_rng(20240913)
_LARGE = [_hermitian(_RNG, n) for n in (4, 9, 16)]
_SMALL = [_hermitian(_RNG, n) for n in (2, 3, 4)]


def kernel(reps: int = 40) -> float:
    acc = 0.0
    for _ in range(reps):
        for a, s in zip(_LARGE, _SMALL):
            n = a.shape[0]
            w = np.linalg.eigh(a)[0]
            h = np.einsum("ij,jk->ik", np.linalg.inv(a), a).real
            acc += float(np.linalg.eigvalsh(a)[0]) + float(w.sum())
            acc += float(np.linalg.solve(h + n * np.eye(n), np.ones(n))[0])
            acc += float(np.linalg.cholesky(a)[0, 0].real)
            acc += float(np.kron(s, np.eye(2)).real.sum())
    return acc


SAMPLES: list[float] = []  # every kernel time measured in this process


def seconds() -> float:
    """Wall time of one kernel call; also kept in ``SAMPLES``."""
    t0 = time.perf_counter()
    kernel()
    SAMPLES.append(time.perf_counter() - t0)
    return SAMPLES[-1]


def startup_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


def normalize(wall_s: float, before_s: float, after_s: float,
              nominal_s: float = NOMINAL_S) -> float:
    """``wall_s`` on the reference host, given the reference times around it."""
    return wall_s * nominal_s / ((before_s + after_s) / 2)
