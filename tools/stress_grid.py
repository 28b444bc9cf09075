"""Solve a fixed grid of random objectives at hard scales and tolerances and
count, per (scale, tol) class, the solves, the ``SolverError``s, the
returned brackets with ``value > dual_value``, the moved starts that
certify and the primal-dual iterations of the certified results, then print
a digest of every solve and the wall time:

    python3 tools/stress_grid.py

The grid is 30 seeds x the shapes (d_in, d_out) in ``SHAPES`` x the four
objectives in ``KINDS`` x the (scale, tol) pairs in ``PAIRS``, 7200 solves.
Each objective is drawn from its own ``default_rng([seed, d_in, d_out,
kind])``, for G a complex Gaussian n x n matrix: the trace-normalized
G G^dag, the indefinite (G + G^dag) / 2, minus the trace-normalized
G G^dag, and zero; it is scaled by ``scale`` and solved at ``tol``.  Each
certified result is then the start of the objective's image W M W^dag, for
the shift-clock W = U (x) V of a candidate other than the identity drawn
from ``default_rng(seed)``, as a report starts an orbit image: the image is
the dense product, the start the result, M, and the monomials of W and U,
by which the solver moves both.  The image is solved from that start at
``tol``, and the start counts when the solve takes it.  The exit code is 1
when a returned result has an inverted bracket; an exception other than
``SolverError`` is not caught, so it also ends the run with exit code 1.
The line ``digest <sha256>`` hashes every solve in grid order: the bits of a
certified result (``value``, ``dual_value``, ``iterations``, ``path``, the
optimizer and the dual certificate) and the text and carried bracket of a
``SolverError``.  Two runs on one host with the same digest made the same
solves bit for bit, so comparing two versions of the solver is one ``diff``
of their output; OpenBLAS may pick other kernels on another host.
The package is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import hashlib
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from testerbounds.channel_opt import (ChannelOptResult, SolverError,  # noqa: E402
                                      maximize_over_channels)
from testerbounds.bounds import _monomials  # noqa: E402
from testerbounds.linalg import HermitianOperator, shift_clock  # noqa: E402

SEEDS = 30
SHAPES = ((1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3))
KINDS = ("psd", "indefinite", "negative", "zero")
PAIRS = ((1.0, 1e-6), (1.0, 1e-9), (1.0, 1e-12), (1e-6, 1e-12), (1e-3, 1e-9), (1e3, 1e-6),
         (1e6, 1e-6), (1e8, 1e-6), (1e2, 1e-9), (1e-6, 1e-9))


def objective(seed: int, d_in: int, d_out: int, kind: int) -> np.ndarray:
    """Objective ``KINDS[kind]`` of the grid, at scale 1."""
    n = d_in * d_out
    rng = np.random.default_rng([seed, d_in, d_out, kind])
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if KINDS[kind] == "indefinite":
        return (g + g.conj().T) / 2
    psd = g @ g.conj().T
    psd = psd / np.trace(psd).real
    return {"psd": psd, "negative": -psd, "zero": np.zeros((n, n), dtype=complex)}[KINDS[kind]]


def started(seed: int, res: ChannelOptResult, m: HermitianOperator, tol: float) -> bool:
    """Whether the image of ``m`` under the seed's shift-clock candidate is
    solved from the start that ``res`` makes, as the module docstring says."""
    d_in, d_out = m.dims
    c = int(np.random.default_rng(seed).integers(1, m.size ** 2))
    u = shift_clock(d_in)[c // d_out ** 2]
    w = np.kron(u, shift_clock(d_out)[c % d_out ** 2])
    (iw, pw), (iu, pu) = _monomials(w[None]), _monomials(u[None])
    start = res, m.mat, (iw[0], pw[0]), (iu[0], pu[0])
    try:
        image = maximize_over_channels(HermitianOperator(w @ m.mat @ w.conj().T, m.dims),
                                       tol=tol, start=start)
    except SolverError:
        return False
    return image.path == "start"


def solve_grid(seeds: int = SEEDS) -> list[tuple[tuple, ChannelOptResult | SolverError, bool]]:
    """((seed, shape, kind, scale, tol), result or SolverError, whether its
    moved start certified) for each solve, in grid order."""
    outcomes = []
    for seed in range(seeds):
        for shape in SHAPES:
            for kind in range(len(KINDS)):
                base = objective(seed, *shape, kind)
                for scale, tol in PAIRS:
                    m = HermitianOperator(scale * base, shape)
                    try:
                        out = maximize_over_channels(m, tol=tol)
                    except SolverError as exc:
                        out, moved = exc, False
                    else:
                        moved = started(seed, out, m, tol)
                    outcomes.append(((seed, shape, KINDS[kind], scale, tol), out, moved))
    return outcomes


def table(outcomes) -> dict[tuple[float, float], tuple[int, int, int, int]]:
    """(solves, SolverErrors, inverted brackets, certified moved starts) for
    each (scale, tol) class."""
    rows = {pair: [0, 0, 0, 0] for pair in PAIRS}
    for (*_, scale, tol), out, moved in outcomes:
        row = rows[scale, tol]
        row[0] += 1
        row[1] += isinstance(out, SolverError)
        row[2] += isinstance(out, ChannelOptResult) and out.value > out.dual_value
        row[3] += moved
    return {pair: tuple(row) for pair, row in rows.items()}


def iterations(outcomes) -> dict[tuple[float, float], int]:
    """The sum of ``iterations`` over the certified results of each (scale,
    tol) class: machine-independent, so it pins the solver's iterates."""
    sums = dict.fromkeys(PAIRS, 0)
    for (*_, scale, tol), out, _ in outcomes:
        if isinstance(out, ChannelOptResult):
            sums[scale, tol] += out.iterations
    return sums


def _hex(x: float | None) -> str:
    return "None" if x is None else float.hex(x)


def digest(outcomes) -> str:
    """sha256 over the bits of every solve, in grid order, as the module
    docstring says."""
    h = hashlib.sha256()
    for _, out, _ in outcomes:
        if isinstance(out, SolverError):
            h.update(f"{out}|{_hex(out.value)}|{_hex(out.dual_value)}|".encode())
            matrices = () if out.optimizer is None else (out.optimizer.choi.mat,)
        else:
            h.update(f"{_hex(out.value)}|{_hex(out.dual_value)}|{out.iterations}|{out.path}|"
                     .encode())
            matrices = out.optimizer.choi.mat, out.dual_certificate.mat
        for mat in matrices:
            h.update(mat.tobytes())
    return h.hexdigest()


def main() -> int:
    began = time.perf_counter()
    outcomes = solve_grid()
    wall = time.perf_counter() - began
    rows, steps = table(outcomes), iterations(outcomes)
    print(f"{'scale':>6} {'tol':>6} {'solves':>7} {'errors':>7} {'inverted':>9} {'starts':>7} "
          f"{'iterations':>10}")
    for (scale, tol), (solves, errors, inverted, starts) in rows.items():
        print(f"{scale:6.0e} {tol:6.0e} {solves:7d} {errors:7d} {inverted:9d} {starts:7d} "
              f"{steps[scale, tol]:10d}")
    totals = [sum(column) for column in zip(*rows.values())]
    print(f"{'all':>13} {totals[0]:7d} {totals[1]:7d} {totals[2]:9d} {totals[3]:7d} "
          f"{sum(steps.values()):10d}")
    print(f"digest {digest(outcomes)}")
    print(f"wall {wall:.1f} s")
    return 1 if totals[2] else 0


if __name__ == "__main__":
    sys.exit(main())
