"""Solve a fixed grid of random objectives at hard scales and tolerances and
count, per (scale, tol) class, the solves, the ``SolverError``s and the
returned brackets with ``value > dual_value``, then print the wall time:

    python3 tools/stress_grid.py

The grid is 30 seeds x the shapes (d_in, d_out) in ``SHAPES`` x the four
objectives in ``KINDS`` x the (scale, tol) pairs in ``PAIRS``, 7200 solves.
Each objective is drawn from its own ``default_rng([seed, d_in, d_out,
kind])``, for G a complex Gaussian n x n matrix: the trace-normalized
G G^dag, the indefinite (G + G^dag) / 2, minus the trace-normalized
G G^dag, and zero; it is scaled by ``scale`` and solved at ``tol``.  The
exit code is 1 when a returned result has an inverted bracket; an exception
other than ``SolverError`` is not caught, so it also ends the run with exit
code 1.  The package is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from testerbounds.channel_opt import (ChannelOptResult, SolverError,  # noqa: E402
                                      maximize_over_channels)
from testerbounds.linalg import HermitianOperator  # noqa: E402

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


def solve_grid(seeds: int = SEEDS) -> list[tuple[tuple, ChannelOptResult | SolverError]]:
    """((seed, shape, kind, scale, tol), result or SolverError) for each solve,
    in grid order."""
    outcomes = []
    for seed in range(seeds):
        for shape in SHAPES:
            for kind in range(len(KINDS)):
                base = objective(seed, *shape, kind)
                for scale, tol in PAIRS:
                    try:
                        out = maximize_over_channels(HermitianOperator(scale * base, shape),
                                                     tol=tol)
                    except SolverError as exc:
                        out = exc
                    outcomes.append(((seed, shape, KINDS[kind], scale, tol), out))
    return outcomes


def table(outcomes) -> dict[tuple[float, float], tuple[int, int, int]]:
    """(solves, SolverErrors, inverted brackets) for each (scale, tol) class."""
    rows = {pair: [0, 0, 0] for pair in PAIRS}
    for (*_, scale, tol), out in outcomes:
        row = rows[scale, tol]
        row[0] += 1
        row[1] += isinstance(out, SolverError)
        row[2] += isinstance(out, ChannelOptResult) and out.value > out.dual_value
    return {pair: tuple(row) for pair, row in rows.items()}


def main() -> int:
    began = time.perf_counter()
    rows = table(solve_grid())
    wall = time.perf_counter() - began
    print(f"{'scale':>6} {'tol':>6} {'solves':>7} {'errors':>7} {'inverted':>9}")
    for (scale, tol), (solves, errors, inverted) in rows.items():
        print(f"{scale:6.0e} {tol:6.0e} {solves:7d} {errors:7d} {inverted:9d}")
    totals = [sum(column) for column in zip(*rows.values())]
    print(f"{'all':>13} {totals[0]:7d} {totals[1]:7d} {totals[2]:9d}")
    print(f"wall {wall:.1f} s")
    return 1 if totals[2] else 0


if __name__ == "__main__":
    sys.exit(main())
