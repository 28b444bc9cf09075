"""Certified linear optimization over quantum channels.

Solves  max tr[M J]  over Choi matrices J >= 0 with tr_out J = I_in, together
with the Lagrangian dual  min tr Y  subject to Y (x) I_out >= M.  The reported
optimum is always bracketed: ``value`` comes from an exactly feasible channel,
``dual_value`` from an exactly feasible dual certificate, and ``gap`` is their
difference.

The implementation follows the dual central path: for a decreasing barrier
parameter mu it Newton-minimizes  tr Y - mu log det(Y (x) I - M), recovers the
primal candidate J = mu (Y (x) I - M)^-1 (whose input marginal is the identity
exactly on the central path), and repairs both iterates to exact feasibility
before measuring the gap.  Problem sizes here are tiny (matrices up to ~16x16),
so dense Newton steps are cheap and converge quadratically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

import numpy as np

from .linalg import DimensionError, HermitianOperator
from .testers import Channel, channel_from_choi, channel_from_kraus

DEFAULT_TOL = 1e-6
DEFAULT_MAX_ITER = 100_000
DUAL_FEAS_ATOL = 1e-8

# Deep centering: near the optimal face the local-norm decrement can look
# small while the iterate is still a full mu-step behind, so each stage runs
# Newton to (nearly) machine centering before the gap is measured.
_NEWTON_TOL = 1e-6
_NEWTON_CAP = 80
_MU_SHRINK = 10.0
_MAX_STAGES = 80


class SolverError(RuntimeError):
    """Raised when the optimizer cannot certify the requested gap.

    Carries the best certified primal/dual pair found so far.
    """

    def __init__(self, message: str, value: float | None = None,
                 dual_value: float | None = None, optimizer: Channel | None = None):
        super().__init__(message)
        self.value = value
        self.dual_value = dual_value
        self.optimizer = optimizer


@dataclass(frozen=True)
class ChannelOptResult:
    """Certified bracket [value, dual_value] around the channel optimum."""

    value: float
    optimizer: Channel
    dual_value: float
    dual_certificate: HermitianOperator
    gap: float
    tol: float
    dual_min_eig: float
    iterations: int
    history: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if self.gap < 0 or self.gap > self.tol:
            raise SolverError(f"gap {self.gap:.3e} outside [0, {self.tol:.3e}]",
                              self.value, self.dual_value, self.optimizer)
        if self.dual_min_eig < -DUAL_FEAS_ATOL:
            raise SolverError(f"dual certificate infeasible (min eig {self.dual_min_eig:.3e})",
                              self.value, self.dual_value, self.optimizer)


@dataclass(frozen=True)
class DualBound:
    feasible: bool
    value: float | None
    min_eig: float


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (trace inner product) real basis of d x d Hermitian matrices."""
    mats = []
    for i in range(d):
        m = np.zeros((d, d), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / np.sqrt(2)
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = 1j / np.sqrt(2)
            m[j, i] = -1j / np.sqrt(2)
            mats.append(m)
    out = np.stack(mats)
    out.setflags(write=False)
    return out


def _tr_out(mat: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    return np.einsum("iojo->ij", mat.reshape(d_in, d_out, d_in, d_out))


def _is_pd(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
        return True
    except np.linalg.LinAlgError:
        return False


def _hermitize(mat: np.ndarray) -> np.ndarray:
    return (mat + mat.conj().T) / 2


def _repair_primal(a: np.ndarray, j_cand: np.ndarray, d_in: int, d_out: int,
                   ) -> tuple[float, np.ndarray]:
    """Project a candidate onto the exact Choi constraints; return (value, J)."""
    jh = _hermitize(j_cand)
    w, v = np.linalg.eigh(jh)
    w = np.clip(w, 0.0, None)
    jp = (v * w) @ v.conj().T
    rho = _hermitize(_tr_out(jp, d_in, d_out))
    rw, rv = np.linalg.eigh(rho)
    if rw[0] <= 0:
        raise SolverError("primal candidate has singular input marginal")
    half = (rv / np.sqrt(rw)) @ rv.conj().T
    lift = np.kron(half, np.eye(d_out))
    jfix = _hermitize(lift @ jp @ lift)
    value = float(np.trace(a @ jfix).real)
    return value, jfix


def _repair_dual(a: np.ndarray, y: np.ndarray, d_out: int) -> tuple[float, np.ndarray, float]:
    """Shift Y just enough to make Y (x) I - M exactly feasible; return (tr Y, Y, min eig)."""
    s = _hermitize(np.kron(y, np.eye(d_out)) - a)
    lo = float(np.linalg.eigvalsh(s)[0])
    if lo < 0:
        y = y + (-lo + 1e-14 * max(1.0, float(np.abs(y).max()))) * np.eye(y.shape[0])
        s = _hermitize(np.kron(y, np.eye(d_out)) - a)
        lo = float(np.linalg.eigvalsh(s)[0])
    return float(np.trace(y).real), y, lo


def check_tol(tol: float) -> None:
    """Reject a gap tolerance that is not positive and finite (NaN included)."""
    if not 0 < tol < float("inf"):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def maximize_over_channels(m: HermitianOperator, tol: float = DEFAULT_TOL,
                           max_iter: int = DEFAULT_MAX_ITER) -> ChannelOptResult:
    """Maximize tr[M J] over channels, certified to the requested duality gap.

    ``m`` must be Hermitian on in(x)out (positivity is not required).  Raises
    SolverError, carrying the best bracket found, if the gap cannot be driven
    below ``tol`` within the iteration budget.
    """
    if len(m.dims) != 2:
        raise DimensionError("objective must carry dims (d_in, d_out)")
    check_tol(tol)
    d_in, d_out = m.dims
    a = m.mat
    eye_in = np.eye(d_in)
    eye_out = np.eye(d_out)
    basis = hermitian_basis(d_in)
    n_total = d_in * d_out

    evals_a = np.linalg.eigvalsh(a)
    lam_max, lam_min = float(evals_a[-1]), float(evals_a[0])
    spread = max(lam_max - lam_min, 1.0, abs(lam_max))
    y = (lam_max + 0.1 * spread) * eye_in
    mu = (0.1 * spread + 0.5 * (lam_max - lam_min)) / d_out
    mu = max(mu, tol / (16 * n_total))

    iterations = 0
    history: list[tuple[float, float]] = []
    best_primal: tuple[float, np.ndarray] | None = None
    best_dual: tuple[float, np.ndarray, float] | None = None

    for _stage in range(_MAX_STAGES):
        # center: Newton on tr Y - mu log det(Y (x) I - M)
        prev_decrement = np.inf
        for _ in range(_NEWTON_CAP):
            iterations += 1
            if iterations > max_iter:
                _raise_budget(best_primal, best_dual, m)
            s = _hermitize(np.kron(y, eye_out) - a)
            sinv = _hermitize(np.linalg.inv(s))
            grad = eye_in - mu * _tr_out(sinv, d_in, d_out)
            gvec = np.einsum("bij,ji->b", basis, grad).real
            r = sinv.reshape(d_in, d_out, d_in, d_out)
            w_all = np.einsum("iojp,bjk->biokp", r, basis)
            w_flat = w_all.reshape(basis.shape[0], n_total, n_total)
            hess = mu * np.einsum("aok,bko->ab", w_flat, w_flat).real
            try:
                coef = np.linalg.solve(hess, -gvec)
            except np.linalg.LinAlgError:
                coef = np.linalg.lstsq(hess, -gvec, rcond=None)[0]
            decrement = float(np.sqrt(max(coef @ hess @ coef, 0.0)))
            if not np.isfinite(decrement):
                break
            if decrement <= _NEWTON_TOL:
                break
            if decrement < 1e-3 and decrement >= 0.5 * prev_decrement:
                break  # quadratic phase hit the floating-point floor
            prev_decrement = decrement
            step = 1.0 if decrement <= 0.25 else 1.0 / (1.0 + decrement)
            delta = np.einsum("b,bij->ij", coef, basis)
            while step > 1e-12 and not _is_pd(np.kron(y + step * delta, eye_out) - a):
                step /= 2
            if step <= 1e-12:
                break
            y = _hermitize(y + step * delta)

        # certify the current stage: both repaired iterates are exactly
        # feasible, so (value, dual_value) brackets the optimum even when the
        # two sides come from different stages
        s = _hermitize(np.kron(y, eye_out) - a)
        sinv = _hermitize(np.linalg.inv(s))
        value, jfix = _repair_primal(a, mu * sinv, d_in, d_out)
        dual_value, y_feas, dual_min = _repair_dual(a, y, d_out)
        history.append((value, dual_value))
        if best_primal is None or value > best_primal[0]:
            best_primal = (value, jfix)
        if best_dual is None or dual_value < best_dual[0]:
            best_dual = (dual_value, y_feas, dual_min)
        gap = best_dual[0] - best_primal[0]
        scale = max(1.0, abs(best_primal[0]), abs(best_dual[0]))
        if gap < -1e-10 * scale:
            raise SolverError(f"certificates crossed (gap {gap:.3e}); numerical failure",
                              best_primal[0], best_dual[0])
        if gap <= tol:
            return ChannelOptResult(
                value=best_primal[0],
                optimizer=channel_from_choi(HermitianOperator(best_primal[1], (d_in, d_out))),
                dual_value=best_dual[0],
                dual_certificate=HermitianOperator(best_dual[1], (d_in,)),
                gap=max(gap, 0.0),
                tol=tol,
                dual_min_eig=best_dual[2],
                iterations=iterations,
                history=tuple(history),
            )
        mu = max(mu / _MU_SHRINK, tol / (64 * n_total))

    _raise_budget(best_primal, best_dual, m)


def _raise_budget(best_primal, best_dual, m: HermitianOperator):
    if best_primal is None or best_dual is None:
        raise SolverError(f"no certified iterate produced for objective of dims {m.dims}")
    value, jfix = best_primal
    dual_value = best_dual[0]
    raise SolverError(
        f"gap {dual_value - value:.3e} not certified within the iteration budget",
        value=value, dual_value=dual_value,
        optimizer=channel_from_choi(HermitianOperator(jfix, m.dims)),
    )


def dual_bound(m: HermitianOperator, y: HermitianOperator) -> DualBound:
    """Evaluate a dual candidate: tr Y is a valid upper bound iff Y(x)I - M >= 0."""
    if len(m.dims) != 2:
        raise DimensionError("objective must carry dims (d_in, d_out)")
    d_in, d_out = m.dims
    if y.dims != (d_in,):
        raise DimensionError(f"dual variable dims {y.dims} != ({d_in},)")
    s = _hermitize(np.kron(y.mat, np.eye(d_out)) - m.mat)
    lo = float(np.linalg.eigvalsh(s)[0])
    if lo < -DUAL_FEAS_ATOL:
        return DualBound(False, None, lo)
    return DualBound(True, float(np.trace(y.mat).real), lo)


def _haar_isometries(rng: np.random.Generator, count: int, rows: int, cols: int) -> np.ndarray:
    """Stack of Haar-random isometries (rows x cols, rows >= cols) via Gaussian QR."""
    g = rng.standard_normal((count, rows, cols)) + 1j * rng.standard_normal((count, rows, cols))
    q, r = np.linalg.qr(g)
    diag = np.einsum("sii->si", r)
    q = q * (diag / np.abs(diag))[:, None, :]
    return q


def random_channel_lower_bound(m: HermitianOperator, n_samples: int, seed: int,
                               ) -> tuple[float, Channel]:
    """Best tr[M J] over random channels; a Monte-Carlo floor for the optimum.

    Samples Stinespring isometries of mixed Kraus rank (rank 1 gives unitary
    channels when d_out = d_in).  Every sample is an exactly feasible channel,
    so the best value never exceeds the certified optimum.
    """
    if len(m.dims) != 2:
        raise DimensionError("objective must carry dims (d_in, d_out)")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    d_in, d_out = m.dims
    rng = np.random.default_rng(seed)
    k_min = max(1, ceil(d_in / d_out))
    k_max = max(k_min, min(d_in * d_out, k_min + 3))
    ranks = np.full(n_samples, k_min, dtype=int)
    if k_max > k_min and n_samples > 1:
        extra = rng.integers(k_min, k_max + 1, size=n_samples - n_samples // 2)
        ranks[n_samples // 2:] = extra

    best_value = -np.inf
    best_isometry: np.ndarray | None = None
    best_rank = k_min
    for k in np.unique(ranks):
        count = int(np.sum(ranks == k))
        q = _haar_isometries(rng, count, d_out * int(k), d_in)
        # v[s, m, (i, o)] = K_m[o, i]: amplitudes of the Choi kets per Kraus term
        v = q.reshape(count, int(k), d_out, d_in).transpose(0, 1, 3, 2).reshape(count, int(k), -1)
        vals = np.einsum("skn,nm,skm->s", v.conj(), m.mat, v).real
        idx = int(np.argmax(vals))
        if vals[idx] > best_value:
            best_value = float(vals[idx])
            best_isometry = q[idx]
            best_rank = int(k)

    assert best_isometry is not None
    kraus = [best_isometry[i * d_out:(i + 1) * d_out, :] for i in range(best_rank)]
    channel = channel_from_kraus(kraus)
    value = float(np.trace(m.mat @ channel.choi.mat).real)
    return value, channel
