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
before measuring the gap.

Each Newton step works on complex d_in x d_in matrices.  With R = S^-1 for the
slack S = Y (x) I - M, it solves  H vec(D) = -vec(G)  for a Hermitian D, where
G = I - mu tr_out R and, in row-major vec form,
H[(i,l),(j,k)] = mu sum_{o,p} R[i,o,j,p] R[k,p,l,o]: one matmul of reshaped
views of R, O(d_in^4 d_out^2).  The decrement is lam = sqrt(-<G, D>).  Y (x) I
is never formed; Y is scattered onto the output-diagonal blocks of -M.

The step is the damped Newton step Y += D / (1 + r) with r = lam / sqrt(mu).
The centering objective is mu times a self-concordant function, so r is the
length of D in that function's local norm, and a step t D with t r < 1 stays
inside its Dikin ellipsoid: S remains positive definite without a line search.
The same r is the stopping test: a stage is centered once r <= _CENTERED,
which is free of the objective's scale.  mu then shrinks by _MU_SHRINK down
to a floor of tol / (64 n); a stage at the floor that does not certify fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite, sqrt

import numpy as np

from .linalg import DimensionError, HermitianOperator
from .sampling import haar_isometries
from .testers import Channel, channel_from_choi, channel_from_kraus

DEFAULT_TOL = 1e-6
DUAL_FEAS_ATOL = 1e-8

_CENTERED = 0.1
_NEWTON_CAP = 80
_MU_SHRINK = 10.0


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


def _lift_index(d_in: int, d_out: int) -> np.ndarray:
    """Flat positions of Y[i, j] in Y (x) I_out, shaped (d_in, d_out, d_in)."""
    n = d_in * d_out
    return (np.arange(d_in)[:, None, None] * (d_out * n) + np.arange(d_out)[:, None] * (n + 1)
            + np.arange(d_in) * d_out)


def _slack(y: np.ndarray, a: np.ndarray, lift: np.ndarray) -> np.ndarray:
    """Y (x) I_out - A: Y scattered onto the output-diagonal blocks of -A."""
    s = -a
    s.reshape(-1)[lift] += y[:, None, :]
    return s


def _slack_min_eig(y: np.ndarray, a: np.ndarray, lift: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_slack(y, a, lift))[0])


def _newton_system(sinv: np.ndarray, mu: float, d_in: int, d_out: int,
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and vec-form complex Hessian of tr Y - mu log det S at S^-1."""
    r = sinv.reshape(d_in, d_out, d_in, d_out)
    grad = np.eye(d_in) - mu * np.einsum("iojo->ij", r)
    left = r.transpose(0, 2, 1, 3).reshape(d_in * d_in, d_out * d_out)
    right = r.transpose(3, 1, 2, 0).reshape(d_out * d_out, d_in * d_in)
    hess = (left @ right).reshape(d_in, d_in, d_in, d_in).transpose(0, 2, 1, 3)
    return grad, mu * hess.reshape(d_in * d_in, d_in * d_in)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    out = mat + mat.conj().T
    out *= 0.5
    return out


def _repair_primal(a: np.ndarray, j_cand: np.ndarray, d_in: int, d_out: int,
                   ) -> tuple[float, np.ndarray]:
    """Project a candidate onto the exact Choi constraints; return (value, J)."""
    w, v = np.linalg.eigh(_hermitize(j_cand))
    jp = (v * np.clip(w, 0.0, None)) @ v.conj().T
    rho = _hermitize(np.einsum("iojo->ij", jp.reshape(d_in, d_out, d_in, d_out)))
    rw, rv = np.linalg.eigh(rho)
    if rw[0] <= 0:
        raise np.linalg.LinAlgError("primal candidate has singular input marginal")
    half = (rv / np.sqrt(rw)) @ rv.conj().T
    # (half (x) I) J (half (x) I) = (half (x) I) [(half (x) I) J]^dag, both
    # factors applied to the input index of the rows by a reshape
    left = (half @ jp.reshape(d_in, -1)).reshape(jp.shape)
    jfix = _hermitize((half @ left.conj().T.reshape(d_in, -1)).reshape(jp.shape))
    return float(np.trace(a @ jfix).real), jfix


def _repair_dual(a: np.ndarray, y: np.ndarray, lift: np.ndarray,
                 ) -> tuple[float, np.ndarray, float]:
    """Shift Y just enough to make Y (x) I - M exactly feasible; return (tr Y, Y, min eig)."""
    lo = _slack_min_eig(y, a, lift)
    if lo < 0:
        y = y + (-lo + 1e-14 * max(1.0, float(np.abs(y).max()))) * np.eye(y.shape[0])
        lo = _slack_min_eig(y, a, lift)
    return float(np.trace(y).real), y, lo


def check_tol(tol: float) -> None:
    """Reject a gap tolerance that is not positive and finite (NaN included)."""
    if not 0 < tol < float("inf"):
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")


def maximize_over_channels(m: HermitianOperator, tol: float = DEFAULT_TOL) -> ChannelOptResult:
    """Maximize tr[M J] over channels, certified to the requested duality gap.

    ``m`` must be Hermitian on in(x)out (positivity is not required).  Raises
    SolverError, carrying the best bracket found, if the linear algebra fails or
    the stage at the smallest barrier parameter, tol / (64 d_in d_out), does
    not certify the gap: repeating it would restart centered and certify the
    same pair.
    """
    if len(m.dims) != 2:
        raise DimensionError("objective must carry dims (d_in, d_out)")
    check_tol(tol)
    d_in, d_out = m.dims
    a = m.mat
    n_total = d_in * d_out
    lift = _lift_index(d_in, d_out)

    evals_a = np.linalg.eigvalsh(a)
    lam_max, lam_min = float(evals_a[-1]), float(evals_a[0])
    spread = max(lam_max - lam_min, 1.0, abs(lam_max))
    y = (lam_max + 0.1 * spread) * np.eye(d_in)
    mu = (0.1 * spread + 0.5 * (lam_max - lam_min)) / d_out
    mu_floor = tol / (64 * n_total)

    iterations = 0
    history: list[tuple[float, float]] = []
    best_primal: tuple[float, np.ndarray] | None = None
    best_dual: tuple[float, np.ndarray, float] | None = None

    def failure(message: str) -> SolverError:
        """SolverError carrying the best certified pair, none before the first stage."""
        if best_primal is None or best_dual is None:
            return SolverError(message)
        return SolverError(message, best_primal[0], best_dual[0],
                           channel_from_choi(HermitianOperator(best_primal[1], m.dims)))

    try:
        # Y moves along exactly Hermitian directions, so S needs no re-symmetrizing
        sinv = _hermitize(np.linalg.inv(_slack(y, a, lift)))
        while True:
            # center: damped Newton on tr Y - mu log det(Y (x) I - M)
            for _ in range(_NEWTON_CAP):
                iterations += 1
                grad, hess = _newton_system(sinv, mu, d_in, d_out)
                try:
                    dvec = np.linalg.solve(hess, -grad.reshape(-1))
                except np.linalg.LinAlgError:
                    dvec = np.linalg.lstsq(hess, -grad.reshape(-1), rcond=None)[0]
                delta = _hermitize(dvec.reshape(d_in, d_in))
                r = sqrt(max(-np.vdot(grad, delta).real, 0.0) / mu)
                if not isfinite(r) or r <= _CENTERED:
                    break
                y = y + delta / (1.0 + r)
                sinv = _hermitize(np.linalg.inv(_slack(y, a, lift)))

            # certify the current stage: both repaired iterates are exactly
            # feasible, so (value, dual_value) brackets the optimum even when
            # the two sides come from different stages
            value, jfix = _repair_primal(a, mu * sinv, d_in, d_out)
            dual_value, y_feas, dual_min = _repair_dual(a, y, lift)
            history.append((value, dual_value))
            if best_primal is None or value > best_primal[0]:
                best_primal = (value, jfix)
            if best_dual is None or dual_value < best_dual[0]:
                best_dual = (dual_value, y_feas, dual_min)
            gap = best_dual[0] - best_primal[0]
            scale = max(1.0, abs(best_primal[0]), abs(best_dual[0]))
            if gap < -1e-10 * scale:
                raise failure(f"certificates crossed (gap {gap:.3e}); numerical failure")
            if gap <= tol:
                return ChannelOptResult(
                    value=best_primal[0],
                    optimizer=channel_from_choi(HermitianOperator(best_primal[1], m.dims)),
                    dual_value=best_dual[0],
                    dual_certificate=HermitianOperator(best_dual[1], (d_in,)),
                    gap=max(gap, 0.0),
                    tol=tol,
                    dual_min_eig=best_dual[2],
                    iterations=iterations,
                    history=tuple(history),
                )
            if mu <= mu_floor:
                raise failure(f"gap {gap:.3e} not certified at the smallest barrier "
                              "parameter")
            mu = max(mu / _MU_SHRINK, mu_floor)
    except np.linalg.LinAlgError as exc:
        raise failure(f"numerical failure: {exc}") from exc


def dual_bound(m: HermitianOperator, y: HermitianOperator) -> DualBound:
    """Evaluate a dual candidate: tr Y is a valid upper bound iff Y(x)I - M >= 0."""
    if len(m.dims) != 2:
        raise DimensionError("objective must carry dims (d_in, d_out)")
    d_in, d_out = m.dims
    if y.dims != (d_in,):
        raise DimensionError(f"dual variable dims {y.dims} != ({d_in},)")
    lo = _slack_min_eig(y.mat, m.mat, _lift_index(d_in, d_out))
    if lo < -DUAL_FEAS_ATOL:
        return DualBound(False, None, lo)
    return DualBound(True, float(np.trace(y.mat).real), lo)


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
        q = haar_isometries(rng, count, d_out * int(k), d_in)
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
