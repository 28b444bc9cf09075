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
from math import isfinite, sqrt

import numpy as np

from .linalg import DimensionError, HermitianOperator, ValidationError
from .testers import Channel, channel_from_choi

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


def _channel(jfix: np.ndarray, dims: tuple[int, ...]) -> Channel | None:
    """A repaired primal as a channel, or None when rounding left it outside the set."""
    try:
        return channel_from_choi(HermitianOperator(jfix, dims))
    except ValidationError:
        return None


def maximize_over_channels(m: HermitianOperator, tol: float = DEFAULT_TOL,
                           start: tuple[np.ndarray, np.ndarray] | None = None,
                           ) -> ChannelOptResult:
    """Maximize tr[M J] over channels, certified to the requested duality gap.

    ``m`` must be Hermitian on in(x)out (positivity is not required).  Raises
    SolverError, carrying the best bracket found, if the linear algebra fails or
    the stage at the smallest barrier parameter, tol / (64 d_in d_out), does
    not certify the gap: repeating it would restart centered and certify the
    same pair.  A repaired primal that is not a channel is never reported.

    ``start``, a pair (J, Y), is checked like a stage: if it certifies, the
    result has ``iterations == 0``; if not, it seeds the best pair of the usual
    path; if its checks fail, it counts as no start.
    """
    if len(m.dims) != 2:
        raise DimensionError("objective must carry dims (d_in, d_out)")
    check_tol(tol)
    d_in, d_out = m.dims
    a = m.mat
    n_total = d_in * d_out
    lift = _lift_index(d_in, d_out)

    iterations = 0
    history: list[tuple[float, float]] = []
    best_primal: tuple[float, np.ndarray] | None = None
    best_dual: tuple[float, np.ndarray, float] | None = None

    def failure(message: str) -> SolverError:
        """SolverError carrying the best certified pair, none before the first stage."""
        if best_primal is None or best_dual is None:
            return SolverError(message)
        optimizer = _channel(best_primal[1], m.dims)
        return SolverError(message, None if optimizer is None else best_primal[0],
                           best_dual[0], optimizer)

    def certify(j_cand: np.ndarray, y_cand: np.ndarray) -> ChannelOptResult | None:
        """Repair one stage's pair into the best pair; the result once it certifies.
        Both repaired iterates are exactly feasible, so the best sides bracket
        the optimum even when they come from different stages."""
        nonlocal best_primal, best_dual
        value, jfix = _repair_primal(a, j_cand, d_in, d_out)
        dual_value, y_feas, dual_min = _repair_dual(a, y_cand, lift)
        history.append((value, dual_value))
        if best_primal is None or value > best_primal[0]:
            best_primal = (value, jfix)
        if best_dual is None or dual_value < best_dual[0]:
            best_dual = (dual_value, y_feas, dual_min)
        gap = best_dual[0] - best_primal[0]
        scale = max(1.0, abs(best_primal[0]), abs(best_dual[0]))
        if gap < -1e-10 * scale:
            raise failure(f"certificates crossed (gap {gap:.3e}); numerical failure")
        if gap > tol:
            return None
        optimizer = _channel(best_primal[1], m.dims)
        if optimizer is None:
            raise failure("repaired primal is not a channel")
        return ChannelOptResult(
            value=best_primal[0],
            optimizer=optimizer,
            dual_value=best_dual[0],
            dual_certificate=HermitianOperator(best_dual[1], (d_in,)),
            gap=max(gap, 0.0),
            tol=tol,
            dual_min_eig=best_dual[2],
            iterations=iterations,
            history=tuple(history),
        )

    if start is not None:
        try:
            res = certify(*start)
        except (np.linalg.LinAlgError, SolverError):
            res = best_primal = None
        if res is not None:
            return res
        if best_primal is None or _channel(best_primal[1], m.dims) is None:
            # a start that fails its checks counts as no start
            history.clear()
            best_primal = best_dual = None

    evals_a = np.linalg.eigvalsh(a)
    lam_max, lam_min = float(evals_a[-1]), float(evals_a[0])
    spread = max(lam_max - lam_min, 1.0, abs(lam_max))
    y = (lam_max + 0.1 * spread) * np.eye(d_in)
    mu = (0.1 * spread + 0.5 * (lam_max - lam_min)) / d_out
    mu_floor = tol / (64 * n_total)

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

            res = certify(mu * sinv, y)
            if res is not None:
                return res
            if mu <= mu_floor:
                raise failure(f"gap {best_dual[0] - best_primal[0]:.3e} not certified at "
                              "the smallest barrier parameter")
            mu = max(mu / _MU_SHRINK, mu_floor)
    except np.linalg.LinAlgError as exc:
        raise failure(f"numerical failure: {exc}") from exc
