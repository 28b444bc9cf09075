"""Certified linear optimization over quantum channels.

Solves  max tr[M J]  over Choi matrices J >= 0 with tr_out J = I_in, together
with the Lagrangian dual  min tr Y  subject to S = Y (x) I_out - M >= 0.  The
reported optimum is always bracketed: ``value`` comes from an exactly feasible
channel, ``dual_value`` from an exactly feasible dual certificate, and ``gap``
is their difference.

A solve takes one of three paths, recorded as ``ChannelOptResult.path``: a
certified start, a closed form, or the interior point.

The closed form reads the spectrum of M that the interior point's start
needs anyway.  At d_in = 1 a channel is a state, so the optimum is
lambda_max, with primal |v><v| for the top eigenvector v and dual
Y = lambda_max.  A rank-one M = |t><t| (every other eigenvalue within
RANK_ONE_RTOL lambda_max) with d_in <= d_out has optimum ||A||_1^2 for t
reshaped to the d_in x d_out matrix A = U S V^dag: the primal is
|w><w| for w = vec(U V^dag), a co-isometry, and the dual Y = ||A||_1 U S U^dag
= ||A||_1 (A A^dag)^(1/2) satisfies Y (x) I >= |t><t|, as tr[A^dag Y^-1 A] = 1
(Vandenberghe & Boyd, SIAM Review 38, 1996).  t is M's column k over
sqrt(M[k, k]) for its largest diagonal entry, so no eigenvector is needed.
Either pair, its dual widened by a rounding allowance, is repaired and
certified as the interior point's iterates are; a pair that does not
certify, or a LinAlgError, leaves the interior point to run as it runs
alone.

The interior point is a feasible-start primal-dual method, the HKM
direction with Mehrotra's predictor-corrector, from J = I / d_out and a
multiple of the identity Y with S > 0.  Its directions keep both feasible, so
the duality gap is n mu = tr[J S].  Each iteration solves
herm tr_out(J (dY (x) I) S^-1) = herm tr_out(T S^-1) - I  for a Hermitian dY
and sets dS = dY (x) I, dJ = herm(T S^-1 - J - J dS S^-1): T = 0 is the
predictor, T = sigma mu I - dJ_aff dS_aff with sigma = (mu_aff / mu)^3 the
corrector.  The iterates live in one buffer (S, J, R), R = S^-1.  An
iteration runs one Cholesky of its (S, J), two inverses, of the factor pair,
whence R, and of the Schur matrix (A + B) / 2, one batched O(d_in^4 d_out^2)
product for A[(i,l),(j,k)] = sum_{o,p} J[i,o,j,p] R[k,p,l,o] and B, A with J
and R swapped: both factors are gathered from its (J, R) and the sum gathered
back by index arrays cached per shape, with no copy between.  Two stacked
eigvalsh follow: each side steps to 0.95 of its boundary, capped at 1, found
from the smallest eigenvalue of L^-1 dX L^-H for the Cholesky factor L of X.
Each Schur solve is refined once, as the residual of the inverse alone is
primal infeasibility later iterates inherit.  Once n mu <= tol / 2 both
iterates are repaired to exact feasibility and the gap is measured.

A start (result, M_source, W, U) is a result (J, Y) certified for M_source,
that objective, and W = U (x) V, W and U monomials (index, phase),
W[a, index[a]] = phase[a].  With M_s = W M_source W^dag, eps = n max|M - M_s|
bounds ||M - M_s||_op, so J' = W J W^dag is feasible with value tr[M J'], and
U Y U^dag + eps I is a dual certificate of M of value tr Y + d_in eps: its
slack is at least U Y U^dag (x) I - M_s, the start's slack moved by W, so its
smallest eigenvalue is at least the start's.  No eigendecomposition is needed.
A start certifies when eps <= ROUNDING_ATOL max(1, max|M|) and that widened
gap is at most tol (Jansson, Chaykin & Keil, SIAM J. Numer. Anal. 46, 2007);
only then are J and Y moved.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import ROUNDING_ATOL, DimensionError, HermitianOperator, ValidationError, _conjugated
from .testers import Channel, channel_from_choi

DEFAULT_TOL = 1e-6
DUAL_FEAS_ATOL = 1e-8
RANK_ONE_RTOL = 1e-12
# how a result was produced: a certified start, the closed form, or the interior point
PATHS = ("start", "closed_form", "interior_point")

_MAX_ITERATIONS = 100


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
    """Certified bracket [value, dual_value] around the channel optimum.

    Construction raises SolverError carrying the pair unless value <=
    dual_value as computed and gap = dual_value - value <= tol, so each solve
    path only proposes pairs.  ``path`` is how it was produced, one of
    ``PATHS``; ``iterations`` counts the primal-dual iterations, 0 off the
    interior point."""

    value: float
    optimizer: Channel
    dual_value: float
    dual_certificate: HermitianOperator
    tol: float
    dual_min_eig: float
    iterations: int
    history: tuple[tuple[float, float], ...]
    path: str

    @property
    def gap(self) -> float:
        return self.dual_value - self.value

    def __post_init__(self):
        if self.path not in PATHS:
            raise ValueError(f"unknown solve path {self.path!r}")
        if not (self.value <= self.dual_value and self.gap <= self.tol):
            raise SolverError(f"bracket [{self.value!r}, {self.dual_value!r}] not certified "
                              f"(gap {self.gap:.3e}, tol {self.tol:.3e})",
                              self.value, self.dual_value, self.optimizer)
        if self.dual_min_eig < -DUAL_FEAS_ATOL:
            raise SolverError(f"dual certificate infeasible (min eig {self.dual_min_eig:.3e})",
                              self.value, self.dual_value, self.optimizer)


@cache
def _index(d_in: int, d_out: int) -> tuple[np.ndarray, ...]:
    """Read-only index arrays of one shape: the flat positions of Y[i, j] in
    Y (x) I_out, shaped (d_in, d_out, d_in), and flat in (d_out, d_in, d_in)
    order, where ``put`` repeats dY into dS; ``_schur``'s gathers from the
    flat (J, S^-1) pair, and back to its order."""
    n, m = d_in * d_out, d_in * d_in
    lift = (np.arange(d_in)[:, None, None] * (d_out * n) + np.arange(d_out)[:, None] * (n + 1)
            + np.arange(d_in) * d_out)
    pos = np.arange(2 * n * n).reshape(2, d_in, d_out, d_in, d_out)
    out = (lift, lift.transpose(1, 0, 2).reshape(-1),
           pos.transpose(0, 1, 3, 2, 4).reshape(2, m, -1),
           pos[::-1].transpose(0, 4, 2, 3, 1).reshape(2, -1, m),
           np.arange(m * m).reshape((d_in,) * 4).transpose(0, 2, 1, 3).reshape(m, m))
    for index in out:
        index.flags.writeable = False
    return out


def _slack(y: np.ndarray, a: np.ndarray, lift: np.ndarray, out=None) -> np.ndarray:
    """Y (x) I_out - A: Y scattered onto the output-diagonal blocks of -A, into ``out``."""
    s = np.negative(a, out=out)
    s.reshape(-1)[lift] += y[:, None, :]
    return s


def _schur(pair: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Matrix of dY -> herm tr_out(J (dY (x) I) S^-1) on row-major vec(dY), ``pair`` (J, S^-1)."""
    # [(i,l),(j,k)] -> sum_{o,p} first[i,o,j,p] second[k,p,l,o] for both (J, S^-1), (S^-1, J)
    _, _, left, right, back = _index(d_in, d_out)
    flat = pair.reshape(-1)
    prod = flat[left] @ flat[right]
    return ((prod[0] + prod[1]) / 2).reshape(-1)[back]


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
    lo = float(np.linalg.eigvalsh(_slack(y, a, lift))[0])
    if lo < 0:
        y = y + (-lo + 1e-14 * max(1.0, float(np.abs(y).max()))) * np.eye(y.shape[0])
        lo = float(np.linalg.eigvalsh(_slack(y, a, lift))[0])
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


def _from_start(m: HermitianOperator, tol: float, start: tuple) -> ChannelOptResult | None:
    """The result for ``m`` that a start (result, M_source, W, U) certifies by
    eps = n max|M - M_s|, M_s = W M_source W^dag moved once the sizes match,
    with J' = W J W^dag and U Y U^dag + eps I, or None; all built unchecked.
    Entry (a, b) of J' is J[index[a], index[b]] times two of W's phases, two
    complex products averaged with its mirror, so entrywise
    |J' - W J W^dag| <= c u |J| with c = 8 and u = 2^-53, and
    ||J' - W J W^dag||_op <= c u ||J||_F <= c u tr J = c u d_in.  W's phases,
    products of two shift-clock entries, are off unit modulus by at most
    e = 2 delta + 3 u, with delta the largest ||phase| - 1| of
    ``_monomials(shift_clock(n))`` for n = d_in, d_out: below 2.5e-16 for
    n <= 32, each phase being one ``exp``.  So W = D W~, with W~ unitary and D
    diagonal, ||D - I|| <= e, and ||W J W^dag - W~ J W~^dag||_op <=
    (2 e + e^2) d_in.  In all J' is within (c u + 2 e + e^2) d_in, below
    3e-15 d_in for n <= 32, of the exact move of J by a unitary, and passes
    the positivity and trace-preservation checks J passed to within d_out
    times that, far inside their 1e-9."""
    res, source, w, u = start
    d_in = m.dims[0]
    if (res.optimizer.choi.dims != m.dims or source.shape != m.mat.shape
            or any(len(x) != m.size for x in w) or any(len(x) != d_in for x in u)):
        return None
    eps = m.size * float(np.abs(m.mat - _conjugated(source, w)).max())
    if not eps <= ROUNDING_ATOL * max(1.0, float(np.abs(m.mat).max())):
        return None
    optimizer = Channel._unchecked(
        HermitianOperator._unchecked(_conjugated(res.optimizer.choi.mat, w), m.dims))
    value = float(np.vdot(optimizer.choi.mat, m.mat).real)
    dual_value = res.dual_value + d_in * eps
    y = _conjugated(res.dual_certificate.mat, u) + eps * np.eye(d_in)
    with suppress(SolverError):
        return ChannelOptResult(value=value, optimizer=optimizer, dual_value=dual_value,
                                dual_certificate=HermitianOperator._unchecked(y, m.dims[:1]),
                                tol=tol, dual_min_eig=res.dual_min_eig, iterations=0,
                                history=((value, dual_value),), path="start")
    return None


def maximize_over_channels(m: HermitianOperator, tol: float = DEFAULT_TOL,
                           start: tuple | None = None) -> ChannelOptResult:
    """Maximize tr[M J] over channels, certified to the requested duality gap.

    ``m`` must be Hermitian on in(x)out (positivity is not required).  Raises
    SolverError, carrying the best bracket with the current iterate repaired
    into it, if the linear algebra fails, a step collapses, no pair
    certifies within the iteration cap, or the best pair is inverted.  A
    non-channel primal is never reported.

    ``start``, a tuple (result, M_source, W, U) as the module docstring says,
    certifies ``m`` there: the result then has the channel J' = W J W^dag,
    value tr[M J'], the dual certificate U Y U^dag + eps I, ``path ==
    "start"`` and one ``history`` entry.  Otherwise, monomials of another size
    included, it counts as no start.  Then the closed form of the module
    docstring is tried, and where it does not apply or does not certify the
    interior point runs exactly as it runs alone.  ``iterations`` is 0 on the first two paths.
    """
    if len(m.dims) != 2:
        raise DimensionError("objective must carry dims (d_in, d_out)")
    check_tol(tol)
    if start is not None and (res := _from_start(m, tol, start)) is not None:
        return res
    # one decomposition of M; at d_in = 1 its top eigenvector is the closed form's channel
    spectrum, vecs = np.linalg.eigh(m.mat) if m.dims[0] == 1 else (np.linalg.eigvalsh(m.mat), None)
    with suppress(np.linalg.LinAlgError, SolverError):
        if (res := _closed_form(m, tol, spectrum, vecs)) is not None:
            return res
    return _interior_point(m, tol, spectrum)


class _Bracket:
    """The best repaired pair of one solve path and the history of its repairs.

    Each path has its own, so a closed form that does not certify leaves no
    trace in the interior point that follows it."""

    def __init__(self, m: HermitianOperator, tol: float):
        self.a, self.dims, self.tol = m.mat, m.dims, tol
        self.lift = _index(*m.dims)[0]
        self.history: list[tuple[float, float]] = []
        self.primal: tuple[float, np.ndarray] | None = None
        self.dual: tuple[float, np.ndarray, float] | None = None

    def failure(self, message: str) -> SolverError:
        """SolverError carrying the best certified pair, if there is one."""
        if self.primal is None or self.dual is None:
            return SolverError(message)
        optimizer = _channel(self.primal[1], self.dims)
        return SolverError(message, None if optimizer is None else self.primal[0],
                           self.dual[0], optimizer)

    def certify(self, j_cand: np.ndarray, y_cand: np.ndarray, iterations: int, path: str,
                ) -> ChannelOptResult | None:
        """Repair a pair into the best pair, whose exactly feasible sides bracket
        the optimum even from different iterates; the result once it certifies."""
        value, jfix = _repair_primal(self.a, j_cand, *self.dims)
        dual_value, y_feas, dual_min = _repair_dual(self.a, y_cand, self.lift)
        self.history.append((value, dual_value))
        if self.primal is None or value > self.primal[0]:
            self.primal = (value, jfix)
        if self.dual is None or dual_value < self.dual[0]:
            self.dual = (dual_value, y_feas, dual_min)
        if self.dual[0] - self.primal[0] > self.tol:
            return None
        optimizer = _channel(self.primal[1], self.dims)
        if optimizer is None:
            raise self.failure("repaired primal is not a channel")
        return ChannelOptResult(
            value=self.primal[0],
            optimizer=optimizer,
            dual_value=self.dual[0],
            dual_certificate=HermitianOperator(self.dual[1], self.dims[:1]),
            tol=self.tol,
            dual_min_eig=self.dual[2],
            iterations=iterations,
            history=tuple(self.history),
            path=path,
        )


def _closed_form(m: HermitianOperator, tol: float, spectrum: np.ndarray,
                 vecs: np.ndarray | None) -> ChannelOptResult | None:
    """The closed-form pair of the module docstring, certified, or None where
    it does not apply or does not certify.  ``spectrum`` is M's, ascending;
    ``vecs`` its eigenvectors, needed at d_in = 1 only."""
    d_in, d_out = m.dims
    lam_max = float(spectrum[-1])
    # Rounding allowance, so that value <= dual_value holds as computed.
    # LAPACK's Hermitian eigensolvers are backward stable: the computed
    # spectrum is exact for M + E with ||E||_2 <= p(n) eps ||M||_2, p(n) a
    # modest multiple of n, so by Weyl each computed eigenvalue, of M here
    # and of the slack in the dual repair, is within about n eps ||M||_2 of
    # the exact one.  The computed value tr[M J], with tr J = d_in, is
    # within about 2 n^1.5 d_in eps ||M||_2 of the exact one: n products per
    # diagonal entry of M J, then a sum of n, and sum |M_ik| |J_ki| <=
    # sqrt(n) d_in ||M||_2.  Y + delta I, with delta = 4 n^2 eps ||M||_2 >=
    # n eps ||M||_2 + 2 n^1.5 eps ||M||_2, covers both: it adds d_in delta
    # to tr Y.
    allowance = 4 * m.size ** 2 * np.finfo(float).eps * max(lam_max, -spectrum[0])
    if d_in == 1:
        v = vecs[:, -1]
        j = np.outer(v, v.conj())
        y = np.array([[lam_max + allowance]])
    elif (d_in <= d_out and lam_max > 0
          and max(spectrum[-2], -spectrum[0]) <= RANK_ONE_RTOL * lam_max):
        # M = |t><t| up to a phase of t, read off its largest diagonal entry
        a = m.mat
        k = int(a.diagonal().real.argmax())
        t = a[:, k] / np.sqrt(a[k, k].real)
        u, s, vh = np.linalg.svd(t.reshape(d_in, d_out), full_matrices=False)
        w = (u @ vh).reshape(-1)
        j = np.outer(w, w.conj())
        y = _hermitize(s.sum() * (u * s) @ u.conj().T) + allowance * np.eye(d_in)
    else:
        return None
    return _Bracket(m, tol).certify(j, y, 0, "closed_form")


def _interior_point(m: HermitianOperator, tol: float, spectrum: np.ndarray) -> ChannelOptResult:
    """The interior point of the module docstring, started from the extreme
    eigenvalues of ``spectrum``, M's in ascending order."""
    d_in, d_out = m.dims
    a, n = m.mat, m.size
    bracket = _Bracket(m, tol)
    lift = bracket.lift
    iterations = 0

    lam_min, lam_max = float(spectrum[0]), float(spectrum[-1])
    y = (lam_max + 0.1 * max(lam_max - lam_min, 1.0, abs(lam_max))) * np.eye(d_in)
    # (S, J, S^-1) and (dS, dJ) stacked in place; ``put`` repeats dY into dS, zero elsewhere
    buf = np.array([np.zeros((n, n)), np.eye(n) / d_out, np.zeros((n, n))], dtype=complex)
    step = np.zeros((2, n, n), dtype=complex)
    (s, j, sinv), (ds, dj), to_ds = buf, step, _index(d_in, d_out)[1]
    minus_eye = -np.eye(d_in, dtype=complex).reshape(-1)

    def direction(ts: np.ndarray | None) -> tuple:
        """dY, dS S^-1 and both step lengths, dual first, for ts = T S^-1, None if T = 0."""
        rhs = minus_eye if ts is None else minus_eye + _hermitize(
            np.einsum("iojo->ij", ts.reshape(d_in, d_out, d_in, d_out))).reshape(-1)
        dy = schur_inv @ rhs
        dy = _hermitize((dy + schur_inv @ (rhs - schur @ dy)).reshape(d_in, d_in))
        ds.put(to_ds, dy)
        dss = ds @ sinv
        np.subtract(_hermitize(-(j @ dss) if ts is None else ts - j @ dss), j, out=dj)
        lo = np.linalg.eigvalsh(inv_l @ step @ inv_lh)[:, 0].tolist()
        return dy, dss, [1.0 / max(1.0, -x / 0.95) for x in lo]

    message = f"not certified in {_MAX_ITERATIONS} iterations"
    try:
        while True:
            _slack(y, a, lift, out=s)
            gap = np.vdot(j, s).real
            if gap <= tol / 2 and \
                    (res := bracket.certify(j, y, iterations, "interior_point")) is not None:
                return res
            if iterations == _MAX_ITERATIONS:
                break
            iterations += 1
            inv_l = np.linalg.inv(np.linalg.cholesky(buf[:2]))
            inv_lh = inv_l.conj().transpose(0, 2, 1)
            np.matmul(inv_lh[0], inv_l[0], out=sinv)
            schur = _schur(buf[1:], d_in, d_out)
            schur_inv = np.linalg.inv(schur)
            dy, dss, (td, tp) = direction(None)
            mu_aff = np.vdot(j + tp * dj, s + td * ds).real
            ts = (mu_aff / gap) ** 3 * gap / n * sinv - dj @ dss
            dy, dss, (td, tp) = direction(ts)
            if max(tp, td) < np.finfo(float).eps:
                message = "step collapsed"
                break
            j += tp * dj
            y = y + td * dy
    except np.linalg.LinAlgError as exc:
        message = f"numerical failure: {exc}"
    with suppress(np.linalg.LinAlgError, SolverError):
        # the error carries the current iterate, repaired
        bracket.certify(j, y, iterations, "interior_point")
    raise bracket.failure(f"{message} (gap {gap:.3e} before repair)")
