"""Uncertainty bounds for outcome combinations of tester scenarios.

For a combination x = (x_1, ..., x_L), one outcome per test, three bounds on
the mixed success probability sum_l r_l p_l(x_l | channel) are computed:

* ``trivial_bound``  t(x) = sum_l r_l max_channel p_l(x_l), each inner maximum
  certified by the channel optimizer (tests of weight zero are skipped);
* ``upper_bound``    d_in * ||sum_l r_l T_l(x_l)||, a closed-form cap that
  needs no optimization;
* ``exact_bound``    the certified maximum of the weighted probability itself.

A combination exhibits an unavoidable trade-off when the exact bound sits
strictly below the trivial one.

``scenario_report`` is the one pipeline behind every report: it solves each
per-test maximum once per outcome, takes the norm cap and its tightness from
one eigendecomposition, and records a failed solve as ``error``.  It works
once per symmetry orbit: a W = U (x) V of shift-clock unitaries that permutes
each tester's elements maps the objective M of an outcome or a combination to
W M W^dag, that of its image, and a certified result with channel J and dual
certificate Y to one with W J W^dag and U Y U^dag, so bounds within an orbit
coincide.  ``_symmetries`` checks each symmetry it accepts once, on blocks
of tester elements, which proves each image's objective equal to its
source's moved by W up to rounding.  A report walks its orbit table once, in report
order: the first key of an orbit is its source, built and solved with no
start; an image takes its source's norm cap and tightness with no objective
built, whatever the degeneracy of the top eigenspace (W moves it with the
objective, and the tightness witness depends on it, not on its basis), and
builds its objective only for its exact solve, which starts from its
source's result, its source's objective moved by W, W and U.  The solver
moves the result and certifies it by a perturbation bound, with no
eigendecomposition and no primal-dual iteration, or solves the image as if
it had no start; the images of a failed source are solved directly.  Rank-one
and d_in = 1 objectives are certified in closed form.  Each symmetry is kept
as monomials (index, phase), W[a, index[a]] = phase[a], so moving a matrix is
a gather and two phase products.
``exact_bound``, ``trivial_bound``, ``bound_report`` and ``tightness_check``
reuse nothing and take no start; they are the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel_opt import ChannelOptResult, SolverError, check_tol, maximize_over_channels
from .linalg import (EQUALITY_ATOL, ROUNDING_ATOL, DimensionError, HermitianOperator, Ket,
                     ValidationError, _conjugated, check_close, operator_norm, shift_clock)
# not called here: bench/tracing.py looks this name up in this module
from .linalg import eig_hermitian  # noqa: F401
from .testers import Channel, Scenario, Tester, channel_to_json

TIGHTNESS_ATOL = 1e-8
TRADEOFF_MARGIN = 1e-8
AGREEMENT_FLOOR = 1e-6


class InequalityError(ValidationError):
    """A report breaks its own inequalities: a bound out of range, the exact
    bound above the norm cap or the trivial bound, or a certified tightness
    that the exact bound does not meet.  ``BoundReport`` checks them all."""


def _check_combination(scenario: Scenario, combination: Sequence[str]) -> tuple[str, ...]:
    combination = tuple(str(c) for c in combination)
    if len(combination) != len(scenario.tests):
        raise ValidationError(f"combination {combination} must name one outcome per test")
    for label, test in zip(combination, scenario.tests):
        if label not in test.labels:
            raise ValidationError(f"label {label!r} not an outcome of its test")
    return combination


def _objective(scenario: Scenario, testers: Sequence[Tester],
               combination: tuple[str, ...]) -> np.ndarray:
    """The matrix of sum_l r_l T_l(x_l), summed one test at a time.  A sum of
    validated, exactly Hermitian elements is finite and exactly Hermitian, so
    it is wrapped unchecked, and the wrap leaves its bits as they are."""
    total = np.zeros((scenario.d_in * scenario.d_out,) * 2, dtype=complex)
    for weight, tester, label in zip(scenario.weights, testers, combination):
        total += weight * tester.element(label).mat
    return total


def objective_operator(scenario: Scenario, combination: Sequence[str]) -> HermitianOperator:
    """sum_l r_l T_l(x_l) for one combination, built unchecked as ``_objective`` allows."""
    combination = _check_combination(scenario, combination)
    return HermitianOperator._unchecked(_objective(scenario, scenario.testers(), combination),
                                        (scenario.d_in, scenario.d_out))


class _Relabelling:
    """perm[x] = y when W T(x) W^dag = T(y), read off one row of label indices
    shared with the other symmetries of a scenario."""

    __slots__ = ("_index", "_labels", "_row")

    def __init__(self, index: dict[str, int], labels: list[str], row: np.ndarray):
        self._index, self._labels, self._row = index, labels, row

    def __getitem__(self, label: str) -> str:
        return self._labels[self._row[self._index[label]]]


def _monomials(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, phase) of a matrix m, or of each of a stack, with one nonzero
    entry per row, m[a, index[a]] = phase[a]."""
    index = np.abs(stack).argmax(axis=-1)
    return index, np.take_along_axis(stack, index[..., None], axis=-1)[..., 0]


def _kron_monomials(u: tuple[np.ndarray, np.ndarray],
                    v: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(index, phase) of U (x) V from the monomials of U and V, or of each pair
    of two stacks: row (a, b) holds U[a, iu[a]] V[b, iv[b]] in column
    (iu[a], iv[b]), the bits of ``_monomials(np.kron(U, V))``."""
    (iu, pu), (iv, pv) = u, v
    shape = (*iu.shape[:-1], iu.shape[-1] * iv.shape[-1])
    return ((iu[..., :, None] * iv.shape[-1] + iv[..., None, :]).reshape(shape),
            (pu[..., :, None] * pv[..., None, :]).reshape(shape))


# complex entries that the element check moves at once, 128 KB: larger
# transients stay in glibc's heap after they are freed and add to later peaks
_BLOCK = 2 ** 13


def _element_error(elems: np.ndarray, w: tuple[np.ndarray, np.ndarray],
                   row: np.ndarray) -> float:
    """max_x |W T(x) W^dag - T(row[x])| over the elements T(x) = elems[x] of an
    (L, n, n) stack, moved in blocks of whole elements, at most ``_BLOCK``
    entries each (one element if it alone is larger).  Each element keeps the
    bits it has when moved alone, and the max is exact, so the blocks do not
    change the result."""
    step = max(1, _BLOCK // elems[0].size)
    return max(float(np.abs(_conjugated(elems[i:i + step], w) - elems[row[i:i + step]]).max())
               for i in range(0, len(elems), step))


def _fingerprints(moved: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """prints[c, x] = <w_c|T_x|w_c> for each vector w_c, a row of ``moved``, and
    each matrix T_x of ``stack``, the matrices side by side:
    stack[:, x m:(x + 1) m] = T_x for vectors of length m."""
    products = (moved.conj() @ stack).reshape(len(moved), -1, moved.shape[1])
    return (products @ moved[:, :, None])[..., 0].real


def _symmetries(scenario: Scenario) -> list[tuple[tuple, tuple, _Relabelling]]:
    """(W, U, perm) for each non-identity W = U (x) V = X^p Z^q (x) X^s Z^t with
    W T(x) W^dag = T(perm x), up to the rounding below, for every tester
    element; perm maps the fingerprints <r|T|r> (r one fixed generic vector)
    one to one onto the tester's own.  W and U are monomials (index, phase),
    W[a, index[a]] = phase[a], whose phases are entries of the dense
    shift-clock matrices.  The list is in candidate order, c = (p, q, s, t).

    Modulo phases the candidates form the group Z_d_in^2 x Z_d_out^2, and the
    symmetries with the identity a subgroup H.  The search takes one chunk of
    candidates per U and fingerprints in one batched product those not yet
    in H.  A match g is checked once, in blocks of elements
    (``_element_error``), for its error delta_g = max_x |W_g T(x) W_g^dag -
    T(perm_g x)|, W_g the monomial that is returned.  Accepted, it grows H
    to the cosets k g + H, k < n_g, where perm of h + k g is perm_g applied
    k times after perm_h.  So a symmetry is a product of at most
    F = sum (n_g - 1) accepted generators, its exact unitary theirs up to a
    phase, and since moving by an exact monomial unitary keeps max|.|,
    |W_h T(x) W_h^dag - T(perm_h x)| <= F (max delta_g + rho) + rho.
    rho = 100 u max|T| (u = 2^-53) bounds one move by stored phases against
    the exact move: a phase is an ``exp`` of an angle rounded within 16 u, so
    within 18 u of its root of unity, a product of two within 39 u, and a
    move takes two such products and two complex roundings of sqrt(5) u.  g
    is accepted only if that bound, with the F and largest delta_g that
    accepting it gives, is at most ``ROUNDING_ATOL``.  The weights sum to 1,
    so each image's objective is then within ``ROUNDING_ATOL``, plus the
    rounding of the sums, of its source's moved by W: the condition for an
    image to take its source's spectral result.  On ``meb`` and ``example2``
    H is everything, three chunks decide it and four generators are checked;
    on ``example1`` and random scenarios H holds no U but the identity and
    every chunk is fingerprinted; ``sampling.random_covariant_scenario``
    builds scenarios between the two.  A false match is rejected when it is
    found, with the subgroup it would generate."""
    d_in, d_out = scenario.d_in, scenario.d_out
    us, vs = shift_clock(d_in), shift_clock(d_out)
    k = np.arange(1.0, d_in * d_out + 1)
    r = (np.exp(1j * np.sqrt(2) * k * k) / np.sqrt(k)).reshape(d_in, d_out)
    r /= np.linalg.norm(r)
    shape = (d_in, d_in, d_out, d_out)
    coords = np.unravel_index(np.arange(len(us) * len(vs)), shape)

    def add(a, b):
        return np.ravel_multi_index([x[a] + x[b] for x in coords], shape, mode="wrap")

    labels: list[str] = []
    tiers = []
    for tester in scenario.testers():
        tiers.append(slice(len(labels), len(labels) + len(tester.elements)))
        labels += [label for label, _ in tester.elements]
    stack = np.stack([op.mat for tester in scenario.testers() for _, op in tester.elements],
                     axis=1).reshape(d_in * d_out, -1)
    # elems[x] = T(x) >= 0, a view: max|T| is on a diagonal
    elems = stack.reshape(len(stack), len(labels), -1).transpose(1, 0, 2)
    rho = 100 * 2.0 ** -53 * float(elems.diagonal(0, 1, 2).real.max())
    (iu, pu), (iv, pv) = _monomials(us), _monomials(vs)
    factors, worst = 0, 0.0  # F and the largest delta_g of the accepted generators
    in_h = np.zeros(len(us) * len(vs), bool)
    group, rows = np.zeros(1, np.intp), np.arange(len(labels))[None]  # H and its relabellings
    for i, u in enumerate(us):
        c = np.flatnonzero(~in_h[i * len(vs):(i + 1) * len(vs)])
        if not len(c):
            continue
        # the chunk's candidates outside H; the identity is the first
        # candidate of chunk 0, and its fingerprints the testers' own
        prints = _fingerprints((u.conj().T @ r @ vs.conj()).reshape(len(vs), -1)[c], stack)
        c += i * len(vs)
        ranked = np.concatenate([np.sort(prints[:, tier], axis=1) for tier in tiers], axis=1)
        if i == 0:
            own = ranked[0]
            own_order = np.concatenate([tier.start + np.argsort(prints[0, tier], kind="stable")
                                        for tier in tiers])
            in_h[0] = True
        keep = np.abs(ranked - own).max(axis=1) <= EQUALITY_ATOL
        if keep.any():
            # found[i, order[i, j]] = own_order[j]: the element of rank j goes
            # to the tester's own element of rank j, equal fingerprints ranked
            # in element order
            order = np.concatenate([tier.start + np.argsort(prints[keep, tier], axis=1,
                                                            kind="stable")
                                    for tier in tiers], axis=1)
            found = np.empty_like(order)
            np.put_along_axis(found, order, own_order[None], axis=1)
            for g, row in zip(c[keep], found):
                if in_h[g]:
                    continue
                # H + <g>: the cosets k g + H up to the first k with k g in H
                shift = add(np.arange(len(in_h)), g)
                cosets, coset_rows = [group], [rows]
                members = shift[group]
                while not in_h[members[0]]:
                    cosets.append(members)
                    coset_rows.append(row[coset_rows[-1]])
                    members = shift[members]
                a, b = divmod(g, len(vs))
                w = _kron_monomials((iu[a], pu[a]), (iv[b], pv[b]))
                delta = _element_error(elems, w, row)
                count, error = factors + len(cosets) - 1, max(worst, delta)
                if not count * (error + rho) + rho <= ROUNDING_ATOL:
                    continue
                factors, worst = count, error
                in_h[np.concatenate(cosets[1:])] = True
                group, rows = np.concatenate(cosets), np.concatenate(coset_rows)
    order = np.argsort(group)[1:]
    c, rows = group[order], rows[order]
    index = {label: i for i, label in enumerate(labels)}
    iu, pu, iv, pv = iu[c // len(vs)], pu[c // len(vs)], iv[c % len(vs)], pv[c % len(vs)]
    iw, pw = _kron_monomials((iu, pu), (iv, pv))
    return [((iw[i], pw[i]), (iu[i], pu[i]), _Relabelling(index, labels, row))
            for i, row in enumerate(rows)]


def _orbits(keys: Sequence[tuple[str, ...]], symmetries: Sequence) -> dict:
    """The orbit table of ``keys`` (tuples of labels), in their order: the first
    key of each orbit is its source and maps to None, every other key to
    (source, W, U) for the first symmetry W = U (x) V that maps the source
    onto it, W and U as monomials.  The symmetries form a group, so the images
    of a source are its whole orbit."""
    table: dict = {}
    for key in keys:
        if key not in table:
            table[key] = None
            for w, u, perm in symmetries:
                table.setdefault(tuple(perm[x] for x in key), (key, w, u))
    return {key: table[key] for key in keys}


def _per_test_maxima(scenario: Scenario, tol: float, labels: Sequence[str] | None = None,
                     symmetries: Sequence = ()) -> dict[str, float | str]:
    """Dual value of max_channel p(x) (an upper estimate within ``tol``) for each
    outcome x of each test of nonzero weight, restricted to ``labels`` if given;
    a failed solve is kept as its error message.  One walk over the label
    orbit table: an image starts from its source's result and its source's
    element moved to T' = W T W^dag, with W and U."""
    elements = {(label,): element
                for weight, tester in zip(scenario.weights, scenario.testers()) if weight != 0.0
                for label, element in tester.elements if labels is None or label in labels}
    results: dict = {}
    for key, origin in _orbits(list(elements), symmetries).items():
        start = None
        if origin is not None and isinstance(results[origin[0]], ChannelOptResult):
            source, w, u = origin
            start = results[source], _conjugated(elements[source].mat, w), w, u
        try:
            results[key] = maximize_over_channels(elements[key], tol=tol, start=start)
        except SolverError as exc:
            results[key] = exc
    return {label: res.dual_value if isinstance(res, ChannelOptResult)
            else f"per-test maximum for {label!r} failed: {res}"
            for (label,), res in results.items()}


def _weighted_maxima(scenario: Scenario, combination: tuple[str, ...],
                     maxima: dict[str, float | str]) -> float:
    """The trivial bound of one combination; a failed maximum raises SolverError."""
    total = 0.0
    for weight, label in zip(scenario.weights, combination):
        if weight != 0.0:
            if isinstance(maxima[label], str):
                raise SolverError(maxima[label])
            total += weight * maxima[label]
    return total


def trivial_bound(scenario: Scenario, combination: Sequence[str], tol: float = 1e-6) -> float:
    """Weighted sum of certified per-test maxima.

    Each inner maximum is reported through its dual certificate, so the
    returned number is always an upper estimate of the true trivial bound,
    off by at most ``tol``.
    """
    combination = _check_combination(scenario, combination)
    return _weighted_maxima(scenario, combination,
                            _per_test_maxima(scenario, tol, combination))


def upper_bound(scenario: Scenario, combination: Sequence[str]) -> float:
    """d_in times the operator norm of the weighted tester-element sum."""
    objective = objective_operator(scenario, combination)
    return scenario.d_in * operator_norm(objective, require_psd=True)


def exact_bound(scenario: Scenario, combination: Sequence[str],
                tol: float = 1e-6) -> ChannelOptResult:
    """Certified maximum of the weighted combination probability over channels,
    solved from no start."""
    return maximize_over_channels(objective_operator(scenario, combination), tol=tol)


@dataclass(frozen=True)
class TightnessResult:
    tight: bool
    degenerate: bool
    marginal_residual: float
    upper: float  # the norm cap d_in * ||objective|| whose attainment is checked


def tightness_check(scenario: Scenario, combination: Sequence[str]) -> TightnessResult:
    """Check whether the operator-norm bound is provably attained.

    The cap d_in ||M|| is attained exactly when some channel's Choi matrix
    J = V X V^dag, X >= 0, lives on the top eigenspace V of the objective M
    and has tr_out J = I.  That is linear in the k x k matrix X, so one
    ``lstsq`` gives its minimum-norm solution, the witness; the cap is
    certified when the witness's residual and its most negative eigenvalue
    are both within ``TIGHTNESS_ATOL``.  The residual is reported as
    ``marginal_residual``.  The test is sufficient, not complete: a
    combination whose witness is not positive may still reach the cap.  It
    runs no optimization and depends on the projector V V^dag only, not on
    the basis that ``eigh`` returns for a degenerate top eigenspace, whose
    degeneracy is reported.
    """
    objective = objective_operator(scenario, combination)
    return _tightness(objective.mat, objective.dims)


def _tightness(mat: np.ndarray, dims: tuple[int, int]) -> TightnessResult:
    """``tightness_check`` of a built objective matrix on in(x)out of ``dims``."""
    vals, vecs = np.linalg.eigh(mat)
    d_in, d_out = dims
    top = vecs[:, vals >= vals[-1] - TIGHTNESS_ATOL].reshape(d_in, d_out, -1)
    k = top.shape[2]
    # tr_out(V X V^dag)[i, j] = sum_{a, b} X[a, b] sum_o V[i, o, a] conj(V[j, o, b])
    system = np.einsum("ioa,job->ijab", top, top.conj()).reshape(d_in * d_in, k * k)
    eye = np.eye(d_in).reshape(-1)
    x = np.linalg.lstsq(system, eye, rcond=None)[0]
    residual = float(np.linalg.norm(system @ x - eye))
    x = x.reshape(k, k)
    lowest = float(np.linalg.eigvalsh((x + x.conj().T) / 2)[0])
    return TightnessResult(tight=residual <= TIGHTNESS_ATOL and lowest >= -TIGHTNESS_ATOL,
                           degenerate=k > 1, marginal_residual=residual,
                           upper=d_in * float(np.max(np.abs(vals))))


def agrees(value: float, gap: float, target: float) -> bool:
    """Whether ``value`` is within max(AGREEMENT_FLOOR, 10 ``gap``) of ``target``."""
    return abs(value - target) <= max(AGREEMENT_FLOOR, 10 * gap)


def unitary_from_max_entangled(ket: Ket) -> np.ndarray:
    """Recover U with |psi> = (I (x) U)|Psi+> from a maximally entangled ket."""
    if len(ket.dims) != 2 or ket.dims[0] != ket.dims[1]:
        raise DimensionError("ket must live on two factors of equal dimension")
    d = ket.dims[0]
    u = np.sqrt(d) * ket.amps.reshape(d, d).T
    check_close(u.conj().T @ u, np.eye(d), EQUALITY_ATOL, "ket is not maximally entangled")
    return u


def qubit_meb_optimizer(psi1: Ket, psi2: Ket) -> tuple[np.ndarray, float]:
    """Optimal unitary channel for a pair of maximally entangled qubit kets.

    Returns (U, value) where the channel rho -> U rho U^dag attains the exact
    bound (1/2)(1 + |<psi1|psi2>|) for the two rank-1 tester elements built
    from the kets.  The construction branches on the Hilbert-Schmidt inner
    product of the generating unitaries and is specific to qubits; for larger
    dimensions the combined operator need not be unitary.
    """
    if psi1.dims != (2, 2) or psi2.dims != (2, 2):
        raise DimensionError("optimizer construction requires two-qubit kets")
    u1 = unitary_from_max_entangled(psi1)
    u2 = unitary_from_max_entangled(psi2)
    s = complex(np.trace(u1.conj().T @ u2))
    orthogonal = abs(s) < ROUNDING_ATOL
    if orthogonal:
        u = u1
    else:
        u = (u1 + (s.conjugate() / abs(s)) * u2) / np.sqrt(2 + abs(s))
    check_close(u.conj().T @ u, np.eye(2), EQUALITY_ATOL, "combined operator not unitary")

    overlap = abs(psi1.overlap(psi2))
    expected = 0.5 * (1.0 + overlap)
    psi_plus = np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2)
    w = np.kron(np.eye(2), u) @ psi_plus
    p1 = abs(np.vdot(psi1.amps, w)) ** 2
    p2 = abs(np.vdot(psi2.amps, w)) ** 2
    value = 0.5 * (p1 + p2)
    check_close(value, expected, EQUALITY_ATOL, "optimizer misses the closed form")
    if orthogonal:
        target = psi1.amps
    else:
        phase = psi2.overlap(psi1) / overlap
        target = psi1.amps + phase * psi2.amps
        target = target / np.linalg.norm(target)
    check_close(w, target, EQUALITY_ATOL, "channel ket does not match the top eigenvector form")
    return u, float(value)


def closed_form_state_bound(basis1: Sequence[Ket], basis2: Sequence[Ket]) -> np.ndarray:
    """Table b[i, j] = (1/2)(1 + |<e_i|f_j>|) for two orthonormal bases, equal weights."""
    for basis in (basis1, basis2):
        mats = np.stack([k.amps for k in basis])
        check_close(mats @ mats.conj().T, np.eye(len(basis)), EQUALITY_ATOL,
                    "basis is not orthonormal")
    table = np.empty((len(basis1), len(basis2)))
    for i, e in enumerate(basis1):
        for j, f in enumerate(basis2):
            table[i, j] = 0.5 * (1.0 + abs(e.overlap(f)))
    return table


def mub_state_bound(d: int) -> float:
    """Equal-weight two-measurement bound for mutually unbiased bases."""
    return 0.5 * (1.0 + 1.0 / np.sqrt(d))


@dataclass(frozen=True)
class BoundReport:
    """All bounds for one outcome combination, with certification metadata.

    A bound that was skipped, or whose solve failed, is None; ``error`` then
    says which solve failed.  ``tradeoff`` needs both ``trivial`` and ``exact``.
    ``path`` says how ``exact`` was produced, as ``ChannelOptResult.path``
    does, and ``iterations`` counts the primal-dual iterations behind it, 0
    off the interior point.
    """

    combination: tuple[str, ...]
    trivial: float | None
    upper: float
    exact: float | None
    gap: float | None
    tradeoff: bool | None
    tight: bool
    tight_degenerate: bool
    optimizer: Channel | None
    tol: float = 1e-6
    error: str | None = None
    iterations: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.exact is not None and self.tight and not agrees(self.exact, self.gap, self.upper):
            raise InequalityError(
                f"tightness certified but exact {self.exact!r} != upper {self.upper!r}")
        if self.exact is not None and self.exact > self.upper + 1e-8:
            raise InequalityError(f"exact {self.exact!r} exceeds upper {self.upper!r}")
        if None not in (self.exact, self.trivial) and self.exact > self.trivial + 1e-8:
            raise InequalityError(f"exact {self.exact!r} exceeds trivial {self.trivial!r}")
        # certified trivial bounds may exceed their true value by up to tol
        hi = max(1.0, self.upper) + max(self.tol, 1e-9)
        for name in ("trivial", "upper", "exact"):
            v = getattr(self, name)
            if v is not None and not -1e-9 <= v <= hi:
                raise InequalityError(f"{name} bound {v!r} outside [0, {hi!r}]")


def _report(scenario: Scenario, combination: tuple[str, ...], tol: float,
            spectral: TightnessResult, maxima: dict[str, float | str] | None,
            exact: ChannelOptResult | SolverError | None) -> BoundReport:
    """Every requested bound for one combination (``maxima`` or ``exact`` None skips
    that bound); they are computed independently, so their inequalities are
    cross-checks."""
    trivial = None
    errors = []
    if maxima is not None:
        try:
            trivial = _weighted_maxima(scenario, combination, maxima)
        except SolverError as exc:
            errors.append(str(exc))
    if isinstance(exact, SolverError):
        errors.append(f"exact bound failed: {exact}")
        exact = None
    tradeoff = None if exact is None or trivial is None else \
        bool(exact.dual_value < trivial - max(tol, TRADEOFF_MARGIN))
    return BoundReport(
        combination=combination,
        trivial=trivial,
        upper=spectral.upper,
        exact=None if exact is None else float(exact.value),
        gap=None if exact is None else float(exact.gap),
        tradeoff=tradeoff,
        tight=spectral.tight,
        tight_degenerate=spectral.degenerate,
        optimizer=None if exact is None else exact.optimizer,
        tol=float(tol),
        error="; ".join(errors) or None,
        iterations=None if exact is None else exact.iterations,
        path=None if exact is None else exact.path,
    )


def bound_report(scenario: Scenario, combination: Sequence[str],
                 tol: float = 1e-6) -> BoundReport:
    """Every bound for one combination; a failed solve is recorded as ``error``."""
    combination = _check_combination(scenario, combination)
    spectral = tightness_check(scenario, combination)
    maxima = _per_test_maxima(scenario, tol, combination)
    try:
        exact = exact_bound(scenario, combination, tol)
    except SolverError as exc:
        exact = exc
    return _report(scenario, combination, tol, spectral, maxima, exact)


def all_combinations(scenario: Scenario, cap: int | None = None) -> list[tuple[str, ...]]:
    """Every outcome combination, ordered lexicographically by label tuple.

    Raises ``ValidationError`` when there are more than ``cap`` of them.
    """
    count = math.prod(len(labels) for labels in scenario.outcome_sets())
    if cap is not None and count > cap:
        raise ValidationError(f"{count} combinations exceed the cap {cap}")
    return sorted(itertools.product(*scenario.outcome_sets()))


def scenario_report(scenario: Scenario, tol: float = 1e-6, cap: int | None = 4096,
                    skip_exact: bool = False, skip_trivial: bool = False,
                    ) -> list[BoundReport]:
    """Bound reports for every combination (lexicographic order).

    ``cap`` guards against combinatorial blowup; pass None to disable.  The
    per-test maxima feeding the trivial bound are solved once per outcome.
    The report is one walk over the combinations' orbit table, in report
    order.  An image takes its source's ``upper``, ``tight`` and
    ``tight_degenerate`` with no objective built, as ``_symmetries`` proved
    the two objectives equal up to W and rounding, and builds its objective
    only for its exact solve, which starts from its source's result and
    objective moved by W; only a source that has images keeps those.
    ``skip_exact`` and ``skip_trivial`` leave those bounds (and ``tradeoff``)
    None.  A failed solve is the ``error`` of every report that needed it.
    """
    check_tol(tol)
    combos = all_combinations(scenario, cap)
    symmetries = _symmetries(scenario)
    table = _orbits(combos, symmetries)
    sources = {origin[0] for origin in table.values() if origin is not None}
    maxima = None if skip_trivial else _per_test_maxima(scenario, tol, symmetries=symmetries)

    # named like the oracle it stands for: bench/tracing.py tells exact solves
    # from per-test maxima by the name of the function calling the solver
    def exact_bound(objective, start):
        try:
            return maximize_over_channels(objective, tol=tol, start=start)
        except SolverError as exc:
            return exc

    kept: dict = {}
    reports = []
    testers = scenario.testers()
    dims = (scenario.d_in, scenario.d_out)
    for combo, origin in table.items():
        start = exact = None
        mat = _objective(scenario, testers, combo) if origin is None or not skip_exact else None
        if origin is None:
            spectral = _tightness(mat, dims)
        else:
            source, w, u = origin
            m, spectral, solved = kept[source]
            if isinstance(solved, ChannelOptResult):
                start = solved, _conjugated(m, w), w, u
        if not skip_exact:  # validated testers' elements, summed as _objective says
            exact = exact_bound(HermitianOperator._unchecked(mat, dims), start)
        if combo in sources:
            kept[combo] = (mat, spectral, exact)
        reports.append(_report(scenario, combo, tol, spectral, maxima, exact))
    return reports


_JSON_FIELDS = ("trivial", "upper", "exact", "gap", "tradeoff", "tight", "tight_degenerate",
                "optimizer", "error")


def report_to_json(report: BoundReport) -> dict:
    """One report entry, a payload for ``dumps_canonical``; skipped bounds (None fields)
    are omitted.  The optimizer is ``channel_to_json`` of it: its ``data`` is the Choi
    matrix as a complex ndarray, written as the ``[re, im]`` rows of a channel file."""
    obj: dict = {"combination": list(report.combination)}
    for name in _JSON_FIELDS:
        value = getattr(report, name)
        if value is not None:
            obj[name] = channel_to_json(value) if name == "optimizer" else value
    return obj
