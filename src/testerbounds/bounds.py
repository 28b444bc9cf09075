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
per-test maximum once per outcome, takes the norm cap and its tightness from one
eigendecomposition, and records a failed solve as ``error``.  It works once
per symmetry orbit: a W = U (x) V of shift-clock unitaries that permutes each
tester's elements maps the objective M of an outcome or a combination to
W M W^dag, that of its image, and a certified pair (J, Y) to
(W J W^dag, U Y U^dag), so bounds within an orbit coincide.  The orbits are
one table per report: the first key of an orbit in report order is its
source, solved with no start, and each image starts from the transported
pair, which certifies before any primal-dual iteration or counts as no start.
The images of a failed source are solved directly.  A report is one walk
over the combinations' table: each objective is built once, an image takes
its source's norm cap and tightness once its own objective is checked to
equal W M W^dag (a source with a degenerate top eigenspace hands nothing
on), and its exact solve follows at once.  Only sources keep their objective.
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
                     ValidationError, check_close, operator_norm, shift_clock)
# not called here: bench/tracing.py looks this name up in this module
from .linalg import eig_hermitian  # noqa: F401
from .testers import Channel, Scenario, channel_to_json

TIGHTNESS_ATOL = 1e-8
TRADEOFF_MARGIN = 1e-8
AGREEMENT_FLOOR = 1e-6


def _check_combination(scenario: Scenario, combination: Sequence[str]) -> tuple[str, ...]:
    combination = tuple(str(c) for c in combination)
    if len(combination) != len(scenario.tests):
        raise ValidationError(f"combination {combination} must name one outcome per test")
    for label, test in zip(combination, scenario.tests):
        if label not in test.labels:
            raise ValidationError(f"label {label!r} not an outcome of its test")
    return combination


def objective_operator(scenario: Scenario, combination: Sequence[str]) -> HermitianOperator:
    """Weighted tester-element sum sum_l r_l T_l(x_l) for one combination."""
    combination = _check_combination(scenario, combination)
    total = np.zeros((scenario.d_in * scenario.d_out,) * 2, dtype=complex)
    for weight, tester, label in zip(scenario.weights, scenario.testers(), combination):
        total += weight * tester.element(label).mat
    return HermitianOperator(total, (scenario.d_in, scenario.d_out))


class _Relabelling:
    """perm[x] = y when W T(x) W^dag = T(y), read off one row of label indices
    shared with the other symmetries of a scenario."""

    __slots__ = ("_index", "_labels", "_row")

    def __init__(self, index: dict[str, int], labels: list[str], row: np.ndarray):
        self._index, self._labels, self._row = index, labels, row

    def __getitem__(self, label: str) -> str:
        return self._labels[self._row[self._index[label]]]


def _symmetries(scenario: Scenario) -> list[tuple[np.ndarray, np.ndarray, _Relabelling]]:
    """(U, V, perm) for each non-identity W = U (x) V = X^p Z^q (x) X^s Z^t that
    maps the fingerprints <r|T|r> of each tester's elements one to one onto
    its own (r is one fixed generic vector); perm[x] = y when W T(x) W^dag = T(y).
    A false match is caught downstream: its starts fail their certification and
    its spectral reuse fails the objective check."""
    d_in, d_out = scenario.d_in, scenario.d_out
    us, vs = shift_clock(d_in), shift_clock(d_out)
    k = np.arange(1.0, d_in * d_out + 1)
    r = (np.exp(1j * np.sqrt(2) * k * k) / np.sqrt(k)).reshape(d_in, d_out)
    r /= np.linalg.norm(r)
    # W^dag r for every candidate, one chunk per U so that each fingerprint
    # product stays small; row 0 is the identity, so row 0 of each fingerprint
    # table is the tester's own
    moved = (us.conj().transpose(0, 2, 1)[:, None] @ r @ vs.conj()).reshape(len(us), len(vs), -1)
    keep = np.arange(len(us) * len(vs)) > 0
    labels: list[str] = []
    orders = []
    for tester in scenario.testers():
        stack = np.stack([op.mat for _, op in tester.elements])
        prints = np.concatenate([np.einsum("xcm,cm->cx", chunk.conj() @ stack, chunk).real
                                 for chunk in moved])
        order = np.argsort(prints, axis=1)
        ranked = np.take_along_axis(prints, order, axis=1)
        keep &= np.abs(ranked - ranked[0]).max(axis=1) <= EQUALITY_ATOL
        orders.append(len(labels) + order)
        labels += [label for label, _ in tester.elements]
    order = np.concatenate(orders, axis=1)
    # rows[c, order[c, i]] = order[0, i]: the element of rank i goes to the
    # tester's own element of rank i
    rows = np.empty_like(order[keep])
    np.put_along_axis(rows, order[keep], order[0], axis=1)
    index = {label: i for i, label in enumerate(labels)}
    return [(us[c // len(vs)], vs[c % len(vs)], _Relabelling(index, labels, row))
            for c, row in zip(np.flatnonzero(keep), rows)]


def _conjugated(m: np.ndarray, u: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """W m W^dag for W = u (x) v, or W = u when v is None."""
    w = u if v is None else (u[:, None, :, None] * v[None, :, None, :]).reshape(m.shape)
    return w @ m @ w.conj().T


def _orbits(keys: Sequence[tuple[str, ...]], symmetries: Sequence) -> dict:
    """The orbit table of ``keys`` (tuples of labels), in their order: the first
    key of each orbit is its source and maps to None, every other key to
    (source, U, V) for the first symmetry W = U (x) V that maps the source
    onto it.  The symmetries form a group, so the images of a source are its
    whole orbit."""
    table: dict = {}
    for key in keys:
        if key not in table:
            table[key] = None
            for u, v, perm in symmetries:
                table.setdefault(tuple(perm[x] for x in key), (key, u, v))
    return {key: table[key] for key in keys}


def _start(results: dict, origin) -> tuple[np.ndarray, np.ndarray] | None:
    """The start of a key of an orbit table whose source's result is in
    ``results``: the source's certified pair (J, Y) moved to
    (W J W^dag, U Y U^dag), or None for a source and for an image of a source
    that raised SolverError."""
    res = None if origin is None else results[origin[0]]
    if not isinstance(res, ChannelOptResult):
        return None
    _, u, v = origin
    return _conjugated(res.optimizer.choi.mat, u, v), _conjugated(res.dual_certificate.mat, u)


def _per_test_maxima(scenario: Scenario, tol: float, labels: Sequence[str] | None = None,
                     symmetries: Sequence = ()) -> dict[str, float | str]:
    """Dual value of max_channel p(x) (an upper estimate within ``tol``) for each
    outcome x of each test of nonzero weight, restricted to ``labels`` if given;
    a failed solve is kept as its error message.  One walk over the label
    orbit table: an image starts from its source's moved pair."""
    elements = {(label,): element
                for weight, tester in zip(scenario.weights, scenario.testers()) if weight != 0.0
                for label, element in tester.elements if labels is None or label in labels}
    results: dict = {}
    for key, origin in _orbits(list(elements), symmetries).items():
        try:
            results[key] = maximize_over_channels(elements[key], tol=tol,
                                                  start=_start(results, origin))
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

    True when some checked top eigenvector of the objective has a maximally
    mixed marginal on the channel input.  One ``eigh`` gives both the norm cap
    and the top eigenspace; each top eigenvector v, reshaped to a d_in x d_out
    matrix V, has input marginal V V^dag.  A degenerate top eigenspace is
    checked only on its basis vectors and the degeneracy is reported.
    """
    return _tightness(objective_operator(scenario, combination))


def _tightness(objective: HermitianOperator) -> TightnessResult:
    """``tightness_check`` of a built objective."""
    vals, vecs = np.linalg.eigh(objective.mat)
    d_in, d_out = objective.dims
    top = vecs[:, vals >= vals[-1] - TIGHTNESS_ATOL].T.reshape(-1, d_in, d_out)
    marginals = top @ top.conj().transpose(0, 2, 1) - np.eye(d_in) / d_in
    best = float(np.abs(np.linalg.eigvalsh(marginals)).max(axis=1).min())
    return TightnessResult(tight=best <= TIGHTNESS_ATOL, degenerate=len(top) > 1,
                           marginal_residual=best,
                           upper=d_in * float(np.max(np.abs(vals))))


def agrees(result: ChannelOptResult, value: float) -> bool:
    """Whether a certified optimum is within max(AGREEMENT_FLOOR, 10 gaps) of ``value``."""
    return abs(result.value - value) <= max(AGREEMENT_FLOOR, 10 * result.gap)


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
    ``iterations`` counts the primal-dual iterations behind ``exact``, 0 for a
    certified start.
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

    def __post_init__(self):
        if self.exact is not None and self.exact > self.upper + 1e-8:
            raise ValidationError(f"exact {self.exact!r} exceeds upper {self.upper!r}")
        if None not in (self.exact, self.trivial) and self.exact > self.trivial + 1e-8:
            raise ValidationError(f"exact {self.exact!r} exceeds trivial {self.trivial!r}")
        # certified trivial bounds may exceed their true value by up to tol
        hi = max(1.0, self.upper) + max(self.tol, 1e-9)
        for name in ("trivial", "upper", "exact"):
            v = getattr(self, name)
            if v is not None and not -1e-9 <= v <= hi:
                raise ValidationError(f"{name} bound {v!r} outside [0, {hi!r}]")


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
    if exact is not None and spectral.tight and not agrees(exact, spectral.upper):
        raise ValidationError(
            f"tightness certified but exact {exact.value!r} != upper {spectral.upper!r}")
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
    order, and builds each objective once.  An image takes its source's
    ``upper``, ``tight`` and ``tight_degenerate`` once its objective matches
    the transported one, and its exact solve starts from the transported
    pair; only a source that has images keeps its objective and results.
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

    # a degenerate top eigenspace is checked on the basis eigh happens to
    # return, which W does not carry over, so such a result is handed on to
    # no image
    handed: dict = {}
    solved: dict = {}
    reports = []
    for combo, origin in table.items():
        objective = objective_operator(scenario, combo)
        spectral = None
        if origin is not None and origin[0] in handed:
            source, u, v = origin
            m, res = handed[source]
            if np.abs(objective.mat - _conjugated(m, u, v)).max() <= ROUNDING_ATOL:
                spectral = res
        if spectral is None:
            spectral = _tightness(objective)
        exact = None if skip_exact else exact_bound(objective, _start(solved, origin))
        if combo in sources:
            solved[combo] = exact
            if not spectral.degenerate:
                handed[combo] = (objective.mat, spectral)
        reports.append(_report(scenario, combo, tol, spectral, maxima, exact))
    return reports


_JSON_FIELDS = ("trivial", "upper", "exact", "gap", "tradeoff", "tight", "tight_degenerate",
                "optimizer", "error")


def report_to_json(report: BoundReport) -> dict:
    """One report entry; skipped bounds (None fields) are omitted."""
    obj: dict = {"combination": list(report.combination)}
    for name in _JSON_FIELDS:
        value = getattr(report, name)
        if value is not None:
            obj[name] = channel_to_json(value) if name == "optimizer" else value
    return obj
