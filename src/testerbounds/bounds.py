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
eigendecomposition per combination, and records a failed solve as ``error``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel_opt import ChannelOptResult, SolverError, check_tol, maximize_over_channels
from .linalg import (
    DimensionError,
    HermitianOperator,
    Ket,
    ValidationError,
    eig_hermitian,
    operator_norm,
    partial_trace,
)
from .testers import Channel, Scenario, channel_to_json

TIGHTNESS_ATOL = 1e-8
TRADEOFF_MARGIN = 1e-8


def _check_combination(scenario: Scenario, combination: Sequence[str]) -> tuple[str, ...]:
    combination = tuple(str(c) for c in combination)
    if len(combination) != len(scenario.tests):
        raise ValidationError(f"combination {combination} must name one outcome per test")
    for label, test in zip(combination, scenario.tests):
        if label not in test.labels:
            raise ValidationError(f"label {label!r} not an outcome of its test")
    return combination


def _weighted_elements(scenario: Scenario,
                       subsets: Sequence[Sequence[str]]) -> HermitianOperator:
    """sum_l r_l sum_{x in X_l} T_l(x), one outcome set X_l per test."""
    total = np.zeros((scenario.d_in * scenario.d_out,) * 2, dtype=complex)
    for weight, tester, subset in zip(scenario.weights, scenario.testers(), subsets):
        for label in subset:
            total += weight * tester.element(label).mat
    return HermitianOperator(total, (scenario.d_in, scenario.d_out))


def objective_operator(scenario: Scenario, combination: Sequence[str]) -> HermitianOperator:
    """Weighted tester-element sum sum_l r_l T_l(x_l) for one combination."""
    return _weighted_elements(scenario, [[x] for x in _check_combination(scenario, combination)])


def _per_test_maxima(scenario: Scenario, tol: float,
                     labels: Sequence[str] | None = None) -> dict[str, float | str]:
    """Dual value of max_channel p(x) (an upper estimate within ``tol``) for each
    outcome x of each test of nonzero weight, restricted to ``labels`` if given;
    a failed solve is kept as its error message."""
    maxima: dict[str, float | str] = {}
    for weight, tester in zip(scenario.weights, scenario.testers()):
        if weight == 0.0:
            continue
        for label, element in tester.elements:
            if labels is not None and label not in labels:
                continue
            try:
                maxima[label] = maximize_over_channels(element, tol=tol).dual_value
            except SolverError as exc:
                maxima[label] = f"per-test maximum for {label!r} failed: {exc}"
    return maxima


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
    """Certified maximum of the weighted combination probability over channels."""
    objective = objective_operator(scenario, combination)
    return maximize_over_channels(objective, tol=tol)


def subset_bound(scenario: Scenario, subsets: Sequence[Sequence[str]],
                 tol: float = 1e-6) -> ChannelOptResult:
    """Certified maximum of sum_l r_l sum_{x in X_l} p_l(x), one set per test.

    Singleton subsets reproduce ``exact_bound``; full outcome sets give 1.
    """
    if len(subsets) != len(scenario.tests):
        raise ValidationError("one outcome subset per test required")
    subsets = [[str(s) for s in subset] for subset in subsets]
    for test, labels in zip(scenario.tests, subsets):
        if len(set(labels)) != len(labels):
            raise ValidationError("subset labels must be unique")
        for label in labels:
            if label not in test.labels:
                raise ValidationError(f"label {label!r} not an outcome of its test")
    return maximize_over_channels(_weighted_elements(scenario, subsets), tol=tol)


@dataclass(frozen=True)
class TightnessResult:
    tight: bool
    degenerate: bool
    marginal_residual: float
    upper: float  # the norm cap d_in * ||objective|| whose attainment is checked

    def __bool__(self) -> bool:
        return self.tight


def tightness_check(scenario: Scenario, combination: Sequence[str],
                    atol: float = TIGHTNESS_ATOL) -> TightnessResult:
    """Check whether the operator-norm bound is provably attained.

    True when some checked top eigenvector of the objective has a maximally
    mixed marginal on the channel input; with a degenerate top eigenvalue all
    eigenvectors of the top eigenspace basis are checked and the degeneracy is
    reported.  The norm cap itself comes from the same eigendecomposition.
    """
    objective = objective_operator(scenario, combination)
    vals, kets = eig_hermitian(objective)
    top = vals[-1]
    members = [k for v, k in zip(vals, kets) if v >= top - atol]
    d_in = scenario.d_in
    best = np.inf
    for ket in members:
        marginal = partial_trace(ket.projector(), keep=[0])
        resid = operator_norm(HermitianOperator(marginal.mat - np.eye(d_in) / d_in, (d_in,)))
        best = min(best, resid)
    return TightnessResult(tight=best <= atol, degenerate=len(members) > 1,
                           marginal_residual=float(best),
                           upper=d_in * float(np.max(np.abs(vals))))


def unitary_from_max_entangled(ket: Ket, atol: float = 1e-9) -> np.ndarray:
    """Recover U with |psi> = (I (x) U)|Psi+> from a maximally entangled ket."""
    if len(ket.dims) != 2 or ket.dims[0] != ket.dims[1]:
        raise DimensionError("ket must live on two factors of equal dimension")
    d = ket.dims[0]
    u = np.sqrt(d) * ket.amps.reshape(d, d).T
    resid = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
    if resid > atol:
        raise ValidationError(f"ket is not maximally entangled (residual {resid:.3e})")
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
    if abs(s) < 1e-12:
        u = u1
    else:
        u = (u1 + (s.conjugate() / abs(s)) * u2) / np.sqrt(2 + abs(s))
    uni_resid = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    if uni_resid > 1e-9:
        raise ValidationError(f"combined operator not unitary (residual {uni_resid:.3e})")

    overlap = abs(psi1.overlap(psi2))
    expected = 0.5 * (1.0 + overlap)
    psi_plus = np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2)
    w = np.kron(np.eye(2), u) @ psi_plus
    p1 = abs(np.vdot(psi1.amps, w)) ** 2
    p2 = abs(np.vdot(psi2.amps, w)) ** 2
    value = 0.5 * (p1 + p2)
    if abs(value - expected) > 1e-9:
        raise ValidationError(f"optimizer misses the closed form by {abs(value - expected):.3e}")
    if abs(s) >= 1e-12:
        phase = psi2.overlap(psi1) / overlap
        target = psi1.amps + phase * psi2.amps
        target = target / np.linalg.norm(target)
    else:
        target = psi1.amps
    if float(np.max(np.abs(w - target))) > 1e-9:
        raise ValidationError("channel ket does not match the top eigenvector form")
    return u, float(value)


def closed_form_state_bound(basis1: Sequence[Ket], basis2: Sequence[Ket],
                            weights: tuple[float, float] = (0.5, 0.5)) -> np.ndarray:
    """Table b[i, j] = (1/2)(1 + |<e_i|f_j>|) for two orthonormal bases."""
    if abs(weights[0] - 0.5) > 1e-12 or abs(weights[1] - 0.5) > 1e-12:
        raise ValidationError("closed form is stated for equal weights (1/2, 1/2)")
    for basis in (basis1, basis2):
        mats = np.stack([k.amps for k in basis])
        gram = mats @ mats.conj().T
        if float(np.max(np.abs(gram - np.eye(len(basis))))) > 1e-9:
            raise ValidationError("basis is not orthonormal")
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
            maxima: dict[str, float | str] | None, skip_exact: bool) -> BoundReport:
    """Every requested bound for one combination (``maxima`` None skips the trivial
    one); they are computed independently, so their inequalities are cross-checks."""
    spectral = tightness_check(scenario, combination)
    trivial = exact = None
    errors = []
    if maxima is not None:
        try:
            trivial = _weighted_maxima(scenario, combination, maxima)
        except SolverError as exc:
            errors.append(str(exc))
    if not skip_exact:
        try:
            exact = exact_bound(scenario, combination, tol=tol)
        except SolverError as exc:
            errors.append(f"exact bound failed: {exc}")
    if exact is not None and spectral.tight \
            and abs(exact.value - spectral.upper) > max(1e-6, 10 * exact.gap):
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
    )


def bound_report(scenario: Scenario, combination: Sequence[str],
                 tol: float = 1e-6) -> BoundReport:
    """Every bound for one combination; a failed solve is recorded as ``error``."""
    combination = _check_combination(scenario, combination)
    return _report(scenario, combination, tol,
                   _per_test_maxima(scenario, tol, combination), skip_exact=False)


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
    ``skip_exact`` and ``skip_trivial`` leave those bounds (and ``tradeoff``)
    None.  A failed solve is the ``error`` of every report that needed it.
    """
    check_tol(tol)
    combos = all_combinations(scenario, cap)
    maxima = None if skip_trivial else _per_test_maxima(scenario, tol)
    return [_report(scenario, combo, tol, maxima, skip_exact) for combo in combos]


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
