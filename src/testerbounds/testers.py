"""Tests of quantum channels, the testers they induce, and channel representations.

A physical test is a pair (input state on anc(x)in, POVM on anc(x)out).  Its
tester is the family T(x) on in(x)out obtained by pushing each POVM effect
through the dual of the input state's ancilla map, that is, the link product
of the effect and the state over the ancilla, one matrix product per effect
with no decomposition of the state; probabilities then follow from the
generalized Born rule tr[T(x) J] against the channel's Choi matrix J.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Real
from typing import Sequence

import numpy as np

from .linalg import (
    EQUALITY_ATOL,
    PSD_ATOL,
    ROUNDING_ATOL,
    DimensionError,
    HermitianOperator,
    ValidationError,
    _entries_from_json,
    _proves_psd,
    as_dim,
    basis_transpose,
    check_close,
    check_povm,
    check_psd,
    check_state,
    operator_from_json,
    operator_to_json,
    partial_trace,
)

PROB_CLAMP_ATOL = 1e-9


@dataclass(frozen=True)
class Test:
    """One test of a channel: an input state on anc(x)in and a POVM on anc(x)out."""

    __test__ = False  # not a pytest case, despite the name

    input_state: HermitianOperator
    povm: tuple[tuple[str, HermitianOperator], ...]
    d_anc: int
    d_in: int
    d_out: int

    def __init__(self, input_state: HermitianOperator,
                 povm: Sequence[tuple[str, HermitianOperator]],
                 d_anc: int, d_in: int, d_out: int):
        d_anc, d_in, d_out = as_dim(d_anc), as_dim(d_in), as_dim(d_out)
        if input_state.dims != (d_anc, d_in):
            raise DimensionError(
                f"input state dims {input_state.dims} != (d_anc, d_in) = {(d_anc, d_in)}")
        povm = tuple((str(label), eff) for label, eff in povm)
        labels = [label for label, _ in povm]
        if len(set(labels)) != len(labels):
            raise ValidationError("outcome labels within a test must be unique")
        for label, eff in povm:
            if eff.dims != (d_anc, d_out):
                raise DimensionError(
                    f"effect {label!r} dims {eff.dims} != (d_anc, d_out) = {(d_anc, d_out)}")
        check_state(input_state, "input state")
        check_povm([eff for _, eff in povm])
        object.__setattr__(self, "input_state", input_state)
        object.__setattr__(self, "povm", povm)
        object.__setattr__(self, "d_anc", d_anc)
        object.__setattr__(self, "d_in", d_in)
        object.__setattr__(self, "d_out", d_out)
        # not a field: equality and repr stay those of the fields above
        object.__setattr__(self, "labels", tuple(labels))


@dataclass(frozen=True)
class Tester:
    """Positive operators T(x) on in(x)out summing to marginal (x) identity."""

    __test__ = False  # not a pytest case, despite the name

    elements: tuple[tuple[str, HermitianOperator], ...]
    marginal: HermitianOperator

    def __init__(self, elements: Sequence[tuple[str, HermitianOperator]],
                 marginal: HermitianOperator):
        elements = tuple((str(label), op) for label, op in elements)
        if not elements:
            raise ValidationError("tester needs at least one element")
        if len(marginal.dims) != 1:
            raise DimensionError("marginal must carry a single subsystem dimension")
        d_in = marginal.dims[0]
        first = elements[0][1].dims
        # one Cholesky of the family (of equal dims), else each element's checks, in order
        if not (len(first) == 2 and first[0] == d_in
                and _proves_psd([op for _, op in elements], PSD_ATOL)):
            for label, op in elements:
                if len(op.dims) != 2 or op.dims[0] != d_in:
                    raise DimensionError(f"element {label!r} dims {op.dims} incompatible "
                                         f"with input dimension {d_in}")
                check_psd(op, f"element {label!r}")
        check_close(sum(op.mat for _, op in elements),
                    np.kron(marginal.mat, np.eye(elements[0][1].dims[1])), EQUALITY_ATOL,
                    "elements do not sum to marginal (x) identity")
        check_state(basis_transpose(marginal), "transposed marginal")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "marginal", marginal)
        object.__setattr__(self, "_by_label", dict(elements))

    def element(self, label: str) -> HermitianOperator:
        return self._by_label[label]


@dataclass(frozen=True)
class Channel:
    """A channel identified with its Choi matrix on in(x)out."""

    choi: HermitianOperator

    def __init__(self, choi: HermitianOperator):
        if len(choi.dims) != 2:
            raise DimensionError("Choi matrix must carry dims (d_in, d_out)")
        check_psd(choi, "Choi matrix")
        check_close(partial_trace(choi, keep=[0]).mat, np.eye(choi.dims[0]), EQUALITY_ATOL,
                    "channel is not trace preserving")
        object.__setattr__(self, "choi", choi)

    @classmethod
    def _unchecked(cls, choi: HermitianOperator) -> Channel:
        """``cls(choi)`` with none of its tests, for a channel's ``choi``; callers say why."""
        ch = object.__new__(cls)
        object.__setattr__(ch, "choi", choi)
        return ch

    @property
    def d_in(self) -> int:
        return self.choi.dims[0]

    @property
    def d_out(self) -> int:
        return self.choi.dims[1]


@dataclass(frozen=True)
class Scenario:
    """A family of tests applied with given mixing weights to one channel."""

    tests: tuple[Test, ...]
    weights: tuple[float, ...]

    def __init__(self, tests: Sequence[Test], weights: Sequence[float]):
        tests = tuple(tests)
        if not all(isinstance(w, Real) and not isinstance(w, bool) for w in weights):
            raise ValidationError(f"weights must be numbers, got {list(weights)}")
        weights = tuple(float(w) for w in weights)
        if not tests:
            raise ValidationError("scenario needs at least one test")
        if len(tests) != len(weights):
            raise ValidationError("one weight per test required")
        if not all(np.isfinite(w) and w >= 0 for w in weights):
            raise ValidationError(f"weights must be finite and nonnegative, got {list(weights)}")
        if abs(sum(weights) - 1.0) > ROUNDING_ATOL:
            raise ValidationError(f"weights sum to {sum(weights)!r}, expected 1")
        d_in, d_out = tests[0].d_in, tests[0].d_out
        for t in tests:
            if (t.d_in, t.d_out) != (d_in, d_out):
                raise DimensionError("all tests must probe the same channel dimensions")
        seen: set[str] = set()
        for t in tests:
            for label in t.labels:
                if label in seen:
                    raise ValidationError(f"outcome label {label!r} reused across tests")
                seen.add(label)
        object.__setattr__(self, "tests", tests)
        object.__setattr__(self, "weights", weights)

    @property
    def d_in(self) -> int:
        return self.tests[0].d_in

    @property
    def d_out(self) -> int:
        return self.tests[0].d_out

    @cached_property
    def _testers(self) -> tuple[Tester, ...]:
        # cached_property writes the instance dict directly, past the frozen setattr
        return tuple(tester_from_test(t) for t in self.tests)

    def testers(self) -> list[Tester]:
        """The tester of each test, built on first use; a fresh list per call."""
        return list(self._testers)

    def outcome_sets(self) -> list[tuple[str, ...]]:
        return [t.labels for t in self.tests]


def upsilon_dual_apply(rho: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Dual of the ancilla map of ``rho`` applied to an operator on anc(x)rest.

    This is the link product of rho and b over the ancilla,
    out[(i, o), (j, p)] = sum_{a, c} b[(a, o), (c, p)] rho[(c, j), (a, i)],
    so ``b`` with dims (d_anc, *rest) maps to dims (d_in, *rest) and the rest
    factors are left untouched.  It is linear in rho and equals
    sum_n w_n (K_n (x) I)^dag b (K_n (x) I), K_n = reshape(Psi_n, (d_anc, d_in)),
    for every convex pure-state decomposition rho = sum_n w_n |Psi_n><Psi_n|,
    but needs none.
    """
    if len(rho.dims) != 2:
        raise DimensionError("state must carry dims (d_anc, d_in)")
    d_anc, d_in = rho.dims
    if b.dims[0] != d_anc:
        raise DimensionError(f"operator dims {b.dims} do not start with d_anc = {d_anc}")
    r = b.size // d_anc
    # one product: b as [(o, p), (a, c)] times rho as [(a, c), (i, j)]
    left = b.mat.reshape(d_anc, r, d_anc, r).transpose(1, 3, 0, 2).reshape(r * r, -1)
    right = rho.mat.reshape(d_anc, d_in, d_anc, d_in).transpose(2, 0, 3, 1).reshape(-1, d_in * d_in)
    out = (left @ right).reshape(r, r, d_in, d_in).transpose(2, 0, 3, 1)
    # a link product of validated operators: Hermitian up to rounding
    return HermitianOperator._unchecked(out.reshape(d_in * r, d_in * r), (d_in, *b.dims[1:]))


def tester_from_test(test: Test) -> Tester:
    """Build the tester {T(x)} on in(x)out induced by a physical test."""
    elements = [(label, upsilon_dual_apply(test.input_state, eff)) for label, eff in test.povm]
    marginal = basis_transpose(partial_trace(test.input_state, keep=[1]))
    return Tester(elements, marginal)


def channel_from_unitary(u: np.ndarray) -> Channel:
    """Channel rho -> U rho U^dag from a unitary matrix."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionError(f"unitary must be square, got shape {u.shape}")
    d = u.shape[0]
    check_close(u.conj().T @ u, np.eye(d), EQUALITY_ATOL, "matrix is not unitary")
    v = u.T.reshape(-1)  # amplitudes of sum_i |i> (x) U|i>
    choi = HermitianOperator(np.outer(v, v.conj()), (d, d))
    return Channel(choi)


def channel_from_kraus(kraus: Sequence[np.ndarray]) -> Channel:
    """Channel from Kraus operators K_k (each d_out x d_in) with sum K^dag K = I."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    if not ks:
        raise ValidationError("at least one Kraus operator required")
    d_out, d_in = ks[0].shape
    if any(k.shape != (d_out, d_in) for k in ks):
        raise DimensionError("all Kraus operators must share one shape")
    check_close(sum(k.conj().T @ k for k in ks), np.eye(d_in), EQUALITY_ATOL,
                "Kraus operators are not trace preserving")
    choi = np.zeros((d_in * d_out,) * 2, dtype=complex)
    for k in ks:
        v = k.T.reshape(-1)
        choi += np.outer(v, v.conj())
    return Channel(HermitianOperator(choi, (d_in, d_out)))


def channel_constant(sigma: HermitianOperator, d_in: int) -> Channel:
    """Channel mapping every input state to the fixed output state sigma."""
    check_state(sigma, "target state")
    if len(sigma.dims) != 1:
        raise DimensionError("target state must carry a single subsystem dimension")
    d_in = as_dim(d_in)
    choi = HermitianOperator(np.kron(np.eye(d_in), sigma.mat), (d_in, sigma.dims[0]))
    return Channel(choi)


def channel_from_choi(choi: HermitianOperator) -> Channel:
    return Channel(choi)


def probability(tester_element: HermitianOperator, ch: Channel) -> float:
    """Generalized Born rule tr[T(x) J]; tiny numerical excursions are clamped."""
    if tester_element.dims != ch.choi.dims:
        raise DimensionError(f"tester element dims {tester_element.dims} != "
                             f"channel dims {ch.choi.dims}")
    p = float(np.trace(tester_element.mat @ ch.choi.mat).real)
    if p < -PROB_CLAMP_ATOL or p > 1.0 + PROB_CLAMP_ATOL:
        raise ValidationError(f"probability {p!r} outside the clamping window")
    return min(max(p, 0.0), 1.0)


def direct_probability(test: Test, outcome: str, ch: Channel) -> float:
    """Probability via the three-step simulation: prepare, apply channel, measure.

    Uses the Choi reconstruction of the channel on the physical input state,
    independently of any tester, so it can serve as an oracle for
    ``probability``.
    """
    if (test.d_in, test.d_out) != (ch.d_in, ch.d_out):
        raise DimensionError("test and channel dimensions differ")
    effect = dict(test.povm).get(str(outcome))
    if effect is None:
        raise KeyError(outcome)
    rho4 = test.input_state.mat.reshape(test.d_anc, test.d_in, test.d_anc, test.d_in)
    j4 = ch.choi.mat.reshape(ch.d_in, ch.d_out, ch.d_in, ch.d_out)
    output = np.einsum("aibj,ikjl->akbl", rho4, j4)
    output = output.reshape(test.d_anc * test.d_out, test.d_anc * test.d_out)
    p = float(np.trace(effect.mat @ output).real)
    if p < -PROB_CLAMP_ATOL or p > 1.0 + PROB_CLAMP_ATOL:
        raise ValidationError(f"probability {p!r} outside the clamping window")
    return min(max(p, 0.0), 1.0)


def outcome_distribution(scenario: Scenario, ch: Channel) -> dict[str, float]:
    """Joint distribution over all outcome labels including the test mixing."""
    probs: dict[str, float] = {}
    for weight, tester in zip(scenario.weights, scenario.testers()):
        for label, op in tester.elements:
            probs[label] = weight * probability(op, ch)
    return probs


def sample_run(scenario: Scenario, ch: Channel, n: int, seed: int) -> dict[str, int]:
    """Draw ``n`` outcomes: test index by the mixing weights, then an outcome.

    Deterministic for a fixed 64-bit seed; the histogram covers every label of
    the scenario (zero counts included) and sums to ``n``.
    """
    n = int(n)
    if n < 1:
        raise ValidationError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    dist = outcome_distribution(scenario, ch)
    labels = list(dist)
    p = np.asarray([dist[label] for label in labels], dtype=float)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    counts = rng.multinomial(n, p)
    return {label: int(c) for label, c in zip(labels, counts)}


# --- JSON interfaces -------------------------------------------------------
#
# Scenario files:
#   {"format": 2, "weights": [...], "tests": [{"d_anc":., "d_in":., "d_out":.,
#       "input_state": <matrix>, "povm": [{"label": "x1_0", "effect": <matrix>}, ...]}, ...]}
# where each <matrix> is {"dims", "b64"}.  Format 1, a file with no "format" key or
# "format": 1, holds {"dims", "data"} rows instead; both are read, format 2 is written.
# Channel files:
#   {"kind": "unitary"|"kraus"|"constant"|"choi", "d_in":., "d_out":., "data": ...}
# where "data" holds raw row-major [re, im] nestings: the unitary matrix, the
# list of Kraus matrices, the constant output state, or the Choi matrix.  All
# four are read; a channel is written as its Choi matrix.

SCENARIO_FORMAT = 2  # the format scenario files are written in


def test_to_json(test: Test) -> dict:
    return {
        "d_anc": test.d_anc,
        "d_in": test.d_in,
        "d_out": test.d_out,
        "input_state": operator_to_json(test.input_state),
        "povm": [{"label": label, "effect": operator_to_json(eff)}
                 for label, eff in test.povm],
    }


def test_from_json(obj: dict, fmt: int = SCENARIO_FORMAT) -> Test:
    """The test of a format-``fmt`` scenario file's entry."""
    return Test(
        input_state=operator_from_json(obj["input_state"], fmt),
        povm=[(entry["label"], operator_from_json(entry["effect"], fmt))
              for entry in obj["povm"]],
        d_anc=obj["d_anc"], d_in=obj["d_in"], d_out=obj["d_out"],
    )


def scenario_to_json(scenario: Scenario) -> dict:
    return {"format": SCENARIO_FORMAT, "weights": [float(w) for w in scenario.weights],
            "tests": [test_to_json(t) for t in scenario.tests]}


def scenario_from_json(obj: dict) -> Scenario:
    fmt = obj["format"] if "format" in obj else 1
    if type(fmt) is not int or fmt not in (1, SCENARIO_FORMAT):
        raise ValidationError(f"unknown scenario format {fmt!r}")
    return Scenario([test_from_json(t, fmt) for t in obj["tests"]], obj["weights"])


def channel_to_json(ch: Channel) -> dict:
    return {"kind": "choi", "d_in": ch.d_in, "d_out": ch.d_out, "data": ch.choi.mat}


def channel_from_json(obj: dict) -> Channel:
    """The channel a file describes; it must act between the declared d_in and d_out."""
    kind, data = obj["kind"], obj["data"]
    dims = (as_dim(obj["d_in"]), as_dim(obj["d_out"]))
    if kind == "unitary":
        ch = channel_from_unitary(_entries_from_json(data, 2))
    elif kind == "kraus":
        ch = channel_from_kraus([_entries_from_json(k, 2) for k in data])
    elif kind == "constant":
        sigma = _entries_from_json(data, 2)
        ch = channel_constant(HermitianOperator(sigma, (sigma.shape[0],)), dims[0])
    elif kind == "choi":
        ch = channel_from_choi(HermitianOperator(_entries_from_json(data, 2), dims))
    else:
        raise ValidationError(f"unknown channel kind {kind!r}")
    if ch.choi.dims != dims:
        raise DimensionError(f"{kind} channel acts on dims {ch.choi.dims}, file declares {dims}")
    return ch
