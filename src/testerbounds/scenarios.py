"""Scenario constructors and reusable basis generators.

Covers the canned settings exercised end to end by the CLI: plain state
measurements (trivial ancilla), ancilla-free pure-input tests, maximally
entangled inputs with product or maximally-entangled-basis measurements, and
the hard-coded mutually unbiased two-qubit basis pair, plus shift-clock Bell
bases and mutually unbiased bases for arbitrary or prime dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    EQUALITY_ATOL,
    STATE_ATOL,
    DimensionError,
    HermitianOperator,
    Ket,
    ValidationError,
    check_close,
    kron,
    maximally_entangled_ket,
    maximally_entangled_state,
    partial_trace,
    shift_clock,
)
from .testers import Scenario, Test


def _fix_phase(amps: np.ndarray) -> np.ndarray:
    """Make the first amplitude above 1e-12 in modulus real positive (reproducible output)."""
    for a in amps:
        if abs(a) > 1e-12:
            return amps * (abs(a) / a)
    return amps


@dataclass(frozen=True)
class MEB:
    """A maximally entangled basis: d^2 orthonormal kets (I (x) U_i)|Psi+>."""

    kets: tuple[Ket, ...]
    generators: tuple[np.ndarray, ...]

    def __init__(self, kets: Sequence[Ket], generators: Sequence[np.ndarray]):
        kets = tuple(kets)
        generators = tuple(np.asarray(u, dtype=complex) for u in generators)
        if not kets:
            raise ValidationError("empty basis")
        d2 = kets[0].size
        d = int(round(np.sqrt(d2)))
        if d * d != d2 or len(kets) != d2 or len(generators) != d2:
            raise DimensionError("need d^2 kets and d^2 generators on two d-dimensional factors")
        mats = np.stack([k.amps for k in kets])
        check_close(mats @ mats.conj().T, np.eye(d2), EQUALITY_ATOL, "kets are not orthonormal")
        psi_plus = maximally_entangled_ket(d).amps
        for i, (ket, u) in enumerate(zip(kets, generators)):
            if ket.dims != (d, d):
                raise DimensionError(f"ket {i} dims {ket.dims} != {(d, d)}")
            for keep in (0, 1):
                check_close(partial_trace(ket.projector(), keep=[keep]).mat, np.eye(d) / d,
                            EQUALITY_ATOL, f"ket {i} is not maximally entangled")
            check_close(np.kron(np.eye(d), u) @ psi_plus, ket.amps, STATE_ATOL,
                        f"generator {i} does not reproduce its ket")
        object.__setattr__(self, "kets", kets)
        object.__setattr__(self, "generators", generators)

    @property
    def d(self) -> int:
        return self.kets[0].dims[0]

    @classmethod
    def from_generators(cls, generators: Sequence[np.ndarray]) -> "MEB":
        gens = [np.asarray(u, dtype=complex) for u in generators]
        d = gens[0].shape[0]
        psi_plus = maximally_entangled_ket(d).amps
        kets = [Ket(np.kron(np.eye(d), u) @ psi_plus, (d, d)) for u in gens]
        return cls(kets, gens)

    @classmethod
    def from_kets(cls, kets: Sequence[Ket]) -> "MEB":
        d = kets[0].dims[0]
        gens = [np.sqrt(d) * k.amps.reshape(d, d).T for k in kets]
        return cls(tuple(kets), gens)


def generalized_bell_basis(d: int) -> MEB:
    """Bell-type basis from shift-clock unitaries X^a Z^b, phase-normalized."""
    if d < 2:
        raise DimensionError("dimension must be >= 2")
    psi_plus = maximally_entangled_ket(d).amps
    kets, gens = [], []
    for u in shift_clock(d):
        amps = _fix_phase(np.kron(np.eye(d), u) @ psi_plus)
        kets.append(Ket(amps, (d, d)))
        gens.append(np.sqrt(d) * amps.reshape(d, d).T)
    return MEB(kets, gens)


def mub_bases(d: int, count: int = 2) -> list[list[Ket]]:
    """Pairwise mutually unbiased orthonormal bases of dimension d.

    count <= 2 works for any d (computational plus Fourier); count up to d + 1
    requires prime d, where the remaining bases carry quadratic phases.
    """
    if d < 2:
        raise DimensionError("dimension must be >= 2")
    if count < 2:
        raise ValidationError("at least two bases required")
    computational = [Ket(np.eye(d, dtype=complex)[:, i], (d,)) for i in range(d)]
    if count == 2:
        omega = np.exp(2j * np.pi / d)
        fourier = [Ket(_fix_phase(omega ** (np.arange(d) * k) / np.sqrt(d)), (d,))
                   for k in range(d)]
        return [computational, fourier]
    if count > d + 1:
        raise ValidationError(f"at most {d + 1} mutually unbiased bases exist for d = {d}")
    if not _is_prime(d):
        raise ValidationError("families beyond a pair are supported for prime d only")
    bases = [computational]
    if d == 2:
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        y = np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2)
        for u in (h, y):
            bases.append([Ket(_fix_phase(u[:, k].copy()), (2,)) for k in range(2)])
        return bases[:count]
    omega = np.exp(2j * np.pi / d)
    js = np.arange(d)
    for a in range(d):
        basis = [Ket(_fix_phase(omega ** ((a * js * js + k * js) % d) / np.sqrt(d)), (d,))
                 for k in range(d)]
        bases.append(basis)
    return bases[:count]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % p for p in range(2, int(np.sqrt(n)) + 1))


def mub_meb_pair_2qubit() -> tuple[MEB, MEB]:
    """The mutually unbiased pair of maximally entangled two-qubit bases.

    Amplitudes are pinned exactly on the half-integer grid (columns over 2);
    all sixteen cross overlaps have modulus 1/2.
    """
    half = 0.5
    first = np.array([
        [1, 1, 1, -1],
        [1, 1, -1, 1],
        [1, -1, 1, 1],
        [1, -1, -1, -1],
    ], dtype=complex) * half
    second = np.array([
        [1, 1j, 1j, 1],
        [1, -1j, 1j, -1],
        [1j, 1, 1, 1j],
        [-1j, 1, -1, 1j],
    ], dtype=complex) * half
    meb1 = MEB.from_kets([Ket(row, (2, 2)) for row in first])
    meb2 = MEB.from_kets([Ket(row, (2, 2)) for row in second])
    return meb1, meb2


def state_measurement_scenario(povms: Sequence[Sequence], weights: Sequence[float],
                               ) -> Scenario:
    """Scenario with trivial ancilla and input: testers coincide with the POVMs.

    Each measurement may be given as a list of effect operators or as a list
    of basis kets (turned into rank-1 projectors).
    """
    tests = []
    for l, povm in enumerate(povms):
        effects = []
        for i, item in enumerate(povm):
            if isinstance(item, Ket):
                eff = item.projector()
            elif isinstance(item, HermitianOperator):
                eff = item
            else:
                raise ValidationError("measurements must consist of Ket or HermitianOperator")
            if len(eff.dims) != 1:
                eff = HermitianOperator(eff.mat, (eff.size,))
            effects.append((f"x{l + 1}_{i}", HermitianOperator(eff.mat, (1, eff.size))))
        d_out = effects[0][1].dims[1]
        state = HermitianOperator(np.array([[1.0]]), (1, 1))
        tests.append(Test(state, effects, d_anc=1, d_in=1, d_out=d_out))
    return Scenario(tests, weights)


def ancilla_free_scenario(input_kets: Sequence[Ket], bases: Sequence[Sequence[Ket]],
                          weights: Sequence[float]) -> Scenario:
    """Tests with no ancilla: pure input states and rank-1 basis measurements."""
    if len(input_kets) != len(bases):
        raise ValidationError("one input ket per measurement basis required")
    tests = []
    for l, (psi, basis) in enumerate(zip(input_kets, bases)):
        if len(psi.dims) != 1:
            raise DimensionError("input kets must live on the bare channel input")
        d_in = psi.size
        d_out = basis[0].size
        state = HermitianOperator(psi.projector().mat, (1, d_in))
        effects = [(f"x{l + 1}_{i}", HermitianOperator(e.projector().mat, (1, d_out)))
                   for i, e in enumerate(basis)]
        tests.append(Test(state, effects, d_anc=1, d_in=d_in, d_out=d_out))
    return Scenario(tests, weights)


def entangled_input_product_scenario(d: int, bases_anc: Sequence[Sequence[Ket]],
                                     bases_out: Sequence[Sequence[Ket]]) -> Scenario:
    """Maximally entangled input, product-basis measurement e_i (x) f_j per test,
    equal weights.

    Outcome labels are x{l}_{i}_{j} with i indexing the ancilla basis and j the
    output basis.
    """
    if len(bases_anc) != len(bases_out):
        raise ValidationError("one ancilla basis per output basis required")
    n = len(bases_anc)
    state = maximally_entangled_state(d)
    tests = []
    for l, (banc, bout) in enumerate(zip(bases_anc, bases_out)):
        if len(banc) != d or banc[0].size != d:
            raise DimensionError("ancilla bases must have dimension d")
        d_out = bout[0].size
        effects = []
        for i, e in enumerate(banc):
            for j, f in enumerate(bout):
                eff = kron(e, f).projector()
                effects.append((f"x{l + 1}_{i}_{j}", eff))
        tests.append(Test(state, effects, d_anc=d, d_in=d, d_out=d_out))
    return Scenario(tests, [1.0 / n] * n)


def meb_scenario(meb1: MEB, meb2: MEB, weights: Sequence[float] = (0.5, 0.5)) -> Scenario:
    """Two tests with maximally entangled input and MEB measurements."""
    if meb1.d != meb2.d:
        raise DimensionError("bases must share one dimension")
    d = meb1.d
    state = maximally_entangled_state(d)
    tests = []
    for l, meb in enumerate((meb1, meb2)):
        effects = [(f"x{l + 1}_{i}", k.projector()) for i, k in enumerate(meb.kets)]
        tests.append(Test(state, effects, d_anc=d, d_in=d, d_out=d))
    return Scenario(tests, weights)
