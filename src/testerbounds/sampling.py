"""Random states, measurements, tests and scenarios for property checks."""

from __future__ import annotations

import numpy as np

from .linalg import HermitianOperator, Ket, maximally_entangled_ket
from .testers import Channel, Scenario, Test, channel_from_kraus, channel_from_unitary


def haar_isometries(rng: np.random.Generator, count: int, rows: int, cols: int) -> np.ndarray:
    """Stack of Haar-random isometries (rows x cols, rows >= cols) via Gaussian QR
    with R's diagonal phases moved into Q; draws all real parts, then all imaginary."""
    g = rng.standard_normal((count, rows, cols)) + 1j * rng.standard_normal((count, rows, cols))
    q, r = np.linalg.qr(g)
    diag = np.einsum("sii->si", r)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary."""
    return haar_isometries(rng, 1, d, d)[0]


def random_ket(d: int, rng: np.random.Generator, dims: tuple[int, ...] | None = None) -> Ket:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return Ket(v / np.linalg.norm(v), dims or (d,))


def ginibre_state(d: int, rng: np.random.Generator,
                  dims: tuple[int, ...] | None = None, rank: int | None = None) -> HermitianOperator:
    """Full-rank (or fixed-rank) random density operator G G^dag / tr."""
    rank = rank or d
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return HermitianOperator(rho / np.trace(rho).real, dims or (d,))


def random_povm(d: int, n_outcomes: int, rng: np.random.Generator,
                dims: tuple[int, ...] | None = None) -> list[HermitianOperator]:
    """Random POVM: Ginibre-positive pieces symmetrized to sum to the identity."""
    pieces = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        pieces.append(g @ g.conj().T)
    total = sum(pieces)
    w, v = np.linalg.eigh(total)
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return [HermitianOperator(inv_sqrt @ p @ inv_sqrt, dims or (d,)) for p in pieces]


def random_channel(d_in: int, d_out: int, rng: np.random.Generator,
                   kraus_rank: int | None = None) -> Channel:
    """Random channel via a Haar Stinespring isometry of the given Kraus rank."""
    if kraus_rank is None:
        k_min = max(1, -(-d_in // d_out))
        kraus_rank = int(rng.integers(k_min, d_in * d_out + 1))
    if d_out * kraus_rank < d_in:
        raise ValueError("kraus_rank too small for an isometry")
    if d_out * kraus_rank == d_in == d_out:
        return channel_from_unitary(haar_unitary(d_in, rng))
    q = haar_isometries(rng, 1, d_out * kraus_rank, d_in)[0]
    return channel_from_kraus([q[i * d_out:(i + 1) * d_out, :] for i in range(kraus_rank)])


def random_test(d_anc: int, d_in: int, d_out: int, n_outcomes: int,
                rng: np.random.Generator, prefix: str = "x") -> Test:
    rho = ginibre_state(d_anc * d_in, rng, dims=(d_anc, d_in))
    povm = random_povm(d_anc * d_out, n_outcomes, rng, dims=(d_anc, d_out))
    return Test(rho, [(f"{prefix}_{i}", e) for i, e in enumerate(povm)],
                d_anc=d_anc, d_in=d_in, d_out=d_out)


def random_scenario(rng: np.random.Generator, n_tests: int = 2,
                    d_anc: int | None = None, d_in: int | None = None,
                    d_out: int | None = None, n_outcomes: int | None = None) -> Scenario:
    d_in = d_in or int(rng.integers(1, 4))
    d_out = d_out or int(rng.integers(1, 4))
    tests = []
    for l in range(n_tests):
        da = d_anc or int(rng.integers(1, 4))
        k = n_outcomes or int(rng.integers(2, 4))
        tests.append(random_test(da, d_in, d_out, k, rng, prefix=f"x{l + 1}"))
    w = rng.dirichlet(np.ones(n_tests))
    w = w / w.sum()
    return Scenario(tests, w)


def random_mixed_marginal_test(d_anc: int, d_in: int, d_out: int, n_outcomes: int,
                               rng: np.random.Generator, prefix: str = "x",
                               n_pure: int = 3) -> Test:
    """Random test whose input marginal on the channel input is exactly I/d_in.

    Mixes pure states of the form (W (x) I)|Psi+> with Haar isometries
    W: d_in -> d_anc, each of which has input marginal I/d_in.
    """
    if d_anc < d_in:
        raise ValueError("need d_anc >= d_in for an isometric purification")
    weights = rng.dirichlet(np.ones(n_pure))
    rho = np.zeros((d_anc * d_in,) * 2, dtype=complex)
    psi_plus = maximally_entangled_ket(d_in).amps
    for w in weights:
        q = haar_isometries(rng, 1, d_anc, d_in)[0]
        vec = (np.kron(q, np.eye(d_in)) @ psi_plus)
        rho += w * np.outer(vec, vec.conj())
    state = HermitianOperator(rho, (d_anc, d_in))
    povm = random_povm(d_anc * d_out, n_outcomes, rng, dims=(d_anc, d_out))
    return Test(state, [(f"{prefix}_{i}", e) for i, e in enumerate(povm)],
                d_anc=d_anc, d_in=d_in, d_out=d_out)
