"""Reference computations that only the tests use."""

from math import ceil

import numpy as np

from testerbounds.bounds import (TIGHTNESS_ATOL, TightnessResult, _monomials, _orbits,
                                 _per_test_maxima, _Relabelling, _report, _symmetries, _tightness,
                                 all_combinations)
from testerbounds.channel_opt import ChannelOptResult, SolverError, maximize_over_channels
from testerbounds.linalg import (EQUALITY_ATOL, ROUNDING_ATOL, HermitianOperator, _conjugated,
                                 eig_hermitian, partial_trace, shift_clock)
from testerbounds.sampling import haar_isometries, haar_unitary
from testerbounds.testers import Channel, Scenario, channel_from_kraus


def random_channel_lower_bound(m: HermitianOperator, n_samples: int, seed: int,
                               ) -> tuple[float, Channel]:
    """Best tr[M J] over random channels; a Monte-Carlo floor for the optimum.

    Samples Stinespring isometries of mixed Kraus rank (rank 1 gives unitary
    channels when d_out = d_in).  Every sample is an exactly feasible channel,
    so the best value never exceeds the certified optimum.
    """
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

    kraus = [best_isometry[i * d_out:(i + 1) * d_out, :] for i in range(best_rank)]
    channel = channel_from_kraus(kraus)
    value = float(np.trace(m.mat @ channel.choi.mat).real)
    return value, channel


def eigen_decomposition(rho: HermitianOperator) -> list[tuple[float, np.ndarray]]:
    """The (weight, vector) pairs of rho's eigendecomposition, every one kept."""
    vals, vecs = np.linalg.eigh(rho.mat)
    return [(float(v), vecs[:, i]) for i, v in enumerate(vals)]


def kraus_dual_apply(rho: HermitianOperator, b: HermitianOperator,
                     decomposition: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """sum_n w_n (K_n (x) I)^dag b (K_n (x) I), K_n = reshape(Psi_n, (d_anc, d_in)),
    over a pure-state decomposition [(w_n, Psi_n)] of rho: the dual ancilla map
    as a Kraus sum, which ``testers.upsilon_dual_apply`` must match as a link
    product.  ``b`` has dims (d_anc, *rest)."""
    d_anc, d_in = rho.dims
    r = b.size // d_anc
    # block (x, y) of (K (x) I)^dag b (K (x) I) is K^dag b_xy K, where b_xy is the
    # d_anc x d_anc block of b between rest indices x and y
    blocks = b.mat.reshape(d_anc, r, d_anc, r).transpose(1, 3, 0, 2)
    out = np.zeros((r, r, d_in, d_in), dtype=complex)
    for w, psi in decomposition:
        k = np.asarray(psi, dtype=complex).reshape(d_anc, d_in)
        out += w * (k.conj().T @ blocks @ k)
    return out.transpose(2, 0, 3, 1).reshape(d_in * r, d_in * r)


def two_product_schur(j: np.ndarray, sinv: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """``channel_opt._schur`` as two separate products, (A + B) / 2: the
    reference that the batched product must equal bit for bit."""

    def product(first, second):
        # [(i,l),(j,k)] -> sum_{o,p} first[i,o,j,p] second[k,p,l,o]
        left = first.reshape(d_in, d_out, d_in, d_out).transpose(0, 2, 1, 3)
        right = second.reshape(d_in, d_out, d_in, d_out).transpose(3, 1, 2, 0)
        out = left.reshape(d_in * d_in, -1) @ right.reshape(-1, d_in * d_in)
        return out.reshape((d_in,) * 4).transpose(0, 2, 1, 3)

    return ((product(j, sinv) + product(sinv, j)) / 2).reshape(d_in * d_in, -1)


def exhaustive_symmetries(scenario: Scenario) -> list:
    """``bounds._symmetries`` by fingerprinting every candidate on its own, with
    no use of the group structure: the list, in the same order, that the
    coset-pruned search must return."""
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
        order = np.argsort(prints, axis=1, kind="stable")
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
    (iu, pu), (iv, pv) = _monomials(us), _monomials(vs)
    c = np.flatnonzero(keep)
    iu, pu, iv, pv = iu[c // len(vs)], pu[c // len(vs)], iv[c % len(vs)], pv[c % len(vs)]
    # row (a, b) of U (x) V holds U[a, iu[a]] V[b, iv[b]] in column (iu[a], iv[b])
    iw = (iu[:, :, None] * d_out + iv[:, None, :]).reshape(len(c), d_in * d_out)
    pw = (pu[:, :, None] * pv[:, None, :]).reshape(len(c), d_in * d_out)
    return [((iw[i], pw[i]), (iu[i], pu[i]), _Relabelling(index, labels, row))
            for i, row in enumerate(rows)]


def element_error(elems: np.ndarray, w: tuple, row: np.ndarray) -> float:
    """``bounds._element_error`` one element at a time: max_x |W T(x) W^dag -
    T(row[x])|, T(x) = elems[x], each element moved by its own ``_conjugated``
    call, the per-element loop whose bits the blocked check must return."""
    return max(float(np.abs(_conjugated(elems[x], w) - elems[y]).max())
               for x, y in enumerate(row))


def hermitian_basis(k: int) -> list[np.ndarray]:
    """The k^2 Hermitian k x k matrices E_aa, (E_ab + E_ba) / sqrt 2 and
    i (E_ab - E_ba) / sqrt 2 (a < b), orthonormal under Re tr[A^dag B]."""
    basis = []
    for a in range(k):
        for b in range(a, k):
            for phase in ((1,) if a == b else (1, 1j)):
                h = np.zeros((k, k), dtype=complex)
                h[a, b] = phase
                h[b, a] = np.conj(phase)
                basis.append(h / np.linalg.norm(h))
    return basis


def tightness_witness(objective: HermitianOperator, rng: np.random.Generator,
                      atol: float = TIGHTNESS_ATOL) -> TightnessResult:
    """``bounds.tightness_check`` of an objective as a real least-squares
    problem: the coefficients c of X = sum_h c_h h over ``hermitian_basis(k)``
    with tr_out(V X V^dag) = I, each column the validated ``partial_trace`` of
    one V h V^dag, split into real and imaginary rows.  The top eigenvectors
    V of ``eig_hermitian`` are first mixed by a Haar unitary, so the answer
    cannot rest on the basis of a degenerate top eigenspace."""
    vals, kets = eig_hermitian(objective)
    top = [ket.amps for v, ket in zip(vals, kets) if v >= vals[-1] - atol]
    v = np.stack(top, axis=1) @ haar_unitary(len(top), rng)
    d_in = objective.dims[0]
    basis = hermitian_basis(len(top))
    columns = np.stack([partial_trace(HermitianOperator(v @ h @ v.conj().T, objective.dims),
                                      keep=[0]).mat.reshape(-1) for h in basis], axis=1)
    system = np.concatenate([columns.real, columns.imag])
    target = np.concatenate([np.eye(d_in).reshape(-1), np.zeros(d_in * d_in)])
    c = np.linalg.lstsq(system, target, rcond=None)[0]
    residual = float(np.linalg.norm(system @ c - target))
    lowest = float(np.linalg.eigvalsh(sum(ch * h for ch, h in zip(c, basis)))[0])
    return TightnessResult(tight=residual <= atol and lowest >= -atol, degenerate=len(top) > 1,
                           marginal_residual=residual, upper=d_in * float(np.max(np.abs(vals))))


def walk_report(scenario: Scenario, tol: float = 1e-6, cap: int | None = 4096,
                skip_exact: bool = False, skip_trivial: bool = False) -> list:
    """``bounds.scenario_report`` with every objective built and every image
    checked: one walk over the orbit table in report order, each objective
    summed on its own, each image's source objective moved by two takes and
    two phase products and compared with the image's, which takes its own
    spectral step when the two differ by more than ``ROUNDING_ATOL``.  The
    reports, and so their bytes, that ``scenario_report``, which checks each
    symmetry once in ``_symmetries`` and no image, must return."""
    combos = all_combinations(scenario, cap)
    symmetries = _symmetries(scenario)
    table = _orbits(combos, symmetries)
    sources = {origin[0] for origin in table.values() if origin is not None}
    maxima = None if skip_trivial else _per_test_maxima(scenario, tol, symmetries=symmetries)
    testers = scenario.testers()
    dims = (scenario.d_in, scenario.d_out)
    kept, reports = {}, []
    for combo, origin in table.items():
        mat = np.zeros((scenario.d_in * scenario.d_out,) * 2, dtype=complex)
        for weight, tester, label in zip(scenario.weights, testers, combo):
            mat += weight * tester.element(label).mat
        spectral = start = None
        if origin is not None:
            source, w, u = origin
            m, handed, solved = kept[source]
            index, phase = w
            moved = phase[:, None] * m.take(index, 0).take(index, 1) * phase.conj()
            if np.abs(mat - moved).max() <= ROUNDING_ATOL:
                spectral = handed
            if isinstance(solved, ChannelOptResult):
                start = solved, moved, w, u
        if spectral is None:
            spectral = _tightness(mat, dims)
        exact = None
        if not skip_exact:
            try:
                exact = maximize_over_channels(HermitianOperator._unchecked(mat, dims), tol=tol,
                                               start=start)
            except SolverError as exc:
                exact = exc
        if combo in sources:
            kept[combo] = (mat, spectral, exact)
        reports.append(_report(scenario, combo, tol, spectral, maxima, exact))
    return reports
