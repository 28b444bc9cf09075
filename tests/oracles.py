"""Reference computations that only the tests use."""

from math import ceil

import numpy as np

from testerbounds.linalg import HermitianOperator
from testerbounds.sampling import haar_isometries
from testerbounds.testers import Channel, channel_from_kraus


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
