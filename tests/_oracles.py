"""Independent oracles shared by the detector, sweep, theory and acceptance
tests.

Everything here recomputes quantities from first principles (raw channel
draws, direct sampling, the dense ML metric) without touching the code
paths under test.
"""

import numpy as np
from scipy.special import erfc


def q_function(x):
    """Gaussian tail probability via erfc."""
    return 0.5 * erfc(np.asarray(x) / np.sqrt(2.0))


def dense_ml_argmin(samples, hypotheses):
    """ML decision from the dense metric ``||y - p||^2`` over a
    ``(..., n_rx, rows, symbols)`` hypothesis matrix; lowest index on ties."""
    deltas = np.asarray(samples)[..., None, None] - hypotheses
    metric = np.sum(np.abs(deltas) ** 2, axis=-3)
    return np.argmin(metric.reshape(*metric.shape[:-2], -1), axis=-1)


def mc_difference_stats(config, src, dst, draws=100_000, seed=0, chunk=25_000):
    """Sample mean/covariance of the stacked decision difference.

    Draws i.i.d. channels and evaluates, per receive antenna, the true
    hypothesis response minus the wrong hypothesis response using the raw
    channel definition (full-group sums scaled by the equivalent symbols).
    Returns ``(mean, cov)`` over the ``2 * n_rx`` stacked real/imag vector.
    """
    n_rx, n_act, n_grp = config.n_rx, config.n_active, config.n_group
    rows_src = np.asarray(src.combination) - 1
    rows_dst = np.asarray(dst.combination) - 1
    same_rows = tuple(src.combination) == tuple(dst.combination)
    idx = np.arange(n_act)
    pieces = []
    rng = np.random.default_rng(seed)
    remaining = draws
    while remaining > 0:
        batch = min(chunk, remaining)
        remaining -= batch
        gains = (
            rng.standard_normal((batch, n_rx, n_act, n_grp))
            + 1j * rng.standard_normal((batch, n_rx, n_act, n_grp))
        ) / np.sqrt(2.0)
        toward_src = gains[:, rows_src, idx, :]
        h_src = np.einsum(
            "bnik,bik->bni", gains, np.conj(toward_src) / np.abs(toward_src)
        )
        if same_rows:
            diff = h_src @ (src.symbols - dst.symbols)
        else:
            toward_dst = gains[:, rows_dst, idx, :]
            h_dst = np.einsum(
                "bnik,bik->bni", gains, np.conj(toward_dst) / np.abs(toward_dst)
            )
            diff = h_src @ src.symbols - h_dst @ dst.symbols
        stacked = np.empty((batch, 2 * n_rx))
        stacked[:, 0::2] = diff.real
        stacked[:, 1::2] = diff.imag
        pieces.append(stacked)
    samples = np.concatenate(pieces)
    return samples.mean(axis=0), np.cov(samples.T)


def mc_mgf(mean, cov, x, samples=1_000_000, seed=0):
    """Sample mean of exp(x * ||Z||^2) for Z ~ N(mean, cov)."""
    rng = np.random.default_rng(seed)
    dim = len(mean)
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(dim))
    z = mean + rng.standard_normal((samples, dim)) @ chol.T
    return float(np.mean(np.exp(x * np.einsum("ij,ij->i", z, z))))
