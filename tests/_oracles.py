"""Independent oracles shared by the detector, sweep, theory and acceptance
tests.

Everything here recomputes quantities from first principles (raw channel
draws, direct sampling, the dense ML metric) without touching the code
paths under test, except where a reference says which kernel it shares.
"""

import numpy as np
from scipy.special import erfc

from ris_rgsm.mapping import int_to_bits
from ris_rgsm.theory import (
    BOUND_SCALES,
    BOUND_WEIGHTS,
    UnsupportedPairError,
    _block_log_mgf,
    _swap_entries,
    assemble_statistics,
    mgf_quadratic_form,
    pair_layout,
)


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


# -- union-bound references ------------------------------------------------------
#
# Both sum the same per-pair bound as ``theory.union_bound_ber`` along other
# routes: one pair at a time through the dense MGF of its assembled
# statistics, or over the full ``(Q, Q)`` symbol-pair grid of each row-pair
# layout.  The grid route shares the swap-block entries and the block MGF
# kernel with the engine; the per-pair route shares neither.


def _label_hamming(codebook, index, index_hat):
    rate = codebook.config.rate
    return np.count_nonzero(int_to_bits(index, rate) != int_to_bits(index_hat, rate), axis=-1)


def pair_bound(stats, noise_var):
    """Three-term bound of one pair from the dense MGF of its statistics."""
    mean, cov = stats.mean_vector(), stats.covariance()
    return sum(
        w * mgf_quadratic_form(mean, cov, -1.0 / (scale * noise_var))
        for w, scale in zip(BOUND_WEIGHTS, BOUND_SCALES)
    )


def brute_force_union_bound(codebook, noise_var):
    """Union bound summed pair by pair with :func:`pair_bound`."""
    cfg = codebook.config
    total = 0.0
    for i in range(codebook.size):
        src = codebook.codeword(i)
        for j in range(codebook.size):
            if i == j:
                continue
            dst = codebook.codeword(j)
            try:
                stats = assemble_statistics(
                    src.combination, src.symbols, dst.combination, dst.symbols, cfg
                )
            except UnsupportedPairError:
                continue
            total += int(_label_hamming(codebook, i, j)) * pair_bound(stats, noise_var)
    return total / (codebook.size * cfg.rate)


def layout_bound_matrix(codebook, correct, noise_var):
    """Bound of every ``(Q, Q)`` symbol pair of a row-pair layout.

    The per-antenna statistics are invariant under relabeling antennas, so
    the matrix depends on the row pair only through which positions match;
    every mismatched position couples one fresh source/target antenna pair
    and the remaining ``n_rx - n_active - #mismatches`` antennas are idle.
    Idle antennas and matched 2x2 blocks have closed forms; each mismatched
    position's coupled 4x4 block goes through the elementwise kernel.
    """
    cfg = codebook.config
    correct = tuple(correct)
    swapped = tuple(l for l in range(cfg.n_active) if l not in correct)
    n_unselected = cfg.n_rx - cfg.n_active - len(swapped)

    s_all = codebook.group_symbols  # (Q, n_active)
    n_g = cfg.n_group
    half = n_g / 2.0
    c_mean = n_g * np.sqrt(np.pi) / 2.0
    c_aniso = n_g * (4.0 - np.pi) / 4.0

    count = s_all.shape[0]
    total = np.zeros((count, count))
    for l in range(cfg.n_active):
        s = s_all[:, l][:, None]
        s_hat = s_all[:, l][None, :]
        if l in correct:
            total = total + np.abs(s - s_hat) ** 2
        else:
            total = total + np.abs(s) ** 2 + np.abs(s_hat) ** 2

    matched = []
    for l in correct:
        d2 = np.abs(s_all[:, l][:, None] - s_all[:, l][None, :]) ** 2
        q = half * (total - d2)
        matched.append((q, q + c_aniso * d2, c_mean * c_mean * d2))
    swaps = [
        _swap_entries(s_all[:, l][:, None], s_all[:, l][None, :], total, n_g)
        for l in swapped
    ]

    bound = np.zeros((count, count))
    for weight, scale in zip(BOUND_WEIGHTS, BOUND_SCALES):
        x = -1.0 / (scale * noise_var)
        log_m = np.zeros((count, count))
        if n_unselected:
            log_m -= n_unselected * np.log(1.0 - 2.0 * x * half * total)
        for q, along, mean_sq in matched:
            e_iso = 1.0 - 2.0 * x * q
            e_along = 1.0 - 2.0 * x * along
            log_m += -0.5 * (np.log(e_iso) + np.log(e_along))
            log_m += x * mean_sq / e_along
        for cov, mean in swaps:
            log_m += _block_log_mgf(cov, mean, x)
        bound += weight * np.exp(log_m)
    return bound


def layout_union_bound(codebook, noise_var):
    """Union bound from one :func:`layout_bound_matrix` per row-pair layout."""
    cfg = codebook.config
    per_row = codebook.symbols_per_row
    rows = codebook.combinations.shape[0]
    syms = np.arange(per_row)
    sym_hd = _label_hamming(codebook, syms[:, None], syms[None, :])
    layouts = {}  # matched positions -> [row pairs, summed spatial Hamming]
    for row in range(rows):
        for row_hat in range(rows):
            try:
                layout = pair_layout(
                    codebook.combinations[row], codebook.combinations[row_hat], cfg.n_rx
                )
            except UnsupportedPairError:
                continue
            entry = layouts.setdefault(layout.correct, [0, 0])
            entry[0] += 1
            entry[1] += int(_label_hamming(codebook, row * per_row, row_hat * per_row))
    total = 0.0
    for correct, (pairs, spatial) in layouts.items():
        bound = layout_bound_matrix(codebook, correct, noise_var)
        total += spatial * float(np.sum(bound)) + pairs * float(np.sum(bound * sym_hd))
    return total / (codebook.size * cfg.rate)
