"""Received-signal synthesis, equivalent channel, and exhaustive ML detection.

Every stage takes and returns plain arrays: the ``(..., n_rx, n_elements)``
channel gains, the ``(..., n_rx)`` received samples and the ring tensor of
:func:`precompute_equivalent_channel`, which collects, for every receive
antenna and every group, the reflected sum obtained when that group steers
toward any candidate antenna.  One ring tensor serves all hypotheses of a
channel realization.  The ML search scores the codebook without an
``(n_rx, codebook)`` hypothesis tensor: every codeword responds with a sum
of label factors (one per group for MUX, the row's summed group response
for diversity and RGSSK), so its metric is a few real features of the
trial and combination row times a per-symbol coefficient table.  Both
layouts come from one search plan (:func:`_search_plan`), built at a
codebook's first search and kept on it.  One matmul scores every codeword
of a tile of trials (:func:`trial_tiles`), or of a tile of rows when one
trial's grid exceeds the tile budget.  :func:`hypothesis_matrix` is the
dense reference model of the same responses.

Stagger rotations live in the codebook's equivalent symbols, never in the
ring tensor, so the steered entries are real and positive and no rotation is
counted twice.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .config import SystemConfig
from .encoder import ReflectionVector
from .mapping import Codebook, Codeword

# bytes of working set of the equivalent channel and the ML search per tile
# of trials (trial_tiles) and per tile of combination rows (ml_argmin)
_TILE_BYTES = 6 * 2**20


def noise_variance(snr_db: float, symbol_energy: float = 1.0) -> float:
    """Per-antenna complex noise variance for an SNR of ``symbol_energy/N0``."""
    return symbol_energy * 10.0 ** (-snr_db / 10.0)


def transmit(
    reflection: ReflectionVector,
    gains: np.ndarray,
    snr_db: float,
    rng: np.random.Generator,
    *,
    carrier: complex = 1.0 + 0j,
    symbol_energy: float = 1.0,
) -> np.ndarray:
    """Propagate a reflection vector through the ``(..., n_rx, n_elements)``
    channel ``gains`` and add white Gaussian noise of variance
    :func:`noise_variance` per antenna; returns the ``(..., n_rx)`` samples.

    ``carrier`` is the modulated symbol on the incident wave (unit for the
    MUX and RGSSK schemes, the shared constellation symbol for diversity).
    Batched reflections, channels and carriers give one received vector per
    trial, with the noise of all trials drawn in one call.
    """
    n0 = noise_variance(snr_db, symbol_energy)
    clean = np.einsum("...ne,...e->...n", gains, reflection.coefficients)
    clean *= np.sqrt(symbol_energy) * np.asarray(carrier)[..., None]
    if n0 > 0:
        clean += np.sqrt(n0 / 2.0) * (
            rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        )
    return clean


def precompute_equivalent_channel(gains: np.ndarray, config: SystemConfig) -> np.ndarray:
    """The ring tensor: reflected group sums for every steering target.

    ``ring_tensor[..., n, i, a, r]`` sums, over the elements of group ``i``
    that a ring-``r`` hypothesis leaves ON, the channel to antenna ``n``
    times the conjugated phase toward antenna ``a`` (all 0-based).  The last
    ring, ``ring_tensor[..., -1]``, is the full group, whose ``a == n``
    entry is the real, positive amplitude sum.  Only ``mux_apsk`` switches
    groups partly ON; the other schemes have one ring
    (``SystemConfig.ris_rings``).  Leading axes of ``gains`` index trials.
    """
    grouped = gains.reshape(*gains.shape[:-1], config.n_active, -1)
    align = np.conj(grouped) / np.abs(grouped)
    rings = config.ris_rings
    chunked = grouped.shape[:-1] + (rings, config.n_group // rings)
    per_ring = np.einsum(
        "...nick,...aick->...niac", grouped.reshape(chunked), align.reshape(chunked)
    )
    return np.cumsum(per_ring, axis=-1)


def hypothesis_matrix(ring_tensor: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Noiseless receive vectors for the whole codebook.

    Uses the ring-matched model, so the entry for the transmitted codeword
    equals the physical noiseless signal exactly (every scheme).  Returns a
    ``(..., n_rx, n_combinations, symbols_per_row)`` complex array.
    """
    combos = codebook.combinations
    shape = ring_tensor.shape[:-3] + (combos.shape[0], codebook.symbols_per_row)
    predicted = np.zeros(shape, dtype=complex)
    for i in range(combos.shape[1]):
        steered = ring_tensor[..., i, combos[:, i] - 1, :]  # (..., n_rx, rows, rings)
        gathered = steered[..., codebook.group_rings[:, i]]  # (..., n_rx, rows, count)
        predicted += gathered * codebook.group_waves[:, i]
    return predicted


class _SearchPlan(NamedTuple):
    """Feature layout and coefficients of one codebook's ML search."""

    table: np.ndarray  # (F, symbols_per_row) per-symbol coefficients
    combos: np.ndarray  # (rows, n_active) 0-based combination rows
    slots: np.ndarray  # (rows, factors * span) each row's columns
    pairs: list  # (i, j, at) per factor pair, at each row's Gram entries


def _search_plan(codebook: Codebook) -> _SearchPlan:
    """The ML search's per-row feature layout and per-symbol table.

    A MUX codeword responds with one label factor per group, the group's
    wave ``w_l`` times its steered response ``g_l`` in ring ``rho_l``;
    diversity and RGSSK with one factor, the shared wave times the row's
    summed group response.  With ``span`` rings per factor, the features of
    a trial and row are, for every factor ``l`` and ring ``rho`` (slot
    ``l * span + rho``), ``||g_l[rho]||^2 / 2``, then the complex products
    ``<y, g_l[rho]>`` and, per pair of factors ``l < l'`` and rings,
    ``<g_l[rho], g_l'[rho']>``, as real then imaginary parts.  A symbol's
    column of ``table`` holds ``|w_l|^2`` and ``Re``/``-Im`` of ``-w_l`` and
    ``conj(w_l) w_l'`` in its own ring slots and zeros elsewhere, so
    features times table is half the metric minus ``||y||^2 / 2``.

    ``slots`` holds each row's columns of the steered responses of
    :func:`_metric_features` and ``pairs`` holds ``(i, j, at)`` per factor
    pair, ``at`` each row's entries of the pair's flattened Gram matrix.
    Built at the first search and kept on the codebook, so codebooks that
    only serve the theory never build it.
    """
    plan = getattr(codebook, "_search_plan", None)
    if plan is not None:
        return plan
    cfg = codebook.config
    factors, span = (cfg.n_active if cfg.scheme.is_mux else 1), cfg.ris_rings
    waves, rings = codebook.group_waves[:, :factors], codebook.group_rings[:, :factors]
    count, pairs = codebook.symbols_per_row, list(itertools.combinations(range(factors), 2))
    symbol, own = np.arange(count)[:, None], np.arange(factors) * span + rings
    power = np.zeros((factors * span, count))
    power[own, symbol] = np.abs(waves) ** 2
    coef = np.zeros((factors * span + len(pairs) * span**2, count), complex)
    coef[own, symbol] = -waves
    for p, (i, j) in enumerate(pairs):
        at = factors * span + p * span**2 + rings[:, i] * span + rings[:, j]
        coef[at, symbol[:, 0]] = np.conj(waves[:, i]) * waves[:, j]
    table = np.concatenate([power, coef.real, -coef.imag])
    combos = codebook.combinations - 1
    rows, ring, width = combos.shape[0], np.arange(span), cfg.n_rx * span
    if cfg.scheme.is_mux:
        # column (l * n_rx + a) * span + rho: group l toward antenna a, ring rho
        slots = ((np.arange(factors) * cfg.n_rx + combos)[..., None] * span + ring).reshape(rows, -1)
    else:
        slots = np.arange(rows)[:, None]
    gram = []
    for i, j in pairs:
        # row r pairs ring rho of group i's target with ring rho' of group j's
        at = (combos[:, i, None, None] * span + ring[:, None]) * width
        gram.append((i, j, (at + combos[:, j, None, None] * span + ring).reshape(rows, -1)))
    plan = codebook._search_plan = _SearchPlan(table, combos, slots, gram)
    return plan


def _metric_features(
    samples: np.ndarray, ring_tensor: np.ndarray, codebook: Codebook
) -> np.ndarray:
    """Real ``(..., rows, F)`` features of every trial and combination row,
    in the layout of :func:`_search_plan`.

    A factor's steered responses are columns of one ``(..., n_rx, columns)``
    array: every (group, target antenna, ring) of ``ring_tensor`` for MUX,
    one summed group response per row for diversity and RGSSK.  Norms and
    inner products with ``y`` are taken once per column, and the cross
    products of a group pair once per pair of their columns; each row then
    gathers the entries of its own columns.
    """
    _, combos, slots, pairs = _search_plan(codebook)
    if codebook.config.scheme.is_mux:
        columns = ring_tensor.reshape(*ring_tensor.shape[:-3], -1)
    else:
        columns = ring_tensor[..., -1][..., np.arange(combos.shape[1]), combos].sum(axis=-1)
    columns = np.ascontiguousarray(columns, dtype=complex)
    # ||g||^2 of every column: squares of the interleaved real and imaginary parts
    parts = columns.view(np.float64)
    norms = np.einsum("...nk,...nk->...k", parts, parts)
    norms = norms[..., ::2] + norms[..., 1::2]
    inner = (np.conj(samples)[..., None, :] @ columns)[..., 0, :]
    products = [np.take(inner, slots, axis=-1)]
    width = ring_tensor.shape[-4] * ring_tensor.shape[-1]  # columns of one group
    for i, j, at in pairs:
        left = np.conj(columns[..., i * width : (i + 1) * width])
        gram = np.swapaxes(left, -1, -2) @ columns[..., j * width : (j + 1) * width]
        products.append(np.take(gram.reshape(*gram.shape[:-2], -1), at, axis=-1))
    products = np.concatenate(products, axis=-1)
    return np.concatenate(
        [0.5 * np.take(norms, slots, axis=-1), products.real, products.imag], axis=-1
    )


def trial_tiles(trials: int, codebook: Codebook) -> list[slice]:
    """Equal slices of a batch of ``trials`` whose equivalent channel and ML
    search each fit in ``_TILE_BYTES``.

    A trial's share is its equivalent-channel temporaries, about 48 bytes
    per channel entry, plus its float64 metric grid of one value per
    codeword.  A trial whose grid alone exceeds the budget makes a tile of
    its own, and :func:`ml_argmin` scans its rows in tiles.
    """
    cfg = codebook.config
    per_trial = 48 * cfg.n_rx * cfg.n_elements + 8 * codebook.size
    count = math.ceil(trials / max(1, _TILE_BYTES // per_trial))
    step = math.ceil(trials / count)
    return [slice(start, start + step) for start in range(0, trials, step)]


def ml_argmin(samples: np.ndarray, ring_tensor: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Codeword index minimizing the Euclidean metric, per trial.

    No hypothesis tensor is built.  A codeword's response is a sum of label
    factors ``p = sum_l w_l g_l``, so

        (||y - p||^2 - ||y||^2) / 2 = sum_l (|w_l|^2 ||g_l||^2 / 2
                                             - Re(w_l <y, g_l>))
                                      + sum_{l<l'} Re(conj(w_l) w_l' <g_l, g_l'>)

    is linear in a few real features of each trial and row (see
    :func:`_metric_features`) with coefficients that depend on the symbol
    alone (:func:`_search_plan`).  Half the metric, whose argmin is the
    same, is one matmul onto a ``(..., rows, symbols)`` grid whose flat
    index is the codeword index, so ties break toward the lowest index.
    The rows are scored in tiles whose grid fits in ``_TILE_BYTES`` (one
    tile when the whole grid does), and a tile's minimum replaces the
    running one only when it is strictly smaller, which keeps the
    lowest-index tie rule.  ``samples`` is ``(..., n_rx)`` with the leading
    axes of ``ring_tensor``.
    """
    features = _metric_features(samples, ring_tensor, codebook)
    table = _search_plan(codebook).table
    lead = np.shape(samples)[:-1]
    rows, symbols = features.shape[-2], table.shape[1]
    step = max(1, _TILE_BYTES // (8 * symbols * math.prod(lead)))
    best, index = np.full(lead, np.inf), np.zeros(lead, dtype=np.intp)
    for start in range(0, rows, step):
        metric = (features[..., start : start + step, :] @ table).reshape(*lead, -1)
        at = np.argmin(metric, axis=-1)
        value = np.take_along_axis(metric, at[..., None], axis=-1)[..., 0]
        better = value < best
        best = np.where(better, value, best)
        index = np.where(better, at + start * symbols, index)
    return index[()]  # a scalar for unbatched samples, as np.argmin gives


def detect_ml(samples: np.ndarray, ring_tensor: np.ndarray, codebook: Codebook) -> Codeword:
    """Exhaustive joint ML detection over the full codebook.

    Ties break toward the lowest codeword index (row-major over combination
    rows then symbol indices), which makes detection deterministic.
    """
    return codebook.codeword(ml_argmin(samples, ring_tensor, codebook))


class BitErrorCounts(NamedTuple):
    total: int
    spatial: int
    symbol: int


def count_bit_errors(tx_bits, rx_bits, n_spatial: int = 0) -> BitErrorCounts:
    """Hamming distance over ``(..., rate)`` bit arrays, split into
    spatial-selection (the first ``n_spatial`` of each row) and symbol bits."""
    tx = np.asarray(tx_bits, dtype=np.uint8)
    rx = np.asarray(rx_bits, dtype=np.uint8)
    if tx.shape != rx.shape:
        raise ValueError(f"bit strings differ in length or shape: {tx.shape} vs {rx.shape}")
    diff = tx != rx
    spatial = int(np.count_nonzero(diff[..., :n_spatial]))
    total = int(np.count_nonzero(diff))
    return BitErrorCounts(total=total, spatial=spatial, symbol=total - spatial)
