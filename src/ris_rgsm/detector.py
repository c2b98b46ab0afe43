"""Received-signal synthesis, equivalent channel, and exhaustive ML detection.

The equivalent-channel tensor collects, for every receive antenna and every
group, the reflected sum obtained when that group steers toward any
candidate antenna.  One tensor serves all hypotheses of a channel
realization.  The ML search scores the codebook without an
``(n_rx, codebook)`` hypothesis tensor: the metric of a MUX codeword splits
into one term per group plus one cross term per pair of groups, and a
diversity or RGSSK codeword, whose groups share one symbol, responds with
its row's summed group response times that symbol.
:func:`hypothesis_matrix` is the dense reference model of the same
responses.

Stagger rotations live in the codebook's equivalent symbols, never in the
tensor, so the steered entries are real and positive and no rotation is
counted twice.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelMatrix
from .config import SystemConfig
from .encoder import ReflectionVector
from .mapping import Codebook, Codeword


def noise_variance(snr_db: float, symbol_energy: float = 1.0) -> float:
    """Per-antenna complex noise variance for an SNR of ``symbol_energy/N0``."""
    return symbol_energy * 10.0 ** (-snr_db / 10.0)


@dataclass(frozen=True, eq=False)
class ReceivedVector:
    samples: np.ndarray
    noise_var: float


def transmit(
    reflection: ReflectionVector,
    channel: ChannelMatrix,
    snr_db: float,
    rng: np.random.Generator,
    *,
    carrier: complex = 1.0 + 0j,
    symbol_energy: float = 1.0,
) -> ReceivedVector:
    """Propagate a reflection vector and add white Gaussian noise.

    ``carrier`` is the modulated symbol on the incident wave (unit for the
    MUX and RGSSK schemes, the shared constellation symbol for diversity).
    Batched reflections, channels and carriers give one received vector per
    trial, with the noise of all trials drawn in one call.
    """
    n0 = noise_variance(snr_db, symbol_energy)
    n_active = np.shape(reflection.active)[-1]
    clean = np.einsum(
        "...nik,...ik->...n", channel.group_view(n_active), reflection.group_view(n_active)
    )
    clean *= np.sqrt(symbol_energy) * np.asarray(carrier)[..., None]
    if n0 > 0:
        noise = np.sqrt(n0 / 2.0) * (
            rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
        )
    else:
        noise = np.zeros(clean.shape, dtype=complex)
    return ReceivedVector(samples=clean + noise, noise_var=n0)


@dataclass(frozen=True, eq=False)
class EquivalentChannel:
    """Reflected group sums for every steering target.

    ``tensor[..., n, i, a]`` is the sum over group ``i``'s elements of the
    channel to antenna ``n`` times the conjugated phase toward antenna ``a``
    (all 0-based).  For ``a == n`` the entry is the real, positive amplitude
    sum.  Leading axes, if any, index trials.

    ``ring_tensor[..., n, i, a, r]`` restricts the sum to the elements a
    ring-``r`` hypothesis leaves ON, so the receiver can match partially
    activated groups exactly; the last ring slice is the full-group ``tensor``.
    Only ``mux_apsk`` switches groups partly ON, so the other schemes have
    one ring (``SystemConfig.ris_rings``).
    """

    tensor: np.ndarray
    ring_tensor: np.ndarray

    def matched_response(self, combination, waves, rings) -> np.ndarray:
        """Noiseless receive vector with ring-matched partial sums."""
        rows = np.asarray(combination) - 1
        n_active = rows.size
        h = self.ring_tensor[..., np.arange(n_active), rows, np.asarray(rings)]
        return h @ np.asarray(waves)


def precompute_equivalent_channel(
    channel: ChannelMatrix, config: SystemConfig
) -> EquivalentChannel:
    grouped = channel.group_view(config.n_active)
    align = np.conj(grouped) / np.abs(grouped)
    rings = config.ris_rings
    chunked = grouped.shape[:-1] + (rings, config.n_group // rings)
    per_ring = np.einsum(
        "...nick,...aick->...niac", grouped.reshape(chunked), align.reshape(chunked)
    )
    ring_tensor = np.cumsum(per_ring, axis=-1)
    return EquivalentChannel(tensor=ring_tensor[..., -1], ring_tensor=ring_tensor)


def hypothesis_matrix(equiv: EquivalentChannel, codebook: Codebook) -> np.ndarray:
    """Noiseless receive vectors for the whole codebook.

    Uses the ring-matched model, so the entry for the transmitted codeword
    equals the physical noiseless signal exactly (every scheme).  Returns a
    ``(..., n_rx, n_combinations, symbols_per_row)`` complex array.
    """
    combos = codebook.combinations
    ring_tensor = equiv.ring_tensor
    shape = ring_tensor.shape[:-3] + (combos.shape[0], codebook.symbols_per_row)
    predicted = np.zeros(shape, dtype=complex)
    for i in range(combos.shape[1]):
        steered = ring_tensor[..., i, combos[:, i] - 1, :]  # (..., n_rx, rows, rings)
        gathered = steered[..., codebook.group_rings[:, i]]  # (..., n_rx, rows, count)
        predicted += gathered * codebook.group_waves[:, i]
    return predicted


def _group_factors(equiv: EquivalentChannel, codebook: Codebook) -> list[np.ndarray]:
    """Per-group responses of a MUX codebook, whose sum over the list is
    every codeword's response.

    Each factor is ``(..., rows, labels, n_rx)``: group ``i``'s ring-matched
    response for every combination row and label, times that label's wave.
    """
    cfg = codebook.config
    order, n_active = cfg.mod_order, cfg.n_active
    # group i's wave for label q is that of the symbol with label q on group i
    # and 0 elsewhere; a label's low bits are its ring, so (phase, ring) splits it
    waves = codebook.group_waves[codebook.label_symbols, np.arange(n_active)]
    waves = waves.reshape(-1, cfg.ris_rings, n_active, 1)
    per_target = np.moveaxis(equiv.ring_tensor, -4, -1)  # (..., groups, antennas, rings, n_rx)
    factors = []
    for i in range(n_active):
        steered = per_target[..., i, codebook.combinations[:, i] - 1, :, :]
        factor = steered[..., None, :, :] * waves[:, :, i]  # (..., rows, phases, rings, n_rx)
        factors.append(factor.reshape(*factor.shape[:-3], order, cfg.n_rx))
    return factors


def _on_grid(term: np.ndarray, groups, n_factors: int) -> np.ndarray:
    """Unit axes for the factors a term does not span, so it broadcasts on
    the ``(..., rows, label_1, ..., label_L)`` grid."""
    return term[(..., *(slice(None) if i in groups else None for i in range(n_factors)))]


def _mux_metric(samples: np.ndarray, equiv: EquivalentChannel, codebook: Codebook) -> np.ndarray:
    """Half the metric minus ``||y||^2 / 2`` on the ``(..., rows, label_1,
    ..., label_L)`` grid, from the factors of :func:`_group_factors`."""
    # complex inner products as real dot products over interleaved re/im
    factors = [np.ascontiguousarray(v).view(np.float64) for v in _group_factors(equiv, codebook)]
    y = np.ascontiguousarray(samples, dtype=complex).view(np.float64)[..., None, :, None]
    n = len(factors)
    terms = [
        _on_grid(factors[i] @ np.swapaxes(factors[j], -1, -2), (i, j), n)
        for i, j in itertools.combinations(range(n), 2)
    ]
    terms += [
        _on_grid(0.5 * np.einsum("...k,...k->...", v, v) - (v @ y)[..., 0], (i,), n)
        for i, v in enumerate(factors)
    ]
    # accumulate in place: fresh grid-sized buffers cost more than the adds
    grid = np.broadcast_shapes(*(term.shape for term in terms))
    metric = terms[0] if terms[0].shape == grid else np.broadcast_to(terms[0], grid).copy()
    for term in terms[1:]:
        metric += term
    return metric


def _shared_symbol_metric(
    samples: np.ndarray, equiv: EquivalentChannel, codebook: Codebook
) -> np.ndarray:
    """Half the metric minus ``||y||^2 / 2`` on the ``(..., rows, symbols)``
    grid of a diversity or RGSSK codebook.

    Every group is fully ON and carries the same wave ``w_q``, so codeword
    ``(r, q)`` responds with ``w_q u_r``, where ``u_r`` sums the row's steered
    group responses.  With ``z_r = <y, u_r>`` the entry is
    ``|w_q|^2 ||u_r||^2 / 2 - Re(w_q z_r)``: ``(rows, n_rx)`` work per trial
    and one ``(rows, 3) @ (3, symbols)`` product for the grid.
    """
    combos = codebook.combinations - 1
    # u_r for every row: (..., n_rx, rows)
    summed = equiv.tensor[..., np.arange(combos.shape[1]), combos].sum(axis=-1)
    z = np.einsum("...n,...nr->...r", np.conj(samples), summed)
    power = np.einsum("...nr,...nr->...r", summed, np.conj(summed)).real
    w = codebook.group_waves[:, 0]
    per_row = np.stack([power, -z.real, z.imag], axis=-1)
    per_symbol = np.stack([0.5 * np.abs(w) ** 2, w.real, w.imag])
    return per_row @ per_symbol


def ml_argmin(samples: np.ndarray, equiv: EquivalentChannel, codebook: Codebook) -> np.ndarray:
    """Codeword index minimizing the Euclidean metric, per trial.

    No dense hypothesis tensor is built.  A MUX codeword's response is the
    sum ``p = sum_l v_l`` of its factors (one per group, see
    :func:`_group_factors`), so

        ||y - p||^2 - ||y||^2 = sum_l (||v_l||^2 - 2 Re<y, v_l>)
                                + 2 sum_{l<l'} Re<v_l, v_l'>

    takes one matmul per pair of groups.  Diversity and RGSSK responses are
    rank one (see :func:`_shared_symbol_metric`).  Half the metric is
    scored (halving is exact, so the argmin is the same) on a ``(..., rows,
    label_1, ..., label_L)`` or ``(..., rows, symbols)`` grid whose flat
    index is the codeword index, so ties break toward the lowest index.
    ``samples`` is ``(..., n_rx)`` with the leading axes of ``equiv``.
    """
    score = _mux_metric if codebook.config.scheme.is_mux else _shared_symbol_metric
    metric = score(samples, equiv, codebook)
    return np.argmin(metric.reshape(*np.shape(samples)[:-1], -1), axis=-1)


def detect_ml(
    received: ReceivedVector, equiv: EquivalentChannel, codebook: Codebook
) -> Codeword:
    """Exhaustive joint ML detection over the full codebook.

    Ties break toward the lowest codeword index (row-major over combination
    rows then symbol indices), which makes detection deterministic.
    """
    return codebook.codeword(ml_argmin(received.samples, equiv, codebook))


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
