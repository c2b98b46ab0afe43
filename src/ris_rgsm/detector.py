"""Received-signal synthesis, equivalent channel, and exhaustive ML detection.

The equivalent-channel tensor collects, for every receive antenna and every
group, the reflected sum obtained when that group steers toward any
candidate antenna.  One tensor serves all hypotheses of a channel
realization, so the ML search is a dense argmin over the codebook.

Stagger rotations live in the codebook's equivalent symbols, never in the
tensor, so the steered entries are real and positive and no rotation is
counted twice.
"""

from __future__ import annotations

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
    chunked = grouped.shape[:-1] + (config.ring_count, config.n_group // config.ring_count)
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


def ml_argmin(samples: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Codeword index minimizing the Euclidean metric, per trial.

    ``samples`` is ``(..., n_rx)`` and ``predicted`` the matching
    :func:`hypothesis_matrix`; ties break toward the lowest index.
    """
    deltas = samples[..., None, None] - predicted
    metric = np.einsum("...nrq,...nrq->...rq", deltas, np.conj(deltas)).real
    return np.argmin(metric.reshape(*metric.shape[:-2], -1), axis=-1)


def detect_ml(
    received: ReceivedVector, equiv: EquivalentChannel, codebook: Codebook
) -> Codeword:
    """Exhaustive joint ML detection over the full codebook.

    Ties break toward the lowest codeword index (row-major over combination
    rows then symbol indices), which makes detection deterministic.
    """
    return codebook.codeword(ml_argmin(received.samples, hypothesis_matrix(equiv, codebook)))


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
