"""Flat Rayleigh fading between RIS elements and receive antennas.

Channel entries are i.i.d. unit-variance circularly symmetric complex
Gaussians.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream, counter)``: any draw is reproducible bit-for-bit without
generating its predecessors, so trials parallelize deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig

_DRAW_CHUNK = 65_536  # normals per draw of sample_gains into its reused buffer


def stream_rng(seed: int, stream: int, counter: int = 0) -> np.random.Generator:
    """Deterministic Philox generator for an (independent) logical stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, counter))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True, eq=False)
class ChannelMatrix:
    """One ``n_rx x n_elements`` Rayleigh realization, or a batch of them
    stacked along leading axes of ``gains``."""

    gains: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.gains.shape[-1]

    def group_view(self, n_active: int) -> np.ndarray:
        """Reshape columns into RIS groups: ``(..., n_rx, n_active, group_size)``."""
        if self.n_elements % n_active != 0:
            raise ValueError(
                f"{self.n_elements} elements do not split into {n_active} groups"
            )
        return self.gains.reshape(*self.gains.shape[:-1], n_active, -1)


def sample_gains(shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, 1) entries; all real parts are drawn before all imaginary parts.

    The normals go through one reused buffer of ``_DRAW_CHUNK`` values, so a
    large draw allocates only its result.  The values, their order and the
    generator's final state are those of two whole-shape draws, and the
    entries equal ``(re + 1j * im) / np.sqrt(2.0)`` bit for bit: numpy
    divides a complex by a real as a product with the reciprocal.
    """
    gains = np.empty(shape, dtype=complex)
    flat = gains.reshape(-1)
    buffer = np.empty(min(_DRAW_CHUNK, flat.size))
    scale = 1.0 / np.sqrt(2.0)
    for part in (flat.real, flat.imag):
        for start in range(0, flat.size, _DRAW_CHUNK):
            chunk = buffer[: min(_DRAW_CHUNK, flat.size - start)]
            rng.standard_normal(out=chunk)
            np.multiply(chunk, scale, out=part[start : start + chunk.size])
    return gains


def sample_channel(config: SystemConfig, rng: np.random.Generator) -> ChannelMatrix:
    """Draw one i.i.d. CN(0, 1) channel realization."""
    return ChannelMatrix(gains=sample_gains((config.n_rx, config.n_elements), rng))
