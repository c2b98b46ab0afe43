"""Flat Rayleigh fading between RIS elements and receive antennas.

A channel is a plain ``(..., n_rx, n_elements)`` complex array of i.i.d.
unit-variance circularly symmetric complex Gaussians; leading axes, if
any, index trials.  Column ``(l - 1) * group_size + k - 1`` is element
``k`` of RIS group ``l`` (both 1-based).

Randomness comes from counter-based Philox streams keyed by
``(seed, stream, counter)``: any draw is reproducible bit-for-bit without
generating its predecessors, so trials parallelize deterministically.
"""

from __future__ import annotations

import numpy as np

from .config import SystemConfig

_DRAW_CHUNK = 65_536  # normals per draw of sample_gains into its reused buffer


def stream_rng(seed: int, stream: int, counter: int = 0) -> np.random.Generator:
    """Deterministic Philox generator for an (independent) logical stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, counter))
    return np.random.Generator(np.random.Philox(ss))


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


def sample_channel(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one i.i.d. CN(0, 1) ``(n_rx, n_elements)`` channel realization."""
    return sample_gains((config.n_rx, config.n_elements), rng)
