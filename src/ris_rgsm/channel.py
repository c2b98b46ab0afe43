"""Flat Rayleigh fading between RIS elements and receive antennas.

Channel entries are i.i.d. unit-variance circularly symmetric complex
Gaussians.  Amplitude/phase accessors follow the convention
``gain = amplitude * exp(-1j * phase)``, i.e. the stored phase is the
negated argument, which is what the RIS conjugates when steering.

Randomness comes from counter-based Philox streams keyed by
``(seed, stream, counter)``: any draw is reproducible bit-for-bit without
generating its predecessors, so trials parallelize deterministically.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig


def element_index(group: int, member: int, group_size: int) -> int:
    """Column index of a group member: ``(group - 1) * group_size + member``.

    All arguments are 1-based; ``member`` runs within one RIS group.
    """
    if group < 1:
        raise ValueError(f"group index {group} out of range (1-based)")
    if not 1 <= member <= group_size:
        raise ValueError(f"member index {member} outside 1..{group_size}")
    return (group - 1) * group_size + member


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
    def n_rx(self) -> int:
        return self.gains.shape[-2]

    @property
    def n_elements(self) -> int:
        return self.gains.shape[-1]

    @property
    def amplitude(self) -> np.ndarray:
        return np.abs(self.gains)

    @property
    def phase(self) -> np.ndarray:
        """Negated argument, so ``gains == amplitude * exp(-1j * phase)``."""
        return -np.angle(self.gains)

    def group_view(self, n_active: int) -> np.ndarray:
        """Reshape columns into RIS groups: ``(..., n_rx, n_active, group_size)``."""
        if self.n_elements % n_active != 0:
            raise ValueError(
                f"{self.n_elements} elements do not split into {n_active} groups"
            )
        return self.gains.reshape(*self.gains.shape[:-1], n_active, -1)

    # binary fixture format: uint64-LE dims header, then row-major
    # (re, im) float64-LE pairs.

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(struct.pack("<QQ", self.n_rx, self.n_elements))
            interleaved = np.empty((self.n_rx, self.n_elements, 2))
            interleaved[..., 0] = self.gains.real
            interleaved[..., 1] = self.gains.imag
            fh.write(interleaved.astype("<f8").tobytes())

    @classmethod
    def load(cls, path) -> "ChannelMatrix":
        with open(path, "rb") as fh:
            n_rx, n_elements = struct.unpack("<QQ", fh.read(16))
            raw = np.frombuffer(fh.read(), dtype="<f8")
        if raw.size != n_rx * n_elements * 2:
            raise ValueError(
                f"channel dump payload has {raw.size} floats, "
                f"expected {n_rx * n_elements * 2}"
            )
        pairs = raw.reshape(int(n_rx), int(n_elements), 2)
        return cls(gains=pairs[..., 0] + 1j * pairs[..., 1])


def sample_gains(shape, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. CN(0, 1) entries; all real parts are drawn before all imaginary parts."""
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return (re + 1j * im) / np.sqrt(2.0)


def sample_channel(config: SystemConfig, rng: np.random.Generator) -> ChannelMatrix:
    """Draw one i.i.d. CN(0, 1) channel realization."""
    return ChannelMatrix(gains=sample_gains((config.n_rx, config.n_elements), rng))
