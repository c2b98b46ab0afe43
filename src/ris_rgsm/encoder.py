"""RIS reflection-coefficient vectors for each transmission scheme.

Every scheme points each RIS group at its selected antenna by conjugating
the channel phases; the MUX schemes additionally rotate whole groups
(phase modulation) and switch trailing elements off (amplitude modulation).
Entries therefore always have modulus exactly 1 or exactly 0.  The channel
comes in as the plain gains array of :mod:`ris_rgsm.channel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Scheme, SystemConfig
from .mapping import Codeword


class EncodeError(ValueError):
    """Codeword and encoder scheme disagree."""


@dataclass(frozen=True, eq=False)
class ReflectionVector:
    """Length-``n_elements`` reflection coefficients, with a batch's leading axes."""

    coefficients: np.ndarray


def encode(codeword: Codeword, gains: np.ndarray, config: SystemConfig) -> ReflectionVector:
    """Steer each group at its selected antenna, rotate it by its phase and
    switch on only its first ``active`` elements.

    Pure phase cancellation (diversity, RGSSK) is the zero-rotation,
    full-group case.  ``gains`` is the ``(..., n_rx, n_elements)`` channel;
    a codeword built from index arrays and gains with the same leading
    batch axis encode one vector per trial.
    """
    active = np.asarray(codeword.active)
    if config.scheme is Scheme.MUX_APSK:
        allowed = config.n_group // config.ring_count
        if np.any(active % allowed) or np.any(active < allowed) or np.any(active > config.n_group):
            raise EncodeError(
                f"active counts {active} not multiples of {allowed} within group"
            )
    # unit phasors cancelling the channel phase toward each group's antenna,
    # rotated and masked in the gathered copy of the channel
    rows = np.asarray(codeword.combination) - 1
    grouped = gains.reshape(*gains.shape[:-1], config.n_active, -1)
    toward = np.take_along_axis(grouped, rows[..., None, :, None], axis=-3)[..., 0, :, :]
    coefficients = toward.astype(complex, copy=False)  # a copy only for real gains
    magnitude = np.abs(coefficients)
    np.conj(coefficients, out=coefficients)
    coefficients /= magnitude
    coefficients *= np.exp(1j * np.asarray(codeword.phases))[..., None]
    coefficients *= np.arange(config.n_group) < active[..., None]
    return ReflectionVector(coefficients.reshape(*coefficients.shape[:-2], -1))
