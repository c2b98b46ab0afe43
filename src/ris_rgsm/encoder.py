"""RIS reflection-coefficient vectors for each transmission scheme.

Every scheme points each RIS group at its selected antenna by conjugating
the channel phases; the MUX schemes additionally rotate whole groups
(phase modulation) and switch trailing elements off (amplitude modulation).
Entries therefore always have modulus exactly 1 or exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .config import Scheme, SystemConfig
from .mapping import Codeword


class EncodeError(ValueError):
    """Codeword and encoder scheme disagree."""


@dataclass(frozen=True, eq=False)
class ReflectionVector:
    """Length-``n_elements`` reflection coefficients plus group metadata.

    A batch of vectors carries the same leading axes on every field.
    """

    coefficients: np.ndarray
    phases: np.ndarray
    active: np.ndarray

    def group_view(self, n_active: int) -> np.ndarray:
        return self.coefficients.reshape(*self.coefficients.shape[:-1], n_active, -1)


def encode(codeword: Codeword, channel: ChannelMatrix, config: SystemConfig) -> ReflectionVector:
    """Steer each group at its selected antenna, rotate it by its phase and
    switch on only its first ``active`` elements.

    Pure phase cancellation (diversity, RGSSK) is the zero-rotation,
    full-group case.  A codeword and channel built from index and gain
    arrays with a leading batch axis encode one vector per trial.
    """
    active = np.asarray(codeword.active)
    if config.scheme is Scheme.MUX_APSK:
        allowed = config.n_group // config.ring_count
        if np.any(active % allowed) or np.any(active < allowed) or np.any(active > config.n_group):
            raise EncodeError(
                f"active counts {active} not multiples of {allowed} within group"
            )
    # unit phasors cancelling the channel phase toward each group's antenna
    rows = np.asarray(codeword.combination) - 1
    grouped = channel.group_view(config.n_active)
    toward = np.take_along_axis(grouped, rows[..., None, :, None], axis=-3)[..., 0, :, :]
    steer = np.conj(toward) / np.abs(toward)
    rotation = np.exp(1j * np.asarray(codeword.phases))[..., None]
    mask = np.arange(config.n_group) < active[..., None]
    coefficients = steer * rotation * mask
    return ReflectionVector(
        coefficients=coefficients.reshape(*coefficients.shape[:-2], -1),
        phases=np.array(codeword.phases),
        active=active.copy(),
    )
