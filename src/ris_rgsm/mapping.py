"""Bit-to-codeword mapping: combination tables, labelings, and codebooks.

The codebook enumerates every transmit hypothesis as a (combination row,
symbol index) pair.  Symbol indices factor out of the spatial part, so a
codeword index is always ``row * symbols_per_row + symbol_index`` and its
bit label is the index in natural binary: the spatial bits, then the
per-group (or shared) symbol bits.  The ML search's coefficient table is
built from the codebook by the detector (``detector._search_plan``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, Scheme, SystemConfig


# -- bit/label helpers ---------------------------------------------------------


def gray_encode(index: int) -> int:
    """Binary index -> Gray code."""
    return index ^ (index >> 1)


def gray_decode(code):
    """Gray code -> binary index, elementwise over an integer array."""
    index = code
    code = code >> 1
    while np.any(code):
        index = index ^ code
        code = code >> 1
    return index


def int_to_bits(value, width: int) -> np.ndarray:
    """Natural-binary bits of an integer (or index array), most significant
    first: shape ``(..., width)``."""
    shifts = np.arange(width - 1, -1, -1)
    return ((np.asarray(value)[..., None] >> shifts) & 1).astype(np.uint8)


# -- constellations ------------------------------------------------------------


def _label_geometry(order: int, rings: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """``(phase index, 1-based ring)`` of every label of an ``order``-point
    constellation on ``rings`` rings: the high label bits Gray-code the
    phase index, the low ``log2(rings)`` bits are the natural ring index."""
    labels = np.arange(order)
    return gray_decode(labels >> (rings.bit_length() - 1)), (labels & (rings - 1)) + 1


def psk_constellation(order: int) -> np.ndarray:
    """Gray-labeled unit-circle points, indexed by bit label."""
    phase, _ = _label_geometry(order)
    return np.exp(2j * np.pi * phase / order)


def _gray_pam(levels_bits: int) -> np.ndarray:
    # Gray-labeled odd-integer PAM levels -(L-1) .. (L-1), indexed by label.
    count = 1 << levels_bits
    return 2.0 * gray_decode(np.arange(count)) - (count - 1)


def qam_constellation(order: int) -> np.ndarray:
    """Gray-labeled square QAM with unit average energy, indexed by bit label.

    The first half of the label drives the in-phase axis, the second half
    the quadrature axis.
    """
    bits = order.bit_length() - 1
    if bits % 2 != 0 or (1 << bits) != order:
        raise ConfigError(f"square QAM needs an even power-of-two order, got {order}")
    half = bits // 2
    pam = _gray_pam(half)
    side = 1 << half
    points = np.empty(order, dtype=complex)
    for label in range(order):
        i_label = label >> half
        q_label = label & (side - 1)
        points[label] = pam[i_label] + 1j * pam[q_label]
    scale = math.sqrt(2.0 * (side * side - 1) / 3.0)
    return points / scale


def ring_constellation(order: int, rings: int) -> np.ndarray:
    """Concentric-ring constellation with uniformly increasing radii.

    Ring ``k`` (1-based) has radius ``k/rings`` and carries ``order/rings``
    evenly spaced phases; the result is scaled to unit average energy.
    Labels follow the per-group symbol convention of :func:`_label_geometry`.
    """
    phase, ring = _label_geometry(order, rings)
    points = (ring / rings) * np.exp(2j * np.pi * phase / (order // rings))
    return points / np.sqrt(np.mean(np.abs(points) ** 2))


def diversity_constellation(config: SystemConfig) -> np.ndarray:
    """Shared-symbol constellation for the diversity scheme."""
    kind = config.diversity_constellation
    if kind is None:
        kind = "psk" if config.mod_order <= 8 else "qam"
    if kind == "psk":
        return psk_constellation(config.mod_order)
    if kind == "apsk":
        return ring_constellation(config.mod_order, config.ring_count)
    return qam_constellation(config.mod_order)


# -- combination tables ----------------------------------------------------------


def build_combination_table(config: SystemConfig) -> np.ndarray:
    """Rows of selected-antenna combinations, one per spatial bit pattern.

    Default policy takes the first ``2**spatial_bits`` combinations in
    lexicographic order; an explicit table on the config overrides it.
    Returns an ``(n_combinations, n_active)`` int array of 1-based antenna
    indices.
    """
    if config.combination_table is not None:
        return np.array(config.combination_table, dtype=np.int64)
    rows = itertools.islice(
        itertools.combinations(range(1, config.n_rx + 1), config.n_active),
        config.n_combinations,
    )
    return np.array(list(rows), dtype=np.int64)


def stagger_offsets(config: SystemConfig) -> np.ndarray:
    """Per-group constellation rotations (radians) for MUX schemes.

    Group ``l`` (1-based) is rotated by ``(l-1) * 2*pi / (n_active * phase_order)``
    so the per-antenna constellations interleave within one phase sector.
    """
    if not (config.scheme.is_mux and config.stagger_enabled):
        return np.zeros(config.n_active)
    sector = 2.0 * np.pi / (config.n_active * config.phase_order)
    return sector * np.arange(config.n_active)


# -- codebook --------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Codeword:
    """One joint transmit hypothesis: combination row plus symbol vector.

    ``symbols`` are the equivalent received symbols with any stagger
    rotation already folded in; ``phases``/``active`` describe the physical
    group configuration driving the RIS (phase addition and ON count).
    Built from an index array, every field is an array with that leading
    shape (``combination`` then holds 1-based antenna rows).
    """

    index: int
    row: int
    symbol_index: int
    combination: tuple[int, ...]
    symbols: np.ndarray
    phases: np.ndarray
    active: np.ndarray
    carrier: complex = 1.0 + 0j


class Codebook:
    """All ``2**rate`` codewords of a config.

    Attributes
    ----------
    combinations : (n_combinations, n_active) int array, 1-based.
    group_symbols : (symbols_per_row, n_active) complex array
        Equivalent received symbols (stagger folded in, scaled by
        ``sqrt(symbol_energy)``).
    group_phases, group_active : physical RIS group settings per symbol index.
    carriers : (symbols_per_row,) complex
        Carrier symbol sent by the transmit antenna (non-unit only for the
        diversity scheme).
    group_waves, group_rings : (symbols_per_row, n_active) arrays
        Wave and 0-based ON ring of every group, as the ML search sees them.
    """

    def __init__(self, config: SystemConfig):
        self.config = config
        self.combinations = build_combination_table(config)
        self._build_symbols()

    # construction helpers

    def _build_symbols(self):
        cfg = self.config
        amp = math.sqrt(cfg.symbol_energy)
        n_a, n_g = cfg.n_active, cfg.n_group

        if cfg.scheme is Scheme.RGSSK:
            count = 1
            symbols = np.full((1, n_a), amp, dtype=complex)
            phases = np.zeros((1, n_a))
            active = np.full((1, n_a), n_g, dtype=np.int64)
            carriers = np.ones(1, dtype=complex)
        elif cfg.scheme is Scheme.DIVERSITY:
            const = diversity_constellation(cfg)
            count = cfg.mod_order
            carriers = const.copy()
            symbols = amp * np.tile(const[:, None], (1, n_a))
            phases = np.zeros((count, n_a))
            active = np.full((count, n_a), n_g, dtype=np.int64)
        else:
            m = cfg.mod_order
            count = m**n_a
            labels = np.arange(count)[:, None] // self.label_symbols[1] % m
            # one table entry per group label, then looked up per position
            k, ring = _label_geometry(m, cfg.ring_count)
            phase_of = 2.0 * np.pi * k / cfg.phase_order
            rho_of = ring / cfg.ring_count
            active_of = ring * (n_g // cfg.ring_count)
            phases = phase_of[labels] + stagger_offsets(cfg)[None, :]
            rho, active = rho_of[labels], active_of[labels]
            symbols = amp * rho * np.exp(1j * phases)
            carriers = np.ones(count, dtype=complex)

        self.symbols_per_row = count
        self.group_symbols = symbols
        self.group_phases = phases
        self.group_active = active
        self.carriers = carriers
        # unit-amplitude group waves and 0-based ring indices for the
        # physically matched receiver (amplitude comes from the ON count)
        self.group_waves = amp * np.exp(1j * phases) * carriers[:, None]
        self.group_rings = active // (n_g // cfg.ris_rings) - 1

    # public surface

    @property
    def size(self) -> int:
        return self.combinations.shape[0] * self.symbols_per_row

    @property
    def label_symbols(self) -> np.ndarray:
        """``(mod_order, n_active)`` symbol indices of a MUX codebook: entry
        ``(q, l)`` carries label ``q`` on group ``l`` and label 0 on the
        others.  A MUX symbol index joins the group labels, first group most
        significant, so a symbol's labels are its index's base-``mod_order``
        digits and ``label_symbols[1]`` holds their place values."""
        m, n_a = self.config.mod_order, self.config.n_active
        return np.arange(m)[:, None] * m ** np.arange(n_a - 1, -1, -1)

    def codeword(self, index) -> Codeword:
        """Codeword of an index, or a batch of codewords for an index array."""
        batch = np.ndim(index) > 0
        index = np.asarray(index) if batch else int(index)
        if np.count_nonzero((index < 0) | (index >= self.size)):
            raise IndexError(f"codeword index {index} outside codebook of size {self.size}")
        row, sym = divmod(index, self.symbols_per_row)
        combination, carrier = self.combinations[row], self.carriers[sym]
        if not batch:
            combination, carrier = tuple(int(a) for a in combination), complex(carrier)
        return Codeword(
            index=index,
            row=row,
            symbol_index=sym,
            combination=combination,
            symbols=self.group_symbols[sym],
            phases=self.group_phases[sym],
            active=self.group_active[sym],
            carrier=carrier,
        )

    def map_bits(self, bits) -> Codeword:
        """R-length bit string -> codeword (spatial bits first).

        A ``(..., rate)`` bit array maps to a batch of codewords.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        rate = self.config.rate
        if bits.shape[-1:] != (rate,):
            raise ConfigError(f"expected {rate} bits, got shape {bits.shape}")
        return self.codeword(bits @ (1 << np.arange(rate - 1, -1, -1)))

    def unmap(self, codeword: Codeword) -> np.ndarray:
        """Inverse of :meth:`map_bits`."""
        index = codeword.index
        if np.count_nonzero((index < 0) | (index >= self.size)):
            raise ConfigError(f"codeword index {index} not in this codebook")
        return int_to_bits(index, self.config.rate)
