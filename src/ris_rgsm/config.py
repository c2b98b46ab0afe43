"""System parameterization, validation, and config-file loading.

A :class:`SystemConfig` fully describes one transmission scheme instance:
the RIS geometry (element count, grouping), the receive array, the
modulation, the SNR sweep, and the Monte Carlo controls.  All derived
quantities (group size, spatial bits, rate, ...) are exposed as properties
so a validated config can never go stale.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, fields, replace
from enum import Enum
from typing import Any

import yaml


class Scheme(str, Enum):
    """Transmission scheme selector."""

    DIVERSITY = "diversity"
    MUX_PSK = "mux_psk"
    MUX_APSK = "mux_apsk"
    RGSSK = "rgssk"

    @property
    def is_mux(self) -> bool:
        return self in (Scheme.MUX_PSK, Scheme.MUX_APSK)


class ConfigError(ValueError):
    """A system parameter violates one of the scheme invariants."""


def _is_pow2(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _plain_int(value):
    # numpy integers become ints; anything else stays for validate to refuse
    return int(value) if _is_integer(value) else value


# largest |snr_db|: past about 3000 dB the noise variance 10**(-snr_db/10)
# and the bound's MGF arguments leave the float range
_SNR_LIMIT_DB = 300.0


def _snr_stream_key(snr_db: float) -> int:
    """Key of an SNR point's random streams: the SNR in 0.001 dB steps, as an
    unsigned 32-bit integer (distinct for distinct steps within the limit)."""
    return int(round(snr_db * 1000.0)) & 0xFFFFFFFF


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterization of one scheme instance.

    Parameters
    ----------
    scheme : Scheme
        Transmission scheme.
    n_elements : int
        Number of RIS elements (split into ``n_active`` equal groups).
    n_rx : int
        Number of receive antennas.
    n_active : int
        Number of simultaneously selected receive antennas.
    mod_order : int
        Equivalent constellation size per selected antenna (MUX schemes)
        or of the shared symbol (diversity).  Must be 1 for RGSSK.
    ring_count : int
        Amplitude rings of an APSK constellation: the RIS rings of
        ``mux_apsk`` (ON/OFF element counts) or the constellation rings of
        diversity ``apsk`` (carrier amplitudes); 1 otherwise.
    symbol_energy : float
        Transmit symbol energy (fixed to 1.0 in all reference sweeps).
    snr_grid_db : tuple of float
        SNR points (symbol energy over per-antenna noise variance, in dB).
    seed : int
        Root seed for all deterministic random streams (non-negative).
    trials, max_bit_errors : int
        Monte Carlo stopping controls: a sweep point stops at whichever
        comes first.
    stagger : bool or None
        Per-group constellation rotation for MUX schemes.  ``None`` means
        "on for MUX schemes, off otherwise".
    combination_table : tuple of tuples, optional
        Explicit antenna-combination rows (1-based, ascending).  Default is
        the first ``2**spatial_bits`` combinations in lexicographic order.
    diversity_constellation : str, optional
        "psk" or "qam" override for the diversity scheme; default picks PSK
        for ``mod_order <= 8`` and square QAM for larger square orders.
    """

    scheme: Scheme
    n_elements: int
    n_rx: int
    n_active: int
    mod_order: int = 1
    ring_count: int = 1
    symbol_energy: float = 1.0
    snr_grid_db: tuple[float, ...] = ()
    seed: int = 0
    trials: int = 100_000
    max_bit_errors: int = 500
    stagger: bool | None = None
    combination_table: tuple[tuple[int, ...], ...] | None = None
    diversity_constellation: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        if self.snr_grid_db is not None:
            object.__setattr__(
                self, "snr_grid_db", tuple(float(s) for s in self.snr_grid_db)
            )
        if self.combination_table is not None:
            object.__setattr__(
                self,
                "combination_table",
                tuple(tuple(map(_plain_int, row)) for row in self.combination_table),
            )

    # -- derived quantities -------------------------------------------------

    @property
    def n_group(self) -> int:
        """Elements per RIS group."""
        return self.n_elements // self.n_active

    @property
    def spatial_bits(self) -> int:
        """Bits carried by the antenna-combination index."""
        return math.comb(self.n_rx, self.n_active).bit_length() - 1

    @property
    def n_combinations(self) -> int:
        """Number of combination rows used for mapping (a power of two)."""
        return 1 << self.spatial_bits

    @property
    def symbol_bits(self) -> int:
        """Bits per modulated symbol (per group for MUX schemes)."""
        return self.mod_order.bit_length() - 1

    @property
    def ris_rings(self) -> int:
        """Chunks a RIS group is switched ON in: ``ring_count`` for
        ``mux_apsk``, 1 for the other schemes, whose groups are always fully
        ON (diversity APSK rings are carrier amplitudes)."""
        return self.ring_count if self.scheme is Scheme.MUX_APSK else 1

    @property
    def phase_order(self) -> int:
        """Distinct phases of the equivalent constellation."""
        return self.mod_order // self.ring_count

    @property
    def rate(self) -> int:
        """Transmission rate in bits per channel use (RGSSK's ``mod_order`` of
        1 carries no symbol bits)."""
        return self.spatial_bits + self.symbol_bits * (self.n_active if self.scheme.is_mux else 1)

    @property
    def stagger_enabled(self) -> bool:
        if self.stagger is None:
            return self.scheme.is_mux
        return bool(self.stagger)

    # -- validation ----------------------------------------------------------

    def validate(self) -> "SystemConfig":
        """Check every invariant; return self if the config is usable.

        Raises
        ------
        ConfigError
            Naming the violated invariant.
        """
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if not _is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        energy = self.symbol_energy
        if isinstance(energy, bool) or not isinstance(energy, numbers.Real):
            raise ConfigError(f"symbol_energy must be a real number, got {energy!r}")
        if not math.isfinite(energy):
            raise ConfigError(f"symbol_energy must be finite, got {energy!r}")
        grid = self.snr_grid_db or ()
        if not all(map(math.isfinite, grid)):
            raise ConfigError(f"snr_db values must be finite, got {list(grid)}")
        if any(abs(snr) > _SNR_LIMIT_DB for snr in grid):
            raise ConfigError(
                f"snr_db values must lie within +-{_SNR_LIMIT_DB:g} dB, got {list(grid)}"
            )
        streams: dict[int, float] = {}
        for snr in grid:
            key = _snr_stream_key(snr)
            if key in streams:
                raise ConfigError(
                    f"snr_db values {streams[key]!r} and {snr!r} round to the same "
                    "0.001 dB step, so they would share every random draw"
                )
            streams[key] = snr
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.stagger is not None and not isinstance(self.stagger, bool):
            raise ConfigError(f"stagger must be true, false or null, got {self.stagger!r}")
        if self.n_rx < 2:
            raise ConfigError(f"n_rx must be at least 2, got {self.n_rx}")
        if self.n_active < 1:
            raise ConfigError(f"n_active must be positive, got {self.n_active}")
        if self.n_active > self.n_rx // 2:
            raise ConfigError(
                f"n_active={self.n_active} exceeds floor(n_rx/2)={self.n_rx // 2}"
            )
        if self.n_elements < 1 or self.n_elements % self.n_active != 0:
            raise ConfigError(
                f"n_elements={self.n_elements} is not divisible by "
                f"n_active={self.n_active}"
            )
        if self.spatial_bits < 1:
            raise ConfigError(
                f"combination count C({self.n_rx},{self.n_active}) supports "
                "no spatial bits"
            )
        if self.symbol_energy <= 0:
            raise ConfigError("symbol_energy must be positive")

        if self.scheme is Scheme.RGSSK:
            if self.mod_order != 1:
                raise ConfigError("rgssk carries no modulated symbol; mod_order must be 1")
        else:
            if self.mod_order < 2 or not _is_pow2(self.mod_order):
                raise ConfigError(
                    f"mod_order={self.mod_order} must be a power of two >= 2"
                )

        if self.scheme is Scheme.MUX_APSK:
            if not _is_pow2(self.ring_count) or self.ring_count < 2:
                raise ConfigError(
                    f"ring_count={self.ring_count} must be a power of two >= 2"
                )
            if self.ring_count >= self.mod_order:
                raise ConfigError("ring_count must be smaller than mod_order")
            if self.n_group % self.ring_count != 0:
                raise ConfigError(
                    f"ring_count={self.ring_count} does not divide "
                    f"group size {self.n_group}"
                )
        elif self.scheme is Scheme.DIVERSITY and self.diversity_constellation == "apsk":
            if not _is_pow2(self.ring_count) or not 2 <= self.ring_count < self.mod_order:
                raise ConfigError(
                    "diversity apsk needs a power-of-two ring_count in "
                    f"[2, mod_order), got {self.ring_count}"
                )
        elif self.ring_count != 1:
            raise ConfigError(
                "ring_count is only meaningful for mux_apsk or diversity apsk"
            )

        if self.diversity_constellation not in (None, "psk", "qam", "apsk"):
            raise ConfigError(
                f"unknown diversity_constellation {self.diversity_constellation!r}"
            )
        if self.scheme is Scheme.DIVERSITY and self.symbol_bits % 2:
            # the default picks square QAM above order 8; square QAM needs an
            # even power-of-two order
            if self.diversity_constellation is None and self.mod_order > 8:
                raise ConfigError(
                    f"diversity mod_order={self.mod_order} is not square; "
                    "set diversity_constellation explicitly"
                )
            if self.diversity_constellation == "qam":
                raise ConfigError(
                    f"diversity qam needs a square mod_order (an even power of two "
                    f">= 4), got {self.mod_order}"
                )

        if self.combination_table is not None:
            self._validate_table(self.combination_table)

        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.max_bit_errors < 1:
            raise ConfigError("max_bit_errors must be positive")
        return self

    def _validate_table(self, table) -> None:
        if len(table) != self.n_combinations:
            raise ConfigError(
                f"explicit combination table has {len(table)} rows, "
                f"expected {self.n_combinations}"
            )
        seen = set()
        for row in table:
            if not all(map(_is_integer, row)):
                raise ConfigError(f"combination_table row {row} has a non-integer antenna index")
            if len(row) != self.n_active:
                raise ConfigError(f"combination row {row} must list {self.n_active} antennas")
            if any(a < 1 or a > self.n_rx for a in row):
                raise ConfigError(f"combination row {row} has out-of-range antenna index")
            if any(b <= a for a, b in zip(row, row[1:])):
                raise ConfigError(f"combination row {row} is not strictly ascending")
            if row in seen:
                raise ConfigError(f"duplicate combination row {row}")
            seen.add(row)

    # -- misc ----------------------------------------------------------------

    def fingerprint(self, version: str = "") -> str:
        """Stable hash of the full parameterization (plus code version)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["scheme"] = self.scheme.value
        payload["version"] = version
        blob = json.dumps(payload, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def with_overrides(self, **kwargs) -> "SystemConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SweepManifest:
    """Labeled configs to run jointly (the curves of one comparison figure)."""

    entries: tuple[tuple[str, SystemConfig], ...]

    def __post_init__(self):
        labels = [label for label, _ in self.entries]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"manifest labels are not unique: {labels}")


# -- config-file schema ------------------------------------------------------

# fields that validate insists are integers, read from their annotations
_INTEGER_FIELDS = tuple(f.name for f in fields(SystemConfig) if f.type == "int")

# the config file names the SNR grid ``snr_db``; every other key is a field
_CONFIG_KEYS = {"snr_db" if f.name == "snr_grid_db" else f.name for f in fields(SystemConfig)}


def _snr_values(values) -> list[float]:
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"snr_db values must be numbers: {exc}") from exc


def _snr_grid(raw) -> tuple[float, ...]:
    if isinstance(raw, dict):
        missing = {"start", "stop", "step"} - raw.keys()
        if missing:
            raise ConfigError(f"snr_db range needs keys start/stop/step, missing {missing}")
        start, stop, step = _snr_values((raw["start"], raw["stop"], raw["step"]))
        if not (step > 0 and stop >= start and math.isfinite(stop - start)):
            raise ConfigError("snr_db range must have step > 0 and a finite stop >= start")
        # the last point is the largest start + i*step not past stop, with a
        # tolerance so that a step dividing the span in decimal still reaches it
        steps = (stop - start) / step + 1e-9
        count = math.floor(steps) + 1 if math.isfinite(steps) else math.inf
        # the points ascend, so the first and the last bound them all; refuse
        # what validate would refuse before building the points
        last = start + (count - 1) * step if count < math.inf else stop
        if max(abs(start), abs(last)) > _SNR_LIMIT_DB:
            raise ConfigError(
                f"snr_db values must lie within +-{_SNR_LIMIT_DB:g} dB, "
                f"got a range from {start!r} to {last!r}"
            )
        keys = (_snr_stream_key(last) - _snr_stream_key(start)) % 2**32 + 1
        if count > keys:
            raise ConfigError(
                f"snr_db values of the {count}-point range from {start!r} to {last!r} "
                "round two to the same 0.001 dB step, so they would share every random draw"
            )
        return tuple(start + i * step for i in range(count))
    if isinstance(raw, (list, tuple)):
        return tuple(_snr_values(raw))
    raise ConfigError(f"snr_db must be a list or a start/stop/step mapping, got {raw!r}")


def config_from_mapping(data: dict[str, Any]) -> SystemConfig:
    """Build and validate a :class:`SystemConfig` from parsed key-value data."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping of keys to values")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "snr_db" in kwargs:
        kwargs["snr_grid_db"] = _snr_grid(kwargs.pop("snr_db"))
    try:
        cfg = SystemConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()


# libyaml's parser when PyYAML was built with it; both loaders construct
# with the same SafeConstructor, so they give equal data
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _read_yaml(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path} is not valid YAML: {exc}") from exc


def load_config(path) -> SystemConfig:
    """Load a single-curve YAML config file."""
    return config_from_mapping(_read_yaml(path))


def load_manifest(path) -> SweepManifest:
    """Load a multi-curve YAML manifest.

    Top-level keys act as shared defaults; each entry under ``curves``
    must carry a unique ``label`` and may override any config key.
    """
    return _manifest_from_mapping(_read_yaml(path))


def load_config_or_manifest(path) -> SystemConfig | SweepManifest:
    """Load a manifest if the file has a top-level ``curves`` key, else a
    single-curve config."""
    data = _read_yaml(path)
    if isinstance(data, dict) and "curves" in data:
        return _manifest_from_mapping(data)
    return config_from_mapping(data)


# the longest file name, in bytes, that common file systems such as ext4 accept
_NAME_BYTES = 255


def _checked_label(label: str) -> str:
    """A curve label that names its output files inside the output directory,
    each a file name that the file system accepts and no other output uses."""
    if label in ("", ".", "..") or "/" in label or "\\" in label:
        raise ConfigError(f"label {label!r} is empty, '.', '..' or holds a path separator")
    if "\0" in label:
        raise ConfigError(f"label {label!r} holds a NUL byte")
    if label == "plotdata":
        raise ConfigError("label 'plotdata' would overwrite compare's plotdata.csv")
    # the longest output name is the theory command's <label>_theory.csv
    size = len(os.fsencode(label + "_theory.csv"))
    if size > _NAME_BYTES:
        raise ConfigError(
            f"label {label[:16]!r}... makes the {size}-byte file name "
            f"<label>_theory.csv; file names hold at most {_NAME_BYTES} bytes"
        )
    return label


def _manifest_from_mapping(data) -> SweepManifest:
    if not isinstance(data, dict) or "curves" not in data:
        raise ConfigError("manifest must be a mapping with a 'curves' list")
    curves = data["curves"]
    if not isinstance(curves, list) or not curves:
        raise ConfigError(f"manifest 'curves' must be a non-empty list, got {curves!r}")
    shared = {k: v for k, v in data.items() if k != "curves"}
    entries = []
    for item in curves:
        if not isinstance(item, dict) or "label" not in item:
            raise ConfigError("each manifest curve needs a 'label'")
        label = _checked_label(str(item["label"]))
        merged = dict(shared)
        merged.update({k: v for k, v in item.items() if k != "label"})
        entries.append((label, config_from_mapping(merged)))
    return SweepManifest(entries=tuple(entries))
