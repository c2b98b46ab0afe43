"""Monte Carlo sweeps, theory sweeps, comparisons, and result persistence.

Trials are processed in fixed-size blocks; each block draws every random
quantity (bits, channel, noise) from its own counter-based stream keyed by
``(seed, snr_key, block_index)``.  Blocks are scheduled in deterministic
waves and the stopping rule is applied by scanning block results in index
order, so a sweep is bit-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import __version__
from .channel import ChannelMatrix, sample_gains, stream_rng
from .config import ConfigError, SweepManifest, SystemConfig
from .detector import (
    count_bit_errors,
    ml_argmin,
    noise_variance,
    precompute_equivalent_channel,
    transmit,
)
from .encoder import encode
from .mapping import Codebook
from .theory import DEFAULT_PAIR_CEILING, union_bound_ber

UNRELIABLE_ERROR_COUNT = 10
_WAVE_SIZES = (1, 1, 2, 4, 8, 16, 32)
_MAX_WAVE = 64

CSV_HEADER = [
    "snr_db",
    "trials",
    "bit_errors",
    "spatial_bit_errors",
    "symbol_bit_errors",
    "ber",
    "theory_bound",
    "flag",
]


@dataclass
class BerPoint:
    snr_db: float
    trials: int
    bit_errors: int
    spatial_bit_errors: int
    symbol_bit_errors: int
    ber: float | None
    theory_bound: float | None = None
    flag: str = "ok"
    wall_time_s: float = 0.0


@dataclass
class BerCurve:
    label: str
    config: SystemConfig
    points: list[BerPoint]
    fingerprint: str
    meta: dict = field(default_factory=dict)

    def point_at(self, snr_db: float) -> BerPoint | None:
        for p in self.points:
            if math.isclose(p.snr_db, snr_db, abs_tol=1e-9):
                return p
        return None


# -- block engine ---------------------------------------------------------------


@lru_cache(maxsize=8)
def _cached_codebook(config: SystemConfig) -> Codebook:
    return Codebook(config)


def _snr_stream_key(snr_db: float) -> int:
    return int(round(snr_db * 1000.0)) & 0xFFFFFFFF


def default_block_size(config: SystemConfig) -> int:
    # sized for the dense hypothesis tensor, which no scheme builds any more;
    # the size stays because block boundaries key the random streams, so it
    # is part of the output bytes of a (config, seed)
    cells = config.n_rx * (1 << config.rate)
    return int(np.clip(2_500_000 // max(cells, 1), 32, 1024))


def _block_counts(config: SystemConfig, snr_db: float, block_index: int, block_size: int):
    """Simulate one trial block; returns (trials, total, spatial, symbol) errors.

    Each stage runs once on the whole block: the per-trial link-model
    functions with a leading trial axis.
    """
    cb = _cached_codebook(config)
    cfg = cb.config
    rng = stream_rng(cfg.seed, _snr_stream_key(snr_db), block_index)
    bits = rng.integers(0, 2, size=(block_size, cfg.rate), dtype=np.uint8)
    codewords = cb.map_bits(bits)
    channel = ChannelMatrix(sample_gains((block_size, cfg.n_rx, cfg.n_elements), rng))
    received = transmit(
        encode(codewords, channel, cfg),
        channel,
        snr_db,
        rng,
        carrier=codewords.carrier,
        symbol_energy=cfg.symbol_energy,
    )
    detected = ml_argmin(received.samples, precompute_equivalent_channel(channel, cfg), cb)
    return (block_size, *count_bit_errors(bits, cb.bit_table[detected], cfg.spatial_bits))


def _block_job(payload):
    return _block_counts(*payload)


def _wave_plan(n_blocks: int):
    consumed = 0
    for size in _WAVE_SIZES:
        if consumed >= n_blocks:
            return
        take = min(size, n_blocks - consumed)
        yield range(consumed, consumed + take)
        consumed += take
    while consumed < n_blocks:
        take = min(_MAX_WAVE, n_blocks - consumed)
        yield range(consumed, consumed + take)
        consumed += take


def _sweep_point(config, snr_db, executor, block_size) -> BerPoint:
    start = time.perf_counter()
    n_blocks = math.ceil(config.trials / block_size)
    sizes = [block_size] * n_blocks
    sizes[-1] = config.trials - block_size * (n_blocks - 1)

    trials = errors = spatial = symbol = 0
    stop = False
    for wave in _wave_plan(n_blocks):
        payloads = [(config, snr_db, b, sizes[b]) for b in wave]
        if executor is None:
            # lazy: a block runs only once the scan reaches it, so no block
            # past the stopping one is computed
            results = map(_block_job, payloads)
        else:
            results = list(executor.map(_block_job, payloads))
        for result in results:  # scan in block order: stop rule is worker-independent
            trials += result[0]
            errors += result[1]
            spatial += result[2]
            symbol += result[3]
            if errors >= config.max_bit_errors:
                stop = True
                break
        if stop:
            break

    ber = errors / (trials * config.rate)
    flag = "ok" if errors >= UNRELIABLE_ERROR_COUNT else "unreliable"
    return BerPoint(
        snr_db=snr_db,
        trials=trials,
        bit_errors=errors,
        spatial_bit_errors=spatial,
        symbol_bit_errors=symbol,
        ber=ber,
        flag=flag,
        wall_time_s=time.perf_counter() - start,
    )


def run_simulation(
    config: SystemConfig,
    *,
    workers: int = 1,
    block_size: int | None = None,
    label: str = "",
) -> BerCurve:
    """Monte Carlo BER sweep over the config's SNR grid.

    Each trial draws a fresh channel, fresh bits, and fresh noise; a point
    stops at ``config.trials`` or once ``config.max_bit_errors`` accumulate,
    whichever comes first.  Results are identical for any ``workers``.
    """
    config.validate()
    if not config.snr_grid_db:
        raise ConfigError("config has an empty snr grid")
    block = block_size or default_block_size(config)
    points = []
    executor = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for snr in sorted(config.snr_grid_db):
            points.append(_sweep_point(config, snr, executor, block))
    finally:
        if executor is not None:
            executor.shutdown()
    return BerCurve(
        label=label or config.scheme.value,
        config=config,
        points=points,
        fingerprint=config.fingerprint(__version__),
        meta={"block_size": block, "kind": "simulation"},
    )


# -- theory sweep -----------------------------------------------------------------


def run_theory(
    config: SystemConfig,
    *,
    policy: str = "exhaustive",
    sample_pairs: int = 10_000,
    pair_ceiling: int = DEFAULT_PAIR_CEILING,
    label: str = "",
) -> BerCurve:
    """Union-bound sweep over the config's SNR grid."""
    config.validate()
    if not config.snr_grid_db:
        raise ConfigError("config has an empty snr grid")
    codebook = _cached_codebook(config)
    points = []
    skipped_fraction = 0.0
    for snr in sorted(config.snr_grid_db):
        start = time.perf_counter()
        result = union_bound_ber(
            codebook,
            noise_variance(snr, config.symbol_energy),
            policy,
            sample_pairs=sample_pairs,
            pair_ceiling=pair_ceiling,
        )
        skipped_fraction = result.skipped_fraction
        points.append(
            BerPoint(
                snr_db=snr,
                trials=0,
                bit_errors=0,
                spatial_bit_errors=0,
                symbol_bit_errors=0,
                ber=None,
                theory_bound=result.value,
                flag="theory",
                wall_time_s=time.perf_counter() - start,
            )
        )
    return BerCurve(
        label=label or config.scheme.value,
        config=config,
        points=points,
        fingerprint=config.fingerprint(__version__),
        meta={
            "kind": "theory",
            "policy": policy,
            "skipped_pair_fraction": skipped_fraction,
        },
    )


def merge_theory(sim_curve: BerCurve, theory_curve: BerCurve) -> BerCurve:
    """Attach theory bounds to the matching simulated points."""
    merged = []
    for p in sim_curve.points:
        t = theory_curve.point_at(p.snr_db)
        bound = t.theory_bound if t is not None else None
        merged.append(
            BerPoint(
                **{**asdict(p), "theory_bound": bound},
            )
        )
    meta = dict(sim_curve.meta)
    meta["kind"] = "simulation+theory"
    meta["skipped_pair_fraction"] = theory_curve.meta.get("skipped_pair_fraction")
    return BerCurve(
        label=sim_curve.label,
        config=sim_curve.config,
        points=merged,
        fingerprint=sim_curve.fingerprint,
        meta=meta,
    )


# -- gap measurement ----------------------------------------------------------------


def _series(curve: BerCurve, min_errors: int):
    sim = [
        (p.snr_db, p.ber)
        for p in curve.points
        if p.ber is not None and p.ber > 0 and p.bit_errors >= min_errors
    ]
    if sim:
        return sim, "simulation"
    theory = [
        (p.snr_db, p.theory_bound)
        for p in curve.points
        if p.theory_bound is not None and p.theory_bound > 0
    ]
    return theory, "theory"


def snr_at_ber(
    curve: BerCurve, target_ber: float, *, min_errors: int = UNRELIABLE_ERROR_COUNT
):
    """SNR (dB) at which the curve crosses the target BER.

    Log-linear interpolation between the bracketing sweep points of the
    simulated BER (falling back to the theory bound for theory-only
    curves).  Returns ``(snr_db, basis)`` or ``(None, basis)`` when the
    curve never crosses the target.
    """
    series, basis = _series(curve, min_errors)
    series.sort(key=lambda t: t[0])
    for (snr_a, ber_a), (snr_b, ber_b) in zip(series, series[1:]):
        if ber_a >= target_ber >= ber_b:
            if ber_a == ber_b:
                return snr_a, basis
            frac = (math.log(ber_a) - math.log(target_ber)) / (
                math.log(ber_a) - math.log(ber_b)
            )
            return snr_a + frac * (snr_b - snr_a), basis
    return None, basis


@dataclass
class GapEntry:
    label_a: str
    label_b: str
    snr_a: float | None
    snr_b: float | None
    gap_db: float | None  # snr_a - snr_b: positive means curve b is better
    basis: str


@dataclass
class CompareResult:
    curves: list[BerCurve]
    gaps: list[GapEntry]
    target_ber: float


def compare(
    manifest: SweepManifest,
    *,
    mode: str = "equal-rate",
    kind: str = "both",
    target_ber: float = 1e-3,
    workers: int = 1,
    policy: str = "exhaustive",
    sample_pairs: int = 10_000,
    pair_ceiling: int = DEFAULT_PAIR_CEILING,
) -> CompareResult:
    """Run every manifest entry and report pairwise SNR gaps at a target BER."""
    if mode not in ("equal-rate", "free"):
        raise ConfigError(f"unknown compare mode {mode!r}")
    if kind not in ("sim", "theory", "both"):
        raise ConfigError(f"unknown compare kind {kind!r}")
    if mode == "equal-rate":
        rates = {label: cfg.rate for label, cfg in manifest.entries}
        if len(set(rates.values())) > 1:
            raise ConfigError(f"equal-rate comparison with differing rates: {rates}")

    curves = []
    for label, cfg in manifest.entries:
        sim = theory = None
        if kind in ("sim", "both"):
            sim = run_simulation(cfg, workers=workers, label=label)
        if kind in ("theory", "both"):
            theory = run_theory(
                cfg,
                policy=policy,
                sample_pairs=sample_pairs,
                pair_ceiling=pair_ceiling,
                label=label,
            )
        if sim is not None and theory is not None:
            curves.append(merge_theory(sim, theory))
        else:
            curves.append(sim if sim is not None else theory)

    gaps = []
    for i, a in enumerate(curves):
        for b in curves[i + 1 :]:
            snr_a, basis_a = snr_at_ber(a, target_ber)
            snr_b, basis_b = snr_at_ber(b, target_ber)
            gap = None if snr_a is None or snr_b is None else snr_a - snr_b
            gaps.append(
                GapEntry(
                    label_a=a.label,
                    label_b=b.label,
                    snr_a=snr_a,
                    snr_b=snr_b,
                    gap_db=gap,
                    basis=basis_a if basis_a == basis_b else f"{basis_a}/{basis_b}",
                )
            )
    return CompareResult(curves=curves, gaps=gaps, target_ber=target_ber)


# -- persistence ---------------------------------------------------------------------


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6g}"


def write_curve_csv(curve: BerCurve, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for p in curve.points:
            writer.writerow(
                [
                    f"{p.snr_db:g}",
                    p.trials,
                    p.bit_errors,
                    p.spatial_bit_errors,
                    p.symbol_bit_errors,
                    _fmt(p.ber),
                    _fmt(p.theory_bound),
                    p.flag,
                ]
            )


def curve_summary(curve: BerCurve) -> dict:
    cfg = {f.name: getattr(curve.config, f.name) for f in fields(curve.config)}
    cfg["scheme"] = curve.config.scheme.value
    return {
        "label": curve.label,
        "fingerprint": curve.fingerprint,
        "version": __version__,
        "rate_bpcu": curve.config.rate,
        "config": cfg,
        "meta": curve.meta,
        "wall_time_s": sum(p.wall_time_s for p in curve.points),
        "points": len(curve.points),
    }


def write_summary_json(curves: list[BerCurve], path, extra: dict | None = None) -> None:
    payload = {"curves": [curve_summary(c) for c in curves]}
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")


def write_plot_data(curves: list[BerCurve], path) -> None:
    """Long-format plot file: one row per (curve, snr) point."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "snr_db", "ber", "theory_bound"])
        for curve in curves:
            for p in curve.points:
                writer.writerow([curve.label, f"{p.snr_db:g}", _fmt(p.ber), _fmt(p.theory_bound)])


def write_gap_report(result: CompareResult, path) -> None:
    payload = {
        "target_ber": result.target_ber,
        "gaps": [asdict(g) for g in result.gaps],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
