"""Tests for the sweep engine, comparisons, and result persistence."""

import csv
import json
import math
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ris_rgsm import (
    Codebook,
    ConfigError,
    SweepManifest,
    SystemConfig,
    compare,
    load_manifest,
    merge_theory,
    noise_variance,
    run_simulation,
    run_theory,
    snr_at_ber,
    union_bound_ber,
    write_curve_csv,
    write_gap_report,
    write_plot_data,
    write_summary_json,
)
from ris_rgsm.channel import sample_gains, stream_rng
from ris_rgsm.detector import (
    count_bit_errors,
    detect_ml,
    hypothesis_matrix,
    ml_argmin,
    precompute_equivalent_channel,
    transmit,
    trial_tiles,
)
from ris_rgsm.cli import main
from ris_rgsm.encoder import encode
from ris_rgsm.mapping import int_to_bits
from ris_rgsm import detector, simulate
from ris_rgsm import theory as theory_engine
from ris_rgsm.simulate import (
    BerCurve,
    BerPoint,
    CSV_HEADER,
    _block_counts,
    _block_job,
    _block_results,
    _snr_stream_key,
    default_block_size,
)

from _oracles import dense_ml_argmin

TABLE_4X2 = ((1, 3), (1, 4), (2, 3), (2, 4))
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def small_config(**overrides):
    base = dict(
        scheme="rgssk", n_elements=16, n_rx=4, n_active=2, mod_order=1,
        combination_table=TABLE_4X2, snr_grid_db=(-12.0,), seed=99,
        trials=4000, max_bit_errors=100_000,
    )
    base.update(overrides)
    return SystemConfig(**base).validate()


class TestSweepEngine:
    def test_noise_dominated_ber_near_half(self):
        """Noise deep enough to swamp the ~29 dB beamforming gain of a
        32-element group makes decoded spatial bits nearly uniform."""
        cfg = small_config(
            n_elements=64, snr_grid_db=(-50.0,), trials=10_000, seed=5
        )
        curve = run_simulation(cfg)
        point = curve.points[0]
        assert point.trials == 10_000
        assert abs(point.ber - 0.5) < 0.05

    def test_high_snr_error_free(self):
        """At +40 dB the bound predicts far below 1e-6: expect zero errors."""
        cfg = small_config(n_elements=64, snr_grid_db=(40.0,), trials=1000)
        point = run_simulation(cfg).points[0]
        assert point.bit_errors == 0
        assert point.flag == "unreliable"

    def test_stopping_rule_uses_error_cap(self):
        cfg = small_config(snr_grid_db=(-30.0,), trials=100_000, max_bit_errors=50)
        point = run_simulation(cfg).points[0]
        assert point.bit_errors >= 50
        assert point.trials < 100_000

    def test_worker_count_does_not_change_results(self):
        """Bit-identical curves from serial and process-pool execution."""
        cfg = small_config(snr_grid_db=(-14.0, -10.0), trials=3000, max_bit_errors=400)
        serial = run_simulation(cfg, workers=1)
        pooled = run_simulation(cfg, workers=3)
        for a, b in zip(serial.points, pooled.points):
            assert (a.trials, a.bit_errors, a.spatial_bit_errors) == (
                b.trials, b.bit_errors, b.spatial_bit_errors
            )

    def test_serial_sweep_runs_only_the_blocks_it_uses(self, monkeypatch):
        """Serially, no block past the one that reaches the error cap runs."""
        calls = []

        def counting_job(payload):
            calls.append(payload[2])
            return _block_job(payload)

        monkeypatch.setattr(simulate, "_block_job", counting_job)
        monkeypatch.setattr(simulate, "default_block_size", lambda config: 16)
        cfg = small_config(snr_grid_db=(-30.0,), trials=100_000, max_bit_errors=70)
        point = run_simulation(cfg).points[0]
        used = math.ceil(point.trials / 16)
        assert calls == list(range(used))

    def test_pooled_sweep_stops_within_the_in_flight_window(self, monkeypatch):
        """With a pool, blocks past the stopping one run only inside the
        window of 2 * workers submitted blocks, and the point is the serial one."""
        calls = []

        def counting_job(payload):
            calls.append(payload[2])
            return _block_job(payload)

        monkeypatch.setattr(simulate, "default_block_size", lambda config: 16)
        cfg = small_config(snr_grid_db=(-30.0,), trials=100_000, max_bit_errors=70)
        serial = run_simulation(cfg).points[0]
        monkeypatch.setattr(simulate, "_block_job", counting_job)
        monkeypatch.setattr(simulate, "ProcessPoolExecutor", ThreadPoolExecutor)
        pooled = run_simulation(cfg, workers=2).points[0]
        used = math.ceil(pooled.trials / 16)
        assert (pooled.trials, pooled.bit_errors) == (serial.trials, serial.bit_errors)
        assert set(range(used)) <= set(calls) <= set(range(used + 2 * 2 - 1))

    def test_block_size_does_not_change_full_sweep(self, monkeypatch):
        """With the trial cap reached, block partitioning is irrelevant."""
        cfg = small_config(trials=2048, max_bit_errors=10**9)
        points = []
        for block in (256, 1024):
            monkeypatch.setattr(simulate, "default_block_size", lambda config, size=block: size)
            points.append(run_simulation(cfg).points[0])
        assert points[0].trials == points[1].trials == 2048

    def test_points_sorted_by_snr(self):
        cfg = small_config(snr_grid_db=(-6.0, -14.0, -10.0), trials=500)
        curve = run_simulation(cfg)
        assert [p.snr_db for p in curve.points] == [-14.0, -10.0, -6.0]

    def test_monotone_ber_with_enough_errors(self):
        cfg = small_config(
            n_elements=64,
            snr_grid_db=(-24.0, -22.0, -20.0),
            trials=80_000,
            max_bit_errors=600,
            seed=31,
        )
        curve = run_simulation(cfg)
        bers = [p.ber for p in curve.points]
        assert all(p.bit_errors >= 100 for p in curve.points)
        assert bers[0] > bers[1] > bers[2]

    def test_spatial_symbol_split_consistency(self):
        cfg = small_config(
            scheme="mux_psk", mod_order=4, combination_table=None,
            n_elements=16, n_rx=5, snr_grid_db=(-8.0,), trials=2000,
        )
        point = run_simulation(cfg).points[0]
        assert point.spatial_bit_errors + point.symbol_bit_errors == point.bit_errors

    def test_fingerprint_reflects_config_and_seed(self):
        a = run_simulation(small_config(trials=100))
        b = run_simulation(small_config(trials=100))
        c = run_simulation(small_config(trials=100, seed=7))
        assert a.fingerprint == b.fingerprint != c.fingerprint

    def test_block_counts_deterministic(self):
        cfg = small_config()
        assert _block_counts(cfg, -10.0, 3, 500) == _block_counts(cfg, -10.0, 3, 500)

    def test_block_counts_reuse_one_codebook(self, monkeypatch):
        """The blocks of one config build its codebook once; the config's
        explicit combination table is part of the cache key."""
        simulate._cached_codebook.cache_clear()
        codebooks = counting(monkeypatch, simulate, "Codebook")
        cfg = small_config()
        for block in range(4):
            _block_counts(cfg, -10.0, block, 64)
        assert len(codebooks) == 1

    def test_sweep_builds_one_metric_table(self, monkeypatch):
        """The blocks of every point of a sweep score with one search plan,
        whose metric table is built once."""
        simulate._cached_codebook.cache_clear()
        plans = counting(monkeypatch, detector, "_SearchPlan")
        monkeypatch.setattr(simulate, "default_block_size", lambda config: 64)
        cfg = small_config(
            scheme="mux_apsk", mod_order=8, ring_count=2, n_rx=5, combination_table=None,
            snr_grid_db=(-10.0, -4.0), trials=256,
        )
        curve = run_simulation(cfg)
        assert [p.trials for p in curve.points] == [256, 256]
        assert len(plans) == 1


# One small config per scheme, constellation, rate 13 and n_active = 3, with
# (snr_db, block_size) and the (trials, total, spatial, symbol) error counts
# of blocks 0 and 5.  The counts pin the sweep's draws and arithmetic: a
# change to either shows up here before it shows up in a curve.
GOLDEN_BLOCKS = [
    (dict(scheme="rgssk", n_elements=16, n_rx=4, mod_order=1, combination_table=TABLE_4X2),
     -16.0, 64, [(64, 21, 21, 0), (64, 17, 17, 0)]),
    (dict(scheme="diversity", n_elements=16, n_rx=4, mod_order=8,
          diversity_constellation="psk", combination_table=TABLE_4X2),
     -12.0, 64, [(64, 14, 7, 7), (64, 10, 2, 8)]),
    (dict(scheme="diversity", n_elements=16, n_rx=4, mod_order=16,
          diversity_constellation="qam", combination_table=TABLE_4X2),
     -8.0, 64, [(64, 16, 8, 8), (64, 15, 7, 8)]),
    (dict(scheme="diversity", n_elements=16, n_rx=4, mod_order=16,
          diversity_constellation="apsk", ring_count=4, combination_table=TABLE_4X2),
     -8.0, 64, [(64, 21, 7, 14), (64, 26, 7, 19)]),
    (dict(scheme="mux_psk", n_elements=16, n_rx=5, mod_order=4),
     -12.0, 64, [(64, 52, 27, 25), (64, 64, 34, 30)]),
    (dict(scheme="mux_apsk", n_elements=16, n_rx=5, mod_order=8, ring_count=2),
     -8.0, 64, [(64, 74, 33, 41), (64, 60, 26, 34)]),
    (dict(scheme="mux_psk", n_elements=64, n_rx=5, mod_order=32),
     -16.0, 16, [(16, 19, 0, 19), (16, 18, 0, 18)]),
    (dict(scheme="mux_apsk", n_elements=24, n_rx=6, n_active=3, mod_order=4, ring_count=2),
     -8.0, 64, [(64, 43, 24, 19), (64, 49, 28, 21)]),
]


def golden_config(kwargs):
    return SystemConfig(**{"n_active": 2, "seed": 2026, **kwargs}).validate()


@pytest.mark.parametrize(
    "kwargs,snr_db,size,expected",
    GOLDEN_BLOCKS,
    ids=["rgssk", "div-psk", "div-qam", "div-apsk", "mux-psk", "mux-apsk", "rate13", "n3-apsk"],
)
def test_block_counts_golden(kwargs, snr_db, size, expected):
    cfg = golden_config(kwargs)
    assert [_block_counts(cfg, snr_db, b, size) for b in (0, 5)] == expected


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(scheme="mux_psk", n_elements=64, n_rx=5, mod_order=8),
        dict(scheme="mux_apsk", n_elements=64, n_rx=5, mod_order=8, ring_count=2),
        dict(scheme="diversity", n_elements=64, n_rx=5, mod_order=64),
        dict(scheme="rgssk", n_elements=16, n_rx=4, mod_order=1, combination_table=TABLE_4X2),
        dict(scheme="mux_apsk", n_elements=48, n_rx=6, n_active=3, mod_order=4, ring_count=2),
    ],
    ids=["mux-psk", "mux-apsk", "diversity", "rgssk", "n3-apsk"],
)
def test_sweep_block_matches_per_trial_calls(kwargs):
    """A sweep block is the per-trial link model run on every trial at once."""
    cfg = golden_config(kwargs)
    cb = Codebook(cfg)
    snr_db, block_index, size = -22.0, 1, 24
    # the block's own draws, in the order _block_counts makes them
    rng = stream_rng(cfg.seed, _snr_stream_key(snr_db), block_index)
    bits = rng.integers(0, 2, size=(size, cfg.rate), dtype=np.uint8)
    codewords = cb.map_bits(bits)
    channel = sample_gains((size, cfg.n_rx, cfg.n_elements), rng)
    reflection = encode(codewords, channel, cfg)
    received = transmit(
        reflection, channel, snr_db, rng,
        carrier=codewords.carrier, symbol_energy=cfg.symbol_energy,
    )
    equiv = precompute_equivalent_channel(channel, cfg)
    hypotheses = hypothesis_matrix(equiv, cb)
    detected = ml_argmin(received, equiv, cb)
    assert np.array_equal(detected, dense_ml_argmin(received, hypotheses))
    counts = count_bit_errors(bits, int_to_bits(detected, cfg.rate), cfg.spatial_bits)
    assert (size, *counts) == _block_counts(cfg, snr_db, block_index, size)
    assert counts.total > 0

    noiseless = transmit(
        reflection, channel, float("inf"), None,
        carrier=codewords.carrier, symbol_energy=cfg.symbol_energy,
    )
    for t in range(size):
        cw = cb.map_bits(bits[t])
        ch = channel[t]
        refl = encode(cw, ch, cfg)
        assert np.array_equal(refl.coefficients, reflection.coefficients[t])
        clean = transmit(
            refl, ch, float("inf"), None, carrier=cw.carrier, symbol_energy=cfg.symbol_energy
        )
        assert np.allclose(clean, noiseless[t], rtol=1e-13, atol=0)
        eq = precompute_equivalent_channel(ch, cfg)
        assert np.array_equal(eq, equiv[t])
        assert np.array_equal(hypothesis_matrix(eq, cb), hypotheses[t])
        assert detect_ml(received[t], eq, cb).index == detected[t]


# trial and row tiles, per config: one row a tile, three rows a tile (both
# one trial a tile), and two or three trials a tile
TILE_KINDS = ("rows-1", "rows-3", "trials-2", "trials-3")


def shrink_tiles(monkeypatch, cb, kind, trials):
    """Set the tile budget so that a ``trials`` block of ``cb`` runs in ``kind``
    tiles, and check that it does."""
    cfg = cb.config
    per_trial = 48 * cfg.n_rx * cfg.n_elements + 8 * cb.size  # as trial_tiles counts
    budget = {
        "rows-1": 1,
        "rows-3": 3 * 8 * cb.symbols_per_row,
        "trials-2": 2 * per_trial,
        "trials-3": 3 * per_trial,
    }[kind]
    monkeypatch.setattr(detector, "_TILE_BYTES", budget)
    widest = max(len(range(trials)[tile]) for tile in trial_tiles(trials, cb))
    assert widest == {"trials-2": 2, "trials-3": 3}.get(kind, 1)
    rows_per_tile = budget // (8 * cb.symbols_per_row)
    assert rows_per_tile < cb.combinations.shape[0] or kind.startswith("trials")


@pytest.mark.parametrize("kind", TILE_KINDS)
def test_tiles_keep_golden_blocks(monkeypatch, kind):
    """Tiling the equivalent channel and the ML search changes no count."""
    for kwargs, snr_db, size, expected in GOLDEN_BLOCKS:
        cfg = golden_config(kwargs)
        with monkeypatch.context() as patch:
            shrink_tiles(patch, Codebook(cfg), kind, size)
            assert [_block_counts(cfg, snr_db, b, size) for b in (0, 5)] == expected


# the cases of test_sweep_block_matches_per_trial_calls
PER_TRIAL_CASES = next(
    mark.args[1]
    for mark in test_sweep_block_matches_per_trial_calls.pytestmark
    if mark.name == "parametrize"
)


@pytest.mark.parametrize("kind", TILE_KINDS)
@pytest.mark.parametrize("kwargs", PER_TRIAL_CASES)
def test_tiles_keep_per_trial_results(monkeypatch, kind, kwargs):
    """Under small budgets the block, the batched search and every per-trial
    detection still agree with each other and with the dense reference."""
    shrink_tiles(monkeypatch, Codebook(golden_config(kwargs)), kind, 24)
    test_sweep_block_matches_per_trial_calls(kwargs)


def block_peak(cfg, snr_db, size):
    """``tracemalloc`` peak of one ``_block_counts`` call, codebook built."""
    _block_counts(cfg, snr_db, 0, size)
    tracemalloc.start()
    try:
        _block_counts(cfg, snr_db, 1, size)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rate9_block_working_set():
    """A 976-trial rate-9 block, whose whole-block channel alone is 5 MB,
    peaks under 9 MB, where the untiled block took 12-13 MB."""
    cfg = golden_config(dict(scheme="mux_psk", n_elements=64, n_rx=5, mod_order=8))
    assert (cfg.rate, default_block_size(cfg)) == (9, 976)
    assert block_peak(cfg, -19.5, 976) <= 9e6


def test_rate15_block_working_set():
    """A rate-15 block, whose metric grid alone is 8 MiB, peaks under the
    tile budget plus the arrays that stay whole-block: the bits, the channel,
    the reflection coefficients and the received samples."""
    cfg = golden_config(dict(scheme="mux_psk", n_elements=64, n_rx=5, mod_order=64))
    trials = default_block_size(cfg)
    assert (cfg.rate, trials, trials * 8 * 2**cfg.rate) == (15, 32, 8 * 2**20)
    whole = trials * (cfg.rate + 16 * (cfg.n_rx * cfg.n_elements + cfg.n_elements + cfg.n_rx))
    assert block_peak(cfg, -10.0, trials) < detector._TILE_BYTES + whole


class RecordingPool(ThreadPoolExecutor):
    """A thread pool standing in for the process pool: it keeps every future,
    and per submit the number of blocks submitted and not yet received."""

    def __init__(self, workers):
        super().__init__(max_workers=workers)
        self.futures, self.windows, self.received = [], [], 0

    def submit(self, fn, *args):
        self.windows.append(len(self.futures) + 1 - self.received)
        self.futures.append(super().submit(fn, *args))
        return self.futures[-1]


class TestBlockStream:
    """``_block_results`` on a pool of 2 workers, so 4 blocks in flight;
    a payload is the block's index, and the job records which blocks start."""

    @pytest.fixture
    def pool(self):
        pool = RecordingPool(2)
        yield pool
        pool.shutdown(wait=True, cancel_futures=True)

    @pytest.fixture
    def gate(self, monkeypatch):
        """Blocks from 1 on wait until ``gate.open`` is set; block ``gate.fail``
        raises."""
        gate = SimpleNamespace(open=threading.Event(), started=[], fail=None)

        def job(index):
            gate.started.append(index)
            if index == gate.fail:
                raise RuntimeError(f"block {index}")
            if index >= 1:
                gate.open.wait(5.0)
            return index

        monkeypatch.setattr(simulate, "_block_job", job)
        yield gate
        gate.open.set()

    def test_results_in_block_order_within_the_window(self, pool, monkeypatch):
        def job(index):  # later blocks finish first
            time.sleep(0.001 * (12 - index))
            return index

        monkeypatch.setattr(simulate, "_block_job", job)
        results = []
        for result in _block_results(iter(range(12)), pool, 4):
            results.append(result)
            pool.received += 1
        assert results == list(range(12))
        assert max(pool.windows) == 4

    def test_close_cancels_the_queued_blocks(self, pool, gate):
        stream = _block_results(iter(range(100)), pool, 4)
        assert next(stream) == 0  # the stopping block
        stream.close()
        assert len(pool.futures) == 4
        assert pool.futures[3].cancelled()
        gate.open.set()
        pool.shutdown(wait=True)
        assert set(gate.started) <= {0, 1, 2}

    def test_block_exception_reaches_the_caller_and_cancels_the_rest(self, pool, gate):
        gate.fail = 1
        stream = _block_results(iter(range(100)), pool, 4)
        with pytest.raises(RuntimeError, match="block 1"):
            list(stream)
        assert len(pool.futures) == 5
        assert pool.futures[4].cancelled()
        gate.open.set()
        pool.shutdown(wait=True)
        assert 4 not in gate.started


class TestTheorySweep:
    def test_points_carry_bound_only(self):
        cfg = small_config(n_elements=64, snr_grid_db=(-20.0, -16.0))
        curve = run_theory(cfg)
        for p in curve.points:
            assert p.ber is None and p.theory_bound > 0 and p.flag == "theory"

    def test_merge_attaches_bounds(self):
        cfg = small_config(n_elements=64, snr_grid_db=(-20.0, -16.0), trials=2000)
        sim, theory = run_simulation(cfg), run_theory(cfg)
        merged = merge_theory(sim, theory)
        for p in merged.points:
            assert p.ber is not None and p.theory_bound is not None
        # every theory meta key rides along; the kind names the merge
        assert merged.meta == {**sim.meta, **theory.meta, "kind": "simulation+theory"}

    def test_larger_arrays_bound_lower(self):
        """Doubling the element count lowers the bound at every SNR."""
        grids = (-24.0, -20.0, -16.0)
        small = run_theory(small_config(n_elements=64, snr_grid_db=grids))
        big = run_theory(small_config(n_elements=128, snr_grid_db=grids))
        for a, b in zip(small.points, big.points):
            assert b.theory_bound < a.theory_bound


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` from now on."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def fresh_bound_hex(cfg):
    """Bounds of ``cfg``'s grid, each from a codebook built for that point."""
    return [
        union_bound_ber(Codebook(cfg), noise_variance(snr, cfg.symbol_energy)).value.hex()
        for snr in sorted(cfg.snr_grid_db)
    ]


class TestNoiseFreeWork:
    """The union bound's noise-free work is built once per codebook and
    lives on it."""

    @pytest.fixture(autouse=True)
    def empty_codebook_cache(self):
        simulate._cached_codebook.cache_clear()

    def test_one_build_per_sweep(self, monkeypatch):
        """A theory sweep builds its noise-free work once and no ML search plan."""
        signatures = counting(monkeypatch, theory_engine, "_row_pair_signatures")
        batches = counting(monkeypatch, theory_engine, "_slot_batch")
        plans = counting(monkeypatch, detector, "_SearchPlan")
        grid = tuple(float(s) for s in range(-26, -11))
        curve = run_theory(small_config(n_elements=64, snr_grid_db=grid))
        assert len(curve.points) == 15
        assert len(signatures) == len(batches) == 1
        assert plans == []

    def test_one_build_per_curve_of_a_manifest(self, monkeypatch, tmp_path):
        """A whole-grid compare builds one codebook and one batch per curve."""
        codebooks = counting(monkeypatch, simulate, "Codebook")
        batches = counting(monkeypatch, theory_engine, "_slot_batch")
        argv = ["compare", "--kind", "theory",
                "-c", str(CONFIG_DIR / "element_scaling.yaml"), "-o", str(tmp_path)]
        assert main(argv) == 0
        assert len(codebooks) == len(batches) == 3

    def test_memoized_bounds_equal_fresh_codebooks(self):
        cfg = small_config(n_elements=64, snr_grid_db=(-24.0, -18.0, -12.0))
        got = [p.theory_bound.hex() for p in run_theory(cfg).points]
        assert got == fresh_bound_hex(cfg)

    def test_element_counts_get_their_own_work(self):
        entries = load_manifest(CONFIG_DIR / "element_scaling.yaml").entries
        cfgs = [cfg.with_overrides(snr_grid_db=(-17.0, -11.0)) for _, cfg in entries]
        bounds = [[p.theory_bound.hex() for p in run_theory(cfg).points] for cfg in cfgs]
        assert len({b[0] for b in bounds}) == len(cfgs)
        assert bounds == [fresh_bound_hex(cfg) for cfg in cfgs]

    def test_symbol_energies_get_their_own_work(self):
        unit = small_config(
            scheme="mux_apsk", mod_order=8, ring_count=2, combination_table=None,
            n_rx=5, n_elements=64, snr_grid_db=(-16.0, -10.0),
        )
        double = unit.with_overrides(symbol_energy=2.0)
        bounds = [[p.theory_bound.hex() for p in run_theory(cfg).points] for cfg in (unit, double)]
        assert bounds == [fresh_bound_hex(unit), fresh_bound_hex(double)]
        n0 = noise_variance(-10.0)
        assert (
            union_bound_ber(simulate._cached_codebook(unit), n0).value
            != union_bound_ber(simulate._cached_codebook(double), n0).value
        )


def synthetic_curve(label, points):
    cfg = small_config()
    return BerCurve(
        label=label,
        config=cfg,
        points=[
            BerPoint(
                snr_db=s, trials=10_000_000, bit_errors=max(1000, int(b * 2e7)),
                spatial_bit_errors=0, symbol_bit_errors=0, ber=b,
            )
            for s, b in points
        ],
        fingerprint="x",
    )


class TestGapMeasurement:
    def test_crossing_interpolation(self):
        curve = synthetic_curve("a", [(-12.0, 1e-2), (-8.0, 1e-4)])
        snr, basis = snr_at_ber(curve, 1e-3)
        assert basis == "simulation"
        assert snr == pytest.approx(-10.0)

    def test_identical_curves_zero_gap(self):
        pts = [(-12.0, 1e-2), (-8.0, 1e-4)]
        a, b = synthetic_curve("a", pts), synthetic_curve("b", pts)
        ga, _ = snr_at_ber(a, 1e-3)
        gb, _ = snr_at_ber(b, 1e-3)
        assert ga - gb == 0.0

    def test_no_crossing_returns_none(self):
        curve = synthetic_curve("a", [(-12.0, 1e-2), (-8.0, 5e-3)])
        snr, _ = snr_at_ber(curve, 1e-5)
        assert snr is None

    def test_theory_fallback(self):
        cfg = small_config(n_elements=64, snr_grid_db=(-22.0, -18.0, -14.0))
        curve = run_theory(cfg)
        snr, basis = snr_at_ber(curve, 1e-3)
        assert basis == "theory"
        assert snr is not None


class TestCompare:
    def test_equal_rate_enforced(self):
        manifest = SweepManifest(
            entries=(
                ("a", small_config(scheme="mux_psk", mod_order=4, combination_table=None, n_rx=5, n_elements=64)),
                ("b", small_config(scheme="mux_psk", mod_order=8, combination_table=None, n_rx=5, n_elements=64)),
            )
        )
        with pytest.raises(ConfigError, match="equal-rate"):
            compare(manifest, kind="theory")

    @pytest.mark.parametrize("target", [0.0, -1.0, math.nan, 1.0, 2.0])
    def test_target_ber_outside_unit_interval(self, monkeypatch, target):
        """Refused before any curve runs."""
        monkeypatch.setattr(simulate, "run_theory", None)
        manifest = SweepManifest(entries=(("a", small_config()),))
        with pytest.raises(ConfigError, match="target_ber"):
            compare(manifest, kind="theory", target_ber=target)

    def test_theory_compare_produces_gaps(self):
        shared = dict(n_elements=64, snr_grid_db=(-26.0, -22.0, -18.0, -14.0))
        manifest = SweepManifest(
            entries=(
                ("n64", small_config(**shared)),
                ("n128", small_config(**{**shared, "n_elements": 128})),
            )
        )
        result = compare(manifest, kind="theory", mode="free", target_ber=1e-3)
        gap = result.gaps[0]
        assert gap.label_a == "n64" and gap.label_b == "n128"
        assert gap.gap_db == pytest.approx(6.0, abs=2.0)


class TestPersistence:
    def test_csv_schema(self, tmp_path):
        cfg = small_config(trials=500)
        curve = merge_theory(run_simulation(cfg), run_theory(cfg))
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + len(curve.points)
        assert rows[1][0] == "-12"

    def test_unreliable_flagging(self, tmp_path):
        curve = run_simulation(small_config(snr_grid_db=(40.0,), trials=200))
        path = tmp_path / "c.csv"
        write_curve_csv(curve, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["flag"] == "unreliable"
        assert rows[0]["ber"] == "0"

    def test_summary_json(self, tmp_path):
        curve = run_simulation(small_config(trials=300))
        path = tmp_path / "summary.json"
        write_summary_json([curve], path)
        payload = json.loads(path.read_text())
        entry = payload["curves"][0]
        assert entry["fingerprint"] == curve.fingerprint
        assert entry["config"]["scheme"] == "rgssk"
        assert entry["rate_bpcu"] == 2

    def test_plot_data_long_format(self, tmp_path):
        cfg = small_config(n_elements=64, snr_grid_db=(-20.0, -16.0))
        curves = [run_theory(cfg, label="one"), run_theory(cfg, label="two")]
        path = tmp_path / "plot.csv"
        write_plot_data(curves, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["label", "snr_db", "ber", "theory_bound"]
        assert len(rows) == 5

    def test_gap_report(self, tmp_path):
        shared = dict(n_elements=64, snr_grid_db=(-26.0, -22.0, -18.0, -14.0))
        manifest = SweepManifest(
            entries=(
                ("n64", small_config(**shared)),
                ("n128", small_config(**{**shared, "n_elements": 128})),
            )
        )
        result = compare(manifest, kind="theory", mode="free")
        path = tmp_path / "gaps.json"
        write_gap_report(result, path)
        payload = json.loads(path.read_text())
        assert payload["target_ber"] == 1e-3
        assert payload["gaps"][0]["label_a"] == "n64"
