"""Tests for the sweep engine, comparisons, and result persistence."""

import csv
import json
import math

import numpy as np
import pytest

from ris_rgsm import (
    ChannelMatrix,
    Codebook,
    ConfigError,
    SweepManifest,
    SystemConfig,
    compare,
    merge_theory,
    run_simulation,
    run_theory,
    snr_at_ber,
    write_curve_csv,
    write_gap_report,
    write_plot_data,
    write_summary_json,
)
from ris_rgsm.channel import sample_gains, stream_rng
from ris_rgsm.detector import (
    ReceivedVector,
    count_bit_errors,
    detect_ml,
    hypothesis_matrix,
    ml_argmin,
    precompute_equivalent_channel,
    transmit,
)
from ris_rgsm.encoder import encode
from ris_rgsm import simulate
from ris_rgsm.simulate import (
    BerCurve,
    BerPoint,
    CSV_HEADER,
    _block_counts,
    _block_job,
    _snr_stream_key,
    _wave_plan,
)

from _oracles import dense_ml_argmin

TABLE_4X2 = ((1, 3), (1, 4), (2, 3), (2, 4))


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
        """Serially, no block past the one that reaches the error cap runs,
        even when the cap falls inside a wave."""
        calls = []

        def counting_job(payload):
            calls.append(payload[2])
            return _block_job(payload)

        monkeypatch.setattr(simulate, "_block_job", counting_job)
        cfg = small_config(snr_grid_db=(-30.0,), trials=100_000, max_bit_errors=70)
        point = run_simulation(cfg, block_size=16).points[0]
        used = math.ceil(point.trials / 16)
        wave = next(w for w in _wave_plan(math.ceil(cfg.trials / 16)) if used - 1 in w)
        assert used < wave.stop
        assert calls == list(range(used))

    def test_block_size_does_not_change_full_sweep(self):
        """With the trial cap reached, block partitioning is irrelevant."""
        cfg = small_config(trials=2048, max_bit_errors=10**9)
        a = run_simulation(cfg, block_size=256).points[0]
        b = run_simulation(cfg, block_size=1024).points[0]
        assert a.trials == b.trials == 2048

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
    channel = ChannelMatrix(sample_gains((size, cfg.n_rx, cfg.n_elements), rng))
    reflection = encode(codewords, channel, cfg)
    received = transmit(
        reflection, channel, snr_db, rng,
        carrier=codewords.carrier, symbol_energy=cfg.symbol_energy,
    )
    equiv = precompute_equivalent_channel(channel, cfg)
    hypotheses = hypothesis_matrix(equiv, cb)
    detected = ml_argmin(received.samples, equiv, cb)
    assert np.array_equal(detected, dense_ml_argmin(received.samples, hypotheses))
    counts = count_bit_errors(bits, cb.bit_table[detected], cfg.spatial_bits)
    assert (size, *counts) == _block_counts(cfg, snr_db, block_index, size)
    assert counts.total > 0

    noiseless = transmit(
        reflection, channel, float("inf"), None,
        carrier=codewords.carrier, symbol_energy=cfg.symbol_energy,
    ).samples
    for t in range(size):
        cw = cb.map_bits(bits[t])
        ch = ChannelMatrix(channel.gains[t])
        refl = encode(cw, ch, cfg)
        assert np.array_equal(refl.coefficients, reflection.coefficients[t])
        clean = transmit(
            refl, ch, float("inf"), None, carrier=cw.carrier, symbol_energy=cfg.symbol_energy
        ).samples
        assert np.allclose(clean, noiseless[t], rtol=1e-13, atol=0)
        eq = precompute_equivalent_channel(ch, cfg)
        assert np.array_equal(eq.ring_tensor, equiv.ring_tensor[t])
        assert np.array_equal(eq.tensor, equiv.tensor[t])
        assert np.array_equal(hypothesis_matrix(eq, cb), hypotheses[t])
        rx = ReceivedVector(samples=received.samples[t], noise_var=received.noise_var)
        assert detect_ml(rx, eq, cb).index == detected[t]


class TestTheorySweep:
    def test_points_carry_bound_only(self):
        cfg = small_config(n_elements=64, snr_grid_db=(-20.0, -16.0))
        curve = run_theory(cfg)
        for p in curve.points:
            assert p.ber is None and p.theory_bound > 0 and p.flag == "theory"

    def test_merge_attaches_bounds(self):
        cfg = small_config(n_elements=64, snr_grid_db=(-20.0, -16.0), trials=2000)
        merged = merge_theory(run_simulation(cfg), run_theory(cfg))
        for p in merged.points:
            assert p.ber is not None and p.theory_bound is not None

    def test_larger_arrays_bound_lower(self):
        """Doubling the element count lowers the bound at every SNR."""
        grids = (-24.0, -20.0, -16.0)
        small = run_theory(small_config(n_elements=64, snr_grid_db=grids))
        big = run_theory(small_config(n_elements=128, snr_grid_db=grids))
        for a, b in zip(small.points, big.points):
            assert b.theory_bound < a.theory_bound


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
