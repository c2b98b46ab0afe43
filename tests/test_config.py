"""Tests for system parameterization, validation, and config loading."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_rgsm import ConfigError, Scheme, SystemConfig, load_config, load_manifest
from ris_rgsm.config import (
    _SNR_LIMIT_DB,
    _checked_label,
    _read_yaml,
    _snr_stream_key,
    config_from_mapping,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

RGSSK = {"scheme": "rgssk", "n_elements": 16, "n_rx": 4, "n_active": 2}


def make_config(**overrides):
    base = dict(
        scheme="mux_psk",
        n_elements=64,
        n_rx=5,
        n_active=2,
        mod_order=8,
        snr_grid_db=(0.0,),
        seed=1,
    )
    base.update(overrides)
    return SystemConfig(**base)


class TestDerivedQuantities:
    def test_spatial_bits_five_choose_two(self):
        """floor(log2 C(5,2)) = floor(log2 10) = 3."""
        cfg = make_config().validate()
        assert cfg.spatial_bits == 3
        assert cfg.n_combinations == 8

    def test_mux_rate_nine(self):
        """R = n_active*log2(M) + spatial bits = 2*3 + 3 = 9."""
        cfg = make_config(mod_order=8).validate()
        assert cfg.rate == 9

    def test_diversity_rate_nine(self):
        """R = log2(64) + 3 = 9 for the shared-symbol scheme."""
        cfg = make_config(scheme="diversity", mod_order=64).validate()
        assert cfg.rate == 9

    def test_rgssk_rate_is_spatial_only(self):
        cfg = make_config(scheme="rgssk", mod_order=1).validate()
        assert cfg.rate == cfg.spatial_bits == 3

    def test_rgssk_wide_array(self):
        """Spatial bits always derive from the configured array size."""
        cfg = make_config(scheme="rgssk", mod_order=1, n_rx=13, n_active=4, n_elements=64).validate()
        assert cfg.spatial_bits == 9

    def test_group_size(self):
        cfg = make_config().validate()
        assert cfg.n_group == 32

    def test_apsk_split(self):
        cfg = make_config(scheme="mux_apsk", mod_order=8, ring_count=2).validate()
        assert cfg.phase_order == 4


class TestValidation:
    def test_active_count_bound(self):
        with pytest.raises(ConfigError, match="n_active=3 exceeds floor"):
            make_config(n_rx=4, n_active=3, n_elements=63).validate()

    def test_elements_divisible(self):
        with pytest.raises(ConfigError, match="not divisible"):
            make_config(n_elements=65).validate()

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            make_config(seed=-1).validate()

    def test_mod_order_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            make_config(mod_order=6).validate()

    def test_ring_divides_group(self):
        with pytest.raises(ConfigError, match="does not divide"):
            make_config(
                scheme="mux_apsk", n_elements=24, n_rx=5, n_active=2,
                mod_order=16, ring_count=8,
            ).validate()

    def test_ring_only_for_apsk(self):
        with pytest.raises(ConfigError, match="ring_count"):
            make_config(ring_count=2).validate()

    def test_diversity_apsk_needs_rings(self):
        with pytest.raises(ConfigError, match="ring_count"):
            make_config(
                scheme="diversity", mod_order=64, diversity_constellation="apsk"
            ).validate()

    def test_diversity_apsk_valid(self):
        cfg = make_config(
            scheme="diversity", mod_order=64,
            diversity_constellation="apsk", ring_count=8,
        ).validate()
        assert cfg.phase_order == 8

    def test_unknown_diversity_constellation(self):
        with pytest.raises(ConfigError, match="diversity_constellation"):
            make_config(
                scheme="diversity", mod_order=16, diversity_constellation="star"
            ).validate()

    @pytest.mark.parametrize(
        "mod_order,kind,message",
        [
            (8, "qam", "diversity qam needs a square mod_order"),
            (2, "qam", "diversity qam needs a square mod_order"),
            (32, "qam", "diversity qam needs a square mod_order"),
            (32, None, "not square; set diversity_constellation explicitly"),
        ],
    )
    def test_diversity_qam_needs_square_order(self, mod_order, kind, message):
        """Square QAM, explicit or the default above order 8, needs an even
        power-of-two order; validate refuses the others before any run."""
        with pytest.raises(ConfigError, match=message):
            make_config(
                scheme="diversity", mod_order=mod_order, diversity_constellation=kind
            ).validate()

    @pytest.mark.parametrize("mod_order,kind", [(4, "qam"), (16, "qam"), (8, None), (16, None)])
    def test_diversity_square_qam_valid(self, mod_order, kind):
        make_config(
            scheme="diversity", mod_order=mod_order, diversity_constellation=kind
        ).validate()

    def test_rgssk_no_modulation(self):
        with pytest.raises(ConfigError, match="mod_order must be 1"):
            make_config(scheme="rgssk", mod_order=4).validate()

    def test_explicit_table_cardinality(self):
        with pytest.raises(ConfigError, match="rows"):
            make_config(combination_table=((1, 2), (1, 3))).validate()

    def test_explicit_table_duplicates(self):
        table = tuple((1, 2) for _ in range(8))
        with pytest.raises(ConfigError, match="duplicate|ascending"):
            make_config(combination_table=table).validate()

    def test_explicit_table_range(self):
        table = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 9))
        with pytest.raises(ConfigError, match="out-of-range"):
            make_config(combination_table=table).validate()

    def test_explicit_table_ordering(self):
        table = ((1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (4, 3))
        with pytest.raises(ConfigError, match="ascending"):
            make_config(combination_table=table).validate()

    @pytest.mark.parametrize("entry", [1.5, 1.0, True, "1"])
    def test_explicit_table_non_integral(self, entry):
        table = ((entry, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5))
        with pytest.raises(ConfigError, match="combination_table"):
            make_config(combination_table=table).validate()

    def test_explicit_table_numpy_integers(self):
        table = np.array([(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)])
        cfg = make_config(combination_table=table).validate()
        assert cfg.combination_table[7] == (3, 4)
        assert all(type(a) is int for row in cfg.combination_table for a in row)

    @pytest.mark.parametrize("energy", [float("nan"), float("inf")])
    def test_non_finite_symbol_energy(self, energy):
        with pytest.raises(ConfigError, match="symbol_energy"):
            make_config(symbol_energy=energy).validate()

    @pytest.mark.parametrize("grid", [(float("nan"), 0.0), (float("inf"),), (0.0, -float("inf"))])
    def test_non_finite_snr(self, grid):
        with pytest.raises(ConfigError, match="snr_db"):
            make_config(snr_grid_db=grid).validate()

    @pytest.mark.parametrize(
        "grid", [(4000.0,), (0.0, -4000.0), (_SNR_LIMIT_DB + 1e-9,), (-_SNR_LIMIT_DB - 1e-9,)]
    )
    def test_snr_beyond_limit(self, grid):
        with pytest.raises(ConfigError, match="snr_db values must lie within"):
            make_config(snr_grid_db=grid).validate()

    def test_snr_limit_admits_noiseless_warmup(self):
        grid = (-_SNR_LIMIT_DB, 200.0, _SNR_LIMIT_DB)
        assert make_config(snr_grid_db=grid).validate().snr_grid_db == grid

    @pytest.mark.parametrize(
        "grid", [(1.0001, 1.0004), (3.0, -2.0, 3.0), (0.0, -0.0), (-2.0, -1.9996, -2.0004)]
    )
    def test_snr_points_sharing_random_streams(self, grid):
        with pytest.raises(ConfigError, match="same 0.001 dB step"):
            make_config(snr_grid_db=grid).validate()

    def test_snr_points_a_step_apart(self):
        grid = (1.0, 1.001, -1.0, -1.001, _SNR_LIMIT_DB, -_SNR_LIMIT_DB)
        assert len({_snr_stream_key(snr) for snr in grid}) == len(grid)
        make_config(snr_grid_db=grid).validate()

    def test_numpy_integers_accepted(self):
        cfg = make_config(n_rx=np.int64(5), seed=np.uint32(7)).validate()
        assert cfg.rate == 9

    def test_stagger_defaults(self):
        assert make_config().validate().stagger_enabled
        assert not make_config(scheme="rgssk", mod_order=1).validate().stagger_enabled
        assert not make_config(stagger=False).validate().stagger_enabled


class TestFingerprint:
    def test_stable_across_instances(self):
        assert make_config().fingerprint("v") == make_config().fingerprint("v")

    def test_sensitive_to_seed(self):
        assert make_config(seed=1).fingerprint() != make_config(seed=2).fingerprint()


class TestConfigFiles:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_libyaml_loader_reads_configs_alike(self, path):
        text = path.read_text(encoding="utf-8")
        data = yaml.load(text, Loader=yaml.SafeLoader)
        assert yaml.load(text, Loader=yaml.CSafeLoader) == data
        assert _read_yaml(path) == data

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "scheme: mux_apsk\nn_elements: 64\nn_rx: 5\nn_active: 2\n"
            "mod_order: 8\nring_count: 2\nsnr_db: [-12, -10]\nseed: 3\n"
        )
        cfg = load_config(path)
        assert cfg.scheme is Scheme.MUX_APSK
        assert cfg.snr_grid_db == (-12.0, -10.0)

    def test_snr_range_form(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "scheme: rgssk\nn_elements: 16\nn_rx: 4\nn_active: 2\n"
            "snr_db: {start: -4, stop: 0, step: 2}\n"
        )
        assert load_config(path).snr_grid_db == (-4.0, -2.0, -0.0)

    @pytest.mark.parametrize(
        "grid,expected",
        [
            ("{start: 0, stop: 1, step: 0.6}", (0.0, 0.6)),
            ("{start: 0, stop: 0.3, step: 0.1}", (0.0, 0.1, 0.2, 0.30000000000000004)),
            ("{start: -17, stop: -4, step: 1}", tuple(float(v) for v in range(-17, -3))),
        ],
    )
    def test_snr_range_stops_at_stop(self, tmp_path, grid, expected):
        """The range ends at the last step not past ``stop``."""
        path = tmp_path / "cfg.yaml"
        path.write_text(
            f"scheme: rgssk\nn_elements: 16\nn_rx: 4\nn_active: 2\nsnr_db: {grid}\n"
        )
        assert load_config(path).snr_grid_db == expected

    @pytest.mark.parametrize(
        "grid",
        [
            "[.nan, 0]",
            "[.inf]",
            "{start: 0, stop: .inf, step: 1}",
            "{start: -.inf, stop: 0, step: 1}",
            "{start: 0, stop: 1, step: .nan}",
        ],
    )
    def test_non_finite_snr_in_file(self, tmp_path, grid):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            f"scheme: rgssk\nn_elements: 16\nn_rx: 4\nn_active: 2\nsnr_db: {grid}\n"
        )
        with pytest.raises(ConfigError, match="snr_db"):
            load_config(path)

    @pytest.mark.parametrize(
        "grid", ["{start: -4000, stop: 0, step: 1000}", "{start: 1, stop: 1.001, step: 0.0002}"]
    )
    def test_snr_range_past_limit_or_finer_than_streams(self, tmp_path, grid):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            f"scheme: rgssk\nn_elements: 16\nn_rx: 4\nn_active: 2\nsnr_db: {grid}\n"
        )
        with pytest.raises(ConfigError, match="snr_db values"):
            load_config(path)

    def test_fine_snr_range_refused_before_its_points(self, tmp_path):
        """A million-point range inside 1 dB is refused from its first and last
        point alone, without building the points."""
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "scheme: rgssk\nn_elements: 16\nn_rx: 4\nn_active: 2\n"
            "snr_db: {start: 0, stop: 1, step: 0.000001}\n"
        )
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="same 0.001 dB step"):
                load_config(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_widest_finest_snr_range_accepted(self):
        grid = config_from_mapping(dict(RGSSK, snr_db={"start": -300, "stop": 300, "step": 0.001}))
        assert len(grid.snr_grid_db) == 600_001

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.one_of(st.floats(-301, 301), st.floats(299, 301), st.floats(-301, -299)),
        span=st.floats(0, 2),
        step=st.one_of(st.floats(0.0005, 0.01), st.sampled_from([0.001, 0.002, 0.1])),
    )
    def test_snr_range_refusals_match_validate(self, start, span, step):
        """A range is refused before its points are built exactly when
        validate would refuse the built points."""
        raw = {"start": start, "stop": start + span, "step": step}
        count = math.floor((raw["stop"] - start) / step + 1e-9) + 1
        points = tuple(start + i * step for i in range(count))
        try:
            SystemConfig(**RGSSK, snr_grid_db=points).validate()
        except ConfigError:
            with pytest.raises(ConfigError, match="snr_db values"):
                config_from_mapping(dict(RGSSK, snr_db=raw))
        else:
            assert config_from_mapping(dict(RGSSK, snr_db=raw)).snr_grid_db == points

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("scheme: rgssk\nn_elements: 16\nn_rx: 4\nn_active: 2\nbogus: 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_explicit_table_from_file(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "scheme: rgssk\nn_elements: 64\nn_rx: 4\nn_active: 2\nsnr_db: [0]\n"
            "combination_table: [[1,3],[1,4],[2,3],[2,4]]\n"
        )
        cfg = load_config(path)
        assert cfg.combination_table == ((1, 3), (1, 4), (2, 3), (2, 4))

    def test_manifest(self, tmp_path):
        path = tmp_path / "manifest.yaml"
        path.write_text(
            "n_elements: 64\nn_rx: 5\nn_active: 2\nsnr_db: [0]\nseed: 9\n"
            "curves:\n"
            "  - {label: psk, scheme: mux_psk, mod_order: 8}\n"
            "  - {label: apsk, scheme: mux_apsk, mod_order: 8, ring_count: 2}\n"
        )
        manifest = load_manifest(path)
        assert [label for label, _ in manifest.entries] == ["psk", "apsk"]
        assert all(cfg.seed == 9 for _, cfg in manifest.entries)
        assert {cfg.rate for _, cfg in manifest.entries} == {9}

    def test_manifest_duplicate_labels(self, tmp_path):
        path = tmp_path / "manifest.yaml"
        path.write_text(
            "n_elements: 64\nn_rx: 5\nn_active: 2\nsnr_db: [0]\n"
            "curves:\n"
            "  - {label: a, scheme: mux_psk, mod_order: 8}\n"
            "  - {label: a, scheme: mux_psk, mod_order: 4}\n"
        )
        with pytest.raises(ConfigError, match="unique"):
            load_manifest(path)

    @pytest.mark.parametrize("label", ["", ".", "..", "../escaped", "a/b", "a\\b", "/abs"])
    def test_manifest_label_must_be_a_file_name(self, tmp_path, label):
        path = tmp_path / "manifest.yaml"
        path.write_text(
            "n_elements: 64\nn_rx: 5\nn_active: 2\nsnr_db: [0]\n"
            f"curves:\n  - {{label: '{label}', scheme: mux_psk, mod_order: 8}}\n"
        )
        with pytest.raises(ConfigError, match="label"):
            load_manifest(path)

    def test_label_byte_limit(self):
        """A label fits while its longest output name, ``<label>_theory.csv``,
        fits in 255 bytes: 244 bytes of label, counted in UTF-8."""
        for fits in ("x" * 244, "é" * 122):
            assert _checked_label(fits) == fits
        for too_long in ("x" * 245, "é" * 123):
            with pytest.raises(ConfigError, match="at most 255 bytes"):
                _checked_label(too_long)
