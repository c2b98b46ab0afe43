"""Tests for combination tables, labelings, constellations, and codebooks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_rgsm import Codebook, ConfigError, SystemConfig, build_combination_table
from ris_rgsm.mapping import (
    gray_decode,
    gray_encode,
    int_to_bits,
    psk_constellation,
    qam_constellation,
    ring_constellation,
    stagger_offsets,
)

TABLE_4X2 = ((1, 3), (1, 4), (2, 3), (2, 4))


def make_config(**overrides):
    base = dict(
        scheme="mux_psk", n_elements=64, n_rx=5, n_active=2, mod_order=8, seed=1
    )
    base.update(overrides)
    return SystemConfig(**base).validate()


class TestGrayCode:
    @given(st.integers(min_value=0, max_value=4095))
    def test_roundtrip(self, value):
        assert gray_decode(gray_encode(value)) == value

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 32])
    def test_adjacent_indices_differ_in_one_bit(self, order):
        """Cyclic Gray property over the phase wheel."""
        for k in range(order):
            a = gray_encode(k)
            b = gray_encode((k + 1) % order)
            assert bin(a ^ b).count("1") == 1


class TestCombinationTables:
    def test_lexicographic_4x2(self):
        cfg = make_config(n_rx=4, mod_order=4)
        table = build_combination_table(cfg)
        assert [tuple(r) for r in table] == [(1, 2), (1, 3), (1, 4), (2, 3)]

    def test_lexicographic_5x2(self):
        """First 8 of the C(5,2)=10 lexicographic enumeration."""
        table = build_combination_table(make_config())
        rows = [tuple(r) for r in table]
        assert len(rows) == 8
        assert rows[0] == (1, 2)
        assert rows == sorted(rows)
        assert rows[-1] == (3, 4)

    def test_explicit_table(self):
        cfg = make_config(n_rx=4, mod_order=4, combination_table=TABLE_4X2)
        table = build_combination_table(cfg)
        assert [tuple(r) for r in table] == list(TABLE_4X2)


class TestConstellations:
    @pytest.mark.parametrize("order", [2, 4, 8, 16])
    def test_psk_unit_modulus(self, order):
        points = psk_constellation(order)
        assert np.allclose(np.abs(points), 1.0)
        assert len(set(np.round(points, 9))) == order

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_qam_unit_average_energy(self, order):
        points = qam_constellation(order)
        assert np.isclose(np.mean(np.abs(points) ** 2), 1.0)

    def test_qam_gray_neighbors(self):
        """Nearest constellation neighbors differ in exactly one bit."""
        points = qam_constellation(16)
        for label, point in enumerate(points):
            dist = np.abs(points - point)
            dist[label] = np.inf
            nearest = int(np.argmin(dist))
            assert bin(label ^ nearest).count("1") == 1

    def test_psk_gray_neighbors(self):
        points = psk_constellation(8)
        for label, point in enumerate(points):
            dist = np.abs(points - point)
            dist[label] = np.inf
            nearest = int(np.argmin(dist))
            assert bin(label ^ nearest).count("1") == 1

    def test_ring_constellation_radii_and_energy(self):
        points = ring_constellation(64, 8)
        assert np.isclose(np.mean(np.abs(points) ** 2), 1.0)
        radii = np.unique(np.round(np.abs(points), 9))
        assert radii.size == 8
        # uniformly increasing radii: constant spacing between rings
        steps = np.diff(radii)
        assert np.allclose(steps, steps[0])

    def test_ring_constellation_labels(self):
        """Low label bits are the natural ring index, high bits Gray phases."""
        points = ring_constellation(16, 4)
        inner = points[0b0000]
        outer = points[0b0011]
        assert np.abs(outer) == pytest.approx(4 * np.abs(inner))
        assert np.angle(inner) == pytest.approx(np.angle(outer))


class TestStagger:
    def test_two_group_offset_is_half_phase_step(self):
        """Second group shifts by pi/phase_order when two groups stagger."""
        cfg = make_config(scheme="mux_apsk", mod_order=8, ring_count=2)
        offsets = stagger_offsets(cfg)
        assert offsets[0] == 0.0
        assert np.isclose(offsets[1], np.pi / cfg.phase_order)

    def test_psk_offset(self):
        cfg = make_config(mod_order=8)
        assert np.isclose(stagger_offsets(cfg)[1], np.pi / 8)

    def test_disabled_for_non_mux(self):
        cfg = make_config(scheme="rgssk", mod_order=1)
        assert np.all(stagger_offsets(cfg) == 0.0)


class TestCodebook:
    def test_size_is_two_to_rate(self):
        for kwargs in (
            dict(scheme="mux_psk", mod_order=8),
            dict(scheme="mux_apsk", mod_order=8, ring_count=2),
            dict(scheme="diversity", mod_order=64),
            dict(scheme="rgssk", mod_order=1),
        ):
            cfg = make_config(**kwargs)
            assert Codebook(cfg).size == 1 << cfg.rate

    def test_rgssk_explicit_table_row(self):
        """Spatial bits '10' select the third table row with unit symbols."""
        cfg = make_config(
            scheme="rgssk", mod_order=1, n_rx=4, combination_table=TABLE_4X2
        )
        cw = Codebook(cfg).map_bits([1, 0])
        assert cw.combination == (2, 3)
        assert np.allclose(cw.symbols, 1.0)

    def test_table_inverse_spatial_bits(self):
        cfg = make_config(
            scheme="rgssk", mod_order=1, n_rx=4, combination_table=TABLE_4X2
        )
        cb = Codebook(cfg)
        for bits, combo in [((0, 0), (1, 3)), ((0, 1), (1, 4)), ((1, 1), (2, 4))]:
            cw = cb.map_bits(bits)
            assert cw.combination == combo
            assert tuple(cb.unmap(cw)) == bits

    def test_psk_zero_phase_label(self):
        """All-zero phase bits give the unrotated unit symbol."""
        cfg = make_config(stagger=False)
        cw = Codebook(cfg).map_bits([0] * 9)
        assert np.allclose(cw.symbols, 1.0)
        assert np.all(cw.active == cfg.n_group)

    def test_apsk_ring_mapping(self):
        """Ring labels scale the ON count: ring 1 -> half the group, ring 2 -> all."""
        cfg = make_config(scheme="mux_apsk", mod_order=8, ring_count=2, stagger=False)
        cb = Codebook(cfg)
        # last bit of each 3-bit block is the ring label
        inner = cb.map_bits([0, 0, 0, 0, 0, 0, 0, 0, 0])
        outer = cb.map_bits([0, 0, 0, 0, 0, 1, 0, 0, 1])
        assert list(inner.active) == [16, 16]
        assert list(outer.active) == [32, 32]
        assert np.allclose(np.abs(inner.symbols), 0.5)
        assert np.allclose(np.abs(outer.symbols), 1.0)

    def test_equivalent_symbol_modulus(self):
        """|s| = sqrt(Es) * rho for every codeword of every scheme."""
        for kwargs, moduli in [
            (dict(scheme="mux_psk", mod_order=8), {1.0}),
            (dict(scheme="mux_apsk", mod_order=8, ring_count=2), {0.5, 1.0}),
            (dict(scheme="rgssk", mod_order=1), {1.0}),
        ]:
            cfg = make_config(symbol_energy=4.0, **kwargs)
            cb = Codebook(cfg)
            seen = set(np.round(np.abs(cb.group_symbols), 9).ravel())
            assert seen == {2.0 * m for m in moduli}

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scheme="mux_psk", mod_order=8),  # rate 9
            dict(scheme="mux_apsk", mod_order=8, ring_count=2),
            dict(scheme="mux_psk", mod_order=16),  # rate 11
            dict(scheme="diversity", mod_order=64),
            dict(scheme="diversity", mod_order=16),
            dict(scheme="rgssk", mod_order=1, n_rx=7, n_active=2),
        ],
    )
    def test_bit_mapping_bijection(self, kwargs):
        """map/unmap round-trips every codeword in the codebook."""
        cb = Codebook(make_config(**kwargs))
        rate = cb.config.rate
        assert rate <= 12
        for index in range(cb.size):
            bits = int_to_bits(index, rate)
            cw = cb.map_bits(bits)
            assert cw.index == index
            assert np.array_equal(cb.unmap(cw), bits)

    def test_bits_length_checked(self):
        cb = Codebook(make_config())
        with pytest.raises(ConfigError, match="bits"):
            cb.map_bits([0, 1])

    def test_vectorized_indices_match_scalar(self):
        cb = Codebook(make_config(scheme="mux_apsk", mod_order=8, ring_count=2))
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(64, cb.config.rate), dtype=np.uint8)
        batch = cb.map_bits(bits)
        assert batch.combination.shape == (64, cb.config.n_active)
        for k in range(64):
            cw = cb.map_bits(bits[k])
            assert (cw.index, cw.row, cw.symbol_index) == (
                batch.index[k], batch.row[k], batch.symbol_index[k]
            )
            assert cw.combination == tuple(batch.combination[k])
            assert np.array_equal(cw.phases, batch.phases[k])
            assert np.array_equal(cw.active, batch.active[k])
            assert cw.carrier == batch.carrier[k]
        assert np.array_equal(cb.unmap(batch), bits)

    def test_diversity_carrier_matches_symbols(self):
        cb = Codebook(make_config(scheme="diversity", mod_order=64))
        assert np.allclose(cb.group_symbols[:, 0], cb.carriers)
        assert np.allclose(cb.group_symbols[:, 0], cb.group_symbols[:, 1])

    def test_label_symbols_split_every_symbol(self):
        """Group l of symbol i sends what ``label_symbols[q, l]`` sends there,
        q being group l's bits of i's label (first group most significant)."""
        cfg = make_config(
            scheme="mux_apsk", n_rx=6, n_active=3, n_elements=48, mod_order=4, ring_count=2
        )
        cb = Codebook(cfg)
        bits = cfg.symbol_bits
        labels = int_to_bits(np.arange(cb.symbols_per_row), cfg.n_active * bits)
        q = labels.reshape(-1, cfg.n_active, bits) @ (1 << np.arange(bits - 1, -1, -1))
        groups = np.arange(cfg.n_active)
        split = cb.group_symbols[cb.label_symbols[q, groups], groups]
        assert np.array_equal(split, cb.group_symbols)
        assert not np.any(cb.label_symbols[0])

    @given(st.integers(min_value=0, max_value=511))
    @settings(max_examples=40, deadline=None)
    def test_wave_and_ring_reconstruct_symbol(self, index):
        """group_symbols = group_waves * (ring fraction) for every codeword."""
        cb = Codebook(make_config(scheme="mux_apsk", mod_order=8, ring_count=2))
        cw = cb.codeword(index)
        rho = cb.group_active[cw.symbol_index] / cb.config.n_group
        reconstructed = cb.group_waves[cw.symbol_index] * rho
        assert np.allclose(reconstructed, cw.symbols)
