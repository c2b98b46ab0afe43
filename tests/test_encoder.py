"""Tests for RIS reflection-vector construction across schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_rgsm import (
    Codebook,
    Codeword,
    EncodeError,
    SystemConfig,
    encode,
    sample_channel,
    stream_rng,
)


def make_config(**overrides):
    base = dict(scheme="mux_psk", n_elements=64, n_rx=5, n_active=2, mod_order=8, seed=2)
    base.update(overrides)
    return SystemConfig(**base).validate()


def group_sum(channel, reflection, antenna, group, n_active):
    """Reflected sum of one group at one antenna (1-based antenna)."""
    grouped = channel.group_view(n_active)
    blocks = reflection.group_view(n_active)
    return grouped[antenna - 1, group] @ blocks[group]


class TestDiversityEncoder:
    def test_constructive_sum_real_positive(self):
        cfg = make_config(scheme="rgssk", mod_order=1)
        cb = Codebook(cfg)
        ch = sample_channel(cfg, stream_rng(3, 0))
        cw = cb.codeword(2)
        refl = encode(cw, ch, cfg)
        for l, antenna in enumerate(cw.combination):
            value = group_sum(ch, refl, antenna, l, cfg.n_active)
            assert abs(value.imag) < 1e-9
            assert value.real > 0

    def test_mean_amplitude_sum(self):
        """Group sum at the steered antenna averages group_size*sqrt(pi)/2."""
        cfg = make_config(scheme="rgssk", mod_order=1, n_elements=128, n_rx=4)
        assert cfg.n_group == 64
        cb = Codebook(cfg)
        cw = cb.codeword(0)
        rng = stream_rng(17, 0)
        acc = 0.0
        draws = 10_000
        for _ in range(draws):
            ch = sample_channel(cfg, rng)
            refl = encode(cw, ch, cfg)
            acc += group_sum(ch, refl, cw.combination[0], 0, cfg.n_active).real
        assert abs(acc / draws - 32 * np.sqrt(np.pi)) < 0.5

    def test_non_selected_antenna_not_constructive(self):
        """Interference term has near-zero mean at a non-selected antenna."""
        cfg = make_config(scheme="rgssk", mod_order=1)
        cb = Codebook(cfg)
        cw = cb.codeword(0)
        others = [n for n in range(1, cfg.n_rx + 1) if n not in cw.combination]
        rng = stream_rng(23, 0)
        acc = 0.0 + 0.0j
        draws = 10_000
        for _ in range(draws):
            ch = sample_channel(cfg, rng)
            acc += group_sum(ch, encode(cw, ch, cfg), others[0], 0, cfg.n_active)
        assert abs(acc / draws) < 0.05 * np.sqrt(cfg.n_group)


class TestMuxPskEncoder:
    def test_zero_phase_matches_diversity(self):
        """With stagger off and zero phase bits the coefficients coincide."""
        psk = make_config(stagger=False)
        rgssk = make_config(scheme="rgssk", mod_order=1)
        ch = sample_channel(psk, stream_rng(4, 0))
        cw_psk = Codebook(psk).map_bits([0, 1, 1, 0, 0, 0, 0, 0, 0])
        cw_ref = Codebook(rgssk).map_bits([0, 1, 1])
        a = encode(cw_psk, ch, psk)
        b = encode(cw_ref, ch, rgssk)
        assert np.allclose(a.coefficients, b.coefficients)

    def test_constructive_phase_exact(self):
        """arg of the steered group sum equals the realized group phase."""
        cfg = make_config()
        cb = Codebook(cfg)
        ch = sample_channel(cfg, stream_rng(4, 0))
        for index in (5, 130, 389):
            cw = cb.codeword(index)
            refl = encode(cw, ch, cfg)
            for l, antenna in enumerate(cw.combination):
                value = group_sum(ch, refl, antenna, l, cfg.n_active)
                wrapped = np.angle(value * np.exp(-1j * cw.phases[l]))
                assert abs(wrapped) < 1e-9

    def test_stagger_offset_in_second_group(self):
        """Group 2 carries the extra half-phase-step rotation."""
        cfg = make_config(mod_order=8)
        cw = Codebook(cfg).map_bits([0] * 9)
        assert np.isclose(cw.phases[1] - cw.phases[0], np.pi / 8)


class TestMuxApskEncoder:
    def test_full_ring_matches_psk(self):
        """Outer-ring codewords reproduce the PSK encoder output."""
        apsk = make_config(scheme="mux_apsk", mod_order=8, ring_count=2)
        psk = make_config(mod_order=4)
        ch = sample_channel(apsk, stream_rng(6, 0))
        # phase bits 01 per group -> same phase index; ring bits 1 -> outer
        cw_apsk = Codebook(apsk).map_bits([0, 0, 0, 0, 1, 1, 0, 1, 1])
        cw_psk = Codebook(psk).map_bits([0, 0, 0, 0, 1, 0, 1])
        assert np.allclose(cw_apsk.phases, cw_psk.phases)
        a = encode(cw_apsk, ch, apsk)
        b = encode(cw_psk, ch, psk)
        assert np.allclose(a.coefficients, b.coefficients)

    def test_inner_ring_zero_count(self):
        """Inner ring leaves exactly half of each group dark."""
        cfg = make_config(scheme="mux_apsk", mod_order=8, ring_count=2)
        cb = Codebook(cfg)
        ch = sample_channel(cfg, stream_rng(6, 0))
        cw = cb.map_bits([0, 0, 0, 0, 0, 0, 0, 0, 0])  # both rings inner
        refl = encode(cw, ch, cfg)
        blocks = refl.group_view(cfg.n_active)
        for l in range(cfg.n_active):
            zeros = np.flatnonzero(np.abs(blocks[l]) == 0)
            assert list(zeros) == list(range(16, 32))

    def test_partial_sum_mean(self):
        """Steered partial sum averages active*sqrt(pi)/2 at the right phase."""
        cfg = make_config(scheme="mux_apsk", mod_order=8, ring_count=2, stagger=False)
        cb = Codebook(cfg)
        cw = cb.map_bits([0, 0, 0, 0, 1, 0, 0, 0, 0])  # group 1: phase index 1, inner ring
        rng = stream_rng(31, 0)
        acc = 0.0 + 0.0j
        draws = 10_000
        for _ in range(draws):
            ch = sample_channel(cfg, rng)
            refl = encode(cw, ch, cfg)
            acc += group_sum(ch, refl, cw.combination[0], 0, cfg.n_active)
        mean = acc / draws
        expected = cw.active[0] * np.sqrt(np.pi) / 2 * np.exp(1j * cw.phases[0])
        assert abs(mean - expected) < 0.5

    def test_off_ring_active_count_rejected(self):
        """A hand-built codeword whose ON count is no ring size is refused."""
        cfg = make_config(scheme="mux_apsk", mod_order=8, ring_count=2)
        cw = Codebook(cfg).codeword(0)
        ch = sample_channel(cfg, stream_rng(3, 0))
        for active in ((7, 32), (0, 16), (16, 48)):
            bad = Codeword(
                index=0, row=0, symbol_index=0, combination=cw.combination,
                symbols=cw.symbols, phases=cw.phases, active=np.array(active),
            )
            with pytest.raises(EncodeError, match="active counts"):
                encode(bad, ch, cfg)


SCHEME_CASES = [
    dict(scheme="mux_psk", mod_order=8),
    dict(scheme="mux_apsk", mod_order=8, ring_count=2),
    dict(scheme="diversity", mod_order=16),
    dict(scheme="rgssk", mod_order=1),
]


class TestSchemeProperties:
    @pytest.mark.parametrize("kwargs", SCHEME_CASES)
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_unit_or_zero_modulus(self, kwargs, data):
        cfg = make_config(**kwargs)
        cb = Codebook(cfg)
        index = data.draw(st.integers(min_value=0, max_value=cb.size - 1))
        draw_seed = data.draw(st.integers(min_value=0, max_value=2**31))
        ch = sample_channel(cfg, stream_rng(draw_seed, 0))
        refl = encode(cb.codeword(index), ch, cfg)
        moduli = np.abs(refl.coefficients)
        assert np.all((np.abs(moduli - 1.0) < 1e-12) | (moduli == 0.0))
        assert np.count_nonzero(moduli) == int(np.sum(refl.active))

    def test_psk_equals_apsk_outer_rings_only(self):
        """Nesting: PSK is APSK restricted to the outer ring (ring_count=1)."""
        psk = make_config(mod_order=4, stagger=False)
        cbp = Codebook(psk)
        ch = sample_channel(psk, stream_rng(8, 0))
        for index in range(0, cbp.size, 37):
            cw = cbp.codeword(index)
            refl = encode(cw, ch, psk)
            assert np.all(np.abs(refl.coefficients) > 0)
            assert np.all(refl.active == psk.n_group)

    def test_rgssk_equals_diversity_unit_symbol(self):
        """Nesting: RGSSK is the diversity scheme with a unit carrier."""
        rg = make_config(scheme="rgssk", mod_order=1)
        dv = make_config(scheme="diversity", mod_order=2)
        ch = sample_channel(rg, stream_rng(8, 0))
        cw_r = Codebook(rg).map_bits([1, 0, 1])
        cw_d = Codebook(dv).map_bits([1, 0, 1, 0])
        a = encode(cw_r, ch, rg)
        b = encode(cw_d, ch, dv)
        assert np.allclose(a.coefficients, b.coefficients)
