"""Tests for Rayleigh channel sampling, group layout, and stream determinism."""

import numpy as np
import pytest

from ris_rgsm import Codebook, SystemConfig, encode, sample_channel, stream_rng
from ris_rgsm import channel
from ris_rgsm.channel import sample_gains

CHUNK = channel._DRAW_CHUNK


def make_config(**overrides):
    base = dict(scheme="rgssk", n_elements=64, n_rx=4, n_active=2, seed=11)
    base.update(overrides)
    return SystemConfig(**base).validate()


class TestSampling:
    def test_shape_and_dtype(self):
        cfg = make_config()
        gains = sample_channel(cfg, stream_rng(cfg.seed, 0))
        assert gains.shape == (4, 64)
        assert gains.dtype == complex

    def test_amplitude_moments(self):
        """Rayleigh amplitude: mean sqrt(pi)/2, variance (4-pi)/4."""
        cfg = make_config(n_rx=16, n_elements=64)
        rng = stream_rng(1234, 0)
        beta = np.concatenate(
            [np.abs(sample_channel(cfg, rng)).ravel() for _ in range(1000)]
        )
        assert beta.size >= 1_000_000
        assert abs(beta.mean() - np.sqrt(np.pi) / 2) < 0.002
        assert abs(beta.var() - (4 - np.pi) / 4) < 0.002

    def test_unit_power(self):
        cfg = make_config(n_rx=16, n_elements=64)
        rng = stream_rng(77, 0)
        power = np.concatenate(
            [np.abs(sample_channel(cfg, rng).ravel()) ** 2 for _ in range(1000)]
        )
        assert abs(power.mean() - 1.0) < 0.005

    def test_group_view_layout(self):
        """Member k of group l (1-based) sits at 0-based column (l-1)*32 + k - 1:
        steering group 2 at antenna 2 cancels the phase of column 34 there."""
        cfg = make_config()
        gains = sample_channel(cfg, stream_rng(5, 0))
        cw = Codebook(cfg).codeword(0)
        assert tuple(cw.combination) == (1, 2)
        coefficient = encode(cw, gains, cfg).coefficients[34]
        assert np.isclose(coefficient, np.conj(gains[1, 34]) / np.abs(gains[1, 34]))


class TestDeterminism:
    def test_identical_keys_bit_identical(self):
        cfg = make_config()
        a = sample_channel(cfg, stream_rng(42, 3, 7))
        b = sample_channel(cfg, stream_rng(42, 3, 7))
        assert np.array_equal(a, b)

    def test_distinct_counters_differ(self):
        cfg = make_config()
        a = sample_channel(cfg, stream_rng(42, 3, 7))
        b = sample_channel(cfg, stream_rng(42, 3, 8))
        assert not np.allclose(a, b)

    def test_distinct_streams_differ(self):
        cfg = make_config()
        a = sample_channel(cfg, stream_rng(42, 3, 7))
        b = sample_channel(cfg, stream_rng(42, 4, 7))
        assert not np.allclose(a, b)

    @pytest.mark.parametrize(
        "shape",
        [(3, 5), (CHUNK,), (2, CHUNK), (3, 4, CHUNK // 4 + 1), (CHUNK + 7,)],
        ids=["below-chunk", "one-chunk", "two-chunks", "non-multiple", "chunk-plus-tail"],
    )
    def test_chunked_draw_is_the_whole_shape_draw(self, shape):
        """The chunked draw gives the bits of two whole-shape draws scaled by
        1/sqrt(2), and leaves the stream where those draws leave it."""
        rng, twin = stream_rng(7, 1, 2), stream_rng(7, 1, 2)
        gains = sample_gains(shape, rng)
        re, im = twin.standard_normal(shape), twin.standard_normal(shape)
        expected = (re + 1j * im) / np.sqrt(2.0)
        assert gains.shape == expected.shape and gains.tobytes() == expected.tobytes()
        assert rng.standard_normal(9).tobytes() == twin.standard_normal(9).tobytes()

    @pytest.mark.parametrize("shape", [(4, 6), (5, 7), (1,)])
    def test_small_chunks_keep_the_stream(self, shape, monkeypatch):
        """Many chunks per part, exact or with a tail: the same bits."""
        monkeypatch.setattr(channel, "_DRAW_CHUNK", 6)
        rng, twin = stream_rng(8, 0), stream_rng(8, 0)
        gains = sample_gains(shape, rng)
        re, im = twin.standard_normal(shape), twin.standard_normal(shape)
        assert gains.tobytes() == ((re + 1j * im) / np.sqrt(2.0)).tobytes()
        assert rng.standard_normal(5).tobytes() == twin.standard_normal(5).tobytes()
