"""Tests for signal synthesis, equivalent channel, and ML detection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_rgsm import (
    ChannelMatrix,
    Codebook,
    SystemConfig,
    count_bit_errors,
    detect_ml,
    encode,
    noise_variance,
    precompute_equivalent_channel,
    sample_channel,
    stream_rng,
    transmit,
)
from ris_rgsm.channel import sample_gains
from ris_rgsm.detector import EquivalentChannel, ReceivedVector, hypothesis_matrix, ml_argmin
from ris_rgsm.encoder import ReflectionVector
from ris_rgsm.simulate import default_block_size

from _oracles import dense_ml_argmin


def make_config(**overrides):
    base = dict(scheme="mux_psk", n_elements=64, n_rx=5, n_active=2, mod_order=8, seed=2)
    base.update(overrides)
    return SystemConfig(**base).validate()


class TestTransmit:
    def test_noiseless_limit(self):
        """Infinite SNR leaves exactly the reflected signal."""
        cfg = make_config()
        cb = Codebook(cfg)
        ch = sample_channel(cfg, stream_rng(1, 0))
        cw = cb.codeword(77)
        refl = encode(cw, ch, cfg)
        rx = transmit(refl, ch, float("inf"), stream_rng(1, 1), carrier=cw.carrier)
        assert rx.noise_var == 0.0
        assert np.allclose(rx.samples, ch.gains @ refl.coefficients)

    def test_noise_only_variance(self):
        """A dark RIS leaves pure noise with per-antenna variance N0."""
        cfg = make_config()
        dark = ReflectionVector(
            coefficients=np.zeros(cfg.n_elements, dtype=complex),
            phases=np.zeros(cfg.n_active),
            active=np.zeros(cfg.n_active, dtype=np.int64),
        )
        ch = sample_channel(cfg, stream_rng(1, 0))
        rng = stream_rng(1, 2)
        snr_db = 3.0
        samples = np.concatenate(
            [transmit(dark, ch, snr_db, rng).samples for _ in range(4000)]
        )
        n0 = noise_variance(snr_db)
        assert abs(np.mean(np.abs(samples) ** 2) - n0) < 0.02 * n0

    def test_noise_variance_definition(self):
        assert np.isclose(noise_variance(0.0), 1.0)
        assert np.isclose(noise_variance(10.0), 0.1)
        assert np.isclose(noise_variance(-10.0, symbol_energy=2.0), 20.0)

    def test_diversity_selected_antenna_clusters(self):
        """Selected antennas see about group_size*sqrt(pi)/2 at high SNR."""
        cfg = make_config(scheme="diversity", mod_order=2)
        cb = Codebook(cfg)
        cw = cb.map_bits([0, 0, 0, 0])  # carrier +1
        rng = stream_rng(9, 0)
        values = []
        for _ in range(2000):
            ch = sample_channel(cfg, rng)
            rx = transmit(encode(cw, ch, cfg), ch, 40.0, rng, carrier=cw.carrier)
            values.append(rx.samples[cw.combination[0] - 1].real)
        expected = cfg.n_group * np.sqrt(np.pi) / 2
        assert abs(np.mean(values) - expected) < 0.5


class TestEquivalentChannel:
    def test_steered_entries_real_positive(self):
        """Phase cancellation: the steered entry is the amplitude sum."""
        cfg = make_config()
        ch = sample_channel(cfg, stream_rng(2, 0))
        eq = precompute_equivalent_channel(ch, cfg)
        grouped = ch.amplitude.reshape(cfg.n_rx, cfg.n_active, cfg.n_group)
        for n in range(cfg.n_rx):
            for i in range(cfg.n_active):
                entry = eq.tensor[n, i, n]
                assert abs(entry.imag) < 1e-9
                assert np.isclose(entry.real, grouped[n, i].sum())

    def test_cross_entries_zero_mean_unit_variance_per_element(self):
        """Off-target entries are sums of group_size random phasors."""
        cfg = make_config()
        rng = stream_rng(2, 1)
        values = []
        for _ in range(10_000):
            ch = sample_channel(cfg, rng)
            eq = precompute_equivalent_channel(ch, cfg)
            values.append(eq.tensor[0, 0, 1])
        values = np.array(values)
        assert abs(values.mean()) < 0.05 * np.sqrt(cfg.n_group)
        assert abs(values.real.var() - cfg.n_group / 2) < 0.05 * cfg.n_group
        assert abs(values.imag.var() - cfg.n_group / 2) < 0.05 * cfg.n_group

    def test_response_reproduces_noiseless_psk_transmit(self):
        """Ring-matched response equals the physical signal (full rings)."""
        cfg = make_config()
        cb = Codebook(cfg)
        ch = sample_channel(cfg, stream_rng(2, 2))
        eq = precompute_equivalent_channel(ch, cfg)
        for index in (0, 99, 475):
            cw = cb.codeword(index)
            rx = transmit(encode(cw, ch, cfg), ch, float("inf"), stream_rng(0, 0))
            waves = cb.group_waves[cw.symbol_index]
            rings = cb.group_rings[cw.symbol_index]
            assert np.allclose(waves, cw.symbols)
            assert np.allclose(eq.matched_response(cw.combination, waves, rings), rx.samples)

    def test_matched_response_reproduces_apsk_transmit(self):
        """Ring-matched response equals the physical signal for partial rings."""
        cfg = make_config(scheme="mux_apsk", mod_order=8, ring_count=2)
        cb = Codebook(cfg)
        ch = sample_channel(cfg, stream_rng(2, 3))
        eq = precompute_equivalent_channel(ch, cfg)
        for index in (0, 123, 500):
            cw = cb.codeword(index)
            rx = transmit(encode(cw, ch, cfg), ch, float("inf"), stream_rng(0, 0))
            rings = cb.group_rings[cw.symbol_index]
            waves = cb.group_waves[cw.symbol_index]
            assert np.allclose(eq.matched_response(cw.combination, waves, rings), rx.samples)

    def test_hypothesis_matrix_agrees_with_matched_response(self):
        cfg = make_config(scheme="mux_apsk", mod_order=8, ring_count=2)
        cb = Codebook(cfg)
        ch = sample_channel(cfg, stream_rng(2, 4))
        eq = precompute_equivalent_channel(ch, cfg)
        predicted = hypothesis_matrix(eq, cb)
        for index in (1, 250, 511):
            cw = cb.codeword(index)
            rings = cb.group_rings[cw.symbol_index]
            waves = cb.group_waves[cw.symbol_index]
            assert np.allclose(
                predicted[:, cw.row, cw.symbol_index],
                eq.matched_response(cw.combination, waves, rings),
            )


class TestDetectML:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scheme="mux_psk", mod_order=8),
            dict(scheme="mux_apsk", mod_order=8, ring_count=2),
            dict(scheme="diversity", mod_order=64),
            dict(scheme="rgssk", mod_order=1),
        ],
    )
    def test_noiseless_roundtrip_sampled(self, kwargs):
        """Zero noise recovers the transmitted codeword exactly."""
        cfg = make_config(**kwargs)
        cb = Codebook(cfg)
        rng = stream_rng(3, 0)
        for trial in range(25):
            ch = sample_channel(cfg, rng)
            eq = precompute_equivalent_channel(ch, cfg)
            index = int(rng.integers(0, cb.size))
            cw = cb.codeword(index)
            rx = transmit(encode(cw, ch, cfg), ch, float("inf"), rng, carrier=cw.carrier)
            assert detect_ml(rx, eq, cb).index == index

    def test_metric_zero_at_truth(self):
        """The ML metric vanishes at the transmitted hypothesis."""
        cfg = make_config(scheme="mux_apsk", mod_order=8, ring_count=2)
        cb = Codebook(cfg)
        ch = sample_channel(cfg, stream_rng(3, 1))
        eq = precompute_equivalent_channel(ch, cfg)
        cw = cb.codeword(321)
        rx = transmit(encode(cw, ch, cfg), ch, float("inf"), stream_rng(0, 0))
        predicted = hypothesis_matrix(eq, cb)
        metric = np.sum(np.abs(rx.samples[:, None, None] - predicted) ** 2, axis=0)
        assert metric[cw.row, cw.symbol_index] < 1e-18 * cfg.n_group**2

    def test_residual_metric_mean_under_noise(self):
        """At the true codeword the metric is the noise energy: mean n_rx*N0."""
        cfg = make_config()
        cb = Codebook(cfg)
        rng = stream_rng(3, 2)
        snr_db = 0.0
        n0 = noise_variance(snr_db)
        residuals = []
        for _ in range(3000):
            ch = sample_channel(cfg, rng)
            eq = precompute_equivalent_channel(ch, cfg)
            cw = cb.codeword(17)
            rx = transmit(encode(cw, ch, cfg), ch, snr_db, rng, carrier=cw.carrier)
            truth = eq.matched_response(
                cw.combination, cb.group_waves[cw.symbol_index], cb.group_rings[cw.symbol_index]
            )
            residuals.append(np.sum(np.abs(rx.samples - truth) ** 2))
        expected = cfg.n_rx * n0
        assert abs(np.mean(residuals) - expected) < 0.1 * expected

    def test_global_rotation_invariance(self):
        """Rotating y and every hypothesis together keeps the decision."""
        cfg = make_config()
        cb = Codebook(cfg)
        ch = sample_channel(cfg, stream_rng(3, 3))
        eq = precompute_equivalent_channel(ch, cfg)
        cw = cb.codeword(200)
        rx = transmit(encode(cw, ch, cfg), ch, 0.0, stream_rng(4, 4))
        rotation = np.exp(1j * 1.234)
        predicted = hypothesis_matrix(eq, cb)
        m_base = np.sum(np.abs(rx.samples[:, None, None] - predicted) ** 2, axis=0)
        m_rot = np.sum(
            np.abs(rotation * rx.samples[:, None, None] - rotation * predicted) ** 2, axis=0
        )
        assert np.argmin(m_base.ravel()) == np.argmin(m_rot.ravel())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(scheme="rgssk", mod_order=1, n_rx=4, n_elements=8),
            dict(scheme="mux_psk", mod_order=8),
            dict(scheme="mux_apsk", mod_order=8, ring_count=2),
            dict(scheme="mux_apsk", n_rx=6, n_active=3, n_elements=24, mod_order=4, ring_count=2),
            dict(scheme="diversity", mod_order=8, diversity_constellation="psk"),
            dict(scheme="diversity", mod_order=16, diversity_constellation="qam"),
            dict(scheme="diversity", mod_order=16, diversity_constellation="apsk", ring_count=4),
        ],
        ids=["rgssk", "mux_psk", "mux_apsk", "n3-apsk", "div-psk", "div-qam", "div-apsk"],
    )
    def test_tie_breaks_to_lowest_index(self, kwargs):
        """Equal metrics resolve to the lowest codeword index: a dark
        channel gives every hypothesis the same metric."""
        cfg = make_config(**kwargs)
        cb = Codebook(cfg)
        dark = np.zeros((cfg.n_rx, cfg.n_active, cfg.n_rx, cfg.ris_rings), dtype=complex)
        eq = EquivalentChannel(tensor=dark[..., -1], ring_tensor=dark)
        rx = ReceivedVector(samples=np.zeros(cfg.n_rx, dtype=complex), noise_var=1.0)
        assert detect_ml(rx, eq, cb).index == 0

    def test_shared_symbol_search_builds_no_dense_tensor(self):
        """A rate-9 diversity sweep block is searched in far less memory than
        its dense hypothesis tensor would take."""
        cfg = make_config(
            scheme="diversity", mod_order=64, diversity_constellation="apsk", ring_count=8
        )
        cb = Codebook(cfg)
        trials = default_block_size(cfg)
        rng = stream_rng(5, 0)
        channel = ChannelMatrix(sample_gains((trials, cfg.n_rx, cfg.n_elements), rng))
        equiv = precompute_equivalent_channel(channel, cfg)
        shape = (trials, cfg.n_rx)
        samples = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dense_bytes = trials * cfg.n_rx * cb.size * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            ml_argmin(samples, equiv, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (trials, dense_bytes) == (976, 976 * 5 * 512 * 16)
        assert peak < dense_bytes / 4


@st.composite
def small_configs(draw):
    """Small valid configs of every scheme with 1 to 3 active groups."""
    scheme = draw(st.sampled_from(["rgssk", "diversity", "mux_psk", "mux_apsk"]))
    n_active = draw(st.integers(1, 3))
    kwargs = dict(
        scheme=scheme,
        n_active=n_active,
        n_rx=draw(st.integers(2 * n_active, 2 * n_active + 2)),
        n_elements=n_active * draw(st.sampled_from([2, 4, 8])),
        symbol_energy=draw(st.sampled_from([1.0, 2.5])),
        seed=draw(st.integers(0, 2**16)),
    )
    if scheme == "rgssk":
        kwargs["mod_order"] = 1
    elif scheme == "diversity":
        kind = draw(st.sampled_from(["psk", "qam", "apsk"]))
        orders = {"psk": [2, 4, 8, 16], "qam": [4, 16], "apsk": [4, 8, 16]}[kind]
        kwargs.update(diversity_constellation=kind, mod_order=draw(st.sampled_from(orders)))
        if kind == "apsk":
            # constellation rings, which need not divide the fully ON groups
            rings = [r for r in (2, 4, 8) if r < kwargs["mod_order"]]
            kwargs["ring_count"] = draw(st.sampled_from(rings))
            kwargs["n_elements"] = n_active * draw(st.integers(1, 10))
    else:
        kwargs["mod_order"] = draw(st.sampled_from([2, 4, 8] if n_active < 3 else [2, 4]))
        kwargs["stagger"] = draw(st.booleans())
        if scheme == "mux_apsk":
            kwargs.update(mod_order=max(kwargs["mod_order"], 4), ring_count=2)
    return SystemConfig(**kwargs).validate()


@given(small_configs(), st.integers(1, 3), st.floats(-20.0, 10.0))
@settings(max_examples=60, deadline=None)
def test_factored_argmin_matches_dense_reference(cfg, trials, snr_db):
    """The factored metric decides as the dense metric over the hypothesis
    matrix does, and recovers every transmitted codeword without noise."""
    cb = Codebook(cfg)
    rng = stream_rng(cfg.seed, 7)
    index = rng.integers(0, cb.size, size=trials)
    codewords = cb.codeword(index)
    channel = ChannelMatrix(sample_gains((trials, cfg.n_rx, cfg.n_elements), rng))
    reflection = encode(codewords, channel, cfg)
    equiv = precompute_equivalent_channel(channel, cfg)
    for snr in (snr_db, float("inf")):
        received = transmit(
            reflection, channel, snr, rng,
            carrier=codewords.carrier, symbol_energy=cfg.symbol_energy,
        )
        detected = ml_argmin(received.samples, equiv, cb)
        dense = dense_ml_argmin(received.samples, hypothesis_matrix(equiv, cb))
        assert np.array_equal(detected, dense)
    assert np.array_equal(detected, index)


class TestCountBitErrors:
    def test_identical(self):
        assert count_bit_errors([0, 1, 1], [0, 1, 1]).total == 0

    def test_all_flipped(self):
        assert count_bit_errors([0, 0, 0], [1, 1, 1]).total == 3

    def test_spatial_split_from_table_rows(self):
        """Combination {1,3} decoded as {2,4}: spatial labels 00 vs 11."""
        cfg = make_config(
            scheme="rgssk", mod_order=1, n_rx=4,
            combination_table=((1, 3), (1, 4), (2, 3), (2, 4)),
        )
        cb = Codebook(cfg)
        tx = cb.unmap(cb.codeword(0))
        rx = cb.unmap(cb.codeword(3))
        counts = count_bit_errors(tx, rx, cfg.spatial_bits)
        assert counts == (2, 2, 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            count_bit_errors([0, 1], [0, 1, 1])
        with pytest.raises(ValueError, match="shape"):
            count_bit_errors(np.zeros((2, 9)), np.zeros((3, 6)))

    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(0, 1), min_size=1, max_size=64),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_reference(self, n_rows, row, data):
        """Per-row reference counts, summed over a (rows, length) batch."""
        width = len(row)
        bit_rows = st.lists(st.integers(0, 1), min_size=width, max_size=width)
        tx = [row] + [data.draw(bit_rows) for _ in range(n_rows - 1)]
        rx = [data.draw(bit_rows) for _ in range(n_rows)]
        split = data.draw(st.integers(min_value=0, max_value=width))
        ref_total = ref_spatial = 0
        for t, r in zip(tx, rx):
            ref_total += sum(a != b for a, b in zip(t, r))
            ref_spatial += sum(a != b for a, b in zip(t[:split], r[:split]))
        counts = count_bit_errors(tx if n_rows > 1 else tx[0], rx if n_rows > 1 else rx[0], split)
        assert counts.total == ref_total
        assert counts.spatial == ref_spatial
        assert counts.symbol == ref_total - ref_spatial
