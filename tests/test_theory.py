"""Tests for the analytical BER machinery: categories, statistics, MGF, bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ris_rgsm import (
    Category,
    Codebook,
    EnumerationRefusedError,
    MgfDomainError,
    SystemConfig,
    TheoryError,
    UnsupportedPairError,
    assemble_statistics,
    classify_antenna,
    mgf_quadratic_form,
    noise_variance,
    pairwise_bound,
    union_bound_ber,
)
from ris_rgsm.theory import (
    BOUND_SCALES,
    BOUND_WEIGHTS,
    _block_log_mgf,
    _bound_matrix,
    pair_layout,
)

from _oracles import mc_difference_stats, mc_mgf, q_function


def make_config(**overrides):
    base = dict(
        scheme="mux_apsk", n_elements=64, n_rx=5, n_active=2,
        mod_order=8, ring_count=2, seed=3,
    )
    base.update(overrides)
    return SystemConfig(**base).validate()


@pytest.fixture(scope="module")
def codebook():
    return Codebook(make_config())


class TestClassification:
    def test_unselected(self):
        role = classify_antenna(2, (1, 3), (1, 3))
        assert role.category is Category.UNSELECTED

    def test_selected_correct(self):
        role = classify_antenna(1, (1, 3), (1, 4))
        assert role.category is Category.SELECTED_CORRECT
        assert role.position == 0

    def test_swap_pairing(self):
        src = classify_antenna(3, (1, 3), (1, 4))
        dst = classify_antenna(4, (1, 3), (1, 4))
        assert src.category is Category.SWAP_SOURCE and src.partner == 4
        assert dst.category is Category.SWAP_TARGET and dst.partner == 3

    def test_cross_position_rejected(self):
        with pytest.raises(UnsupportedPairError):
            classify_antenna(3, (1, 3), (3, 5))

    def test_pair_layout_cross_position(self):
        with pytest.raises(UnsupportedPairError):
            pair_layout((1, 3), (3, 1), 5)

    def test_pair_layout_counts(self):
        layout = pair_layout((1, 3), (1, 4), 5)
        assert layout.correct == (0,)
        assert layout.swapped == (1,)
        assert layout.unselected == (2, 5)


class TestAssembledStatistics:
    def test_matched_symbols_collapse_to_interference(self):
        """Equal symbols at a matched position leave zero-mean isotropy."""
        cfg = make_config()
        cb = Codebook(cfg)
        src = cb.codeword(5)
        dst_index = src.row * cb.symbols_per_row + (src.symbol_index ^ 1)
        dst = cb.codeword(dst_index)
        # group 1 equal, group 2 differs in its ring bit
        assert np.isclose(src.symbols[0], dst.symbols[0])
        stats = assemble_statistics(
            src.combination, src.symbols, dst.combination, dst.symbols, cfg
        )
        blk = next(b for b in stats.correct_blocks if b.antenna == src.combination[0])
        w_other = abs(src.symbols[1] - dst.symbols[1]) ** 2
        expected = cfg.n_group / 2 * w_other
        assert np.allclose(blk.mean, 0.0)
        assert np.allclose(blk.cov, expected * np.eye(2))

    def test_swap_cross_covariance_value(self):
        """Opposite unit symbols give cross-covariance group_size*pi/8*... = 4*pi."""
        cfg = make_config(scheme="mux_psk", mod_order=2, ring_count=1, stagger=False)
        assert cfg.n_group == 32
        symbols = np.array([1.0 + 0j, 1.0 + 0j])
        symbols_hat = np.array([-1.0 + 0j, 1.0 + 0j])
        stats = assemble_statistics((1, 3), symbols, (2, 3), symbols_hat, cfg)
        blk = stats.swap_blocks[0]
        assert np.isclose(blk.cov[0, 2], 4 * np.pi)
        assert np.isclose(blk.cov[1, 3], -4 * np.pi)

    def test_swap_mean_structure(self):
        cfg = make_config()
        cb = Codebook(cfg)
        src = cb.codeword(3 * 64 + 9)
        dst = cb.codeword(5 * 64 + 40)
        stats = assemble_statistics(
            src.combination, src.symbols, dst.combination, dst.symbols, cfg
        )
        scale = cfg.n_group * math.sqrt(math.pi) / 2
        for blk in stats.swap_blocks:
            l = src.combination.index(blk.antenna)
            expected = scale * np.array(
                [src.symbols[l].real, src.symbols[l].imag,
                 -dst.symbols[l].real, -dst.symbols[l].imag]
            )
            assert np.allclose(blk.mean, expected)

    @pytest.mark.parametrize(
        "src_key,dst_key",
        [
            ((1, 3), (1, 4)),  # correct + swap + unselected
            ((1, 3), (2, 4)),  # two swaps
            ((1, 3), (1, 3)),  # same row, symbol error only
        ],
    )
    def test_monte_carlo_oracle(self, codebook, src_key, dst_key):
        """Assembled moments match direct sampling of the difference vector."""
        cfg = codebook.config
        combos = [tuple(map(int, row)) for row in codebook.combinations]
        row_src, row_dst = combos.index(src_key), combos.index(dst_key)
        src = codebook.codeword(row_src * 64 + 11)
        dst = codebook.codeword(row_dst * 64 + 38)
        stats = assemble_statistics(
            src.combination, src.symbols, dst.combination, dst.symbols, cfg
        )
        mean_mc, cov_mc = mc_difference_stats(cfg, src, dst, draws=100_000, seed=41)
        assert np.max(np.abs(stats.mean_vector() - mean_mc)) < 0.03 * cfg.n_group
        diag_a, diag_mc = np.diag(stats.covariance()), np.diag(cov_mc)
        assert np.max(np.abs(diag_a - diag_mc) / diag_mc) < 0.03

    def test_covariance_psd_and_symmetric_over_codebook(self, codebook):
        """Every supported ordered row pair yields symmetric PSD blocks."""
        cfg = codebook.config
        n_rows = codebook.combinations.shape[0]
        checked = 0
        for row in range(n_rows):
            for row_hat in range(n_rows):
                try:
                    pair_layout(
                        tuple(codebook.combinations[row]),
                        tuple(codebook.combinations[row_hat]),
                        cfg.n_rx,
                    )
                except UnsupportedPairError:
                    continue
                src = codebook.codeword(row * 64 + (row * 7) % 64)
                dst = codebook.codeword(row_hat * 64 + (row_hat * 13 + 5) % 64)
                stats = assemble_statistics(
                    src.combination, src.symbols, dst.combination, dst.symbols, cfg
                )
                cov = stats.covariance()
                assert np.allclose(cov, cov.T)
                floor = -1e-9 * np.linalg.norm(cov)
                assert np.linalg.eigvalsh(cov)[0] >= floor
                checked += 1
        assert checked > 40

    def test_unsupported_pair_propagates(self):
        cfg = make_config()
        symbols = np.ones(2, dtype=complex)
        with pytest.raises(UnsupportedPairError):
            assemble_statistics((1, 3), symbols, (3, 1), symbols, cfg)


class TestMgf:
    def test_value_at_origin(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T
        assert mgf_quadratic_form(rng.standard_normal(4), cov, 0.0) == pytest.approx(1.0)

    def test_scalar_chi_square(self):
        """Standard normal squared at x=-1/2: 2**(-1/2)."""
        value = mgf_quadratic_form([0.0], [[1.0]], -0.5)
        assert value == pytest.approx(2 ** -0.5, rel=1e-12)
        sampled = mc_mgf(np.zeros(1), np.eye(1), -0.5, samples=1_000_000, seed=7)
        assert abs(value - sampled) < 0.002

    def test_blockwise_equals_dense(self, codebook):
        cfg = codebook.config
        src = codebook.codeword(2 * 64 + 21)
        dst = codebook.codeword(4 * 64 + 55)
        stats = assemble_statistics(
            src.combination, src.symbols, dst.combination, dst.symbols, cfg
        )
        for x in (-2.0, -0.31, -0.007):
            dense = mgf_quadratic_form(stats.mean_vector(), stats.covariance(), x)
            assert stats.mgf(x) == pytest.approx(dense, rel=1e-10)

    def test_monotone_decreasing_for_negative_x(self, codebook):
        cfg = codebook.config
        src = codebook.codeword(64 + 3)
        dst = codebook.codeword(2 * 64 + 60)
        stats = assemble_statistics(
            src.combination, src.symbols, dst.combination, dst.symbols, cfg
        )
        xs = -np.logspace(-3, 0.5, 12)[::-1]  # increasingly negative
        values = [stats.mgf(float(x)) for x in xs[::-1]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_singular_covariance_handled(self):
        """Deterministic components reduce to a plain exponential factor."""
        mean = np.array([2.0, 0.0])
        cov = np.zeros((2, 2))
        value = mgf_quadratic_form(mean, cov, -0.25)
        assert value == pytest.approx(math.exp(-0.25 * 4.0), rel=1e-12)

    def test_non_psd_rejected(self):
        with pytest.raises(TheoryError, match="PSD"):
            mgf_quadratic_form([0.0, 0.0], [[1.0, 0.0], [0.0, -1.0]], -0.5)

    def test_indefinite_argument_rejected(self):
        with pytest.raises(MgfDomainError):
            mgf_quadratic_form([0.0], [[1.0]], 0.75)

    def test_asymmetric_rejected(self):
        with pytest.raises(TheoryError, match="symmetric"):
            mgf_quadratic_form([0.0, 0.0], [[1.0, 0.3], [0.0, 1.0]], -0.5)


@st.composite
def gaussian_blocks(draw):
    """PSD covariances (possibly singular) and means over a batch shape."""
    n = draw(st.sampled_from([2, 4]))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 3)]))
    rank = draw(st.integers(1, n))
    factor = draw(hnp.arrays(np.float64, batch + (n, rank), elements=st.floats(-3.0, 3.0)))
    cov = np.einsum("...ik,...jk->...ij", factor, factor)
    cov = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    # |m|^2 <= 9 keeps exp(x m^T A^-1 m) above the float64 underflow at x = -50
    mean = draw(hnp.arrays(np.float64, batch + (n,), elements=st.floats(-1.5, 1.5)))
    return cov, mean


class TestBlockKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        blocks=gaussian_blocks(),
        x=st.floats(-50.0, 0.0, exclude_max=True, allow_subnormal=False),
    )
    def test_matches_dense_mgf(self, blocks, x):
        """The unrolled Cholesky kernel equals the dense MGF, batched and 0-d.

        ``abs`` covers log values near zero (tiny ``|x|``), where both sides
        carry the absolute rounding of ``log(1 + 2|x|c)``.
        """
        cov, mean = blocks
        n = mean.shape[-1]
        rows, cols = np.triu_indices(n)
        upper = [cov[..., i, j] for i, j in zip(rows, cols)]
        got = _block_log_mgf(upper, [mean[..., i] for i in range(n)], x)
        assert np.shape(got) == mean.shape[:-1]
        for idx in np.ndindex(mean.shape[:-1]):
            want = math.log(mgf_quadratic_form(mean[idx], cov[idx], x))
            assert got[idx] == pytest.approx(want, rel=1e-10, abs=1e-12)
            single = _block_log_mgf(
                [np.asarray(c[idx]) for c in upper],
                [np.asarray(mean[idx + (i,)]) for i in range(n)],
                x,
            )
            assert single == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_indefinite_argument_raises(self):
        """x > 0 past 1/(2 lambda_max) of one coupled block raises for the batch."""
        cfg = make_config(
            scheme="rgssk", mod_order=1, ring_count=1, n_rx=4,
            combination_table=((1, 3), (1, 4), (2, 3), (2, 4)),
        )
        cb = Codebook(cfg)
        # rows 0 and 3 swap both positions and leave no idle antenna: only
        # the kernel evaluates their bound matrix
        assert pair_layout((1, 3), (2, 4), cfg.n_rx).correct == ()
        stats = assemble_statistics(
            (1, 3), cb.codeword(0).symbols, (2, 4), cb.codeword(3).symbols, cfg
        )
        lam = max(np.linalg.eigvalsh(blk.cov)[-1] for blk in stats.swap_blocks)
        noise_var = -lam / 0.75  # the scale-1 argument -1/noise_var is 0.75 / lam
        with pytest.raises(MgfDomainError):
            _bound_matrix(cb, 0, 3, noise_var)
        with pytest.raises(MgfDomainError):
            stats.mgf(0.75 / lam)
        # a definite first block does not hide an indefinite second one
        blk = stats.swap_blocks[0]
        upper = [np.array([1e-3 * v, v]) for v in blk.cov[np.triu_indices(4)]]
        with pytest.raises(MgfDomainError):
            _block_log_mgf(upper, list(blk.mean), 0.75 / lam)


class TestPairwiseBound:
    def test_q_bound_dominance_on_grid(self):
        """The three-exponential bound dominates the Gaussian tail on [0, 8]."""
        x = np.linspace(0.0, 8.0, 1000)
        bound = (
            BOUND_WEIGHTS[0] * np.exp(-2.0 * x**2)
            + BOUND_WEIGHTS[1] * np.exp(-(x**2))
            + BOUND_WEIGHTS[2] * np.exp(-(x**2) / 2.0)
        )
        assert np.all(bound >= q_function(x) - 1e-12)

    def test_weights_and_scales(self):
        assert BOUND_WEIGHTS == (1 / 6, 1 / 12, 1 / 4)
        assert BOUND_SCALES == (1.0, 2.0, 4.0)

    def test_high_noise_limit_half(self, codebook):
        pb = pairwise_bound(codebook.codeword(0), codebook.codeword(1), 1e12, codebook)
        assert pb.value == pytest.approx(0.5, rel=1e-4)

    def test_low_noise_limit_zero_and_monotone(self, codebook):
        src, dst = codebook.codeword(0), codebook.codeword(1)
        values = [
            pairwise_bound(src, dst, noise_variance(snr), codebook).value
            for snr in (-20.0, -10.0, 0.0, 10.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-12

    def test_bit_error_count_from_labels(self, codebook):
        src, dst = codebook.codeword(0), codebook.codeword(3)
        pb = pairwise_bound(src, dst, 1.0, codebook)
        expected = int(np.count_nonzero(codebook.bit_table[0] != codebook.bit_table[3]))
        assert pb.bit_errors == expected


class TestUnionBound:
    def test_two_codeword_codebook(self):
        """Degenerate size-2 codebook: bound value equals pep * e / rate."""
        cfg = SystemConfig(
            scheme="rgssk", n_elements=4, n_rx=2, n_active=1, seed=0
        ).validate()
        cb = Codebook(cfg)
        assert cb.size == 2
        n0 = 2.0
        result = union_bound_ber(cb, n0)
        pb = pairwise_bound(cb.codeword(0), cb.codeword(1), n0, cb)
        assert result.value == pytest.approx(pb.value * pb.bit_errors / cfg.rate)

    def test_kernel_matches_pairwise_bound(self, codebook):
        """Vectorized row-pair kernel equals the scalar path."""
        n0 = noise_variance(-9.0)
        matrix = _bound_matrix(codebook, 2, 6, n0)
        for q, q_hat in [(0, 0), (7, 50), (63, 1)]:
            pb = pairwise_bound(
                codebook.codeword(2 * 64 + q), codebook.codeword(6 * 64 + q_hat), n0, codebook
            )
            assert matrix[q, q_hat] == pytest.approx(pb.value, rel=1e-12)

    def test_unsupported_rows_skipped_and_reported(self, codebook):
        """Lexicographic 5x2 tables contain cross-position row pairs."""
        result = union_bound_ber(codebook, 1.0)
        assert result.skipped_pairs == 10 * 64 * 64
        assert 0.15 < result.skipped_fraction < 0.16

    def test_explicit_4x2_table_has_no_skips(self):
        cfg = make_config(
            scheme="rgssk", mod_order=1, ring_count=1, n_rx=4,
            combination_table=((1, 3), (1, 4), (2, 3), (2, 4)),
        )
        result = union_bound_ber(Codebook(cfg), 1.0)
        assert result.skipped_pairs == 0

    def test_monotone_in_snr(self, codebook):
        values = [
            union_bound_ber(codebook, noise_variance(snr)).value
            for snr in (-16.0, -12.0, -8.0, -4.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_sampled_policy_agrees_with_exhaustive(self):
        cfg = make_config(
            scheme="rgssk", mod_order=1, ring_count=1, n_rx=4,
            combination_table=((1, 3), (1, 4), (2, 3), (2, 4)),
        )
        cb = Codebook(cfg)
        n0 = noise_variance(-10.0)
        exact = union_bound_ber(cb, n0).value
        sampled = union_bound_ber(
            cb, n0, policy="sampled", sample_pairs=10_000,
            rng=np.random.default_rng(6),
        )
        assert abs(sampled.value - exact) <= 2 * sampled.std_error + 1e-15

    def test_exhaustive_refusal_above_ceiling(self, codebook):
        with pytest.raises(EnumerationRefusedError):
            union_bound_ber(codebook, 1.0, pair_ceiling=1000)

    @pytest.mark.parametrize("samples", [-1, 0, 1])
    def test_sampled_policy_needs_two_pairs(self, codebook, samples):
        with pytest.raises(ValueError, match="at least 2"):
            union_bound_ber(codebook, 1.0, policy="sampled", sample_pairs=samples)

    def test_unknown_policy(self, codebook):
        with pytest.raises(ValueError, match="policy"):
            union_bound_ber(codebook, 1.0, policy="guess")
