"""Tests for the analytical BER machinery: layouts, statistics, MGF, bound."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ris_rgsm import (
    Codebook,
    EnumerationRefusedError,
    MgfDomainError,
    SystemConfig,
    TheoryError,
    UnsupportedPairError,
    assemble_statistics,
    mgf_quadratic_form,
    noise_variance,
    union_bound_ber,
)
from ris_rgsm.mapping import (
    int_to_bits,
    psk_constellation,
    qam_constellation,
    ring_constellation,
)
from ris_rgsm.theory import (
    BOUND_SCALES,
    BOUND_WEIGHTS,
    PAIR_CEILING,
    _KEY_RESOLUTION,
    _block_log_mgf,
    _bound_sum,
    _group_keys,
    _label_factors,
    _label_pairs,
    _popcount,
    _row_pair_signatures,
    _slot_batch,
    pair_layout,
)
from ris_rgsm import theory

from _oracles import (
    brute_force_union_bound,
    layout_union_bound,
    mc_difference_stats,
    mc_mgf,
    pair_bound,
    q_function,
)


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


@pytest.fixture
def rate_15_codebook():
    """Above the pair ceiling: 2^15 codewords, 32768 * 32767 ordered pairs."""
    return Codebook(make_config(scheme="mux_psk", mod_order=64, ring_count=1))


def codeword_stats(codebook, index, index_hat):
    src, dst = codebook.codeword(index), codebook.codeword(index_hat)
    return assemble_statistics(
        src.combination, src.symbols, dst.combination, dst.symbols, codebook.config
    )


class TestClassification:
    def test_unselected(self):
        assert 2 in pair_layout((1, 3), (1, 3), 5).unselected

    def test_selected_correct(self):
        layout = pair_layout((1, 3), (1, 4), 5)
        assert 0 in layout.correct  # antenna 1 matches at position 0
        assert 1 not in layout.unselected

    def test_swap_pairing(self):
        c, c_hat = (1, 3), (1, 4)
        layout = pair_layout(c, c_hat, 5)
        # antenna 3 is decoded to its swap partner 4 at position 1
        assert layout.swapped == (1,)
        assert (c[1], c_hat[1]) == (3, 4)
        assert 3 not in layout.unselected and 4 not in layout.unselected

    def test_cross_position_rejected(self):
        with pytest.raises(UnsupportedPairError):
            pair_layout((1, 3), (3, 5), 5)

    def test_pair_layout_cross_position(self):
        with pytest.raises(UnsupportedPairError):
            pair_layout((1, 3), (3, 1), 5)

    def test_pair_layout_counts(self):
        layout = pair_layout((1, 3), (1, 4), 5)
        assert layout.correct == (0,)
        assert layout.swapped == (1,)
        assert layout.unselected == (2, 5)


def loop_signatures(table, n_rx):
    """Row-pair signatures of a combination table by a loop over pair_layout."""
    signatures, skipped = {}, 0
    for row, c in enumerate(table):
        for row_hat, c_hat in enumerate(table):
            try:
                layout = pair_layout(c, c_hat, n_rx)
            except UnsupportedPairError:
                skipped += 1
                continue
            entry = signatures.setdefault(layout.correct, [0, 0])
            entry[0] += 1
            entry[1] += bin(row ^ row_hat).count("1")
    return {k: tuple(v) for k, v in signatures.items()}, skipped


@st.composite
def combination_tables(draw):
    """``(n_rx, n_active, table)``: the default lexicographic table or a
    shuffled pick of ascending rows, n_active 1 to 3."""
    n_active = draw(st.integers(1, 3))
    n_rx = draw(st.integers(max(2, 2 * n_active), 2 * n_active + 3))
    rows = list(itertools.combinations(range(1, n_rx + 1), n_active))
    count = 1 << (len(rows).bit_length() - 1)
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    return n_rx, n_active, tuple(rows[:count])


class TestRowPairSignatures:
    @settings(max_examples=80, deadline=None)
    @given(
        case=combination_tables(),
        max_bytes=st.sampled_from([1, 4096, theory._CLASSIFY_BYTES]),
    )
    def test_matches_pair_layout_loop(self, case, max_bytes):
        """Signatures in first-occurrence order, their row pairs and spatial
        sums, and the skipped row pairs equal a loop over pair_layout, with
        the rows in one chunk or in many."""
        n_rx, n_active, table = case
        got = _row_pair_signatures(np.array(table), max_bytes=max_bytes)
        want = loop_signatures(table, n_rx)
        assert list(got[0].items()) == list(want[0].items())
        assert got[1] == want[1]

    @pytest.mark.parametrize(
        "n_rx,table",
        [
            (6, tuple(itertools.combinations(range(1, 7), 3))[::-1][:16]),
            (4, ((1, 3), (3, 4), (1, 2), (2, 4))),
        ],
    )
    def test_union_bound_counts_custom_table(self, n_rx, table):
        """A custom table with cross-position pairs: the bound reports the
        loop's skipped pairs and signatures."""
        cfg = make_config(
            scheme="mux_psk", mod_order=2, ring_count=1, n_rx=n_rx,
            n_active=len(table[0]), n_elements=48, combination_table=table,
        )
        cb = Codebook(cfg)
        signatures, skipped_rows = loop_signatures(table, n_rx)
        assert skipped_rows > 0
        result = union_bound_ber(cb, 1.0)
        assert result.skipped_pairs == skipped_rows * cb.symbols_per_row**2
        assert result.signatures == len(signatures)
        assert result.evaluated_pairs + result.skipped_pairs == cb.size * (cb.size - 1)

    def test_chunks_bound_memory(self):
        """512 rows of 4 antennas: the chunked comparison's temporaries stay
        near the byte budget instead of the ~15 MB of one (R, R, L, L) step."""
        table = np.array(list(itertools.islice(itertools.combinations(range(1, 14), 4), 512)))
        budget = 2**20
        tracemalloc.start()
        try:
            chunked = _row_pair_signatures(table, max_bytes=budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * budget
        assert chunked == _row_pair_signatures(table)


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
        dims = slice(2 * src.combination[0] - 2, 2 * src.combination[0])
        w_other = abs(src.symbols[1] - dst.symbols[1]) ** 2
        expected = cfg.n_group / 2 * w_other
        assert np.allclose(stats.mean_vector()[dims], 0.0)
        assert np.allclose(stats.covariance()[dims, dims], expected * np.eye(2))

    def test_swap_cross_covariance_value(self):
        """Opposite unit symbols give cross-covariance group_size*pi/8*... = 4*pi."""
        cfg = make_config(scheme="mux_psk", mod_order=2, ring_count=1, stagger=False)
        assert cfg.n_group == 32
        symbols = np.array([1.0 + 0j, 1.0 + 0j])
        symbols_hat = np.array([-1.0 + 0j, 1.0 + 0j])
        stats = assemble_statistics((1, 3), symbols, (2, 3), symbols_hat, cfg)
        # antenna 1 swaps to antenna 2: dimensions 0-1 couple with 2-3
        cov = stats.covariance()
        assert np.isclose(cov[0, 2], 4 * np.pi)
        assert np.isclose(cov[1, 3], -4 * np.pi)

    def test_swap_mean_structure(self):
        cfg = make_config()
        cb = Codebook(cfg)
        src = cb.codeword(3 * 64 + 9)
        dst = cb.codeword(5 * 64 + 40)
        stats = assemble_statistics(
            src.combination, src.symbols, dst.combination, dst.symbols, cfg
        )
        scale = cfg.n_group * math.sqrt(math.pi) / 2
        mean = stats.mean_vector()
        swapped = pair_layout(src.combination, dst.combination, cfg.n_rx).swapped
        assert swapped
        for l in swapped:
            n, m = src.combination[l], dst.combination[l]
            expected = scale * np.array(
                [src.symbols[l].real, src.symbols[l].imag,
                 -dst.symbols[l].real, -dst.symbols[l].imag]
            )
            assert np.allclose(mean[[2 * n - 2, 2 * n - 1, 2 * m - 2, 2 * m - 1]], expected)

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
        cov = stats.covariance()
        diag_a, diag_mc = np.diag(cov), np.diag(cov_mc)
        assert np.max(np.abs(diag_a - diag_mc) / diag_mc) < 0.03
        # every off-diagonal entry, so that a block written to the wrong
        # antenna's dimensions fails
        off = ~np.eye(cov.shape[0], dtype=bool)
        assert np.max(np.abs(cov - cov_mc)[off]) < 0.03 * np.max(diag_mc)

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

    def test_monotone_decreasing_for_negative_x(self, codebook):
        cfg = codebook.config
        src = codebook.codeword(64 + 3)
        dst = codebook.codeword(2 * 64 + 60)
        stats = assemble_statistics(
            src.combination, src.symbols, dst.combination, dst.symbols, cfg
        )
        mean, cov = stats.mean_vector(), stats.covariance()
        xs = -np.logspace(-3, 0.5, 12)[::-1]  # increasingly negative
        values = [mgf_quadratic_form(mean, cov, float(x)) for x in xs[::-1]]
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
        # the kernel evaluates their layout
        assert pair_layout((1, 3), (2, 4), cfg.n_rx).correct == ()
        stats = assemble_statistics(
            (1, 3), cb.codeword(0).symbols, (2, 4), cb.codeword(3).symbols, cfg
        )
        lam = np.linalg.eigvalsh(stats.covariance())[-1]
        noise_var = -lam / 0.75  # the scale-1 argument -1/noise_var is 0.75 / lam
        with pytest.raises(MgfDomainError):
            _bound_sum(_slot_batch(cb, {(): (1, 1)}), noise_var)
        with pytest.raises(MgfDomainError):
            mgf_quadratic_form(stats.mean_vector(), stats.covariance(), 0.75 / lam)
        # a definite first block does not hide an indefinite second one
        # antennas 1 and 2 (dimensions 0-3) form the first swap block
        block = stats.covariance()[:4, :4]
        upper = [np.array([1e-3 * v, v]) for v in block[np.triu_indices(4)]]
        with pytest.raises(MgfDomainError):
            _block_log_mgf(upper, list(stats.mean_vector()[:4]), 0.75 / lam)


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
        assert pair_bound(codeword_stats(codebook, 0, 1), 1e12) == pytest.approx(0.5, rel=1e-4)

    def test_low_noise_limit_zero_and_monotone(self, codebook):
        stats = codeword_stats(codebook, 0, 1)
        values = [pair_bound(stats, noise_variance(snr)) for snr in (-20.0, -10.0, 0.0, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-12

    def test_bit_error_count_from_labels(self, codebook):
        """The bound's label Hamming weights are the popcounts of index XORs."""
        index = np.arange(codebook.size)
        labels = int_to_bits(index, codebook.config.rate)
        expected = np.count_nonzero(labels[:, None, :] != labels[None, :, :], axis=-1)
        assert np.array_equal(_popcount(index[:, None] ^ index[None, :]), expected)
        assert np.array_equal(codebook.unmap(codebook.codeword(index)), labels)
        assert _popcount(np.array([0, 1, 255, 256, 2**40 - 1])).tolist() == [0, 1, 8, 1, 40]


# small codebooks of every scheme for the pair-by-pair oracle
SMALL_CODEBOOKS = {
    "mux-psk": dict(scheme="mux_psk", mod_order=4, ring_count=1, n_rx=4),
    "mux-apsk": dict(scheme="mux_apsk", mod_order=4, ring_count=2, n_rx=4),
    "diversity": dict(
        scheme="diversity", mod_order=8, ring_count=2, n_rx=4, diversity_constellation="apsk"
    ),
    "rgssk": dict(scheme="rgssk", mod_order=1, ring_count=1, n_rx=6),
    "n3-psk": dict(
        scheme="mux_psk", mod_order=2, ring_count=1, n_rx=6, n_active=3, n_elements=48
    ),
}

# rate-9 and rate-11 configs for the per-layout grid reference
LAYOUT_CODEBOOKS = {
    "psk8": dict(scheme="mux_psk", mod_order=8, ring_count=1),
    "apsk8": dict(),
    "diversity-64": dict(
        scheme="diversity", mod_order=64, ring_count=8, diversity_constellation="apsk"
    ),
    "psk16": dict(scheme="mux_psk", mod_order=16, ring_count=1),
    "apsk16": dict(mod_order=16),
    "n3-apsk": dict(mod_order=4, n_rx=6, n_active=3, n_elements=48),
    # one shared symbol over three positions, in mixed layouts
    "n3-diversity": dict(
        scheme="diversity", mod_order=8, ring_count=2, diversity_constellation="apsk",
        n_rx=6, n_active=3, n_elements=48,
    ),
    "n3-rgssk": dict(
        scheme="rgssk", mod_order=1, ring_count=1, n_rx=7, n_active=3, n_elements=48
    ),
}

# every test codebook whose groups all send one shared symbol
SHARED_SYMBOL_CODEBOOKS = {
    name: overrides
    for name, overrides in {**SMALL_CODEBOOKS, **LAYOUT_CODEBOOKS}.items()
    if overrides.get("scheme") in ("diversity", "rgssk")
}


@st.composite
def small_codebook_configs(draw):
    """Valid configs of every scheme, n_active 1 to 3, on a shuffled explicit
    combination table; at most 64 codewords, so that a pair-by-pair loop
    covers them."""
    n_active = draw(st.integers(1, 3))
    n_rx = draw(st.integers(max(2, 2 * n_active), 2 * n_active + 1))
    rows = draw(st.permutations(list(itertools.combinations(range(1, n_rx + 1), n_active))))
    scheme = draw(st.sampled_from(["rgssk", "mux_psk", "mux_apsk", "diversity"]))
    symbols = dict(mod_order=1, ring_count=1)
    if scheme == "mux_psk":
        symbols["mod_order"] = draw(st.sampled_from([2, 4]))
    elif scheme == "mux_apsk":
        m = draw(st.sampled_from([4, 8]))
        symbols = dict(mod_order=m, ring_count=draw(st.sampled_from([2, m // 2])))
    elif scheme == "diversity":
        kind = draw(st.sampled_from(["psk", "qam", "apsk"]))
        m = 4 if kind == "qam" else draw(st.sampled_from([2, 4, 8] if kind == "psk" else [4, 8]))
        rings = draw(st.sampled_from([2, m // 2])) if kind == "apsk" else 1
        symbols = dict(mod_order=m, ring_count=rings, diversity_constellation=kind)
    cfg = SystemConfig(
        scheme=scheme, n_rx=n_rx, n_active=n_active,
        n_elements=n_active * draw(st.sampled_from([4, 8, 16])),
        combination_table=tuple(rows[: 1 << (len(rows).bit_length() - 1)]),
        stagger=draw(st.booleans()), **symbols,
    ).validate()
    assume(cfg.rate <= 6)
    return cfg


@st.composite
def factor_symbols(draw):
    """A label factor's ``(M,)`` symbols: PSK rotated by a stagger offset,
    2- or 4-ring APSK, 16-QAM, or random points with repeated moduli.  Equal
    keys among them are reached along different rounding paths."""
    m = draw(st.sampled_from([2, 4, 8, 16]))
    kinds = ["psk", "random"] + ["apsk"] * (m >= 4) + ["qam"] * (m == 16)
    kind = draw(st.sampled_from(kinds))
    if kind == "psk":
        groups = draw(st.integers(1, 4))
        offset = 2.0 * np.pi * draw(st.integers(0, groups - 1)) / (groups * m)
        return psk_constellation(m) * np.exp(1j * offset)
    if kind == "apsk":
        return ring_constellation(m, draw(st.sampled_from([r for r in (2, 4) if r < m])))
    if kind == "qam":
        return qam_constellation(m)
    moduli = draw(st.lists(st.sampled_from([0.5, 1.0, math.sqrt(2.0)]), min_size=m, max_size=m))
    phases = draw(st.lists(st.floats(-math.pi, math.pi), min_size=m, max_size=m))
    return np.array(moduli) * np.exp(1j * np.array(phases))


def brute_force_groups(symbols, rows):
    """Every label pair ``(a, b)``, in order, put in a dict by its tuple of
    quantized keys ``(|s - s_hat|**2, |s|**2, |s_hat|**2)[rows]``; groups in
    lexicographic key order, last row most significant."""
    m = symbols.size
    s, s_hat = np.repeat(symbols, m), np.tile(symbols, m)
    keys = np.stack([np.abs(s - s_hat) ** 2, np.abs(s) ** 2, np.abs(s_hat) ** 2])
    keys = np.round(keys / (_KEY_RESOLUTION * keys.max()))
    groups = {}
    for pair in range(m * m):
        key = tuple(float(keys[r, pair]) for r in rows)
        first, count, hamming = groups.get(key, (pair, 0, 0))
        hamming += bin(pair // m ^ pair % m).count("1")
        groups[key] = (first, count + 1, hamming)
    return [groups[key] for key in sorted(groups, key=lambda key: key[::-1])]


class TestGroupKeys:
    @settings(max_examples=200, deadline=None)
    @given(
        symbols=factor_symbols(),
        rows=st.sampled_from([(0,), (1, 2), (0, 1, 2), (1, 2, 0)]),
    )
    def test_matches_brute_force_grouping(self, symbols, rows):
        """Group order, the earliest pair as representative, counts and
        Hamming sums all equal a dict of the pairs' quantized key tuples."""
        m = symbols.size
        got = _group_keys(_label_pairs(symbols), rows)
        want = brute_force_groups(symbols, rows)
        firsts = np.array([first for first, _, _ in want])
        assert np.array_equal(got.s, symbols[firsts // m])
        assert np.array_equal(got.s_hat, symbols[firsts % m])
        assert got.count.tolist() == [count for _, count, _ in want]
        assert got.hamming.tolist() == [hamming for _, _, hamming in want]


class TestUnionBound:
    @settings(max_examples=40, deadline=None)
    @given(cfg=small_codebook_configs(), snr=st.floats(-20.0, -4.0))
    @example(
        # (1, 3) and (3, 4) hold antenna 3 at different positions
        cfg=make_config(
            scheme="mux_psk", mod_order=2, ring_count=1, n_rx=4,
            combination_table=((1, 3), (3, 4), (1, 2), (2, 4)),
        ),
        snr=-10.0,
    )
    def test_folded_weights_match_pair_by_pair_oracle(self, cfg, snr):
        """The bound as one sum of slot weights times slot bounds equals the
        per-pair sum of dense MGFs, each weighted by its pair's label Hamming
        distance."""
        cb = Codebook(cfg)
        n0 = noise_variance(snr)
        got = union_bound_ber(cb, n0).value
        assert got == pytest.approx(brute_force_union_bound(cb, n0), rel=1e-12)

    def test_two_codeword_codebook(self):
        """Degenerate size-2 codebook: bound value equals pep * e / rate."""
        cfg = SystemConfig(
            scheme="rgssk", n_elements=4, n_rx=2, n_active=1, seed=0
        ).validate()
        cb = Codebook(cfg)
        assert cb.size == 2
        n0 = 2.0
        result = union_bound_ber(cb, n0)
        errors = np.count_nonzero(cb.unmap(cb.codeword(0)) != cb.unmap(cb.codeword(1)))
        expected = pair_bound(codeword_stats(cb, 0, 1), n0) * errors / cfg.rate
        assert result.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("name", list(SMALL_CODEBOOKS))
    def test_matches_pair_by_pair_oracle(self, name):
        """Summed over distinct keys, the bound equals the per-pair sum of
        dense MGFs."""
        cb = Codebook(make_config(**SMALL_CODEBOOKS[name]))
        n0 = noise_variance(-12.0)
        got = union_bound_ber(cb, n0).value
        assert got == pytest.approx(brute_force_union_bound(cb, n0), rel=1e-12)

    @pytest.mark.parametrize("name", list(LAYOUT_CODEBOOKS))
    def test_matches_layout_reference(self, name):
        cb = Codebook(make_config(**LAYOUT_CODEBOOKS[name]))
        for snr in (-16.0, -9.0):
            n0 = noise_variance(snr)
            got = union_bound_ber(cb, n0).value
            assert got == pytest.approx(layout_union_bound(cb, n0), rel=1e-12)

    @pytest.mark.parametrize("name", list(SHARED_SYMBOL_CODEBOOKS))
    def test_shared_symbol_is_one_label_factor(self, name):
        """Diversity and RGSSK send one symbol on all groups, so the bound
        keys their label as one factor with one symbol per label."""
        cb = Codebook(make_config(**SHARED_SYMBOL_CODEBOOKS[name]))
        n_active = cb.config.n_active
        assert np.array_equal(cb.group_symbols, np.tile(cb.group_symbols[:, :1], n_active))
        [(positions, symbols)] = _label_factors(cb)
        assert positions == tuple(range(n_active))
        assert np.array_equal(symbols, cb.group_symbols[:, 0])

    def test_matches_layout_reference_at_rate_13(self):
        cb = Codebook(make_config(mod_order=32))
        assert cb.config.rate == 13
        n0 = noise_variance(-9.0)
        got = union_bound_ber(cb, n0)
        assert got.value == pytest.approx(layout_union_bound(cb, n0), rel=1e-12)
        assert got.evaluated_pairs + got.skipped_pairs == cb.size * (cb.size - 1)

    def test_high_noise_limit(self):
        """Every pair bound tends to 1/2.  Without skipped pairs, each
        codeword's label distances to the others sum to rate * size / 2, so
        the bound tends to 1/2 * size / 2."""
        cfg = make_config(
            scheme="rgssk", mod_order=1, ring_count=1, n_rx=4,
            combination_table=((1, 3), (1, 4), (2, 3), (2, 4)),
        )
        cb = Codebook(cfg)
        assert union_bound_ber(cb, 1e12).value == pytest.approx(0.5 * cb.size / 2, rel=1e-4)

    def test_domain_checked_before_any_log(self, codebook):
        """A negative noise variance raises instead of logging negatives."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MgfDomainError):
                union_bound_ber(codebook, -1.0)
            for correct in [(0, 1), (0,), (1,), ()]:
                with pytest.raises(MgfDomainError):
                    _bound_sum(_slot_batch(codebook, {correct: (1, 1)}), -1.0)

    @pytest.mark.parametrize(
        "overrides", [{}, SMALL_CODEBOOKS["n3-psk"], LAYOUT_CODEBOOKS["diversity-64"]]
    )
    def test_one_kernel_call_of_coupled_blocks(self, monkeypatch, overrides):
        """Every layout's kept and swapped blocks go through one kernel call
        of 4-entry blocks."""
        calls = []

        def counted(cov, mean, x):
            calls.append(len(mean))
            return _block_log_mgf(cov, mean, x)

        monkeypatch.setattr(theory, "_block_log_mgf", counted)
        result = union_bound_ber(Codebook(make_config(**overrides)), noise_variance(-10.0))
        assert result.signatures > 2
        assert calls == [4]

    def test_one_batch_equals_layout_batches(self, codebook):
        """Flattening several layouts into one batch sums what each layout's
        batch of its own sums."""
        signatures = {(0, 1): (5, 0), (): (3, 7), (1,): (2, 2), (0,): (4, 9)}
        n0 = noise_variance(-12.0)
        joint = _bound_sum(_slot_batch(codebook, signatures), n0)
        parts = [_bound_sum(_slot_batch(codebook, {c: w}), n0) for c, w in signatures.items()]
        assert joint == pytest.approx(math.fsum(parts), rel=1e-14)

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

    def test_exhaustive_refusal_above_ceiling(self, rate_15_codebook):
        with pytest.raises(EnumerationRefusedError, match="exceed the ceiling"):
            union_bound_ber(rate_15_codebook, 1.0)

    def test_refusal_leaves_nothing_cached(self, rate_15_codebook):
        with pytest.raises(EnumerationRefusedError):
            union_bound_ber(rate_15_codebook, 1.0)
        assert not hasattr(rate_15_codebook, "_bound_work")

    def test_default_ceiling_admits_rate_13_only(self, rate_15_codebook):
        """The ceiling admits rate 13; rate 15 is refused before any work."""
        assert 8192 * 8191 <= PAIR_CEILING < 32768 * 32767
        assert rate_15_codebook.config.rate == 15
        with pytest.raises(EnumerationRefusedError):
            union_bound_ber(rate_15_codebook, 1.0)
