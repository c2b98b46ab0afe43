"""Analytical average-BER machinery: difference statistics, MGF, union bound.

For an ordered codeword pair, the per-antenna decision difference (true
hypothesis response minus wrong hypothesis response) is modeled as Gaussian
by the central limit theorem over the group elements.  Antennas fall into
three tractable roles:

* unselected by both hypotheses: zero mean, isotropic;
* selected by both at the same position: anisotropic 2x2 block driven by
  the symbol difference;
* selected by the true hypothesis but decoded to another antenna: the two
  antennas form a coupled 4x4 block.

Pairs in which some antenna is selected by both hypotheses *at different
positions* fall outside this taxonomy and are skipped (and counted) by the
union bound.

The interference seen from other groups uses the exact second moment per
position: a position decoded to the same antenna contributes
``|s_i - s_hat_i|**2`` (the common steering phase cancels), a position
decoded to a different antenna contributes ``|s_i|**2 + |s_hat_i|**2``.

The pairwise error bound is the three-term exponential upper bound of the
Gaussian tail function evaluated through the quadratic-form MGF, and the
average BER is the bit-error-weighted union over ordered codeword pairs.

The MGF factors over the blocks.  Idle antennas and matched 2x2 blocks have
closed forms.  A coupled 4x4 block goes through one kernel,
:func:`_block_log_mgf`: a Cholesky factorization of ``I - 2xC`` unrolled
over the block's entries plus a forward substitution, written as numpy
elementwise operations, so the same code evaluates one pair
(:meth:`DifferenceStatistics.mgf`, 0-d entries) and all symbol pairs of a
row-pair layout at once (:func:`_layout_bound_matrix`, ``(Q, Q)`` entries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .config import SystemConfig
from .mapping import Codebook, Codeword


BOUND_WEIGHTS = (1.0 / 6.0, 1.0 / 12.0, 1.0 / 4.0)
BOUND_SCALES = (1.0, 2.0, 4.0)  # MGF arguments are -1/(scale * noise_var)

DEFAULT_PAIR_CEILING = 10_000_000


class TheoryError(ValueError):
    """Invalid statistics input (asymmetric or non-PSD covariance)."""


class MgfDomainError(TheoryError):
    """The MGF argument leaves ``I - 2xC`` indefinite."""


class UnsupportedPairError(ValueError):
    """Codeword pair outside the three-way antenna taxonomy."""


class EnumerationRefusedError(RuntimeError):
    """Exhaustive pair enumeration exceeds the configured ceiling."""


class Category(Enum):
    UNSELECTED = "unselected"
    SELECTED_CORRECT = "selected_correct"
    SWAP_SOURCE = "swap_source"
    SWAP_TARGET = "swap_target"


class AntennaRole(NamedTuple):
    category: Category
    position: int | None  # 0-based group index, where applicable
    partner: int | None  # paired antenna (1-based) for swap roles


def classify_antenna(antenna: int, combination, combination_hat) -> AntennaRole:
    """Role of one receive antenna for an ordered hypothesis pair.

    Raises
    ------
    UnsupportedPairError
        If the antenna is selected by both hypotheses at different
        positions (outside the position-wise taxonomy).
    """
    c = tuple(combination)
    c_hat = tuple(combination_hat)
    pos = c.index(antenna) if antenna in c else None
    pos_hat = c_hat.index(antenna) if antenna in c_hat else None
    if pos is None and pos_hat is None:
        return AntennaRole(Category.UNSELECTED, None, None)
    if pos is not None and pos_hat is not None:
        if pos != pos_hat:
            raise UnsupportedPairError(
                f"antenna {antenna} selected at position {pos + 1} of {c} but "
                f"position {pos_hat + 1} of {c_hat}"
            )
        return AntennaRole(Category.SELECTED_CORRECT, pos, None)
    if pos is not None:
        return AntennaRole(Category.SWAP_SOURCE, pos, c_hat[pos])
    return AntennaRole(Category.SWAP_TARGET, pos_hat, c[pos_hat])


class PairLayout(NamedTuple):
    correct: tuple[int, ...]  # positions with matching antennas
    swapped: tuple[int, ...]  # positions decoded to a different antenna
    unselected: tuple[int, ...]  # antennas (1-based) in neither hypothesis


def pair_layout(combination, combination_hat, n_rx: int) -> PairLayout:
    """Position-wise comparison of two combinations.

    Raises :class:`UnsupportedPairError` when any antenna appears in both
    combinations at different positions.
    """
    c = tuple(combination)
    c_hat = tuple(combination_hat)
    for l, antenna in enumerate(c):
        if antenna in c_hat and c_hat.index(antenna) != l:
            raise UnsupportedPairError(
                f"antenna {antenna} changes position between {c} and {c_hat}"
            )
    for l, antenna in enumerate(c_hat):
        if antenna in c and c.index(antenna) != l:
            raise UnsupportedPairError(
                f"antenna {antenna} changes position between {c} and {c_hat}"
            )
    correct = tuple(l for l in range(len(c)) if c[l] == c_hat[l])
    swapped = tuple(l for l in range(len(c)) if c[l] != c_hat[l])
    used = set(c) | set(c_hat)
    unselected = tuple(n for n in range(1, n_rx + 1) if n not in used)
    return PairLayout(correct=correct, swapped=swapped, unselected=unselected)


# -- statistics assembly -------------------------------------------------------


def _position_weights(layout: PairLayout, s, s_hat) -> np.ndarray:
    # exact second moment of one group's interference contribution
    s = np.asarray(s)
    s_hat = np.asarray(s_hat)
    w = np.abs(s) ** 2 + np.abs(s_hat) ** 2
    for l in layout.correct:
        w[l] = np.abs(s[l] - s_hat[l]) ** 2
    return w


@dataclass(frozen=True)
class CorrectBlock:
    antenna: int
    mean: np.ndarray  # (2,)
    cov: np.ndarray  # (2, 2)


@dataclass(frozen=True)
class SwapBlock:
    antenna: int
    partner: int
    mean: np.ndarray  # (4,) stacked [n_re, n_im, partner_re, partner_im]
    cov: np.ndarray  # (4, 4)


@dataclass(frozen=True, eq=False)
class DifferenceStatistics:
    """Blockwise mean/covariance of the stacked decision difference.

    The dense vector stacks ``[re, im]`` per antenna in antenna order, so
    the dimension is ``2 * n_rx``.
    """

    n_rx: int
    unselected: tuple[int, ...]
    unselected_var: float
    correct_blocks: tuple[CorrectBlock, ...]
    swap_blocks: tuple[SwapBlock, ...]

    def mean_vector(self) -> np.ndarray:
        mean = np.zeros(2 * self.n_rx)
        for blk in self.correct_blocks:
            mean[2 * (blk.antenna - 1) : 2 * blk.antenna] = blk.mean
        for blk in self.swap_blocks:
            mean[2 * (blk.antenna - 1) : 2 * blk.antenna] = blk.mean[:2]
            mean[2 * (blk.partner - 1) : 2 * blk.partner] = blk.mean[2:]
        return mean

    def covariance(self) -> np.ndarray:
        cov = np.zeros((2 * self.n_rx, 2 * self.n_rx))
        for n in self.unselected:
            i = 2 * (n - 1)
            cov[i, i] = cov[i + 1, i + 1] = self.unselected_var
        for blk in self.correct_blocks:
            i = 2 * (blk.antenna - 1)
            cov[i : i + 2, i : i + 2] = blk.cov
        for blk in self.swap_blocks:
            i = 2 * (blk.antenna - 1)
            j = 2 * (blk.partner - 1)
            cov[i : i + 2, i : i + 2] = blk.cov[:2, :2]
            cov[j : j + 2, j : j + 2] = blk.cov[2:, 2:]
            cov[i : i + 2, j : j + 2] = blk.cov[:2, 2:]
            cov[j : j + 2, i : i + 2] = blk.cov[2:, :2]
        return cov

    def mgf(self, x: float) -> float:
        """Blockwise quadratic-form MGF (products of per-block factors)."""
        log_m = 0.0
        if self.unselected:
            edge = 1.0 - 2.0 * x * self.unselected_var
            if edge <= 0:
                raise MgfDomainError(f"argument x={x} leaves the isotropic blocks indefinite")
            log_m -= len(self.unselected) * math.log(edge)
        for blk in self.correct_blocks:
            log_m += _correct_block_log_mgf(blk, x)
        for blk in self.swap_blocks:
            log_m += float(_block_log_mgf(blk.cov[np.triu_indices(4)], blk.mean, x))
        return math.exp(log_m)


def _correct_block_log_mgf(blk: CorrectBlock, x: float) -> float:
    # rank-1 structure: cov = iso*I + k vv^T with the mean parallel to v
    vv = float(blk.mean @ blk.mean)
    iso = _iso_part(blk.cov)
    along = blk.cov[0, 0] + blk.cov[1, 1] - 2.0 * iso  # k * |v|^2
    e_iso = 1.0 - 2.0 * x * iso
    e_along = 1.0 - 2.0 * x * (iso + along)
    if e_iso <= 0 or e_along <= 0:
        raise MgfDomainError(f"argument x={x} leaves a matched block indefinite")
    return -0.5 * (math.log(e_iso) + math.log(e_along)) + x * vv / e_along


def _iso_part(cov: np.ndarray) -> float:
    # cov = iso*I + k*outer(v, v): the smaller eigenvalue is the isotropic part
    half_tr = 0.5 * (cov[0, 0] + cov[1, 1])
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
    disc = max(half_tr * half_tr - det, 0.0)
    return half_tr - math.sqrt(disc)


def _block_log_mgf(cov, mean, x: float):
    """Log MGF of ``||Z||^2`` for Gaussian blocks, elementwise over a batch.

    ``cov`` holds the upper triangle of each block's covariance ``C`` row by
    row (``C[0, 0], C[0, 1], ..., C[0, n-1], C[1, 1], ...``) and ``mean`` its
    ``n`` mean entries, every entry an array broadcastable to the batch shape
    (0-d for a single block).  With ``A = I - 2xC`` the result is
    ``-1/2 log det A + x m^T A^(-1) m``.  ``A = L L^T`` is factorized by a
    Cholesky recursion unrolled over the entries, interleaved with the
    forward substitution ``L z = m``, so that ``log det A`` is the sum of the
    logged pivots ``L_jj^2`` and ``m^T A^(-1) m = ||z||^2``: every step is
    one numpy elementwise operation over the batch.

    Raises :class:`MgfDomainError` if a pivot is not positive anywhere in
    the batch, i.e. ``x`` leaves ``I - 2xC`` indefinite.
    """
    n = len(mean)
    scale = -2.0 * x
    entries = iter(cov)
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = scale * next(entries) + 1.0
        for j in range(i + 1, n):
            a[j][i] = scale * next(entries)
    low = [[None] * n for _ in range(n)]  # L below the diagonal
    log_det = 0.0
    quad = 0.0
    z = [None] * n
    for j in range(n):
        pivot = a[j][j]
        for k in range(j):
            pivot = pivot - low[j][k] * low[j][k]
        if not np.all(pivot > 0):
            raise MgfDomainError(f"argument x={x} leaves a coupled block indefinite")
        log_det = log_det + np.log(pivot)
        inv = 1.0 / np.sqrt(pivot)
        for i in range(j + 1, n):
            acc = a[i][j]
            for k in range(j):
                acc = acc - low[i][k] * low[j][k]
            low[i][j] = acc * inv
        acc = mean[j]
        for k in range(j):
            acc = acc - low[j][k] * z[k]
        z[j] = acc * inv
        quad = quad + z[j] * z[j]
    return -0.5 * log_det + x * quad


def _swap_entries(s, s_hat, total, n_g: int):
    """Covariance upper triangle and mean of the coupled block of one swap.

    ``s``/``s_hat`` are the swapped position's true and wrong symbols and
    ``total`` the sum of all position weights, as broadcastable arrays.  The
    block stacks ``[antenna_re, antenna_im, partner_re, partner_im]``; the
    ten covariance entries come row by row as :func:`_block_log_mgf` takes
    them, followed by the four mean entries.
    """
    half = n_g / 2.0
    c_mean = n_g * math.sqrt(math.pi) / 2.0
    c_aniso = n_g * (4.0 - math.pi) / 4.0
    c_cross = n_g * math.pi / 8.0
    sr, si = s.real, s.imag
    tr, ti = s_hat.real, s_hat.imag
    var_n = half * (total - np.abs(s) ** 2)
    var_m = half * (total - np.abs(s_hat) ** 2)
    prod = s * s_hat
    a = -c_cross * prod.real
    b = -c_cross * prod.imag
    cov = (
        c_aniso * sr * sr + var_n, c_aniso * sr * si, a, b,
        c_aniso * si * si + var_n, b, -a,
        c_aniso * tr * tr + var_m, c_aniso * tr * ti,
        c_aniso * ti * ti + var_m,
    )
    mean = (c_mean * sr, c_mean * si, -c_mean * tr, -c_mean * ti)
    return cov, mean


def assemble_statistics(
    combination,
    symbols,
    combination_hat,
    symbols_hat,
    config: SystemConfig,
) -> DifferenceStatistics:
    """Gaussian statistics of the decision difference for one ordered pair.

    ``symbols``/``symbols_hat`` are the equivalent received symbol vectors
    (stagger folded in) of the true and the wrong hypothesis.
    """
    layout = pair_layout(combination, combination_hat, config.n_rx)
    s = np.asarray(symbols, dtype=complex)
    s_hat = np.asarray(symbols_hat, dtype=complex)
    n_g = config.n_group
    half = n_g / 2.0
    c_mean = n_g * math.sqrt(math.pi) / 2.0
    c_aniso = n_g * (4.0 - math.pi) / 4.0

    w = _position_weights(layout, s, s_hat)
    total = float(np.sum(w))

    correct_blocks = []
    for l in layout.correct:
        delta = s[l] - s_hat[l]
        dr, di = delta.real, delta.imag
        base = half * (total - w[l])
        cov = np.array(
            [
                [base + c_aniso * dr * dr, c_aniso * dr * di],
                [c_aniso * dr * di, base + c_aniso * di * di],
            ]
        )
        mean = np.array([c_mean * dr, c_mean * di])
        correct_blocks.append(
            CorrectBlock(antenna=int(combination[l]), mean=mean, cov=cov)
        )

    swap_blocks = []
    c = tuple(combination)
    c_hat = tuple(combination_hat)
    for l in layout.swapped:
        upper, mean = _swap_entries(s[l], s_hat[l], total, n_g)
        rows, cols = np.triu_indices(4)
        cov = np.empty((4, 4))
        cov[rows, cols] = cov[cols, rows] = upper
        swap_blocks.append(
            SwapBlock(
                antenna=int(c[l]), partner=int(c_hat[l]), mean=np.array(mean), cov=cov
            )
        )

    return DifferenceStatistics(
        n_rx=config.n_rx,
        unselected=layout.unselected,
        unselected_var=half * total,
        correct_blocks=tuple(correct_blocks),
        swap_blocks=tuple(swap_blocks),
    )


# -- dense MGF reference --------------------------------------------------------


def mgf_quadratic_form(mean, cov, x: float) -> float:
    """MGF of ``||Z||^2`` for Gaussian ``Z`` with the given mean/covariance.

    Dense evaluation ``det(I - 2xC)^(-1/2) * exp(x * m^T (I - 2xC)^(-1) m)``;
    the exponent form is algebraically identical to the textbook
    ``-(1/2) m^T [I - (I - 2xC)^(-1)] C^(-1) m`` but needs no inverse of C,
    so singular covariances are handled without a pseudo-inverse.
    """
    m = np.asarray(mean, dtype=float).ravel()
    c = np.asarray(cov, dtype=float)
    if c.shape != (m.size, m.size):
        raise TheoryError(f"covariance shape {c.shape} does not match mean size {m.size}")
    if not np.allclose(c, c.T, atol=1e-9 * (1.0 + np.abs(c).max())):
        raise TheoryError("covariance matrix is not symmetric")
    eigmin = np.linalg.eigvalsh(c)[0] if c.size else 0.0
    if eigmin < -1e-9 * max(1.0, float(np.abs(c).max())):
        raise TheoryError(f"covariance matrix is not PSD (min eigenvalue {eigmin})")
    a = np.eye(m.size) - 2.0 * x * c
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise MgfDomainError(f"argument x={x} renders I - 2xC indefinite") from exc
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    z = np.linalg.solve(a, m)
    return math.exp(-0.5 * logdet + x * float(m @ z))


# -- pairwise bound ---------------------------------------------------------------


@dataclass(frozen=True)
class PairwiseBound:
    source_index: int
    target_index: int
    value: float
    bit_errors: int


def _mgf_arguments(noise_var: float) -> tuple[float, ...]:
    return tuple(-1.0 / (scale * noise_var) for scale in BOUND_SCALES)


def pairwise_bound(
    source: Codeword, target: Codeword, noise_var: float, codebook: Codebook
) -> PairwiseBound:
    """Exponential upper bound of the average pairwise error probability."""
    if source.index == target.index:
        raise ValueError("pairwise bound needs two distinct codewords")
    stats = assemble_statistics(
        source.combination, source.symbols, target.combination, target.symbols,
        codebook.config,
    )
    value = sum(
        w * stats.mgf(x) for w, x in zip(BOUND_WEIGHTS, _mgf_arguments(noise_var))
    )
    errors = int(
        np.count_nonzero(codebook.bit_table[source.index] != codebook.bit_table[target.index])
    )
    return PairwiseBound(
        source_index=source.index,
        target_index=target.index,
        value=float(value),
        bit_errors=errors,
    )


# -- vectorized row-pair kernel ---------------------------------------------------


def _bound_matrix(codebook: Codebook, row: int, row_hat: int, noise_var: float):
    """Pairwise bounds for all symbol pairs of one ordered row pair.

    Returns a ``(symbols_per_row, symbols_per_row)`` array, or ``None`` if
    the row pair falls outside the antenna taxonomy.
    """
    cfg = codebook.config
    c = tuple(int(v) for v in codebook.combinations[row])
    c_hat = tuple(int(v) for v in codebook.combinations[row_hat])
    try:
        layout = pair_layout(c, c_hat, cfg.n_rx)
    except UnsupportedPairError:
        return None
    return _layout_bound_matrix(codebook, layout.correct, noise_var)


def _layout_bound_matrix(codebook: Codebook, correct, noise_var: float):
    """Bound matrix for a row-pair *layout*.

    The per-antenna statistics are invariant under relabeling antennas, so
    the matrix depends on the row pair only through which positions match;
    every mismatched position couples one fresh source/target antenna pair
    and the remaining ``n_rx - n_active - #mismatches`` antennas are idle.

    All blocks are evaluated at once over the ``(Q, Q)`` grid of symbol
    pairs (``Q`` symbols per row).  Idle antennas and matched 2x2 blocks
    have closed forms; each mismatched position's coupled 4x4 block enters
    as its ten covariance and four mean entries, each a ``(Q, Q)``-
    broadcastable array built once for the three MGF arguments, and goes
    through the elementwise Cholesky kernel :func:`_block_log_mgf`.
    """
    cfg = codebook.config
    correct = tuple(correct)
    swapped = tuple(l for l in range(cfg.n_active) if l not in correct)
    n_unselected = cfg.n_rx - cfg.n_active - len(swapped)

    s_all = codebook.group_symbols  # (Q, n_active)
    n_g = cfg.n_group
    half = n_g / 2.0
    c_mean = n_g * math.sqrt(math.pi) / 2.0
    c_aniso = n_g * (4.0 - math.pi) / 4.0

    count = s_all.shape[0]
    total = np.zeros((count, count))
    for l in range(cfg.n_active):
        s = s_all[:, l][:, None]
        s_hat = s_all[:, l][None, :]
        if l in correct:
            total = total + np.abs(s - s_hat) ** 2
        else:
            total = total + np.abs(s) ** 2 + np.abs(s_hat) ** 2

    matched = []
    for l in correct:
        delta = s_all[:, l][:, None] - s_all[:, l][None, :]
        d2 = np.abs(delta) ** 2
        q = half * (total - d2)
        matched.append((q, q + c_aniso * d2, c_mean * c_mean * d2))
    swaps = [
        _swap_entries(s_all[:, l][:, None], s_all[:, l][None, :], total, n_g)
        for l in swapped
    ]

    bound = np.zeros((count, count))
    for weight, x in zip(BOUND_WEIGHTS, _mgf_arguments(noise_var)):
        log_m = np.zeros((count, count))
        if n_unselected:
            log_m -= n_unselected * np.log(1.0 - 2.0 * x * half * total)
        for q, along, mean_sq in matched:
            e_iso = 1.0 - 2.0 * x * q
            e_along = 1.0 - 2.0 * x * along
            log_m += -0.5 * (np.log(e_iso) + np.log(e_along))
            log_m += x * mean_sq / e_along
        for cov, mean in swaps:
            log_m += _block_log_mgf(cov, mean, x)
        bound += weight * np.exp(log_m)
    return bound


# -- union bound ------------------------------------------------------------------


@dataclass(frozen=True)
class UnionBoundResult:
    value: float
    policy: str
    evaluated_pairs: int
    skipped_pairs: int
    std_error: float | None = None
    signatures: int | None = None  # distinct row-pair layouts (exhaustive policy)

    @property
    def skipped_fraction(self) -> float:
        total = self.evaluated_pairs + self.skipped_pairs
        return self.skipped_pairs / total if total else 0.0


def _symbol_hamming(codebook: Codebook) -> np.ndarray:
    bits = codebook.bit_table[: codebook.symbols_per_row, codebook.config.spatial_bits :]
    return np.count_nonzero(bits[:, None, :] != bits[None, :, :], axis=-1)


def _spatial_hamming(codebook: Codebook) -> np.ndarray:
    bits = codebook.bit_table[:: codebook.symbols_per_row, : codebook.config.spatial_bits]
    return np.count_nonzero(bits[:, None, :] != bits[None, :, :], axis=-1)


def union_bound_ber(
    codebook: Codebook,
    noise_var: float,
    policy: str = "exhaustive",
    *,
    pair_ceiling: int = DEFAULT_PAIR_CEILING,
    sample_pairs: int = 10_000,
    rng: np.random.Generator | None = None,
) -> UnionBoundResult:
    """Bit-error-weighted union bound on the average BER.

    ``policy`` is ``"exhaustive"`` (all ordered codeword pairs; refused above
    ``pair_ceiling``) or ``"sampled"`` (``sample_pairs >= 2`` uniform random
    ordered pairs with unbiased scaling).  Pairs outside the antenna taxonomy
    contribute zero and are reported through ``skipped_pairs``.
    """
    size = codebook.size
    rate = codebook.config.rate
    ordered = size * (size - 1)

    if policy == "exhaustive":
        if ordered > pair_ceiling:
            raise EnumerationRefusedError(
                f"{ordered} ordered pairs exceed the ceiling of {pair_ceiling}; "
                "opt into the sampled policy"
            )
        sym_hd = _symbol_hamming(codebook)
        spa_hd = _spatial_hamming(codebook)
        n_rows = codebook.combinations.shape[0]
        per_row = codebook.symbols_per_row
        combos = [tuple(int(v) for v in row) for row in codebook.combinations]
        # the bound matrix depends on the row pair only through which
        # positions match, so group row pairs by that signature
        signatures: dict[tuple[int, ...], list[int]] = {}
        skipped = 0
        for row in range(n_rows):
            for row_hat in range(n_rows):
                try:
                    layout = pair_layout(combos[row], combos[row_hat], codebook.config.n_rx)
                except UnsupportedPairError:
                    skipped += per_row * per_row
                    continue
                entry = signatures.setdefault(layout.correct, [0, 0])
                entry[0] += 1
                entry[1] += int(spa_hd[row, row_hat])
        total = 0.0
        for correct, (pair_count, spatial_sum) in signatures.items():
            bound = _layout_bound_matrix(codebook, correct, noise_var)
            # diagonal symbol pairs carry zero Hamming weight, so the
            # same-codeword entries of same-row pairs drop out by themselves
            total += spatial_sum * float(np.sum(bound))
            total += pair_count * float(np.sum(bound * sym_hd))
        evaluated = ordered - skipped
        return UnionBoundResult(
            value=total / (size * rate),
            policy=policy,
            evaluated_pairs=evaluated,
            skipped_pairs=skipped,
            signatures=len(signatures),
        )

    if policy != "sampled":
        raise ValueError(f"unknown enumeration policy {policy!r}")
    if sample_pairs < 2:
        raise ValueError(
            f"the sampled policy needs at least 2 pairs for its standard error, got {sample_pairs}"
        )

    rng = rng if rng is not None else np.random.default_rng(codebook.config.seed)
    sources = rng.integers(0, size, size=sample_pairs)
    offsets = rng.integers(1, size, size=sample_pairs)
    targets = (sources + offsets) % size
    terms = np.zeros(sample_pairs)
    skipped = 0
    for k in range(sample_pairs):
        src = codebook.codeword(int(sources[k]))
        dst = codebook.codeword(int(targets[k]))
        try:
            pb = pairwise_bound(src, dst, noise_var, codebook)
        except UnsupportedPairError:
            skipped += 1
            continue
        terms[k] = pb.value * pb.bit_errors
    value = (size - 1) * float(np.mean(terms)) / rate
    std_error = (size - 1) * float(np.std(terms, ddof=1)) / math.sqrt(sample_pairs) / rate
    return UnionBoundResult(
        value=value,
        policy=policy,
        evaluated_pairs=sample_pairs - skipped,
        skipped_pairs=skipped,
        std_error=std_error,
    )
