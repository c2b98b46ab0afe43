"""Analytical average-BER machinery: difference statistics, MGF, union bound.

For an ordered codeword pair, the per-antenna decision difference (true
hypothesis response minus wrong hypothesis response) is modeled as Gaussian
by the central limit theorem over the group elements.  Each position's
antennas form one coupled 4x4 block, ``[antenna_re, antenna_im,
partner_re, partner_im]``, of its true and wrong symbol:

* a position decoded to another antenna (a swap) couples the two antennas,
  with symbols ``(s, s_hat)``;
* a position decoded to its own antenna (kept) is the swap ``(s - s_hat,
  0)``: its antenna half is an anisotropic 2x2 block driven by the symbol
  difference, and its partner half, uncoupled, zero-mean and isotropic, is
  exactly an idle antenna;
* antennas selected by neither hypothesis (idle) have zero mean and are
  isotropic.

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

One entries function, :func:`_swap_entries`, gives a block's covariance
upper triangle and mean.  One pair's statistics are one dense mean and
covariance over the ``2 * n_rx`` stacked dimensions:
:func:`assemble_statistics` sets the idle variance on the diagonal and writes
each swap's entries into its two antennas' ``[re, im]`` dimensions and each
kept position's antenna half into its antenna's.  One pair's MGF is the
dense :func:`mgf_quadratic_form` of :meth:`DifferenceStatistics.mean_vector`
and :meth:`DifferenceStatistics.covariance`.

The MGF factors over the blocks.  A layout with ``k`` kept positions has
``n_rx - 2 * n_active + k`` idle antennas, so every kept block takes one as
its partner and ``n_rx - 2 * n_active`` are left over, for one closed form.
Every block goes through one kernel, :func:`_block_log_mgf`: a Cholesky
factorization of ``I - 2xC`` unrolled over the block's entries plus a
forward substitution, written as numpy elementwise operations over a batch
of blocks of any size.  Every domain check (``I - 2xC`` positive definite)
comes before any log.

:func:`union_bound_ber` sums the bound over every supported ordered pair
exactly, without visiting the pairs one by one:

* a pair's statistics depend on its rows only through which positions match
  (the layout signature), so row pairs are grouped by signature, all at once
  from one comparison of the combination table with itself
  (:func:`_row_pair_signatures`);
* within a layout, a pair's MGF depends on its symbols only through
  rotation-invariant keys, ``|s - s_hat|**2`` at a matched position and
  ``(|s|, |s_hat|)`` at a swapped one (rotating each antenna's plane by the
  phase of its own symbol leaves the quadratic form's distribution
  unchanged; see Mathai & Provost, *Quadratic Forms in Random Variables*,
  1992, for the moments of Gaussian quadratic forms);
* a symbol label is a concatenation of independent factor labels (one per
  group for MUX, one shared label for diversity and RGSSK), so each factor's
  label pairs are grouped by key, and the MGF is evaluated once per tuple
  of factor keys;
* each factor ranks its keys once (:func:`_label_pairs`), and each pattern
  of matched positions groups the factor's label pairs by one integer code
  of its key ranks (:func:`_group_keys`).

The key tuples of every layout form one flat batch of slots
(:func:`_slot_batch`), built once per codebook together with the row-pair
signatures (:func:`_noise_free_batch`).  A slot's bit-error weight, summed
over the ordered pairs it stands for, does not depend on the noise, so the
batch stores one weight per slot.  An SNR point is then one weighted sum
(:func:`_bound_sum`): the left-over idle antennas' closed form once,
:func:`_block_log_mgf` once for every position's block of every slot,
``exp`` once, and the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import SystemConfig
from .mapping import Codebook


BOUND_WEIGHTS = (1.0 / 6.0, 1.0 / 12.0, 1.0 / 4.0)
BOUND_SCALES = (1.0, 2.0, 4.0)  # MGF arguments are -1/(scale * noise_var)

PAIR_CEILING = 2**27  # admits rate 13 (6.7e7 ordered pairs), refuses rate 15


class TheoryError(ValueError):
    """Invalid statistics input (asymmetric or non-PSD covariance)."""


class MgfDomainError(TheoryError):
    """The MGF argument leaves ``I - 2xC`` indefinite."""


class UnsupportedPairError(ValueError):
    """Codeword pair outside the three-way antenna taxonomy."""


class EnumerationRefusedError(RuntimeError):
    """Exhaustive pair enumeration exceeds the configured ceiling."""


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
    correct = tuple(l for l in range(len(c)) if c[l] == c_hat[l])
    swapped = tuple(l for l in range(len(c)) if c[l] != c_hat[l])
    used = set(c) | set(c_hat)
    unselected = tuple(n for n in range(1, n_rx + 1) if n not in used)
    return PairLayout(correct=correct, swapped=swapped, unselected=unselected)


# -- statistics assembly -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DifferenceStatistics:
    """Mean and covariance of the stacked decision difference.

    The vector stacks ``[re, im]`` per antenna in antenna order, so the
    dimension is ``2 * n_rx``.
    """

    _mean: np.ndarray
    _cov: np.ndarray

    def mean_vector(self) -> np.ndarray:
        return self._mean.copy()

    def covariance(self) -> np.ndarray:
        return self._cov.copy()


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
            raise MgfDomainError(f"argument x={x} leaves a Gaussian block indefinite")
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
    """Covariance upper triangle and mean of the coupled block of one position.

    ``s``/``s_hat`` are a swapped position's true and wrong symbols (a kept
    position's are ``s - s_hat`` and 0) and ``total`` the sum of all
    position weights, as broadcastable arrays.  The block stacks
    ``[antenna_re, antenna_im, partner_re, partner_im]``; the ten covariance
    entries come row by row as :func:`_block_log_mgf` takes them, followed
    by the four mean entries.
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
    c = np.asarray(combination)
    c_hat = np.asarray(combination_hat)
    n_g = config.n_group
    # exact second moment of each group's interference contribution
    total = float(
        np.where(c == c_hat, np.abs(s - s_hat) ** 2, np.abs(s) ** 2 + np.abs(s_hat) ** 2).sum()
    )
    mean = np.zeros(2 * config.n_rx)
    cov = np.diag(np.full(2 * config.n_rx, n_g / 2.0 * total))  # idle antennas
    blocks = []
    for l in layout.correct:
        # a kept position is a swap whose wrong symbol is zero; its partner
        # half is an idle antenna, so the block is the true antenna's half
        upper, block_mean = _swap_entries(s[l] - s_hat[l], 0.0, total, n_g)
        blocks.append(((c[l],), ([upper[i] for i in (0, 1, 4)], block_mean[:2])))
    blocks += [
        ((c[l], c_hat[l]), _swap_entries(s[l], s_hat[l], total, n_g)) for l in layout.swapped
    ]
    for antennas, (upper, block_mean) in blocks:
        dims = np.ravel([(2 * a - 2, 2 * a - 1) for a in antennas])
        rows, cols = np.triu_indices(dims.size)
        mean[dims] = block_mean
        cov[dims[rows], dims[cols]] = cov[dims[cols], dims[rows]] = upper
    return DifferenceStatistics(mean, cov)


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


# -- union bound ------------------------------------------------------------------

# keys closer than this (relative to the largest key of their table) are the
# same key: equal moduli and distances computed along different rounding paths
_KEY_RESOLUTION = 2.0**-40

# bytes of temporaries per chunk of rows in the row-pair classification
_CLASSIFY_BYTES = 32 * 2**20

_BYTE_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def _mgf_arguments(noise_var: float) -> tuple[float, ...]:
    return tuple(-1.0 / (scale * noise_var) for scale in BOUND_SCALES)


def _popcount(values) -> np.ndarray:
    """Set bits of non-negative integers, elementwise."""
    values = np.asarray(values, dtype=np.int64)
    count = np.zeros(values.shape, dtype=np.int64)
    while np.any(values):
        count += _BYTE_POPCOUNT[values & 0xFF]
        values = values >> 8
    return count


def _first_and_group(values: np.ndarray):
    """``(earliest element of each group, group of every element)`` of the
    equal entries of ``values``; groups ascend by value."""
    _, first, group = np.unique(values, return_index=True, return_inverse=True)
    return first, group.ravel()  # the inverse's shape changed in numpy 2.0 and 2.1


@dataclass(frozen=True)
class UnionBoundResult:
    value: float
    evaluated_pairs: int
    skipped_pairs: int
    signatures: int  # distinct row-pair layouts

    @property
    def skipped_fraction(self) -> float:
        total = self.evaluated_pairs + self.skipped_pairs
        return self.skipped_pairs / total if total else 0.0


def _row_pair_signatures(combinations, max_bytes: int = _CLASSIFY_BYTES):
    """Group the ordered row pairs of a combination table by layout signature.

    Returns ``(signatures, skipped)``.  ``signatures`` maps the matched
    positions of :func:`pair_layout` to ``(row pairs, summed spatial Hamming
    distance)``, in the order of first occurrence over ``(row, row_hat)``;
    ``skipped`` counts the row pairs with an antenna at different positions.
    ``eq[r, r', l, l']`` compares every row's antennas with every row's at
    once: its diagonal is the matched mask, a hit off the diagonal makes the
    pair unsupported.  Rows go in chunks whose temporaries stay under about
    ``max_bytes``.
    """
    combos = np.asarray(combinations, dtype=np.int64)
    n_rows, n_pos = combos.shape
    rows = np.arange(n_rows)
    place = 1 << np.arange(n_pos, dtype=np.int64)
    # per row pair: the L x L comparison, L int64 products for the code and
    # about ten int64 temporaries
    chunk = max(1, max_bytes // (n_rows * (n_pos * (n_pos + 8) + 80)))
    found: dict[int, list[int]] = {}
    skipped = 0
    for start in range(0, n_rows, chunk):
        eq = combos[start : start + chunk, None, :, None] == combos[None, :, None, :]
        matched = np.diagonal(eq, axis1=2, axis2=3)
        supported = np.count_nonzero(eq, axis=(2, 3)) == np.count_nonzero(matched, axis=-1)
        code = (matched @ place)[supported]
        hamming = _popcount(rows[start : start + chunk, None] ^ rows[None, :])[supported]
        skipped += supported.size - code.size
        first, group = _first_and_group(code)
        pairs = np.bincount(group)
        spatial = np.bincount(group, weights=hamming)
        for i in np.argsort(first):
            entry = found.setdefault(int(code[first[i]]), [0, 0])
            entry[0] += int(pairs[i])
            entry[1] += int(spatial[i])
    signatures = {
        tuple(l for l in range(n_pos) if code >> l & 1): tuple(entry)
        for code, entry in found.items()
    }
    return signatures, skipped


def _label_factors(codebook: Codebook) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """Independent factors of a row's symbol label.

    Each factor is ``(positions, symbols)``: the positions it drives and
    their ``(M,)`` symbol by factor label, one symbol for all of them.  A
    MUX label concatenates one label per group
    (:attr:`Codebook.label_symbols`), so each group is a factor; diversity
    and RGSSK rows send one shared symbol on every group, a single factor
    over all positions.
    """
    cfg = codebook.config
    symbols = codebook.group_symbols
    if not cfg.scheme.is_mux:
        return [(tuple(range(cfg.n_active)), symbols[:, 0])]
    per_group = symbols[codebook.label_symbols, np.arange(cfg.n_active)]
    return [((l,), per_group[:, l]) for l in range(cfg.n_active)]


class _LabelPairs(NamedTuple):
    """A factor's ``(M, M)`` label pairs, pair ``(a, b)`` at ``a * M + b``."""

    symbols: np.ndarray  # (M,) symbol by label
    distance: np.ndarray  # (M * M,) rank of each pair's |s - s_hat|**2
    power: np.ndarray  # (M,) rank of each label's |s|**2
    hamming: np.ndarray  # (M * M,) label Hamming distance of each pair


def _label_pairs(symbols: np.ndarray) -> _LabelPairs:
    """Rank a factor's keys once, quantized on one grid: keys that are equal
    on the grid share a rank, and ranks keep the keys' order."""
    m = symbols.size
    distance = np.abs(symbols[:, None] - symbols[None, :]).ravel() ** 2
    power = np.abs(symbols) ** 2
    scale = _KEY_RESOLUTION * max(float(distance.max()), float(power.max()), 1e-300)
    return _LabelPairs(
        symbols=symbols,
        distance=np.unique(np.round(distance / scale), return_inverse=True)[1].ravel(),
        power=np.unique(np.round(power / scale), return_inverse=True)[1].ravel(),
        hamming=_popcount(np.bitwise_xor.outer(np.arange(m), np.arange(m)).ravel()),
    )


class _FactorKeys(NamedTuple):
    """Distinct rotation-invariant keys of one factor's label pairs."""

    s: np.ndarray  # (K,) true symbol of the earliest label pair with the key
    s_hat: np.ndarray  # (K,) its wrong symbol
    count: np.ndarray  # (K,) label pairs with the key
    hamming: np.ndarray  # (K,) summed label Hamming distance of those pairs


def _group_keys(pairs: _LabelPairs, rows) -> _FactorKeys:
    """Group label pairs by the key ``rows`` (0: ``|s - s_hat|**2``, 1:
    ``|s|**2``, 2: ``|s_hat|**2``) in lexicographic order, last row most
    significant, through one mixed-radix code of the rows' ranks (below
    ``M**4`` under :data:`PAIR_CEILING`), sorted in its narrowest unsigned
    type: numpy sorts 16-bit codes by radix, 64-bit ones far slower."""
    m, power = pairs.symbols.size, pairs.power
    columns = [pairs.distance, np.repeat(power, m), np.tile(power, m)]
    code = np.zeros(m * m, dtype=np.int64)
    for rank in reversed([columns[r] for r in rows]):
        code = code * (int(rank.max()) + 1) + rank
    first, group = _first_and_group(code.astype(np.min_scalar_type(code.max())))
    return _FactorKeys(
        s=pairs.symbols[first // m],
        s_hat=pairs.symbols[first % m],
        count=np.bincount(group),
        hamming=np.bincount(group, weights=pairs.hamming),
    )


class _SlotBatch(NamedTuple):
    """Noise-independent inputs of the bound, one slot per tuple of factor
    keys of a layout, the layouts' key grids flattened one after another.

    Every position of a slot is one coupled block with the moduli of its
    true and wrong symbol: a swapped position keeps ``(|s|, |s_hat|)``, a
    kept one is the swap ``(|s - s_hat|, 0)``, whose partner half is one of
    the layout's idle antennas.
    """

    n_group: int
    idle: int  # idle antennas besides the kept blocks' partners, n_rx - 2 * n_active
    total: np.ndarray  # (G,) summed position weights
    weight: np.ndarray  # (G,) summed bit errors of the ordered pairs of the slot
    s: np.ndarray  # (G, n_active) true symbol modulus of each position's block
    s_hat: np.ndarray  # (G, n_active) its wrong symbol modulus


def _slot_batch(codebook: Codebook, signatures) -> _SlotBatch:
    """Flatten the key grids of the layouts of ``signatures`` into one batch
    of slots.

    ``signatures`` maps a layout's matched positions to its ``(row pairs,
    summed spatial Hamming distance)`` (:func:`_row_pair_signatures`).  In a
    layout each label factor's keys lie along its own axis; the symbol pair
    count of a slot is the product of the factors' counts ``n_f`` and its
    label Hamming sum ``sum_f h_f prod_{g != f} n_g``.  Every row pair of
    the layout meets every symbol pair of the slot, so the slot's weight is
    ``spatial sum * count + row pairs * label Hamming sum``.  Each factor's
    keys are ranked once, and its label pairs are grouped once per pattern
    of matched positions, on key row 0 (``|s - s_hat|``) of a matched
    position and rows 1, 2 (``|s|``, ``|s_hat|``) of a swapped one.
    """
    cfg = codebook.config
    factors = [(positions, _label_pairs(s)) for positions, s in _label_factors(codebook)]
    grouped: dict[tuple, _FactorKeys] = {}
    totals, weights, moduli, moduli_hat = [], [], [], []  # per layout
    for correct, (row_pairs, spatial) in signatures.items():
        keys = []
        for f, (positions, pairs) in enumerate(factors):
            flags = tuple(l in correct for l in positions)
            if (f, flags) not in grouped:
                rows = dict.fromkeys(r for flag in flags for r in ((0,) if flag else (1, 2)))
                grouped[f, flags] = _group_keys(pairs, list(rows))
            keys.append(grouped[f, flags])
        shape = [key.count.size for key in keys]
        slots = np.unravel_index(np.arange(math.prod(shape)), shape)
        total, count, hamming = 0.0, 1.0, 0.0
        # |s| and |s_hat| of each position's block
        mod, mod_hat = [None] * cfg.n_active, [None] * cfg.n_active
        for (positions, _), key, i in zip(factors, keys, slots):
            n, h = key.count[i], key.hamming[i]
            hamming = hamming * n + h * count
            count = count * n
            for l in positions:
                if l in correct:
                    # rotated by its own phase, the difference s - s_hat is real
                    mod[l] = np.abs(key.s[i] - key.s_hat[i])
                    mod_hat[l] = np.zeros_like(mod[l])
                else:
                    mod[l], mod_hat[l] = np.abs(key.s[i]), np.abs(key.s_hat[i])
                total = total + mod[l] ** 2 + mod_hat[l] ** 2
        totals.append(total)
        # same-codeword pairs have zero Hamming weight (and a same-row
        # signature zero spatial weight), so they drop out by themselves
        weights.append(spatial * count + row_pairs * hamming)
        moduli.append(np.stack(mod, axis=1))
        moduli_hat.append(np.stack(mod_hat, axis=1))
    return _SlotBatch(
        n_group=cfg.n_group,
        idle=cfg.n_rx - 2 * cfg.n_active,
        total=np.concatenate(totals),
        weight=np.concatenate(weights),
        s=np.concatenate(moduli),
        s_hat=np.concatenate(moduli_hat),
    )


def _bound_sum(batch: _SlotBatch, noise_var: float) -> float:
    """``sum weight * B`` over the slots of the batch.

    ``B`` is the three-term bound of one symbol pair.  One closed form
    covers the idle antennas left over by the blocks and one
    :func:`_block_log_mgf` call every position of every slot; the
    three MGF arguments lie along a leading axis.  Each slot adds its idle
    antennas' and then its blocks' log-MGFs position by position.
    """
    x = np.reshape(_mgf_arguments(noise_var), (-1, 1))
    n_g = batch.n_group
    log_m = 0.0
    if batch.idle:
        edge = 1.0 - 2.0 * x * (n_g / 2.0) * batch.total
        if not np.all(edge > 0):
            raise MgfDomainError(f"argument x={x.ravel()} leaves the idle antennas indefinite")
        log_m = -batch.idle * np.log(edge)
    entries = _swap_entries(batch.s, batch.s_hat, batch.total[:, None], n_g)
    blocks = _block_log_mgf(*entries, x[..., None])
    for l in range(blocks.shape[-1]):
        log_m = log_m + blocks[..., l]
    return float(BOUND_WEIGHTS @ np.exp(log_m) @ batch.weight)


def _noise_free_batch(codebook: Codebook):
    """``(signature count, skipped row pairs, slot batch)`` of a codebook:
    every input of the bound that does not depend on the noise.

    Built at the first call and kept on the codebook, so it lives exactly as
    long as the codebook does.
    """
    work = getattr(codebook, "_bound_work", None)
    if work is None:
        # a pair's statistics depend on its rows only through which
        # positions match, so row pairs are grouped by that signature
        signatures, skipped_rows = _row_pair_signatures(codebook.combinations)
        work = len(signatures), skipped_rows, _slot_batch(codebook, signatures)
        codebook._bound_work = work
    return work


def check_pair_ceiling(size: int) -> int:
    """Ordered pairs of a codebook of ``size`` codewords; raises
    :class:`EnumerationRefusedError` above :data:`PAIR_CEILING`.

    Needs the size alone, so a caller can refuse before building the codebook.
    """
    ordered = size * (size - 1)
    if ordered > PAIR_CEILING:
        raise EnumerationRefusedError(
            f"{ordered} ordered pairs exceed the ceiling of {PAIR_CEILING}"
        )
    return ordered


def union_bound_ber(codebook: Codebook, noise_var: float) -> UnionBoundResult:
    """Bit-error-weighted union bound on the average BER over all ordered pairs.

    Refused with :class:`EnumerationRefusedError` above :data:`PAIR_CEILING`
    ordered pairs.  Pairs outside the antenna taxonomy contribute zero and
    are reported through ``skipped_pairs``.  A codeword's label is its index
    in natural binary, so the bit errors of a pair are the set bits of the
    XOR of the row indices plus those of the factor labels.
    """
    cfg = codebook.config
    size = codebook.size
    ordered = check_pair_ceiling(size)
    signatures, skipped_rows, batch = _noise_free_batch(codebook)
    skipped = skipped_rows * codebook.symbols_per_row**2
    return UnionBoundResult(
        value=_bound_sum(batch, noise_var) / (size * cfg.rate),
        evaluated_pairs=ordered - skipped,
        skipped_pairs=skipped,
        signatures=signatures,
    )
