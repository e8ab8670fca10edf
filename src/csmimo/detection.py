"""Receiver chain: ZF equalization followed by per-sub-block sparse recovery.

The practical receiver works in two steps.  Zero-forcing equalization
restores the compressed transmit vector, which is then split into
sub-blocks; each sub-block is matched against the exhaustive candidate
dictionary through the compression matrix, which transmitter and receiver
share as one :class:`Codebook`.  Every sub-block is exactly 1-sparse over
that dictionary, so a minimum-residual scan solves the l0 problem exactly.
The matrix is real and both alphabets are the product set of their I/Q
levels, so the scan of the ``q**n`` columns splits into two scans of the
``√q**n`` real level tuples, which need no dictionary (the real-valued
model of MIMO detection, Hassibi & Vikalo, IEEE T-SP 53(8), 2005); a tied
half-scan minimum is rescored jointly.  OMP is kept as the generic greedy
solver, and a one-shot mode finds the exact joint ML choice of all
sub-blocks directly on the received vector, without equalizing first, by
a block sphere search after a QR factorization of the channel.

Both factorizations, the SVD that ZF and the usability check read and the
QR of the one-shot search, are cached on the :class:`ChannelRealization`,
each made once per stack of channels: callers that detect the same channels
at several SNR points pass the same object to every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import ChannelRealization
from .csmux import MeasurementMatrix, MuxConfig, transmit_gain
from .dictionary import SubblockDictionary, build_dictionary
from .errors import DictionaryTooLarge, DimensionMismatch, RankDeficientChannel
from .modem import Constellation, get_constellation

RANK_TOL = 1e-12

# A half-scan metric within this fraction of ||x||² + max ||Φ P_u||² of the
# minimum counts as tied with it.  The rounding of either scan is of order
# 1e-15 of that sum, so beyond it the joint scan picks the same pair.
_TIE_RTOL = 1e-9

SOLVERS = ("ml", "omp", "oneshot")


@dataclass(frozen=True)
class EqualizerOutput:
    """Equalized vector plus the channel condition number as a diagnostic.

    For a stack of channels both carry the leading trial axes.
    """

    z_hat: np.ndarray
    condition_number: float | np.ndarray


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered sub-block indices and the reassembled symbol vector.

    ``residuals`` holds one value per sub-block for the two-step solvers;
    the one-shot solver reports a single joint residual instead, and has no
    equalizer condition number (``nan``).  For a stack of channels every
    field carries the leading trial axes.
    """

    s_indices: np.ndarray
    x_hat: np.ndarray
    residuals: np.ndarray
    condition_number: float | np.ndarray


def zf_equalize(
    y: np.ndarray, h: ChannelRealization, gain: float = 1.0
) -> EqualizerOutput:
    """Zero-forcing equalizer: pseudo-inverse of a full-column-rank channel.

    Solves ``min ||h z - y||`` and divides out ``gain`` (the transmit power
    normalization).  Raises :class:`RankDeficientChannel` when the smallest
    singular value falls below ``RANK_TOL`` times the largest, or when the
    system is underdetermined.  A stack of channels takes ``y`` of shape
    ``(..., nr)`` and equalizes every trial, bit for bit as one at a time.
    """
    y = np.asarray(y, dtype=np.complex128)
    if not h.stack_shape:
        y = y.ravel()
    if y.shape != h.stack_shape + (h.nr,):
        raise DimensionMismatch(
            f"received vectors of shape {y.shape} do not match nr {h.nr}"
            f" for trials {h.stack_shape}"
        )
    if h.m_tx > h.nr:
        raise RankDeficientChannel(
            f"channel with {h.m_tx} inputs and {h.nr} outputs cannot be column rank"
        )
    u, s, vh = h.svd
    bad = s[..., -1] <= RANK_TOL * s[..., 0]
    if bad.any():
        worst = s[np.unravel_index(bad.argmax(), bad.shape)]
        raise RankDeficientChannel(
            f"singular value ratio {worst[-1]:.3e}/{worst[0]:.3e} below tolerance"
        )
    # stacked matrix-vector products, bit for bit the single-channel ones
    w = (u.conj().swapaxes(-1, -2) @ y[..., None]) / s[..., None]
    z_hat = (vh.conj().swapaxes(-1, -2) @ w)[..., 0]
    return EqualizerOutput(z_hat / gain, (s[..., 0] / s[..., -1])[()])


def channel_is_usable(h: ChannelRealization) -> bool | np.ndarray:
    """True when ZF equalization of ``h`` would not raise; one flag per trial
    for a stack of channels."""
    if h.m_tx > h.nr:
        return np.zeros(h.stack_shape, dtype=bool)[()]
    s = h.svd[1]
    return (s[..., -1] > RANK_TOL * s[..., 0])[()]


def sensing_matrix(
    phi: MeasurementMatrix, dictionary: SubblockDictionary
) -> np.ndarray:
    """Per-sub-block candidate matrix: compression applied to every column."""
    if phi.phi.shape[1] != dictionary.psi.shape[0]:
        raise DimensionMismatch(
            f"phi has {phi.phi.shape[1]} columns for sub-blocks of"
            f" {dictionary.psi.shape[0]} symbols"
        )
    return phi.phi @ dictionary.psi


def _colnorm2(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every column of a complex matrix."""
    return np.einsum("ij,ij->j", a.real, a.real) + np.einsum("ij,ij->j", a.imag, a.imag)


def _scan_matrix(a: np.ndarray) -> np.ndarray:
    """Real ``(2·rows + 1, d)`` scan matrix ``[-2 Re a; -2 Im a; ||a||²]`` of
    a complex ``(rows, d)`` matrix, or ``(rows + 1, d)`` ``[-2 a; ||a||²]`` of
    a real one; its last row is :func:`_colnorm2` of ``a``."""
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    scan = np.empty((len(parts) * a.shape[0] + 1, a.shape[1]))
    np.multiply(np.concatenate(parts), -2.0, out=scan[:-1])
    scan[-1] = _colnorm2(a)
    return scan


@dataclass(frozen=True, eq=False)
class Codebook:
    """What transmitter and receiver share for one setup ``cfg``: its
    ``(m/j, l/j)`` sub-block matrix ``phi``.  The rest derives from the two,
    once and on first use; ``ml`` reads no ``dictionary`` or ``sensing`` but
    for a tied block.  Two codebooks compare and hash by identity.
    """

    cfg: MuxConfig
    phi: MeasurementMatrix

    def __post_init__(self) -> None:
        rows, cols = self.phi.phi.shape
        if (rows, cols) != (self.cfg.subblock_rows, self.cfg.subblock_cols):
            raise DimensionMismatch(
                f"phi has {cols} columns for sub-blocks of {self.cfg.subblock_cols} symbols"
                f" and {rows} rows for {self.cfg.subblock_rows} transmit dimensions"
            )

    @cached_property
    def alphabet(self) -> Constellation:
        """The registry constellation ``cfg`` names."""
        return get_constellation(self.cfg.constellation)

    @cached_property
    def dictionary(self) -> SubblockDictionary:
        """All ``q**(l/j)`` candidate sub-blocks, :func:`build_dictionary`."""
        return build_dictionary(self.alphabet, self.cfg.subblock_cols, cap=self.cfg.dictionary_cap)

    @cached_property
    def sensing(self) -> np.ndarray:
        """:func:`sensing_matrix` of ``phi`` and ``dictionary``; read-only."""
        sensing = sensing_matrix(self.phi, self.dictionary)
        sensing.flags.writeable = False
        return sensing

    @cached_property
    def scan(self) -> np.ndarray:
        """:func:`_scan_matrix` of ``sensing``, the matrix the joint ``ml``
        scan of a tied half-scan multiplies; read-only."""
        scan = _scan_matrix(self.sensing)
        scan.flags.writeable = False
        return scan

    @cached_property
    def iq_scan(self) -> tuple[np.ndarray, np.ndarray]:
        """What the I/Q-split ``ml`` scan reads, both read-only: the real
        ``(rows + 1, p)`` :func:`_scan_matrix` ``[-2ΦP; ||ΦP||²]``, whose
        ``P`` holds the ``p = √q**n`` tuples of the alphabet's I/Q levels
        in the dictionary's little-endian mixed-radix order, and the
        ``(p, p)`` dictionary column of real parts ``P[:, u]`` and imaginary
        parts ``P[:, v]`` at ``[u, v]``."""
        c, n = self.alphabet, self.cfg.subblock_cols
        levels, r = c.iq_levels, c.iq_levels.size
        digits = (np.arange(r**n) // r ** np.arange(n)[:, None]) % r
        point_of = np.empty((r, r), dtype=np.int64)
        point_of[np.searchsorted(levels, c.points.real), np.searchsorted(levels, c.points.imag)] = (
            np.arange(c.order)
        )
        joint = sum(point_of[np.ix_(digit, digit)] * c.order**i for i, digit in enumerate(digits))
        scan = _scan_matrix(self.phi.phi @ levels[digits])
        scan.flags.writeable = joint.flags.writeable = False
        return scan, joint

    @cached_property
    def omp_norms(self) -> np.ndarray:
        """Column norms of ``sensing`` as :func:`recover_subblock_omp` forms
        them, a zero column as ``inf``: the divisor of the ``omp`` pick's
        normalized correlation; read-only."""
        norms = np.linalg.norm(self.sensing, axis=0)
        norms = np.where(norms > 0, norms, np.inf)
        norms.flags.writeable = False
        return norms

    @cached_property
    def gain(self) -> float:
        """:func:`transmit_gain` of ``phi`` for ``cfg``."""
        return transmit_gain(self.phi, self.cfg)


def _ml_scan(z: np.ndarray, scan: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest column of ``a`` to each row of the ``(..., J, rows)`` blocks ``z``.

    ``scan`` is :func:`_scan_matrix` of ``a``.  Returns the ``(..., J)``
    argmin indices (ties to the lowest) and residual norms.
    """
    # ||z_j - a_k||^2 = ||z_j||^2 - 2 Re<a_k, z_j> + ||a_k||^2, and
    # [Re z_j, Im z_j, 1] @ scan gives the last two terms for every k in one
    # real product.  ||z_j||^2 is the same for every k, so it is added only
    # to the picked entry.  The product runs as one (J, 2·rows + 1) @ scan
    # call per leading index: merging trials into one taller product can
    # change the last bit.
    zr = np.concatenate((z.real, z.imag, np.ones(z.shape[:-1] + (1,))), axis=-1)
    metric = zr @ scan
    k = metric.argmin(axis=-1)
    best = np.take_along_axis(metric, k[..., None], axis=-1)[..., 0]
    best += np.einsum("...i,...i->...", zr[..., :-1], zr[..., :-1])
    return k, np.sqrt(np.maximum(best, 0.0))


def _ml_split(z: np.ndarray, code: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_ml_scan` of the ``(..., J, rows)`` blocks ``z`` against
    ``code.scan``, scored as two real half-scans against ``code.iq_scan``.

    ``||z - Φψ||² = ||Re z - Φ Re ψ||² + ||Im z - Φ Im ψ||²`` for a real
    ``Φ``, so the joint argmin is the pair of half argmins.  The indices are
    those of the joint scan, and the residuals equal the joint scan's to
    rounding.  A trial with a tied half minimum is rescored by the joint
    scan, whose tie rule is the lowest joint index.
    """
    scan, joint = code.iq_scan
    j = z.shape[-2]
    # rows 0 .. J-1 score the real parts of the blocks and rows J .. 2J-1
    # the imaginary parts, in one real product per leading index
    zr = np.empty(z.shape[:-2] + (2 * j, z.shape[-1] + 1))
    zr[..., :j, :-1] = z.real
    zr[..., j:, :-1] = z.imag
    zr[..., -1] = 1.0
    metric = zr @ scan
    k = metric.argmin(axis=-1)
    best = metric.reshape(-1, scan.shape[1])[np.arange(k.size), k.ravel()].reshape(k.shape)
    xx = np.einsum("...i,...i->...", zr[..., :-1], zr[..., :-1])
    near = metric <= (best + _TIE_RTOL * (xx + scan[-1].max()))[..., None]
    best += xx
    res = np.sqrt(np.maximum(best[..., :j] + best[..., j:], 0.0))
    k = joint[k[..., :j], k[..., j:]]
    # every half has its minimum near, one entry unless tied
    if np.count_nonzero(near) != best.size:
        tied = near.sum(axis=-1) != 1
        again = (tied[..., :j] | tied[..., j:]).any(axis=-1)
        k[again], res[again] = _ml_scan(z[again], code.scan)
    return k, res


def recover_subblock_ml(z_hat_j: np.ndarray, sensing: np.ndarray) -> tuple[int, float]:
    """Exact l0 recovery of a 1-sparse sub-block by exhaustive residual scan.

    Returns ``(k, residual)`` where ``k`` minimizes the Euclidean distance
    between ``z_hat_j`` and the columns of ``sensing``; ties go to the lowest
    index.  Cost is O(d * m/j), exact for the exhaustive dictionary where
    every valid sub-block is one column.
    """
    a = np.asarray(sensing, dtype=np.complex128)
    z = np.asarray(z_hat_j, dtype=np.complex128).ravel()
    if z.size != a.shape[0]:
        raise DimensionMismatch(
            f"sub-block length {z.size} != sensing rows {a.shape[0]}"
        )
    k, res = _ml_scan(z[None, :], _scan_matrix(a))
    return int(k[0]), float(res[0])


def _omp_pick(z: np.ndarray, code: Codebook) -> tuple[np.ndarray, np.ndarray]:
    """One-atom OMP pick of each row of the ``(..., J, rows)`` blocks ``z``.

    Returns the ``(..., J)`` indices, bit for bit the first pick of
    :func:`recover_subblock_omp` (ties to the lowest index, an all-zero
    block to column 0), and the residual norms of the picked columns.
    """
    a = code.sensing
    # one matrix-vector product per block, the BLAS call of the reference,
    # so the pick among a column's near-tied rotations rounds as its pick does
    corr = np.abs(a.conj().T @ z[..., None])[..., 0] / code.omp_norms
    k = np.where(np.linalg.norm(z, axis=-1) > 0, corr.argmax(axis=-1), 0)
    return k, np.linalg.norm(z - a.T[k], axis=-1)


def recover_subblock_omp(
    z_hat_j: np.ndarray, sensing: np.ndarray, k_max: int = 1, tol: float = 0.0
) -> tuple[list[int], np.ndarray]:
    """Orthogonal matching pursuit on the sub-block candidate matrix.

    Atoms are selected by normalized correlation ``|<a_k, r>| / ||a_k||``;
    coefficients are refit by least squares on the selected columns after
    every pick.  Stops after ``k_max`` atoms or when the residual norm drops
    to ``tol``.  Returns the selected column indices (in pick order) and the
    matching coefficients; both are empty when ``||z|| <= tol``.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    a = np.asarray(sensing, dtype=np.complex128)
    z = np.asarray(z_hat_j, dtype=np.complex128).ravel()
    if z.size != a.shape[0]:
        raise DimensionMismatch(
            f"sub-block length {z.size} != sensing rows {a.shape[0]}"
        )
    norms = np.linalg.norm(a, axis=0)
    safe_norms = np.where(norms > 0, norms, np.inf)

    support: list[int] = []
    coeffs = np.empty(0, dtype=np.complex128)
    residual = z.copy()
    if np.linalg.norm(residual) <= tol:
        return support, coeffs
    for _ in range(k_max):
        corr = np.abs(a.conj().T @ residual) / safe_norms
        corr[support] = -1.0
        pick = int(np.argmax(corr))
        support.append(pick)
        coeffs = np.linalg.lstsq(a[:, support], z, rcond=None)[0]
        residual = z - a[:, support] @ coeffs
        if np.linalg.norm(residual) <= tol:
            break
    return support, coeffs


def demux(
    y: np.ndarray,
    h: ChannelRealization,
    code: Codebook,
    solver: str = "ml",
    oneshot_cap: int = 1 << 20,
) -> RecoveryResult:
    """Full receiver: equalize, split into sub-blocks, recover, reassemble.

    ``code`` holds the setup's matrix and what derives from it; a caller
    that detects many trials builds it once.  A stack of channels takes
    ``y`` of shape ``(..., nr)`` and detects every trial in one pass, bit
    for bit as one at a time.  ``solver`` picks the per-sub-block recovery:
    exact scan of all blocks at once as two real half-scans of the I/Q
    level tuples (``ml``), greedy (``omp`` with one atom), or exact joint
    ML on the unequalized receive vector by block sphere search
    (``oneshot``), whose cost falls with SNR and which may score at most
    ``oneshot_cap`` candidates before it raises :class:`DictionaryTooLarge`.
    ``omp`` is the first pick of :func:`recover_subblock_omp` for every
    block in one stacked pass; it takes the block of its picked column and
    drops the atom's least-squares coefficient, so a column's complex
    rotations, which its absolute-correlation rule cannot tell apart for
    phase-symmetric alphabets, stay unresolved; an all-zero block goes to
    column 0.  The exact scan is the production detector and OMP remains a
    generic cross-check.  A channel that is not ``nr x m`` raises
    :class:`DimensionMismatch`, and a receive vector or channel that is not
    finite raises ``ValueError`` before any solver runs on it.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    cfg = code.cfg
    y = np.asarray(y, dtype=np.complex128)
    if not h.stack_shape:
        y = y.ravel()
    if h.h.shape != y.shape + (cfg.m,):
        raise DimensionMismatch(
            f"channel shape {h.h.shape} != {y.shape + (cfg.m,)} "
            f"for {y.shape[-1]} receive and {cfg.m} transmit dimensions"
        )
    if not np.isfinite(y).all():
        raise ValueError("receive vector and channel must be finite")
    if solver == "oneshot":
        return _demux_oneshot(y, h, code, cap=oneshot_cap)

    eq = zf_equalize(y, h, gain=code.gain)
    blocks = eq.z_hat.reshape(h.stack_shape + (cfg.j, cfg.subblock_rows))
    if solver == "ml":
        indices, residuals = _ml_split(blocks, code)
    else:
        indices, residuals = _omp_pick(blocks, code)
    return RecoveryResult(indices, _reassemble(code, indices), residuals, eq.condition_number)


def _reassemble(code: Codebook, indices: np.ndarray):
    """Symbol vectors ``(..., l)`` of the per-block dictionary columns
    ``(..., J)``, each index decoded as the dictionary orders its columns."""
    q, n = code.alphabet.order, code.cfg.subblock_cols
    digits = (indices[..., None] // q ** np.arange(n)) % q
    return code.alphabet.points[digits].reshape(indices.shape[:-1] + (code.cfg.l,))


def _demux_oneshot(y, h, code, cap):
    """Exact joint ML over all per-block index combinations by sphere search.

    Works on the raw receive vector with the composed channel, compression
    and dictionary, so no equalization (or channel invertibility) is
    needed.  After ``h = QR`` the metric ``||Q^H y - R z||^2`` is
    block-upper-triangular, so a depth-first search fixes the last
    sub-block first, visits each level's ``d`` candidates in increasing
    partial metric (Schnorr-Euchner order) and prunes a branch as soon as
    its partial metric exceeds the best full metric found so far.  Ties go
    to the lowest joint index ``sum k_j d**j``.  ``cap`` bounds the number
    of candidates scored (visited nodes times ``d``); running out raises
    :class:`DictionaryTooLarge` rather than returning a truncated answer.
    The QR is ``h.qr``, one stacked factorization per channel object, so
    the SNR points of a sweep that share ``h`` also share it; every trial
    is rotated by ``Q^H`` in one stacked product.
    """
    cfg = code.cfg
    a = code.sensing * code.gain
    q, r = h.qr
    # stacked matrix-vector products, bit for bit the single-channel ones
    yq = (q.conj().swapaxes(-1, -2) @ y[..., None])[..., 0]
    # blocks[..., i, :, :]: the columns of r that sub-block i multiplies
    blocks = r.reshape(h.stack_shape + (h.nr, cfg.j, cfg.subblock_rows)).swapaxes(-3, -2)
    indices = np.empty(h.stack_shape + (cfg.j,), dtype=np.int64)
    residuals = np.empty(h.stack_shape + (1,))
    for t in np.ndindex(h.stack_shape):
        # contrib[i, :, k]: rotated receive contribution of candidate k placed
        # in sub-block i; rows below block i are zero since r is upper triangular
        contrib = blocks[t] @ a
        indices[t], residuals[t] = _sphere_search(yq[t], contrib, cfg, a.shape[1], cap)
    nan = np.full(h.stack_shape, np.nan)[()]
    return RecoveryResult(indices, _reassemble(code, indices), residuals, nan)


def _sphere_search(yq, contrib, cfg, d, cap):
    """Joint indices and residual of one trial from its rotated receive
    vector ``yq = Q^H y`` and candidate contributions ``contrib = R_i a``."""
    rows = cfg.subblock_rows
    best = np.inf
    best_path = [d] * cfg.j  # above every joint index
    path = [0] * cfg.j
    scored = 0

    def search(level, target, partial):
        nonlocal best, best_path, scored
        if scored + d > cap:
            raise DictionaryTooLarge(
                f"joint search needs more than {cap} scored candidates "
                f"({d} per node over {cfg.j} sub-blocks)"
            )
        scored += d
        lo = level * rows
        diff = target[lo : lo + rows, None] - contrib[level, lo : lo + rows]
        metric = partial + (diff.real**2 + diff.imag**2).sum(axis=0)
        if level == 0:
            k = int(metric.argmin())
            path[0] = k
            # the joint index orders by the last sub-block first
            if metric[k] < best or (metric[k] == best and path[::-1] < best_path):
                best, best_path = float(metric[k]), path[::-1]
            return
        for k in np.argsort(metric, kind="stable"):
            if metric[k] > best:
                break
            path[level] = int(k)
            search(level - 1, target[:lo] - contrib[level, :lo, k], metric[k])

    search(cfg.j - 1, yq, 0.0)
    # rows of Q^H y below m are out of reach of every R z
    out = yq[cfg.m :]
    return best_path[::-1], np.sqrt(best + float(out.real @ out.real + out.imag @ out.imag))
