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
model of MIMO detection, Hassibi & Vikalo, IEEE T-SP 53(8), 2005); each
half breaks ties to its lowest level tuple.  All half-scans of a stack
of trials are one real product, and each argmin is decoded from a table
of level digits built once per codebook.  OMP is kept as the generic
greedy solver, and a one-shot mode finds the exact joint ML choice of all
sub-blocks directly on the received vector, without equalizing first, by
a block sphere search after a QR factorization of the channel, which
advances all trials of a stack together (Schnorr-Euchner order, Agrell,
Eriksson, Vardy & Zeger, IEEE T-IT 48(8), 2002).  Every solver hands
back the decided point indices; the rest of its :class:`RecoveryResult`
is formed only when read.

The channel's pseudo-inverse, which ZF and the usability check read, its
usability flags and the QR of the one-shot search are cached on the
:class:`ChannelRealization`, each made once per stack of channels: callers
that detect the same channels at several SNR points pass the same object,
or slices of it, to every point.  ZF is one stacked product with the
pseudo-inverse.  The usability check clears a well-conditioned channel on
the Frobenius norms of the channel and its pseudo-inverse and takes
singular values only of a channel that this bound does not clear, so a
sweep without a near-singular channel makes no SVD; the channel's
condition number is computed from singular values only when read.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channel import ChannelRealization
from .csmux import MeasurementMatrix, MuxConfig, transmit_gain
from .dictionary import SubblockDictionary, build_dictionary, digits
from .errors import BadSubblockShape, DictionaryTooLarge, DimensionMismatch, RankDeficientChannel
from .modem import Constellation, get_constellation, nearest_point_indices

SOLVERS = ("ml", "omp", "oneshot")

# Working-set budget, in bytes, of one chunk of trials in a sweep; the
# oneshot search also sizes its blocks of trials and its scratch from it.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Decided ``(..., l)`` point indices, recovered sub-block columns,
    symbols and residuals.

    ``x_indices`` is the decision.  ``s_indices``, ``x_hat`` and
    ``residuals`` are formed on first read, once each, by the functions of
    no arguments in ``forms``, keyed by field name, which keep what they
    need of the solver's work; a caller that reads only the decision forms
    none of them.  ``x_hat`` is ``points[x_indices]``, except for ``omp``,
    whose scaled atoms ``x_indices`` slice to the nearest points.
    ``residuals`` holds one value per sub-block for the two-step solvers;
    the one-shot solver reports a single joint residual instead.  For a
    stack of channels every field carries the leading trial axes.  The
    channel's conditioning is read from its :class:`ChannelRealization`.
    """

    x_indices: np.ndarray
    forms: dict[str, Callable[[], np.ndarray]] = field(repr=False)

    @cached_property
    def s_indices(self) -> np.ndarray:
        """The ``(..., J)`` dictionary column picked for each sub-block."""
        return self.forms["s_indices"]()

    @cached_property
    def x_hat(self) -> np.ndarray:
        """The ``(..., l)`` recovered symbols."""
        return self.forms["x_hat"]()

    @cached_property
    def residuals(self) -> np.ndarray:
        """The residual norm of each sub-block, or the joint one."""
        return self.forms["residuals"]()


def zf_equalize(y: np.ndarray, h: ChannelRealization) -> np.ndarray:
    """Zero-forcing equalizer: pseudo-inverse of a full-column-rank channel.

    Returns the ``(..., m_tx)`` solution of ``min ||h z - y||``,
    ``h.pinv @ y``.  Raises :class:`RankDeficientChannel` where
    :func:`channel_is_usable` is false: the system is underdetermined, or
    the smallest singular value falls below ``RANK_TOL`` times the largest
    (the message gives the condition number of the first such trial).  A
    stack of channels takes ``y`` of shape ``(..., nr)`` and equalizes
    every trial, bit for bit as one at a time.
    """
    y = np.asarray(y, dtype=np.complex128)
    if not h.stack_shape:
        y = y.ravel()
    if y.shape != h.stack_shape + (h.nr,):
        raise DimensionMismatch(
            f"received vectors of shape {y.shape} do not match nr {h.nr}"
            f" for trials {h.stack_shape}"
        )
    usable = channel_is_usable(h)
    if not usable.all():
        if h.m_tx > h.nr:
            raise RankDeficientChannel(
                f"channel with {h.m_tx} inputs and {h.nr} outputs cannot be column rank"
            )
        worst = ChannelRealization(h.h[np.unravel_index(np.argmin(usable), h.stack_shape)])
        raise RankDeficientChannel(
            f"condition number {worst.condition_number:.3e} is not below 1/RANK_TOL"
        )
    # stacked matrix-vector products, bit for bit the single-channel ones
    return (h.pinv @ y[..., None])[..., 0]


def channel_is_usable(h: ChannelRealization) -> bool | np.ndarray:
    """True when ZF equalization of ``h`` would not raise; one flag per trial
    for a stack of channels.  This is ``h.usable``, made once per stack."""
    return h.usable


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


@dataclass(frozen=True, eq=False)
class Codebook:
    """What transmitter and receiver share for one setup ``cfg``: its
    ``(m/j, l/j)`` sub-block matrix ``phi``.  The rest derives from the two,
    once and on first use; ``ml`` reads no ``dictionary`` or ``sensing``.
    Two codebooks compare and hash by identity.
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
    def iq_scan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What the I/Q-split ``ml`` scan reads, all read-only: the real
        ``(rows + 1, p)`` scan matrix ``[-2ΦP; ||ΦP||²]``, whose
        ``P`` holds the ``p = √q**n`` tuples of the alphabet's I/Q levels
        in the dictionary's little-endian mixed-radix order; the ``(p, n)``
        table of their level digits, row ``u`` the :func:`digits` of ``u``,
        which decodes each half-scan's argmin; and the ``(r, r)`` table,
        ``r = √q``, of the alphabet's point index with real part
        ``levels[a]`` and imaginary part ``levels[b]`` at ``[a, b]``."""
        c, n = self.alphabet, self.cfg.subblock_cols
        levels, r = c.iq_levels, c.iq_levels.size
        tuples = digits(np.arange(r**n), r, n)
        point_of = np.empty((r, r), dtype=np.int64)
        point_of[np.searchsorted(levels, c.points.real), np.searchsorted(levels, c.points.imag)] = (
            np.arange(c.order)
        )
        # P copied to C order, the layout its pinned rounding came from
        b = self.phi.phi @ np.ascontiguousarray(levels[tuples].T)
        scan = np.empty((b.shape[0] + 1, b.shape[1]))
        np.multiply(b, -2.0, out=scan[:-1])
        scan[-1] = np.einsum("ij,ij->j", b, b)
        scan.flags.writeable = tuples.flags.writeable = point_of.flags.writeable = False
        return scan, tuples, point_of

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


def _ml_split(z: np.ndarray, code: Codebook) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Nearest dictionary column to each row of the ``(..., J, rows)``
    blocks ``z``, scored as two real half-scans against ``code.iq_scan``.

    ``||z - Φψ||² = ||Re z - Φ Re ψ||² + ||Im z - Φ Im ψ||²`` for a real
    ``Φ``, so the joint argmin is the pair of half argmins.  Every
    half-scan of every block is one row of a single real 2-D product
    ``(…·2J, rows + 1) @ (rows + 1, p)``, bit for bit the product of each
    block's rows alone.  Returns the ``(..., J, n)`` point indices of the
    column that pairs the real-part argmin ``u`` with the imaginary-part
    argmin ``v``, each half breaking ties to its lowest level tuple, and a
    function of no arguments that forms the ``(..., J)`` residual norms of
    the same two minima; it keeps the scores until it is dropped.  Symbol
    ``i`` is ``point_of[tuples[u, i], tuples[v, i]]``, read from the level
    digits of ``u`` and ``v`` in the tuple table, so nothing of size
    ``q**n`` is built.
    """
    scan = code.iq_scan[0]
    j = z.shape[-2]
    # rows 0 .. J-1 of each block stack score the real parts of its blocks
    # and rows J .. 2J-1 the imaginary parts
    zr = np.empty(z.shape[:-2] + (2 * j, z.shape[-1] + 1))
    zr[..., :j, :-1] = z.real
    zr[..., j:, :-1] = z.imag
    zr[..., -1] = 1.0
    metric = zr.reshape(-1, scan.shape[0]) @ scan
    k = metric.argmin(axis=-1)
    halves = k.reshape(z.shape[:-2] + (2, j))

    def residuals() -> np.ndarray:
        best = metric[np.arange(k.size), k].reshape(zr.shape[:-1])
        best += np.einsum("...i,...i->...", zr[..., :-1], zr[..., :-1])
        return np.sqrt(np.maximum(best[..., :j] + best[..., j:], 0.0))

    return _pair_points(halves[..., 0, :], halves[..., 1, :], code), residuals


def _pair_points(u: np.ndarray, v: np.ndarray, code: Codebook) -> np.ndarray:
    """Point indices ``(..., n)`` of the dictionary columns whose real parts
    are the I/Q level tuples ``u`` and whose imaginary parts are ``v``:
    ``point_of[digits(u), digits(v)]``, with the digits read from the
    tuple table of ``code.iq_scan``."""
    _, tuples, point_of = code.iq_scan
    # point_of[a, b] at a·r + b of the flat table; take, not fancy indexing,
    # as the cheaper gather of whole rows
    return point_of.take(tuples.take(u, axis=0) * point_of.shape[0] + tuples.take(v, axis=0))


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
    diffs = a - z[:, None]
    dist2 = (diffs.real**2 + diffs.imag**2).sum(axis=0)
    k = int(np.argmin(dist2))
    return k, float(np.sqrt(dist2[k]))


def _omp_pick(z: np.ndarray, code: Codebook) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-atom OMP pick of each row of the ``(..., J, rows)`` blocks ``z``.

    Returns the ``(..., J)`` indices, bit for bit the pick of
    :func:`recover_subblock_omp` (ties to the lowest index, an all-zero
    block to column 0), the least-squares coefficient ``a_kᴴz / ‖a_k‖²``
    of each picked column ``a_k`` (0 for an all-zero block or a zero
    column), and the residual norms ``‖z − coef·a_k‖``.
    """
    a = code.sensing
    # one matrix-vector product per block, the BLAS call of the reference,
    # so the pick among a column's near-tied rotations rounds as its pick does
    corr = (a.conj().T @ z[..., None])[..., 0]
    nonzero = np.linalg.norm(z, axis=-1) > 0
    k = np.where(nonzero, (np.abs(corr) / code.omp_norms).argmax(axis=-1), 0)
    picked = np.take_along_axis(corr, k[..., None], axis=-1)[..., 0]
    coef = np.where(nonzero, picked / code.omp_norms[k] ** 2, 0.0)
    return k, coef, np.linalg.norm(z - coef[..., None] * a.T[k], axis=-1)


def recover_subblock_omp(z_hat_j: np.ndarray, sensing: np.ndarray) -> tuple[int, complex]:
    """One-atom orthogonal matching pursuit on the sub-block candidate matrix.

    Picks the column ``a_k`` of largest normalized correlation
    ``|<a_k, z>| / ||a_k||`` (ties to the lowest index; a zero column scores
    0) and returns ``(k, a_kᴴz / ||a_k||²)``: the pick and its least-squares
    coefficient, 0 for a zero column.  An all-zero ``z`` gives ``(0, 0)``.
    """
    a = np.asarray(sensing, dtype=np.complex128)
    z = np.asarray(z_hat_j, dtype=np.complex128).ravel()
    if z.size != a.shape[0]:
        raise DimensionMismatch(
            f"sub-block length {z.size} != sensing rows {a.shape[0]}"
        )
    if not np.linalg.norm(z) > 0:
        return 0, 0j
    norms = np.linalg.norm(a, axis=0)
    norms = np.where(norms > 0, norms, np.inf)
    corr = a.conj().T @ z
    k = int(np.argmax(np.abs(corr) / norms))
    return k, complex(corr[k] / norms[k] ** 2)


def block_width(cfg: MuxConfig, solver: str) -> int:
    """Entries in the largest per-block table ``solver`` builds for ``cfg``,
    whose sub-blocks hold ``n = l/j`` symbols of an alphabet of ``q``: the
    ``√q**n`` real I/Q level tuples each ``ml`` half-scan scores, and
    ``q**n`` for the dictionary of ``omp`` and ``oneshot`` and the pairwise
    level-tuple distances of ``analyze``.  The one check that ``solver``
    runs on ``cfg``: :class:`DictionaryTooLarge` when ``q**n`` overflows the
    int64 joint index or the width exceeds ``cfg.dictionary_cap``, and
    :class:`BadSubblockShape` for ``omp`` on one-row sub-blocks, where every
    column's normalized correlation is ``|z|``, so rounding makes the pick.
    """
    c, n = get_constellation(cfg.constellation), cfg.subblock_cols
    if c.order**n >= 2**63:
        raise DictionaryTooLarge(f"joint index range {c.order}^{n} does not fit in int64")
    base = c.iq_levels.size if solver == "ml" else c.order
    if base**n > cfg.dictionary_cap:
        raise DictionaryTooLarge(
            f"{solver} per-block table width {base}^{n} = {base**n} "
            f"exceeds cap {cfg.dictionary_cap}"
        )
    if solver == "omp" and cfg.subblock_rows == 1:
        raise BadSubblockShape(
            "omp needs m/j >= 2: with one-row sub-blocks every column ties on |z|"
        )
    return base**n


def demux(
    y: np.ndarray,
    h: ChannelRealization,
    code: Codebook,
    solver: str = "ml",
    oneshot_cap: int = 1 << 20,
) -> RecoveryResult:
    """Full receiver: equalize, split into sub-blocks, recover, decide points.

    The two-step solvers divide the :func:`zf_equalize` estimate by
    ``code.gain``, the transmit power normalization, before they split it.
    ``code`` holds the setup's matrix and what derives from it; a caller
    that detects many trials builds it once.  A stack of channels takes
    ``y`` of shape ``(..., nr)`` and detects every trial in one pass, bit
    for bit as one at a time.  ``solver`` picks the per-sub-block recovery:
    exact scan of all blocks at once as two real half-scans of the I/Q
    level tuples (``ml``), greedy (``omp`` with one atom), or exact joint
    ML on the unequalized receive vector by block sphere search
    (``oneshot``), whose cost falls with SNR and which may score at most
    ``oneshot_cap`` candidates before it raises :class:`DictionaryTooLarge`.
    ``omp`` is the pick of :func:`recover_subblock_omp` for every
    block in one stacked pass, and its block estimate is the picked
    column's sub-block times the atom's least-squares coefficient, which
    undoes the complex rotation that the absolute-correlation rule cannot
    see for phase-symmetric alphabets; ``x_hat`` is then not a
    constellation vector, ``s_indices`` holds the picked columns, and
    ``x_indices`` slices ``x_hat`` to its nearest points.  An all-zero
    block goes to column 0 with coefficient 0.  The exact scan is
    the production detector and OMP remains a generic cross-check.  A
    ``solver`` that :func:`block_width` refuses for ``code.cfg`` raises its
    error before any table is built: a width past ``dictionary_cap``, or
    ``omp`` on one-row sub-blocks.  A channel that is not ``nr x m`` raises
    :class:`DimensionMismatch`, and a receive vector or channel that is not
    finite raises ``ValueError`` before any solver runs on it.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    cfg = code.cfg
    block_width(cfg, solver)
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

    blocks = (zf_equalize(y, h) / code.gain).reshape(h.stack_shape + (cfg.j, cfg.subblock_rows))
    c, n, shape = code.alphabet, cfg.subblock_cols, h.stack_shape + (cfg.l,)
    if solver == "ml":
        x_indices, residuals = _ml_split(blocks, code)
        return RecoveryResult(x_indices.reshape(shape), {
            "s_indices": lambda: x_indices @ c.order ** np.arange(n),
            "x_hat": lambda: c.points[x_indices].reshape(shape),
            "residuals": residuals,
        })
    indices, coef, residuals = _omp_pick(blocks, code)
    x_hat = (c.points[digits(indices, c.order, n)] * coef[..., None]).reshape(shape)
    return RecoveryResult(nearest_point_indices(x_hat, c).reshape(shape), {
        "s_indices": lambda: indices, "x_hat": lambda: x_hat, "residuals": lambda: residuals,
    })


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
    The QR is ``h.qr``, one stacked factorization per channel stack, which
    its slices share, so the SNR points of a sweep that detect slices of
    one stack share it too; every trial is rotated by ``Q^H`` in one
    stacked product.  :func:`_sphere_search` then searches the trials in
    lockstep, in blocks of consecutive trials whose candidate contributions
    ``R_i a``, read as a real and an imaginary part, each fit in
    ``_CHUNK_BYTES``; each trial's decision and budget are those of its own
    depth-first search.
    """
    cfg, c = code.cfg, code.alphabet
    a = code.sensing * code.gain
    q, r = h.qr
    # stacked matrix-vector products, bit for bit the single-channel ones
    yq = (q.conj().swapaxes(-1, -2) @ y[..., None])[..., 0]
    # blocks[..., i, :, :]: the columns of r that sub-block i multiplies
    blocks = r.reshape(h.stack_shape + (h.nr, cfg.j, cfg.subblock_rows)).swapaxes(-3, -2)
    flat_yq, flat_blocks = yq.reshape(-1, h.nr), blocks.reshape((-1,) + blocks.shape[-3:])
    trials = flat_yq.shape[0]
    indices = np.empty((trials, cfg.j), dtype=np.int64)
    best = np.empty(trials)
    size = max(1, _CHUNK_BYTES // (8 * cfg.j * h.nr * a.shape[1]))
    for lo in range(0, trials, size):
        part = slice(lo, lo + size)
        # contrib[t, i, :, k]: rotated receive contribution of candidate k
        # placed in sub-block i; rows below block i are zero since r is
        # upper triangular
        indices[part], best[part] = _sphere_search(
            flat_yq[part], flat_blocks[part] @ a, cfg.subblock_rows, cap
        )
    indices = indices.reshape(h.stack_shape + (cfg.j,))
    x_indices = digits(indices, c.order, cfg.subblock_cols).reshape(h.stack_shape + (cfg.l,))

    def residuals() -> np.ndarray:
        # rows of Q^H y below m are out of reach of every R z; stacked dot
        # products, bit for bit the single-vector ones
        out = yq[..., cfg.m :, None]
        out = out.real.swapaxes(-1, -2) @ out.real + out.imag.swapaxes(-1, -2) @ out.imag
        return np.sqrt(best.reshape(h.stack_shape + (1,)) + out[..., 0])

    return RecoveryResult(x_indices, {
        "s_indices": lambda: indices, "x_hat": lambda: c.points[x_indices], "residuals": residuals,
    })


def _sphere_search(yq, contrib, rows, cap):
    """Joint indices ``(T, J)`` and least metrics ``(T,)`` of ``T`` trials
    from their rotated receive vectors ``yq = Q^H y``, ``(T, nr)``, and
    candidate contributions ``contrib = R_i a``, ``(T, J, nr, d)``.

    Each trial makes the decisions of its own depth-first search: it visits
    the same nodes in the same order, prunes the same branches and breaks
    ties the same way, so ``cap`` is reached exactly when that search
    reaches it.  The trials advance together.  Each holds, for every level,
    the target of its node there, that node's candidates in search order
    with their partial metrics, and the position of the next one.  On each
    step the trials whose current node is at level ``i >= 2`` descend into
    its next candidate, one stacked metric and one stacked sort for all of
    them, or return to the parent once that candidate is pruned.

    A node at level 1 scores its children, the leaves, in batches: its
    first child alone, then every next child whose partial metric does not
    exceed the best metric on entry, at most ``leaf_rows`` children for all
    trials of the step.  The search visits child ``c`` iff its partial
    metric is at most the best metric it would hold there, the least of the
    best on entry and of the leaf minima of the children before ``c``.  The
    partial metrics rise and that bound falls, so the visited children are
    a prefix of the batch; leaves scored past it count no node.  The
    children of a batch are scored as one ragged stack, so a trial with few
    children to score pays for no other trial's.  For ``J = 1`` the root is
    a leaf.
    """
    t, j, nr, d = contrib.shape
    c_re, c_im = contrib.real, contrib.imag
    # level i scores rows [lo, hi) and hands its children rows [0, lo)
    span = [(min(i * rows, nr), min((i + 1) * rows, nr)) for i in range(j)]
    every = np.arange(t)
    target = np.empty((j, t, nr), dtype=complex)
    target[-1] = yq
    order = np.empty((j, t, d), dtype=np.int64)
    ranked = np.empty((j, t, d))
    pos = np.zeros((j, t), dtype=np.int64)
    path = np.zeros((t, j), dtype=np.int64)
    best = np.full(t, np.inf)
    best_path = np.full((t, j), d)  # above every joint index
    nodes = np.ones(t, dtype=np.int64)
    level = np.full(t, j - 1)
    # scratch of _score, reused by every step, which scores at most
    # leaf_rows rows of d candidates: each of its three arrays holds a
    # quarter of _CHUNK_BYTES, or one row per trial
    leaf_rows = max(t, _CHUNK_BYTES // (32 * d))
    work = np.empty((3, leaf_rows * d))

    def expand(g, i, partial):
        # score and rank the candidates of the nodes at level i of trials g,
        # entered with metric partial
        lo, hi = span[i]
        metric = _score(target[i, g, lo:hi], c_re[:, i, lo:hi], c_im[:, i, lo:hi], g,
                        partial, work)
        order[i, g], ranked[i, g] = _rank(metric)
        pos[i, g] = 0

    def descend(i):
        # the trials at a node of level i >= 2 enter its next candidate, or
        # return to its parent once that candidate is pruned or none is
        # left; returns how many entered a node at level i - 1
        g = np.flatnonzero(level == i)
        at = pos[i, g]
        partial = ranked[i, g, np.minimum(at, d - 1)]
        down = (at < d) & (partial <= best[g])
        level[g[~down]] += 1
        g, at, partial = g[down], at[down], partial[down]
        k = order[i, g, at]
        path[g, i] = k
        pos[i, g] += 1
        nodes[g] += 1
        level[g] = i - 1
        lo = span[i][0]
        target[i - 1, g, :lo] = target[i, g, :lo] - contrib[g, i, :lo, k]
        expand(g, i - 1, partial)
        return g.size

    def leaves(g):
        # the trials g at a node of level 1 score its next batch of children:
        # its first child alone, then every child that the best metric on
        # entry does not prune, at most leaf_rows for all of g
        at = pos[1, g]
        room = np.where(at == 0, 1, np.minimum(d - at, leaf_rows // g.size))
        column = at[:, None] + np.arange(int(room.max()))
        partial = ranked[1, g[:, None], np.minimum(column, d - 1)]
        live = (column < (at + room)[:, None]) & (partial <= best[g, None])
        owner, slot = np.nonzero(live)
        trial = g[owner]
        k = order[1, trial, column[owner, slot]]
        lo = span[1][0]
        # each child's target, then the metrics of its leaves, (children, d)
        metric = _score(target[1, trial, :lo] - contrib[trial, 1, :lo, k],
                        c_re[:, 0, :lo], c_im[:, 0, :lo], trial, partial[owner, slot], work)
        leaf = metric.argmin(axis=1)
        # the leaf minima and joint keys k1 * d + k0 in batch layout
        least = np.full(live.shape, np.inf)
        least[owner, slot] = metric[np.arange(owner.size), leaf]
        key = np.full(live.shape, d * d)
        key[owner, slot] = k * d + leaf
        bound = np.minimum.accumulate(np.hstack([best[g, None], least]), axis=1)[:, :-1]
        visit = live & (partial <= bound)
        seen = visit.sum(axis=1)
        nodes[g] += seen
        # the best visited leaf: the least metric, then the least (k1, k0)
        low = np.where(visit, least, np.inf).min(axis=1)
        new_path = path[g]
        new_path[:, 1], new_path[:, 0] = np.divmod(
            np.where(visit & (least == low[:, None]), key, d * d).min(axis=1), d)
        win = low < best[g]
        tie = np.flatnonzero(low == best[g])
        if tie.size:
            win[tie] = _precedes(new_path[tie], best_path[g[tie]])
        best[g[win]] = low[win]
        best_path[g[win]] = new_path[win]
        # the node goes on iff it visited its whole batch and its next
        # child is not pruned; otherwise it returns to its parent
        at += seen
        pos[1, g] = at
        more = np.flatnonzero((seen == room) & (at < d))
        more = more[ranked[1, g[more], at[more]] <= best[g[more]]]
        level[g] = 2
        level[g[more]] = 1

    _check_budget(nodes, d, j, cap)
    if j == 1:
        # the root is a leaf
        hi = span[0][1]
        metric = _score(yq[:, :hi], c_re[:, 0, :hi], c_im[:, 0, :hi], every, np.zeros(t), work)
        best_path[:, 0] = metric.argmin(axis=-1)
        return best_path, metric[every, best_path[:, 0]]
    expand(every, j - 1, np.zeros(t))
    while (count := np.bincount(level, minlength=j + 1))[j] < t:
        # each occupied level once, top down: a trial that enters a node one
        # level down is advanced there in the same step
        entered = 0
        for i in range(j - 1, 1, -1):
            if count[i] or entered:
                entered = descend(i)
        if count[1] or entered:
            leaves(np.flatnonzero(level == 1))
        _check_budget(nodes, d, j, cap)
    return best_path, best


def _check_budget(nodes, d, j, cap):
    """Raise :class:`DictionaryTooLarge` once a trial's visited ``nodes``
    score more than ``cap`` candidates, ``d`` per node."""
    if int(nodes.max()) * d > cap:
        raise DictionaryTooLarge(
            f"joint search needs more than {cap} scored candidates "
            f"({d} per node over {j} sub-blocks)"
        )


def _score(target, c_re, c_im, trials, partial, work):
    """``partial + Σ_r |t_r − c_r|²`` over the rows ``r`` of the targets
    ``t``, ``(L, rows)``, for each of the ``d`` candidates of ``c``,
    ``(T, rows, d)``, at the ``trials`` ``(L,)``: ``(L, d)`` metrics, the
    rows added in order and ``partial`` last, bit for bit a node's
    ``partial + (diff.real**2 + diff.imag**2).sum(axis=0)`` in a depth-first
    search of one trial.  The result is a view of ``work[0]``, and
    ``work[1:]`` is scratch."""
    shape = (trials.size, c_re.shape[-1])
    total, re, im = (w[: shape[0] * shape[1]].reshape(shape) for w in work)
    for r in range(target.shape[1]):
        np.subtract(target.real[:, r, None], c_re[trials, r], out=re)
        np.subtract(target.imag[:, r, None], c_im[trials, r], out=im)
        np.multiply(re, re, out=re)
        np.multiply(im, im, out=im)
        # the first row's sum is the total: 0 + x would be x, as x >= +0
        np.add(re, im, out=total if r == 0 else re)
        if r:
            np.add(total, re, out=total)
    if not target.shape[1]:
        total[...] = 0.0
    np.add(total, partial[:, None], out=total)
    return total


def _rank(metric):
    """Each row's candidates in increasing ``metric`` and their metrics,
    ties in index order, as a stable sort puts them.  The default sort is
    used first; only rows holding an exact tie are sorted again, stably."""
    order = metric.argsort(axis=-1)
    ranked = np.take_along_axis(metric, order, axis=-1)
    tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=-1)
    if tied.any():
        order[tied] = metric[tied].argsort(axis=-1, kind="stable")
        ranked[tied] = np.take_along_axis(metric[tied], order[tied], axis=-1)
    return order, ranked


def _precedes(a, b):
    """Whether each joint index ``a`` is below ``b``, both ``(G, J)`` in
    level order: the last sub-block's index is the most significant."""
    differ = a != b
    top = differ.shape[1] - 1 - differ[:, ::-1].argmax(axis=1)
    return np.take_along_axis(a < b, top[:, None], axis=1)[:, 0]
