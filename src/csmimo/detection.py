"""Receiver chain: ZF equalization followed by per-sub-block sparse recovery.

The practical receiver works in two steps.  Zero-forcing equalization
restores the compressed transmit vector, which is then split into
sub-blocks; each sub-block is matched against the exhaustive candidate
dictionary through the compression matrix.  Because every sub-block is
exactly 1-sparse over that dictionary, the l0 problem is solved exactly by
a minimum-residual scan over all columns.  OMP is kept as the generic
greedy solver, and a one-shot mode finds the exact joint ML choice of all
sub-blocks directly on the received vector, without equalizing first, by a
block sphere search after a QR factorization of the channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .csmux import MeasurementMatrix, MuxConfig, transmit_gain
from .dictionary import SubblockDictionary
from .errors import DictionaryTooLarge, DimensionMismatch, RankDeficientChannel

RANK_TOL = 1e-12

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
    return phi.phi @ dictionary.psi


def _colnorm2(a: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every column of a complex matrix."""
    return np.einsum("ij,ij->j", a.real, a.real) + np.einsum("ij,ij->j", a.imag, a.imag)


def _ml_scan(
    z: np.ndarray, a: np.ndarray, colnorm2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest column of ``a`` to each row of the ``(..., J, rows)`` blocks ``z``.

    Returns the ``(..., J)`` argmin indices (ties to the lowest) and
    residual norms.  ``colnorm2`` is :func:`_colnorm2` of ``a``.
    """
    # ||z_j - a_k||^2 = ||z_j||^2 - 2 Re<a_k, z_j> + ||a_k||^2 over all j, k,
    # accumulated in place from the -2 Re term (x - y == -y + x exactly).
    # The product runs as one (J, rows) @ (rows, d) call per leading index:
    # merging trials into one taller product can change the last bit.
    res2 = (z.conj() @ a).real * -2.0
    res2 += _colnorm2(z.reshape(-1, z.shape[-1]).T).reshape(z.shape[:-1] + (1,))
    res2 += colnorm2
    k = res2.argmin(axis=-1)
    best = res2.reshape(k.size, -1)[np.arange(k.size), k.ravel()].reshape(k.shape)
    return k, np.sqrt(np.maximum(best, 0.0))


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
    k, res = _ml_scan(z[None, :], a, _colnorm2(a))
    return int(k[0]), float(res[0])


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
    phi: MeasurementMatrix,
    dictionary: SubblockDictionary,
    cfg: MuxConfig,
    sensing: np.ndarray,
    solver: str = "ml",
    omp_tol: float = 0.0,
    oneshot_cap: int = 1 << 20,
    *,
    colnorm2: np.ndarray | None = None,
) -> RecoveryResult:
    """Full receiver: equalize, split into sub-blocks, recover, reassemble.

    ``sensing`` is :func:`sensing_matrix` of ``phi`` and ``dictionary``,
    computed once per sweep by the caller, who may also pass its squared
    column norms ``colnorm2`` (otherwise computed per call).  A stack of
    channels takes ``y`` of shape ``(..., nr)`` and detects every trial in
    one pass, bit for bit as one at a time.  ``solver`` picks the
    per-sub-block recovery: exact scan of all blocks at once (``ml``),
    greedy (``omp`` with one atom), or exact joint ML on the unequalized
    receive vector by block sphere search (``oneshot``), whose cost falls
    with SNR and which may score at most ``oneshot_cap`` candidates before
    it raises :class:`DictionaryTooLarge`.  Note that for phase-symmetric
    alphabets the dictionary contains every column's complex rotations,
    which OMP's absolute-correlation rule cannot tell apart; the exact scan
    is the production detector and OMP remains a generic cross-check.
    """
    if solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
    if solver == "oneshot":
        return _demux_oneshot(y, h, phi, dictionary, cfg, sensing, cap=oneshot_cap)

    eq = zf_equalize(y, h, gain=transmit_gain(phi, cfg))
    blocks = eq.z_hat.reshape(h.stack_shape + (cfg.j, cfg.subblock_rows))
    a = np.asarray(sensing, dtype=np.complex128)
    if solver == "ml":
        indices, residuals = _ml_scan(blocks, a, _colnorm2(a) if colnorm2 is None else colnorm2)
    else:
        indices = np.empty(blocks.shape[:-1], dtype=np.int64)
        residuals = np.empty(blocks.shape[:-1])
        for jj in np.ndindex(indices.shape):
            support, _ = recover_subblock_omp(blocks[jj], a, k_max=1, tol=omp_tol)
            indices[jj] = support[0] if support else 0
            residuals[jj] = np.linalg.norm(blocks[jj] - a[:, indices[jj]])
    return RecoveryResult(
        indices, _reassemble(dictionary, indices, cfg), residuals, eq.condition_number
    )


def _reassemble(dictionary: SubblockDictionary, indices: np.ndarray, cfg: MuxConfig):
    """Symbol vectors ``(..., l)`` of the per-block dictionary columns ``(..., J)``."""
    return dictionary.psi.T[indices].reshape(indices.shape[:-1] + (cfg.l,))


def _demux_oneshot(y, h, phi, dictionary, cfg, sensing, cap):
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
    """
    y = np.asarray(y, dtype=np.complex128)
    if not h.stack_shape:
        y = y.ravel()
    if h.h.shape != y.shape + (cfg.m,):
        raise DimensionMismatch(
            f"channel shape {h.h.shape} != {y.shape + (cfg.m,)} "
            f"for {y.shape[-1]} receive and {cfg.m} transmit dimensions"
        )
    if not (np.isfinite(y).all() and np.isfinite(h.h).all()):
        raise ValueError("receive vector and channel must be finite")
    a = sensing * transmit_gain(phi, cfg)
    indices = np.empty(h.stack_shape + (cfg.j,), dtype=np.int64)
    residuals = np.empty(h.stack_shape + (1,))
    for t in np.ndindex(h.stack_shape):
        indices[t], residuals[t] = _sphere_search(y[t], h.h[t], a, cfg, dictionary.d, cap)
    nan = np.full(h.stack_shape, np.nan)[()]
    return RecoveryResult(indices, _reassemble(dictionary, indices, cfg), residuals, nan)


def _sphere_search(y, h, a, cfg, d, cap):
    """Joint indices and residual of one trial; ``a`` is the gain-scaled sensing."""
    rows = cfg.subblock_rows
    q, r = np.linalg.qr(h, mode="complete")
    yq = q.conj().T @ y
    # contrib[i, :, k]: rotated receive contribution of candidate k placed in
    # sub-block i; rows below block i are zero since r is upper triangular.
    contrib = r.reshape(-1, cfg.j, rows).transpose(1, 0, 2) @ a
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
