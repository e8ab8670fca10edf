"""Rayleigh flat-fading MIMO channel and AWGN.

The SNR convention used throughout: ``snr_db`` is the ratio of average
received signal energy per receive antenna to the complex noise variance
``sigma2``.  With every transmit vector normalized to unit average energy
per complex dimension and i.i.d. unit-variance channel gains, the received
signal energy per antenna equals the number of transmitted complex
dimensions, so ``sigma2 = m_tx / 10**(snr_db/10)``.

A :class:`ChannelRealization` may hold a stack of draws with leading trial
axes, shape ``(..., nr, m_tx)``, and caches for the whole stack the
pseudo-inverse that zero-forcing reads, the usability flags read off it and
the QR of the one-shot search.  :func:`gains` and :func:`unit_noise` turn
standard normals drawn elsewhere into a stack of channels and noise vectors
exactly as :func:`sample_channel` and :func:`apply_channel` draw them for
one trial; :func:`noisy` scales the noise to an SNR point and adds it to
vectors already sent through their channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, SpecError
from .spec import db_point


# Smallest ratio σ_min/σ_max of a usable channel's singular values.
RANK_TOL = 1e-12

# ‖H‖_F·‖H⁺‖_F is at least σ_max/σ_min, so a channel whose bound is below
# this passes the RANK_TOL check without its singular values.  The bound is
# read off the rounded pseudo-inverse, off by a relative κ·eps of about 1e-7
# at κ = 1e9, and the exact check reads rounded singular values, σ_min off
# by about n·eps·σ_max: the factor 1e-3 leaves three decades between the
# two.
_CERTIFIED_KAPPA = 1e-3 / RANK_TOL


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of an ``nr x m_tx`` complex channel matrix, or a stack of
    draws of shape ``(..., nr, m_tx)`` with one leading index per trial.

    Its pseudo-inverse, usability flags and QR are cached per object, each
    made once for the whole stack: every receiver that is handed the same
    object shares them, and so does every part of the stack taken by a
    slice ``channel[lo:hi]`` or an index array ``channel[rows]``.  The
    factorizations raise :class:`SpecError` for a channel that is not finite.
    The object keeps the caller's array, so whoever writes into ``h``
    afterwards must build a new object.  Two realizations compare and hash
    by identity.
    """

    h: np.ndarray
    # (stack, rows) for a part made by __getitem__, whose cached values
    # are those rows of the stack's
    _whole: tuple[ChannelRealization, slice | np.ndarray] | None = field(
        default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=np.complex128)
        if h.ndim < 2:
            raise DimensionMismatch(f"channel matrix must be 2-D, got shape {h.shape}")
        object.__setattr__(self, "h", h)

    @property
    def nr(self) -> int:
        return self.h.shape[-2]

    @property
    def m_tx(self) -> int:
        return self.h.shape[-1]

    @property
    def stack_shape(self) -> tuple[int, ...]:
        """Leading trial axes; ``()`` for a single draw."""
        return self.h.shape[:-2]

    def _finite(self) -> np.ndarray:
        """``h``, checked finite before LAPACK sees it."""
        if not np.isfinite(self.h).all():
            raise SpecError("channel must be finite")
        return self.h

    def __getitem__(self, rows: slice | np.ndarray) -> ChannelRealization:
        """The draws ``rows`` of the leading trial axis, a slice (a view) or a
        1-D integer array, which may repeat and reorder draws (a copy).  The
        part shares this stack's cached values: its ``pinv``, ``usable`` and
        ``qr`` are those rows of the stack's, each made once for the whole
        stack on first use by the stack or any of its parts, so they raise
        if any draw of the stack is not finite."""
        gathered = (isinstance(rows, np.ndarray) and rows.ndim == 1
                    and np.issubdtype(rows.dtype, np.integer))
        if not (isinstance(rows, slice) or gathered) or not self.stack_shape:
            raise TypeError("a channel stack is sliced or gathered along its leading trial"
                            " axis only")
        part = ChannelRealization(self.h[rows])
        object.__setattr__(part, "_whole", (self, rows))
        return part

    def _shared(self, name: str, make):
        """``make(self)`` for a whole stack; for a part, those rows of the
        stack's cached ``name``."""
        if self._whole is None:
            return make(self)
        whole, rows = self._whole
        got = getattr(whole, name)
        return got[rows] if isinstance(got, np.ndarray) else tuple(f[rows] for f in got)

    @cached_property
    def pinv(self) -> np.ndarray:
        """Pseudo-inverse ``(..., m_tx, nr)`` of every matrix, for
        ``nr >= m_tx``: ``H⁻¹`` of a square channel, one stacked
        ``np.linalg.inv``, and ``R⁻¹Qᴴ`` of the reduced QR of a tall one.
        A matrix that the inversion finds exactly singular is all ``nan``;
        every other matrix is, bit for bit, its own inversion.  A wide
        channel has no left inverse and raises :class:`DimensionMismatch`."""
        return self._shared("pinv", lambda c: _pinv(c._finite()))

    @cached_property
    def usable(self) -> bool | np.ndarray:
        """Whether each matrix has full column rank to within ``RANK_TOL``:
        its smallest singular value exceeds ``RANK_TOL`` times its largest,
        and it has no more columns than rows.

        A matrix whose ``‖H‖_F·‖H⁺‖_F`` is below ``_CERTIFIED_KAPPA`` passes
        on that bound, read off ``pinv``; only the others, exactly singular
        ones included, get their own thin SVD and the exact check, so every
        flag is the one the singular values give."""
        return self._shared("usable", _usable)

    @cached_property
    def condition_number(self) -> float | np.ndarray:
        """``σ_max/σ_min`` of every matrix from its thin SVD, computed when
        first read (``inf`` for a singular matrix, ``nan`` for a zero one)."""
        s = _singular_values(self._finite())
        with np.errstate(divide="ignore", invalid="ignore"):
            return (s[..., 0] / s[..., -1])[()]

    @cached_property
    def qr(self) -> tuple[np.ndarray, np.ndarray]:
        """Complete QR ``(q, r)`` of every matrix, computed once per draw:
        ``q`` is ``(..., nr, nr)`` and ``r`` is ``(..., nr, m_tx)``."""
        return self._shared("qr", lambda c: np.linalg.qr(c._finite(), mode="complete"))


def _singular_values(h: np.ndarray) -> np.ndarray:
    """Singular values of every matrix of ``h``, largest first, from the
    thin SVD: what the exact usability check compares."""
    return np.linalg.svd(h, full_matrices=False)[1]


def _pinv(h: np.ndarray) -> np.ndarray:
    """:attr:`ChannelRealization.pinv` of a finite stack ``h``."""
    nr, m_tx = h.shape[-2:]
    if m_tx > nr:
        raise DimensionMismatch(f"a {nr} x {m_tx} channel has no left inverse")
    q = None
    if nr > m_tx:
        q, h = np.linalg.qr(h)
    try:
        inv = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        # one exactly singular matrix fails the whole stacked call
        inv = np.full(h.shape, np.nan, dtype=h.dtype)
        for t in np.ndindex(h.shape[:-2]):
            try:
                inv[t] = np.linalg.inv(h[t])
            except np.linalg.LinAlgError:
                pass
    # stacked products, bit for bit the single-channel ones
    return inv if q is None else inv @ q.conj().swapaxes(-1, -2)


def _usable(c: ChannelRealization) -> bool | np.ndarray:
    """:attr:`ChannelRealization.usable` of a whole stack ``c``."""
    if c.m_tx > c.nr:
        return np.zeros(c.stack_shape, dtype=bool)[()]
    pinv = c.pinv
    # an extreme scale may overflow one norm and underflow the other: the
    # bound is then inf or nan, and the matrix gets the exact check
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        bound = _frobenius2(c.h) * _frobenius2(pinv)
    usable = np.array(bound < _CERTIFIED_KAPPA**2)
    for t in map(tuple, np.argwhere(~usable)):
        s = _singular_values(c.h[t])
        usable[t] = s[-1] > RANK_TOL * s[0]
    return usable[()]


def _frobenius2(a: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every complex matrix of ``a``, read as
    real and imaginary parts side by side."""
    v = np.ascontiguousarray(a).view(np.float64)
    return np.einsum("...ij,...ij->...", v, v)


@dataclass(frozen=True)
class NoiseSpec:
    """Complex noise variance per receive antenna, tied to an SNR in dB,
    which is a :func:`~csmimo.spec.db_point`."""

    snr_db: float
    sigma2: float

    def __post_init__(self) -> None:
        db_point("snr_db", self.snr_db)
        if not 0.0 <= self.sigma2 < np.inf:
            raise SpecError("sigma2 must be finite and >= 0")

    @classmethod
    def from_snr(cls, snr_db: float, rx_energy: float) -> "NoiseSpec":
        """Derive sigma2 from the SNR given the received energy per antenna.

        ``rx_energy`` equals the number of unit-energy transmit dimensions
        under the convention described in the module docstring.  ``snr_db``
        is a :func:`~csmimo.spec.db_point`: an infinite one yields sigma2 = 0
        (noiseless), and a finite one lies within 1000 dB of 0, where
        ``10**(snr_db/10)`` neither overflows nor underflows.  A sigma2 that
        is not a finite float ``>= 0`` raises :class:`SpecError`.
        """
        snr = db_point("snr_db", snr_db)
        return cls(snr, float(rx_energy) / 10.0 ** (snr / 10.0))

    @property
    def scale(self) -> float:
        """``sqrt(sigma2/2)``, the standard deviation of each real part of
        the noise: the factor :func:`noisy` puts on :func:`unit_noise`."""
        return np.sqrt(self.sigma2 / 2.0)


def sample_channel(nr: int, m_tx: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw an nr x m_tx matrix of i.i.d. circularly-symmetric CN(0, 1) gains."""
    if nr < 1 or m_tx < 1:
        raise SpecError("channel dimensions must be positive")
    return ChannelRealization(gains(rng.standard_normal(2 * nr * m_tx), nr, m_tx))


def gains(normals: np.ndarray, nr: int, m_tx: int) -> np.ndarray:
    """CN(0, 1) gains of shape ``(..., nr, m_tx)`` from ``2·nr·m_tx``
    standard normals per trial: the real parts row by row, then the
    imaginary parts, as :func:`sample_channel` draws them."""
    k = nr * m_tx
    # both parts scaled into one complex array, bit for bit (re + 1j·im)·√½
    # but for the sign of a normal that is exactly 0
    h = np.empty(normals.shape[:-1] + (k,), dtype=np.complex128)
    np.multiply(normals[..., :k], np.sqrt(0.5), out=h.real)
    np.multiply(normals[..., k:], np.sqrt(0.5), out=h.imag)
    return h.reshape(normals.shape[:-1] + (nr, m_tx))


def apply_channel(
    h: ChannelRealization, z: np.ndarray, noise: NoiseSpec, rng: np.random.Generator
) -> np.ndarray:
    """Return ``h @ z + v`` for one channel draw, with ``v`` i.i.d.
    CN(0, sigma2) per receive antenna; the noise draws the real parts, then
    the imaginary parts, from ``rng``."""
    z = np.asarray(z, dtype=np.complex128).ravel()
    if h.stack_shape or z.shape != (h.m_tx,):
        raise DimensionMismatch(
            f"transmit vector of shape {z.shape} does not match one channel of shape {h.h.shape}"
        )
    # the product a sweep forms for its stack of draws, bit for bit
    hz = (h.h @ z[:, None])[:, 0]
    return noisy(hz, noise, unit_noise(rng.standard_normal(2 * h.nr)))


def unit_noise(normals: np.ndarray) -> np.ndarray:
    """CN(0, 2) noise of ``nr`` entries from ``2·nr`` standard normals per
    trial, the real parts first."""
    nr = normals.shape[-1] // 2
    return normals[..., :nr] + 1j * normals[..., nr:]


def noisy(hz: np.ndarray, noise: NoiseSpec, unit: np.ndarray) -> np.ndarray:
    """``hz`` plus the :func:`unit_noise` ``unit`` scaled to ``noise``, for
    ``hz = h @ z`` the received vectors.  A caller that sends the same
    vectors through the same channels at several SNR points forms ``hz``
    and ``unit`` once."""
    return hz + noise.scale * unit

