"""Rayleigh flat-fading MIMO channel and AWGN.

The SNR convention used throughout: ``snr_db`` is the ratio of average
received signal energy per receive antenna to the complex noise variance
``sigma2``.  With every transmit vector normalized to unit average energy
per complex dimension and i.i.d. unit-variance channel gains, the received
signal energy per antenna equals the number of transmitted complex
dimensions, so ``sigma2 = m_tx / 10**(snr_db/10)``.

A :class:`ChannelRealization` may hold a stack of draws with leading trial
axes, shape ``(..., nr, m_tx)``.  :func:`gains` and :func:`received` turn
standard normals drawn elsewhere into a stack of channels and received
vectors exactly as :func:`sample_channel` and :func:`apply_channel` draw
them for one trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of an ``nr x m_tx`` complex channel matrix, or a stack of
    draws of shape ``(..., nr, m_tx)`` with one leading index per trial.

    Its factorizations are cached per object, one stacked LAPACK call each
    over the whole stack: every receiver that is handed the same object
    shares them.  Both raise ``ValueError`` for a channel that is not
    finite.  The object keeps the caller's array, so whoever writes into
    ``h`` afterwards must build a new object.  Two realizations compare and
    hash by identity.
    """

    h: np.ndarray

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
            raise ValueError("channel must be finite")
        return self.h

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD ``(u, s, vh)`` of every matrix, computed once per draw."""
        return np.linalg.svd(self._finite(), full_matrices=False)

    @cached_property
    def qr(self) -> tuple[np.ndarray, np.ndarray]:
        """Complete QR ``(q, r)`` of every matrix, computed once per draw:
        ``q`` is ``(..., nr, nr)`` and ``r`` is ``(..., nr, m_tx)``."""
        return np.linalg.qr(self._finite(), mode="complete")


@dataclass(frozen=True)
class NoiseSpec:
    """Complex noise variance per receive antenna, tied to an SNR in dB."""

    snr_db: float
    sigma2: float

    def __post_init__(self) -> None:
        if not self.sigma2 >= 0.0:
            raise ValueError(f"sigma2 must be >= 0, got {self.sigma2!r}")

    @classmethod
    def from_snr(cls, snr_db: float, rx_energy: float) -> "NoiseSpec":
        """Derive sigma2 from the SNR given the received energy per antenna.

        ``rx_energy`` equals the number of unit-energy transmit dimensions
        under the convention described in the module docstring.  An infinite
        ``snr_db`` yields sigma2 = 0 (noiseless).
        """
        return cls(float(snr_db), float(rx_energy) / 10.0 ** (float(snr_db) / 10.0))


def sample_channel(nr: int, m_tx: int, rng: np.random.Generator) -> ChannelRealization:
    """Draw an nr x m_tx matrix of i.i.d. circularly-symmetric CN(0, 1) gains."""
    if nr < 1 or m_tx < 1:
        raise ValueError("channel dimensions must be positive")
    return ChannelRealization(gains(rng.standard_normal(2 * nr * m_tx), nr, m_tx))


def gains(normals: np.ndarray, nr: int, m_tx: int) -> np.ndarray:
    """CN(0, 1) gains of shape ``(..., nr, m_tx)`` from ``2·nr·m_tx``
    standard normals per trial: the real parts row by row, then the
    imaginary parts, as :func:`sample_channel` draws them."""
    k = nr * m_tx
    h = (normals[..., :k] + 1j * normals[..., k:]) * np.sqrt(0.5)
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
    return received(h.h, z, noise, rng.standard_normal(2 * h.nr))


def received(h: np.ndarray, z: np.ndarray, noise: NoiseSpec, normals: np.ndarray) -> np.ndarray:
    """``h @ z`` plus CN(0, sigma2) noise made of ``2·nr`` standard normals
    per trial, the real parts first, as :func:`apply_channel` draws them;
    ``h`` is a channel matrix or a stack of them."""
    nr = h.shape[-2]
    v = np.sqrt(noise.sigma2 / 2.0) * (normals[..., :nr] + 1j * normals[..., nr:])
    # stacked matrix-vector products, bit for bit the single-draw ones
    return (h @ z[..., None])[..., 0] + v

