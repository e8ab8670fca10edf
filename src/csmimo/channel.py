"""Rayleigh flat-fading MIMO channel and AWGN.

The SNR convention used throughout: ``snr_db`` is the ratio of average
received signal energy per receive antenna to the complex noise variance
``sigma2``.  With every transmit vector normalized to unit average energy
per complex dimension and i.i.d. unit-variance channel gains, the received
signal energy per antenna equals the number of transmitted complex
dimensions, so ``sigma2 = m_tx / 10**(snr_db/10)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of an ``nr x m_tx`` complex channel matrix."""

    h: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=np.complex128)
        if h.ndim != 2:
            raise DimensionMismatch(f"channel matrix must be 2-D, got shape {h.shape}")
        object.__setattr__(self, "h", h)

    @property
    def nr(self) -> int:
        return self.h.shape[0]

    @property
    def m_tx(self) -> int:
        return self.h.shape[1]

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD ``(u, s, vh)`` of ``h``, computed once per draw."""
        return np.linalg.svd(self.h, full_matrices=False)


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
    re = rng.standard_normal((nr, m_tx))
    im = rng.standard_normal((nr, m_tx))
    return ChannelRealization((re + 1j * im) * np.sqrt(0.5))


def apply_channel(
    h: ChannelRealization,
    z: np.ndarray,
    noise: NoiseSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """Return ``h @ z + v`` with ``v`` i.i.d. CN(0, sigma2) per receive antenna."""
    z = np.asarray(z, dtype=np.complex128).ravel()
    if z.size != h.m_tx:
        raise DimensionMismatch(
            f"transmit vector length {z.size} does not match channel columns {h.m_tx}"
        )
    scale = np.sqrt(noise.sigma2 / 2.0)
    v = scale * (rng.standard_normal(h.nr) + 1j * rng.standard_normal(h.nr))
    return h.h @ z + v

