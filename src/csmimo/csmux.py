"""Gaussian measurement matrix generation and sub-block multiplexing.

``l`` modulated symbols are split into ``j`` consecutive groups and each
group is compressed by the same real Gaussian matrix ``phi`` of shape
``(m/j, l/j)``, stacking the results into an ``m``-dimensional transmit
vector.  The output is rescaled so its average energy per complex dimension
is one regardless of the compression ratio, which keeps SNR comparisons
against an uncompressed system fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .spec import MuxConfig


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """Real compression matrix shared by all sub-blocks.

    ``phi`` is a read-only copy of the caller's array, so the values
    derived from it stay valid.  Two matrices compare and hash by identity.
    """

    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.array(self.phi, dtype=np.float64)
        if phi.ndim != 2:
            raise DimensionMismatch(f"phi must be 2-D, got shape {phi.shape}")
        if not np.isfinite(phi).all():
            raise ValueError("phi entries must be finite")
        phi.flags.writeable = False
        object.__setattr__(self, "phi", phi)

    @property
    def scale(self) -> float:
        """Target entry standard deviation ``1/sqrt(rows)``, which gives
        each Gaussian column unit expected norm."""
        return 1.0 / np.sqrt(self.phi.shape[0])

    @cached_property
    def fro2(self) -> float:
        """Squared Frobenius norm ``||phi||_F^2``."""
        return float(np.sum(self.phi * self.phi))


def gen_phi(cfg: MuxConfig) -> MeasurementMatrix:
    """Draw the i.i.d. Gaussian sub-block matrix for ``cfg``, deterministic
    given ``cfg.phi_seed``.  Transmitter and receiver share the result."""
    rows = cfg.subblock_rows
    draw = np.random.default_rng(cfg.phi_seed).standard_normal((rows, cfg.subblock_cols))
    return MeasurementMatrix(draw * (1.0 / np.sqrt(rows)))


def transmit_gain(phi: MeasurementMatrix, cfg: MuxConfig) -> float:
    """Scalar applied after compression so E||z||^2 = m for unit-energy symbols.

    Equals ``sqrt(m / (j * ||phi||_F^2))``; deterministic given ``phi``, so
    the receiver can undo it exactly.
    """
    if phi.fro2 == 0.0:
        raise ValueError("zero measurement matrix has no transmit gain")
    return float(np.sqrt(cfg.m / (cfg.j * phi.fro2)))


def phi_to_text(phi: MeasurementMatrix) -> str:
    """Plain-text dump: one line per row, decimal floats, row-major.

    The format is meant for reproducing the exact matrix elsewhere, so
    entries are written with full round-trip precision:
    ``MeasurementMatrix(np.loadtxt(path, ndmin=2))`` reads a dump back.
    """
    return "\n".join(
        " ".join(repr(float(v)) for v in row) for row in phi.phi
    ) + "\n"


def multiplex(x: np.ndarray, phi: MeasurementMatrix, cfg: MuxConfig) -> np.ndarray:
    """Compress ``l`` symbols into ``m`` transmit dimensions, sub-block-wise.

    The real matrix acts identically on real and imaginary parts.  Output is
    the concatenation of ``phi @ x_group`` over the ``j`` groups, scaled by
    :func:`transmit_gain`.  Leading axes of ``x`` index trials: ``(..., l)``
    symbols give ``(..., m)`` transmit vectors, each bit for bit the single
    trial's.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[-1:] != (cfg.l,):
        raise DimensionMismatch(f"expected {cfg.l} symbols per trial, got shape {x.shape}")
    if phi.phi.shape != (cfg.subblock_rows, cfg.subblock_cols):
        raise DimensionMismatch(
            f"phi shape {phi.phi.shape} does not match "
            f"({cfg.subblock_rows}, {cfg.subblock_cols})"
        )
    # one (j, cols) @ (cols, rows) product per trial, as for a single trial
    groups = x.reshape(x.shape[:-1] + (cfg.j, cfg.subblock_cols))
    z = groups @ phi.phi.T
    return z.reshape(x.shape[:-1] + (cfg.m,)) * transmit_gain(phi, cfg)
