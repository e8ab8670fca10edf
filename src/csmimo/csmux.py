"""Gaussian measurement matrix generation and sub-block multiplexing.

``l`` modulated symbols are split into ``j`` consecutive groups and each
group is compressed by the same real Gaussian matrix ``phi`` of shape
``(m/j, l/j)``, stacking the results into an ``m``-dimensional transmit
vector.  The output is rescaled so its average energy per complex dimension
is one regardless of the compression ratio, which keeps SNR comparisons
against an uncompressed system fair.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import BadSubblockShape, DictionaryTooLarge, DimensionMismatch
from .modem import get_constellation


def require_int(value, name: str) -> int:
    """``value`` as ``int`` if it is a Python or numpy integer; floats,
    booleans and anything else raise a one-line ``ValueError`` naming ``name``."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def require_ints(obj) -> None:
    """Check with :func:`require_int` that the fields of a frozen dataclass
    annotated ``int`` hold integers, and store them as ``int``.

    Annotations are postponed, so a field's type is its text.
    """
    for name in [f.name for f in fields(obj) if f.type == "int"]:
        object.__setattr__(obj, name, require_int(getattr(obj, name), name))


@dataclass(frozen=True)
class MuxConfig:
    """Physical-layer configuration of one multiplexing setup.

    ``m = min(nt, nr)`` spatial streams carry ``l >= m`` modulated streams,
    so the compression ratio is ``rho = m / l``.  ``j`` must divide both
    ``l`` and ``m`` so the sub-blocks have integral shape.  ``dictionary_cap``
    bounds the entries of the largest per-block table a step builds, which
    :func:`block_width` gives per solver; the setup itself checks only the
    floor every solver shares: the ``ml`` width ``√q**n``, the narrowest,
    and ``q**n < 2**63`` for the int64 joint index of a sub-block of
    ``n = l/j`` symbols from an alphabet of ``q``.
    """

    nt: int
    nr: int
    l: int
    j: int
    phi_seed: int = 0
    constellation: str = "qpsk"
    dictionary_cap: int = 65536

    def __post_init__(self) -> None:
        require_ints(self)
        if self.nt < 1 or self.nr < 1:
            raise ValueError("antenna counts must be positive")
        if self.l < 1 or self.j < 1:
            raise ValueError("stream and sub-block counts must be positive")
        if self.phi_seed < 0:
            raise ValueError("phi_seed must be non-negative")
        m = self.m
        if self.l < m:
            raise ValueError(
                f"l={self.l} is smaller than m={m}; compression ratio must be in (0, 1]"
            )
        if self.l % self.j or m % self.j:
            raise BadSubblockShape(
                f"j={self.j} must divide both l={self.l} and m={m}"
            )
        order, n = get_constellation(self.constellation).order, self.subblock_cols
        if order**n >= 2**63:
            raise DictionaryTooLarge(f"joint index range {order}^{n} does not fit in int64")
        block_width(self, "ml")

    @property
    def m(self) -> int:
        return min(self.nt, self.nr)

    @property
    def rho(self) -> float:
        return self.m / self.l

    @property
    def subblock_rows(self) -> int:
        return self.m // self.j

    @property
    def subblock_cols(self) -> int:
        return self.l // self.j


def block_width(cfg: MuxConfig, solver: str) -> int:
    """Entries in the largest per-block table ``solver`` builds for ``cfg``:
    the ``√q**n`` real I/Q level tuples that each ``ml`` half-scan scores,
    and ``q**n`` for the dictionary of ``omp`` and ``oneshot`` and for the
    pairwise level-tuple distances of ``analyze``.  Raises
    :class:`DictionaryTooLarge` when it exceeds ``cfg.dictionary_cap``.
    """
    c, n = get_constellation(cfg.constellation), cfg.subblock_cols
    base = c.iq_levels.size if solver == "ml" else c.order
    if base**n > cfg.dictionary_cap:
        raise DictionaryTooLarge(
            f"{solver} per-block table width {base}^{n} = {base**n} "
            f"exceeds cap {cfg.dictionary_cap}"
        )
    return base**n


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """Real compression matrix shared by all sub-blocks.

    ``phi`` is a read-only copy of the caller's array, so the values
    derived from it stay valid, and two matrices are equal, with equal
    hashes, when their shape and entry bytes are.
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

    def _key(self) -> tuple:
        return self.phi.shape, self.phi.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasurementMatrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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


def identity_phi(cfg: MuxConfig) -> MeasurementMatrix:
    """Identity sub-block matrix (no compression); useful with rho = 1."""
    return MeasurementMatrix(np.eye(cfg.subblock_rows, cfg.subblock_cols))


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
