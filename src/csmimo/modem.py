"""Bit-to-symbol mapping for unit-energy constellations.

A :class:`Constellation` couples an ordered list of complex points with a
bit labeling.  ``points[i]`` is the symbol at index ``i`` and ``labels[i]``
is the bit tuple carried by that symbol.  All shipped alphabets are
normalized to unit average symbol energy so that transmit power accounting
stays independent of the modulation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndivisibleBitLength, SpecError

_SQRT2 = np.sqrt(2.0)
_SQRT10 = np.sqrt(10.0)

# Reflected Gray order for one axis of a square QAM grid: bit pair -> level index.
_GRAY2 = {(0, 0): 0, (0, 1): 1, (1, 1): 2, (1, 0): 3}


@dataclass(frozen=True)
class Constellation:
    """Finite modulation alphabet with a fixed bit labeling.

    Attributes
    ----------
    name : str
        Identifier used in configs (``qpsk``, ``qam16``).
    points : np.ndarray
        Ordered complex symbols, unit average energy.
    labels : np.ndarray
        ``(order, bits_per_symbol)`` array of 0/1; row ``i`` is the bit
        tuple of ``points[i]``.  The labeling must be a bijection.

    Both arrays are read-only copies, so one instance can be shared.
    :attr:`iq_levels` holds the levels that the real and the imaginary
    parts both take when the points are exactly their product set, and
    :attr:`label_distances` the Hamming distances of the labels.
    """

    name: str
    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=np.complex128)
        labels = np.array(self.labels)
        # checked before the cast, which would wrap, truncate or overflow
        if not ((labels == 0) | (labels == 1)).all():
            raise SpecError("constellation labels must be bits, each 0 or 1")
        labels = labels.astype(np.uint8)
        points.flags.writeable = labels.flags.writeable = False
        order = points.size
        b = int(round(np.log2(order))) if order > 0 else 0
        if order == 0 or 2**b != order:
            raise SpecError(f"constellation order {order} is not a power of two")
        if labels.shape != (order, b):
            raise DimensionMismatch(f"labels shape {labels.shape} does not match order {order}")
        energy = float(np.mean(np.abs(points) ** 2))
        if abs(energy - 1.0) > 1e-12:
            raise SpecError(f"average symbol energy {energy!r} is not 1")
        weights = (1 << np.arange(b - 1, -1, -1)).astype(np.int64)
        label_ints = labels.astype(np.int64) @ weights
        if len(set(label_ints.tolist())) != order:
            raise SpecError("bit labeling is not a bijection")
        index_of_label = np.empty(order, dtype=np.int64)
        index_of_label[label_ints] = np.arange(order)
        # distinct points on a grid of levels x levels with levels**2 points;
        # sets, not np.unique, whose first call imports numpy.ma
        levels = np.array(sorted(set(points.real.tolist())))
        levels.flags.writeable = False
        is_product = (
            levels.size**2 == order
            and sorted(set(points.imag.tolist())) == levels.tolist()
            and len(set(points.tolist())) == order
        )
        distances = (labels[:, None, :] != labels[None, :, :]).sum(axis=-1, dtype=np.int64)
        distances.flags.writeable = False
        object.__setattr__(self, "_iq_levels", levels if is_product else None)
        object.__setattr__(self, "_label_distances", distances)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_index_of_label", index_of_label)

    @property
    def order(self) -> int:
        return self.points.size

    @property
    def bits_per_symbol(self) -> int:
        return self.labels.shape[1]

    @property
    def iq_levels(self) -> np.ndarray | None:
        """Ascending levels of both the real and the imaginary parts, read-only,
        when the points are every ``levels[a] + 1j * levels[b]`` once; ``None``
        for any other alphabet."""
        return self._iq_levels

    @property
    def label_distances(self) -> np.ndarray:
        """Read-only ``(order, order)`` int64 table: the number of bits in
        which ``labels[a]`` and ``labels[b]`` differ, at ``[a, b]``."""
        return self._label_distances


def _qpsk() -> Constellation:
    # Gray labeling {00,01,11,10} onto {1+1j, 1-1j, -1-1j, -1+1j}/sqrt(2).
    points = np.array([1 + 1j, 1 - 1j, -1 - 1j, -1 + 1j]) / _SQRT2
    labels = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)
    return Constellation("qpsk", points, labels)


def _qam16() -> Constellation:
    # Square 16-QAM, independent Gray coding per axis, levels {+-1,+-3}/sqrt(10).
    # Point index equals the integer value of its 4-bit label (b0 b1 b2 b3),
    # where (b0,b1) select the in-phase level and (b2,b3) the quadrature level.
    levels = np.array([-3.0, -1.0, 1.0, 3.0]) / _SQRT10
    points = np.empty(16, dtype=np.complex128)
    labels = np.empty((16, 4), dtype=np.uint8)
    for i in range(16):
        b = [(i >> 3) & 1, (i >> 2) & 1, (i >> 1) & 1, i & 1]
        points[i] = levels[_GRAY2[(b[0], b[1])]] + 1j * levels[_GRAY2[(b[2], b[3])]]
        labels[i] = b
    return Constellation("qam16", points, labels)


# Built once: every sweep, trial and config check shares these instances.
_REGISTRY = {"qpsk": _qpsk(), "qam16": _qam16()}


def get_constellation(name: str) -> Constellation:
    """Look up a constellation by its exact config name."""
    c = _REGISTRY.get(name) if isinstance(name, str) else None
    if c is None:
        raise SpecError(f"constellation must be one of {tuple(_REGISTRY)}")
    return c


def symbol_indices(bits: np.ndarray, c: Constellation) -> np.ndarray:
    """Group a bit stream and map each group to its constellation point index.

    Raises
    ------
    IndivisibleBitLength
        If ``len(bits)`` is not a multiple of ``c.bits_per_symbol``.
    """
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    b = c.bits_per_symbol
    if bits.size % b:
        raise IndivisibleBitLength(
            f"bit stream length {bits.size} is not divisible by {b}"
        )
    label_ints = bits.reshape(-1, b).astype(np.int64) @ c._weights
    return c._index_of_label[label_ints]


def nearest_point_indices(symbols: np.ndarray, c: Constellation) -> np.ndarray:
    """Hard decision: index of the nearest constellation point per symbol.

    Ties resolve to the lowest point index so replays are deterministic.
    """
    s = np.asarray(symbols, dtype=np.complex128).ravel()
    diff = s[:, None] - c.points[None, :]
    d2 = diff.real**2 + diff.imag**2
    return d2.argmin(axis=1)
