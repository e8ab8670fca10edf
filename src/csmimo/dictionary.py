"""Exhaustive sub-block dictionary: every possible transmitted tuple, one column.

For a sub-block of ``n`` symbols from an alphabet of size ``q`` the
dictionary has ``d = q**n`` columns, so any valid sub-block has an exactly
1-sparse representation.  Columns are ordered by a little-endian mixed-radix
codec: column ``k`` holds the tuple whose symbol index at position ``i`` is
``(k // q**i) % q``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DictionaryTooLarge, IndexOutOfRange, NotAConstellationTuple
from .modem import Constellation

# farthest an entry :func:`sparse_encode` reads may sit from its point
POINT_TOL = 1e-9


@dataclass(frozen=True)
class SubblockDictionary:
    """All ``q**n`` candidate sub-blocks as columns of an ``n x d`` matrix."""

    psi: np.ndarray
    constellation: Constellation
    n: int

    @property
    def d(self) -> int:
        return self.psi.shape[1]


def build_dictionary(
    c: Constellation, n: int, cap: int = 65536
) -> SubblockDictionary:
    """Enumerate all symbol tuples of length ``n`` as dictionary columns."""
    if n < 1:
        raise ValueError("sub-block length must be positive")
    q = c.order
    d = q**n
    if d > cap:
        raise DictionaryTooLarge(f"dictionary width {q}^{n} = {d} exceeds cap {cap}")
    # copied to C order, the layout of psi that the pinned sensing products read
    return SubblockDictionary(c.points[digits(np.arange(d), q, n)].T.copy(), c, n)


def digits(k: np.ndarray, base: int, n: int) -> np.ndarray:
    """Little-endian base-``base`` digits ``(..., n)`` of the indices ``k``:
    digit ``i`` is ``(k // base**i) % base``, as the dictionary orders its
    columns."""
    return (k[..., None] // base ** np.arange(n)) % base


def sparse_encode(x_j: np.ndarray, dictionary: SubblockDictionary) -> int:
    """Index of the dictionary column equal to ``x_j``.

    Every entry must sit within ``POINT_TOL`` of a constellation point,
    otherwise the tuple is not representable and
    :class:`NotAConstellationTuple` is raised.
    """
    x = np.asarray(x_j, dtype=np.complex128).ravel()
    if x.size != dictionary.n:
        raise NotAConstellationTuple(
            f"expected a tuple of length {dictionary.n}, got {x.size}"
        )
    points = dictionary.constellation.points
    dist = np.abs(x[:, None] - points[None, :])
    idx = dist.argmin(axis=1)
    if np.any(dist[np.arange(x.size), idx] > POINT_TOL):
        raise NotAConstellationTuple("entries are not constellation points")
    q = dictionary.constellation.order
    radix = q ** np.arange(dictionary.n, dtype=np.int64)
    return int(idx @ radix)


def sparse_decode(k: int, dictionary: SubblockDictionary) -> np.ndarray:
    """Column ``k`` of the dictionary, the tuple encoded by that index."""
    if not 0 <= k < dictionary.d:
        raise IndexOutOfRange(f"index {k} outside [0, {dictionary.d})")
    return dictionary.psi[:, k].copy()
