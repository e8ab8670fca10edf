"""Exhaustive sub-block dictionary: every possible transmitted tuple, one column.

For a sub-block of ``n`` symbols from an alphabet of size ``q`` the
dictionary ``psi`` is the ``(n, q**n)`` array of every tuple, so any valid
sub-block has an exactly 1-sparse representation.  Columns are in the
little-endian mixed-radix order of :func:`digits`: column ``k`` holds the
tuple whose symbol index at position ``i`` is ``(k // q**i) % q``, so the
tuple of point indices ``idx`` is column ``idx @ q**arange(n)``, the
encoding ``demux`` gives its ``s_indices``.
"""

from __future__ import annotations

import numpy as np

from .errors import DictionaryTooLarge, SpecError
from .modem import Constellation


def build_dictionary(c: Constellation, n: int, cap: int = 65536) -> np.ndarray:
    """All ``q**n`` symbol tuples of length ``n`` as the columns of the
    ``(n, q**n)`` array ``psi``, in the order of :func:`digits`."""
    if n < 1:
        raise SpecError("sub-block length must be positive")
    q = c.order
    d = q**n
    if d > cap:
        raise DictionaryTooLarge(f"dictionary width {q}^{n} = {d} exceeds cap {cap}")
    # copied to C order, the layout of psi that the pinned sensing products read
    return c.points[digits(np.arange(d), q, n)].T.copy()


def digits(k: np.ndarray, base: int, n: int) -> np.ndarray:
    """Little-endian base-``base`` digits ``(..., n)`` of the indices ``k``:
    digit ``i`` is ``(k // base**i) % base``, as the dictionary orders its
    columns."""
    return (k[..., None] // base ** np.arange(n)) % base
