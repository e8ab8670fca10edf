"""Desk-scale uniqueness diagnostics: spark, restricted isometry, distinctness.

The spark of a matrix is the smallest number of linearly dependent columns;
a 1-sparse representation is unique whenever no two columns coincide.
Spark is combinatorial, so it enumerates column subsets outright.  The
restricted isometry constant of order k measures the worst deviation of any
k-column submatrix from an isometry; it is computed for orders 1 and 2, the
two ``csmimo analyze`` reports, whose every support has a closed form.
Distinctness of the ``q**n`` compressed candidates needs no enumeration
either: it is read off the ``√q**n`` real I/Q level tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .detection import Codebook
from .errors import DimensionMismatch, SpecError, TooManyColumns

DEPENDENCE_TOL = 1e-10

# most columns spark's exhaustive search takes
SPARK_MAX_COLUMNS = 20


@dataclass(frozen=True)
class UniquenessReport:
    """Pairwise distinctness of the composed candidate columns."""

    unique: bool
    min_distance: float
    d: int
    threshold: float


def _rank(s: np.ndarray) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > DEPENDENCE_TOL * s[0]))


def spark(a: np.ndarray) -> int:
    """Smallest number of linearly dependent columns, by exhaustive search.

    A subset counts as dependent when its smallest singular value is at most
    ``DEPENDENCE_TOL`` times its largest.  If every subset of size up to
    ``rank(a)`` is independent the spark is ``rank(a) + 1``, which for a
    full-column-rank matrix is the conventional ``columns + 1``.  A matrix
    of more than ``SPARK_MAX_COLUMNS`` columns raises :class:`TooManyColumns`.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[1] == 0:
        raise DimensionMismatch("spark needs a 2-D matrix with at least one column")
    cols = a.shape[1]
    if cols > SPARK_MAX_COLUMNS:
        raise TooManyColumns(
            f"{cols} columns exceed the combinatorial search cap {SPARK_MAX_COLUMNS}"
        )
    rank = _rank(np.linalg.svd(a, compute_uv=False))
    for size in range(1, rank + 1):
        for subset in combinations(range(cols), size):
            s = np.linalg.svd(a[:, subset], compute_uv=False)
            if s[-1] <= DEPENDENCE_TOL * s[0]:
                return size
    return rank + 1


def _delta_two_columns(gram: np.ndarray) -> float:
    # Exact singular values of every 2-column submatrix from its Gram matrix.
    diag = gram.diagonal().real
    i, j = np.triu_indices(gram.shape[0], k=1)
    mid = (diag[i] + diag[j]) / 2.0
    off = np.sqrt(((diag[i] - diag[j]) / 2.0) ** 2 + np.abs(gram[i, j]) ** 2)
    lam_hi = mid + off
    lam_lo = mid - off
    return float(max(np.max(lam_hi - 1.0), np.max(1.0 - lam_lo)))


def rip_constant(a: np.ndarray, k: int) -> float:
    """Restricted isometry constant of order ``k``, 1 or 2, of ``a`` with its
    columns scaled to unit norm: exact, from every support's closed form.

    Order 1 is the largest ``| ||a_i||² - 1 |``, which unit columns make 0
    up to rounding; order 2 reads the two eigenvalues of every 2-column Gram
    submatrix at once.  Any other order, an order above the column count
    and a zero column raise :class:`SpecError`.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatch("rip_constant needs a 2-D matrix")
    cols = a.shape[1]
    if k not in (1, 2) or k > cols:
        raise SpecError(f"order k={k} must be 1 or 2, and at most the {cols} columns")
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0):
        raise SpecError("cannot column-normalize a matrix with a zero column")
    a = a / norms
    if k == 1:
        return float(np.max(np.abs(np.linalg.norm(a, axis=0) ** 2 - 1.0)))
    return _delta_two_columns(a.conj().T @ a)


def verify_uniqueness(code: Codebook) -> UniquenessReport:
    """Check that the ``q**n`` compressed candidate columns ``Φψ``, one per
    ``n``-tuple ``ψ`` of the alphabet of ``code``, are pairwise distinct.

    Distinct columns mean every noiseless sub-block pins down a unique
    candidate index, so exact recovery has no ties.  Reports the minimum
    pairwise distance; the distinctness threshold is ``DEPENDENCE_TOL``
    times the largest column norm.

    The candidates are every tuple ``ψ = P_u + i·P_v`` of the product
    alphabet's I/Q levels and ``Φ`` is real, so ``||Φψ - Φψ'||² =
    ||Φ(P_u - P_u')||² + ||Φ(P_v - P_v')||²``.  A closest pair of distinct
    columns keeps one half equal: the minimum distance is that of the
    ``√q**n`` real tuples ``ΦP_u``, the ``ΦP`` of ``code.iq_images``, formed
    from their direct differences, and the largest column norm is ``√2``
    times the largest tuple norm.  No ``q**n`` dictionary is built.
    """
    b = code.iq_images[1]
    dist2 = sum(np.square(row[:, None] - row) for row in b)
    np.fill_diagonal(dist2, np.inf)
    min_distance = float(np.sqrt(dist2.min()))
    threshold = DEPENDENCE_TOL * float(np.sqrt(2.0 * np.max(np.square(b).sum(axis=0))))
    return UniquenessReport(
        unique=bool(min_distance > threshold),
        min_distance=min_distance,
        d=code.alphabet.order**code.cfg.subblock_cols,
        threshold=threshold,
    )
