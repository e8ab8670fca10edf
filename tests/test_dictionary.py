"""Tests for the exhaustive sub-block dictionary and its column order."""

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmimo.channel import ChannelRealization
from csmimo.csmux import MeasurementMatrix, MuxConfig
from csmimo.detection import Codebook, demux
from csmimo.dictionary import build_dictionary, digits
from csmimo.errors import DictionaryTooLarge


def encode(idx: np.ndarray, q: int) -> np.ndarray:
    """The column of the point-index tuples ``idx``, as ``demux`` forms its
    ``s_indices`` from its ``x_indices``."""
    return idx @ q ** np.arange(idx.shape[-1])


def test_n1_columns_are_the_points(qpsk):
    psi = build_dictionary(qpsk, 1)
    assert psi.shape == (1, 4)
    np.testing.assert_array_equal(psi[0], qpsk.points)


def test_n2_has_sixteen_columns(qpsk):
    assert build_dictionary(qpsk, 2).shape == (2, 16)


def test_n4_columns_all_distinct(qpsk):
    """Exhaustive pairwise distinctness over the 256 columns."""
    psi = build_dictionary(qpsk, 4)
    assert psi.shape[1] == 256
    seen = {tuple(np.round(psi[:, k], 12)) for k in range(psi.shape[1])}
    assert len(seen) == 256


def test_codec_is_little_endian(qpsk):
    psi = build_dictionary(qpsk, 2)
    # position 0 varies fastest: column 1 holds (point_1, point_0)
    np.testing.assert_array_equal(psi[:, 1], [qpsk.points[1], qpsk.points[0]])
    np.testing.assert_array_equal(digits(np.array(1), 4, 2), [1, 0])
    assert encode(np.array([1, 0]), 4) == 1


def test_decode_first_and_last(qpsk):
    psi = build_dictionary(qpsk, 3)
    np.testing.assert_array_equal(psi[:, 0], np.repeat(qpsk.points[0], 3))
    np.testing.assert_array_equal(psi[:, -1], np.repeat(qpsk.points[3], 3))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_roundtrip_exhaustive(qpsk, n):
    """Column ``k`` holds the tuple that an independent enumeration puts
    there, its point indices are the :func:`digits` of ``k``, and their
    encoding is ``k`` again, for every column."""
    psi = build_dictionary(qpsk, n)
    # product() varies its last position fastest: reversed, the first
    oracle = np.array([qpsk.points[list(t[::-1])] for t in product(range(4), repeat=n)]).T
    np.testing.assert_array_equal(psi, oracle)
    k = np.arange(4**n)
    idx = digits(k, 4, n)
    np.testing.assert_array_equal(psi, qpsk.points[idx].T)
    np.testing.assert_array_equal(encode(idx, 4), k)


def test_encode_tolerates_tiny_noise(qpsk):
    """``demux``'s ``ml`` receiver, handed a column with tiny noise through
    an identity channel and matrix, encodes it as that column's index."""
    cfg = MuxConfig(nt=2, nr=2, l=2, j=1)
    y = build_dictionary(qpsk, 2)[:, 9] + 1e-10 * (1 + 1j)
    h = ChannelRealization(np.eye(2, dtype=complex))
    rec = demux(y, h, Codebook(cfg, MeasurementMatrix(np.eye(2))), solver="ml")
    np.testing.assert_array_equal(rec.s_indices, [9])


def test_cap_enforced(qpsk):
    with pytest.raises(DictionaryTooLarge):
        build_dictionary(qpsk, 9)  # 4**9 > 65536


def test_every_tuple_is_one_sparse(qam16):
    """Any valid tuple equals psi @ e_k for exactly one k (1-sparsity)."""
    psi = build_dictionary(qam16, 2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        idx = rng.integers(0, 16, size=2)
        x = qam16.points[idx]
        one_hot = np.zeros(psi.shape[1])
        one_hot[encode(idx, 16)] = 1.0
        np.testing.assert_array_equal(psi @ one_hot, x)
        assert (psi == x[:, None]).all(axis=0).sum() == 1


@given(seed=st.integers(0, 100_000))
@settings(max_examples=40, deadline=None)
def test_roundtrip_property_random_tuples(seed, qpsk):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    psi = build_dictionary(qpsk, n)
    idx = rng.integers(0, 4, size=n)
    k = encode(idx, 4)
    np.testing.assert_array_equal(psi[:, k], qpsk.points[idx])
    np.testing.assert_array_equal(digits(np.array(k), 4, n), idx)
