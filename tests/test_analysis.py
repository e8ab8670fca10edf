"""Tests for spark, restricted isometry constants, and uniqueness checks."""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import recipe_path
from csmimo.analysis import rip_constant, spark, verify_uniqueness
from csmimo.csmux import MeasurementMatrix, MuxConfig, gen_phi
from csmimo.detection import Codebook
from csmimo.dictionary import build_dictionary
from csmimo.errors import TooManyColumns
from csmimo.harness import load_spec


def oracle_spark(a: np.ndarray) -> int:
    """Independent rank-enumeration implementation used as cross-check."""
    cols = a.shape[1]
    for size in range(1, cols + 1):
        for subset in combinations(range(cols), size):
            if np.linalg.matrix_rank(a[:, subset], tol=1e-10) < size:
                return size
    return cols + 1


def oracle_min_distance(a: np.ndarray) -> float:
    """Dense oracle: the smallest ``||a_i - a_j||`` over all column pairs,
    each formed from the direct difference of the two complex columns."""
    best = np.inf
    for i in range(a.shape[1] - 1):
        diff = a[:, i + 1 :] - a[:, i : i + 1]
        best = min(best, float((diff.real**2 + diff.imag**2).sum(axis=0).min()))
    return float(np.sqrt(best))


def oracle_rip(a: np.ndarray, k: int) -> float:
    """Independent per-support SVD oracle on the column-normalized matrix."""
    a = a / np.linalg.norm(a, axis=0)
    delta = 0.0
    for subset in combinations(range(a.shape[1]), k):
        s = np.linalg.svd(a[:, subset], compute_uv=False)
        delta = max(delta, abs(s[0] ** 2 - 1.0), abs(s[-1] ** 2 - 1.0))
    return delta


class TestSpark:
    def test_hand_example(self):
        a = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert spark(a) == 3

    def test_duplicate_columns(self):
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        assert spark(a) == 2

    def test_zero_column(self):
        a = np.array([[0.0, 1.0], [0.0, 2.0]])
        assert spark(a) == 1

    def test_full_column_rank_convention(self):
        assert spark(np.eye(4)) == 5

    def test_gaussian_law_over_seeds(self):
        """Random 3x6 Gaussians have spark 4 (rows + 1), every draw."""
        for seed in range(100):
            a = np.random.default_rng(seed).standard_normal((3, 6))
            assert spark(a) == 4

    def test_matches_independent_oracle(self):
        for seed in range(20):
            a = np.random.default_rng([7, seed]).standard_normal((4, 8))
            assert spark(a) == oracle_spark(a)

    def test_column_cap(self):
        with pytest.raises(TooManyColumns):
            spark(np.ones((2, 21)))

    def test_rank_bound_property(self):
        """spark(a) <= rank(a) + 1 on random instances, tall and wide."""
        for seed in range(30):
            rng = np.random.default_rng([99, seed])
            rows, cols = int(rng.integers(2, 6)), int(rng.integers(2, 8))
            a = rng.standard_normal((rows, cols))
            assert spark(a) <= np.linalg.matrix_rank(a) + 1


class TestRipConstant:
    def test_orthonormal_columns_have_zero_delta(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((8, 4)))
        for k in (1, 2):
            assert rip_constant(q, k) < 1e-10

    def test_duplicated_unit_column_is_maximal(self):
        e1 = np.zeros((4, 1))
        e1[0] = 1.0
        a = np.hstack([e1, e1])
        assert rip_constant(a, 2) == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_matches_svd_oracle(self):
        """Order-2 closed form against a per-support SVD oracle."""
        a = np.random.default_rng(16).standard_normal((16, 32))
        assert rip_constant(a, 2) == pytest.approx(oracle_rip(a, 2), abs=1e-9)

    def test_zero_column_rejected_when_normalizing(self):
        a = np.zeros((3, 2))
        a[0, 0] = 1.0
        with pytest.raises(ValueError, match="zero column"):
            rip_constant(a, 1)

    def test_bad_order_rejected(self):
        """Only orders 1 and 2 have the closed forms, and an order needs
        that many columns."""
        for a, k in ((np.eye(3), 4), (np.eye(3), 3), (np.eye(3), 0), (np.eye(3)[:, :1], 2)):
            with pytest.raises(ValueError, match=f"^order k={k} must be 1 or 2"):
                rip_constant(a, k)


def code_of(phi: np.ndarray, constellation: str = "qpsk") -> Codebook:
    """The codebook of a ``(rows, n)`` matrix: one sub-block of ``n`` symbols
    sent on ``rows`` antennas."""
    rows, n = phi.shape
    cfg = MuxConfig(nt=rows, nr=rows, l=n, j=1, constellation=constellation)
    return Codebook(cfg, MeasurementMatrix(phi))


class TestVerifyUniqueness:
    def test_shipped_setup_is_unique(self, cfg_4x4_l8):
        report = verify_uniqueness(Codebook(cfg_4x4_l8, gen_phi(cfg_4x4_l8)))
        assert report.unique
        assert report.d == 256
        assert report.min_distance > 0.0

    def test_zero_matrix_not_unique(self):
        report = verify_uniqueness(code_of(np.zeros((1, 2))))
        assert not report.unique
        assert report.min_distance == 0.0

    def test_identity_on_points_is_unique(self):
        report = verify_uniqueness(code_of(np.eye(1)))
        assert report.unique
        assert report.d == 4

    def test_min_distance_matches_direct_scan(self, qpsk, cfg_2x2_l4):
        """The I/Q form agrees with a dense all-pairs oracle."""
        code = Codebook(cfg_2x2_l4, gen_phi(cfg_2x2_l4))
        report = verify_uniqueness(code)
        dense = oracle_min_distance(code.phi.phi @ build_dictionary(qpsk, cfg_2x2_l4.subblock_cols))
        assert report.min_distance == pytest.approx(dense, rel=1e-12)

    @given(
        constellation=st.sampled_from(["qpsk", "qam16"]),
        shape=st.sampled_from([(rows, n) for n in (1, 2, 3) for rows in range(1, n + 1)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_iq_form_matches_the_dense_oracle(self, constellation, shape, seed):
        """Minimum distance, threshold and verdict of the ``√q**n`` I/Q
        level tuples equal those of all ``q**n`` complex columns, for every
        ``rows x n`` sub-block matrix a setup can hold, ``rows <= n``."""
        rows, n = shape
        code = code_of(np.random.default_rng(seed).standard_normal(shape) / np.sqrt(rows),
                       constellation)
        report = verify_uniqueness(code)
        a = code.phi.phi @ build_dictionary(code.alphabet, n)
        dense = oracle_min_distance(a)
        assert report.d == a.shape[1]
        assert report.min_distance == pytest.approx(dense, rel=1e-9)
        largest = np.sqrt((a.real**2 + a.imag**2).sum(axis=0).max())
        assert report.threshold == pytest.approx(1e-10 * largest, rel=1e-9)
        assert report.unique == (dense > report.threshold)

    def test_qam16_on_the_2x2_l4_seed_matches_the_dense_oracle(self):
        """The shipped ``(2,2)-4`` matrix with QAM16 projects two columns to
        about 1e-5 of each other, where ``||a||² + ||b||² - 2<a, b>`` loses
        six digits to cancellation; the direct differences keep them."""
        spec = load_spec(recipe_path("mimo2x2_l4.json"))
        cfg = replace(spec.config, constellation="qam16")
        code = Codebook(cfg, gen_phi(cfg))
        report = verify_uniqueness(code)
        dense = oracle_min_distance(code.phi.phi @ build_dictionary(code.alphabet, cfg.subblock_cols))
        assert dense == pytest.approx(1.0414056e-05, rel=1e-7)
        assert report.min_distance == pytest.approx(dense, rel=1e-9)
        assert report.unique


def test_composition_keeps_rip_bounded():
    """Composing a random compression with a fixed dictionary rarely worsens
    the order-2 constant beyond delta_2(psi) + delta * (1 + delta_2(psi)),
    where delta is the measured order-2 constant of the compression itself.
    This is a statistical claim; 45 of 50 draws must satisfy the bound.
    """
    rng = np.random.default_rng(2718)
    psi = rng.standard_normal((16, 24))
    psi /= np.linalg.norm(psi, axis=0)
    d2_psi = rip_constant(psi, 2)
    hold = 0
    for _ in range(50):
        phi = rng.standard_normal((64, 16)) / np.sqrt(64)
        delta = rip_constant(phi, 2)
        lhs = rip_constant(phi @ psi, 2)
        if lhs <= d2_psi + delta * (1.0 + d2_psi):
            hold += 1
    assert hold >= 45
