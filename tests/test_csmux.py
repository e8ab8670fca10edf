"""Tests for the measurement matrix and sub-block multiplexing."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmimo.analysis import spark
from csmimo.csmux import (
    MeasurementMatrix,
    MuxConfig,
    gen_phi,
    multiplex,
    phi_to_text,
    transmit_gain,
)
from csmimo.errors import BadSubblockShape, DictionaryTooLarge, DimensionMismatch, SpecError
from csmimo.harness import ExperimentSpec


class TestMuxConfig:
    def test_derived_quantities(self, cfg_4x4_l8):
        assert cfg_4x4_l8.m == 4
        assert cfg_4x4_l8.rho == pytest.approx(0.5)
        assert cfg_4x4_l8.subblock_rows == 2
        assert cfg_4x4_l8.subblock_cols == 4

    def test_subblock_shape_must_divide(self):
        with pytest.raises(BadSubblockShape):
            MuxConfig(nt=4, nr=4, l=8, j=3)

    def test_j_must_divide_m_too(self):
        # j=4 divides l=8 but not m=2
        with pytest.raises(BadSubblockShape):
            MuxConfig(nt=2, nr=2, l=8, j=4)

    def test_dictionary_cap_guard(self):
        """4**18 candidates per block: the setup builds no table, but an
        ``ml`` spec on it would score 2**18 level tuples per half-scan."""
        cfg = MuxConfig(nt=4, nr=4, l=36, j=2)
        with pytest.raises(DictionaryTooLarge,
                           match=r"^ml per-block table width 2\^18 = 262144 exceeds cap 65536$"):
            ExperimentSpec(cfg, snr_db=(10.0,), trials=1)

    def test_non_string_constellation_rejected(self):
        for name in (None, 4, "QPSK"):
            with pytest.raises(SpecError, match=r"^constellation must be one of \('qpsk', 'qam16'\)$"):
                MuxConfig(nt=2, nr=2, l=4, j=2, constellation=name)

    def test_negative_phi_seed_rejected(self):
        for seed in (-1, 2**64):
            with pytest.raises(SpecError, match=r"^phi_seed must be an integer in 0\.\.2\*\*64-1$"):
                MuxConfig(nt=2, nr=2, l=4, j=2, phi_seed=seed)

    def test_more_streams_than_m_required(self):
        with pytest.raises(ValueError):
            MuxConfig(nt=4, nr=4, l=2, j=1)

    def test_degenerate_single_symbol_blocks(self):
        cfg = MuxConfig(nt=4, nr=4, l=4, j=4)
        assert cfg.rho == 1.0
        assert gen_phi(cfg).phi.shape == (1, 1)


class TestGenPhi:
    def test_shape_for_4x4_l8(self, cfg_4x4_l8):
        assert gen_phi(cfg_4x4_l8).phi.shape == (2, 4)

    def test_deterministic_given_seed(self, cfg_4x4_l8):
        np.testing.assert_array_equal(gen_phi(cfg_4x4_l8).phi, gen_phi(cfg_4x4_l8).phi)

    def test_different_seed_differs(self, cfg_4x4_l8):
        other = MuxConfig(nt=4, nr=4, l=8, j=2, phi_seed=881)
        assert not np.array_equal(gen_phi(cfg_4x4_l8).phi, gen_phi(other).phi)

    def test_entry_scale(self):
        """Entries are Gaussian with std 1/sqrt(rows), so columns have unit
        expected norm."""
        cfg = MuxConfig(nt=16, nr=16, l=32, j=2)
        draws = np.concatenate(
            [gen_phi(replace(cfg, phi_seed=seed)).phi.ravel() for seed in range(500)]
        )
        assert gen_phi(cfg).scale == pytest.approx(1.0 / np.sqrt(8))
        assert np.std(draws) == pytest.approx(1.0 / np.sqrt(8), rel=0.02)

    def test_text_dump_round_trips_exactly(self, cfg_4x4_l8):
        """``np.loadtxt`` reads a dump back bit for bit, a single row or
        entry too."""
        for cfg in (cfg_4x4_l8, MuxConfig(nt=1, nr=1, l=4, j=1), MuxConfig(nt=4, nr=4, l=4, j=4)):
            phi = gen_phi(cfg)
            text = phi_to_text(phi)
            assert len(text.strip().splitlines()) == cfg.subblock_rows
            back = MeasurementMatrix(np.loadtxt(io.StringIO(text), ndmin=2))
            assert back.phi.shape == phi.phi.shape
            assert back.phi.tobytes() == phi.phi.tobytes()

    def test_non_finite_entries_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^phi entries must be finite$"):
                MeasurementMatrix(np.array([[1.0, bad], [0.0, 1.0]]))

    def test_keeps_a_read_only_copy(self):
        """Writing into the caller's array afterwards changes neither the
        matrix nor its cached gain."""
        cfg = MuxConfig(nt=1, nr=1, l=2, j=1)
        x = np.ones((1, 2))
        m = MeasurementMatrix(x)
        assert transmit_gain(m, cfg) == pytest.approx(np.sqrt(0.5))
        x *= 3
        np.testing.assert_array_equal(m.phi, np.ones((1, 2)))
        assert transmit_gain(m, cfg) == pytest.approx(np.sqrt(0.5))
        assert transmit_gain(MeasurementMatrix(x), cfg) == pytest.approx(np.sqrt(1 / 18))
        with pytest.raises(ValueError, match="read-only"):
            m.phi[0, 0] = 2.0

    def test_scale_is_one_over_sqrt_rows(self):
        assert MeasurementMatrix(np.ones((4, 2))).scale == 0.5

    def test_equal_draws_compare_and_hash_by_identity(self, cfg_4x4_l8):
        one, two = gen_phi(cfg_4x4_l8), gen_phi(cfg_4x4_l8)
        assert one.phi.tobytes() == two.phi.tobytes()
        assert one == one and one != two
        assert hash(one) == hash(one)
        assert {one, two, one} == {one, two}

    def test_spark_is_rows_plus_one(self, cfg_4x4_l8):
        """Gaussian draws are in general position: no 2 of the 2x4 columns
        are dependent, so the spark is rows + 1."""
        for seed in range(25):
            phi = gen_phi(MuxConfig(nt=4, nr=4, l=8, j=2, phi_seed=seed))
            assert spark(phi.phi) == cfg_4x4_l8.subblock_rows + 1


class TestMultiplex:
    def test_identity_passthrough(self):
        """rho = 1 with an injected identity matrix leaves symbols untouched."""
        cfg = MuxConfig(nt=4, nr=4, l=4, j=2)
        x = np.array([1 + 1j, -1 + 0.5j, 0.25j, -2.0])
        np.testing.assert_array_equal(multiplex(x, MeasurementMatrix(np.eye(2)), cfg), x)

    def test_hand_computed_sum_blocks(self):
        """1x2 blocks of [1,1]/sqrt(2) average consecutive symbol pairs."""
        cfg = MuxConfig(nt=2, nr=2, l=4, j=2)
        phi = MeasurementMatrix(np.array([[1.0, 1.0]]) / np.sqrt(2))
        a, b, c, d = 1 + 1j, 2.0, -1j, 0.5 - 0.5j
        z = multiplex(np.array([a, b, c, d]), phi, cfg)
        np.testing.assert_allclose(z, np.array([a + b, c + d]) / np.sqrt(2), atol=1e-12)

    def test_matches_block_diagonal_oracle(self, cfg_4x4_l8):
        """Independent oracle: dense block-diagonal matrix applied to x."""
        phi = gen_phi(cfg_4x4_l8)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        bd = np.kron(np.eye(cfg_4x4_l8.j), phi.phi)
        gain = np.sqrt(cfg_4x4_l8.m / (cfg_4x4_l8.j * np.sum(phi.phi**2)))
        np.testing.assert_allclose(multiplex(x, phi, cfg_4x4_l8), gain * (bd @ x), atol=1e-12)

    def test_unit_energy_per_dimension(self, cfg_4x4_l8):
        """After the gain, random unit-energy payloads give E||z||^2 = m."""
        phi = gen_phi(cfg_4x4_l8)
        rng = np.random.default_rng(17)
        qpsk = np.array([1 + 1j, 1 - 1j, -1 - 1j, -1 + 1j]) / np.sqrt(2)
        total = np.mean(
            [
                np.sum(np.abs(multiplex(qpsk[rng.integers(0, 4, 8)], phi, cfg_4x4_l8)) ** 2)
                for _ in range(20_000)
            ]
        )
        assert total == pytest.approx(cfg_4x4_l8.m, rel=0.02)

    def test_wrong_length_rejected(self, cfg_4x4_l8):
        with pytest.raises(DimensionMismatch):
            multiplex(np.zeros(7), gen_phi(cfg_4x4_l8), cfg_4x4_l8)

    def test_zero_phi_rejected(self, cfg_4x4_l8):
        phi = MeasurementMatrix(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="zero measurement"):
            transmit_gain(phi, cfg_4x4_l8)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed, cfg_4x4_l8):
        phi = gen_phi(cfg_4x4_l8)
        rng = np.random.default_rng(seed)
        x1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        a, b = complex(rng.standard_normal()), complex(rng.standard_normal())
        np.testing.assert_allclose(
            multiplex(a * x1 + b * x2, phi, cfg_4x4_l8),
            a * multiplex(x1, phi, cfg_4x4_l8) + b * multiplex(x2, phi, cfg_4x4_l8),
            atol=1e-10,
        )

    @given(group=st.integers(0, 1), seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_subblock_independence(self, group, seed, cfg_4x4_l8):
        """Perturbing symbols in one group only moves that output block."""
        phi = gen_phi(cfg_4x4_l8)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        x2 = x.copy()
        cols = cfg_4x4_l8.subblock_cols
        x2[group * cols : (group + 1) * cols] += rng.standard_normal(cols)
        z1 = multiplex(x, phi, cfg_4x4_l8)
        z2 = multiplex(x2, phi, cfg_4x4_l8)
        rows = cfg_4x4_l8.subblock_rows
        other = slice((1 - group) * rows, (2 - group) * rows)
        np.testing.assert_array_equal(z1[other], z2[other])
