"""Tests for equalization and the sparse recovery solvers."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmimo import detection
from csmimo.channel import ChannelRealization, NoiseSpec, apply_channel, sample_channel
from csmimo.csmux import (
    MeasurementMatrix,
    MuxConfig,
    gen_phi,
    identity_phi,
    multiplex,
    transmit_gain,
)
from csmimo.detection import (
    Codebook,
    _colnorm2,
    _ml_scan,
    _scan_matrix,
    channel_is_usable,
    demux,
    recover_subblock_ml,
    recover_subblock_omp,
    sensing_matrix,
    zf_equalize,
)
from csmimo.dictionary import build_dictionary, sparse_decode
from csmimo.errors import DictionaryTooLarge, DimensionMismatch, RankDeficientChannel
from csmimo.harness import _prepare, load_spec, run_sweep
from csmimo.modem import demodulate, get_constellation, modulate

from conftest import recipe_path


@pytest.fixture(scope="module")
def pipeline(qpsk, cfg_4x4_l8):
    phi = gen_phi(cfg_4x4_l8)
    dictionary = build_dictionary(qpsk, cfg_4x4_l8.subblock_cols)
    return cfg_4x4_l8, phi, dictionary


class TestZfEqualize:
    def test_identity_channel_passthrough(self):
        h = ChannelRealization(np.eye(3, dtype=complex))
        y = np.array([1 + 1j, -2j, 0.5])
        out = zf_equalize(y, h)
        np.testing.assert_allclose(out.z_hat, y, atol=1e-12)
        assert out.condition_number == pytest.approx(1.0)

    def test_pseudo_inverse_exactness(self):
        rng = np.random.default_rng(4)
        h = sample_channel(5, 3, rng)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        out = zf_equalize(h.h @ z, h)
        np.testing.assert_allclose(out.z_hat, z, atol=1e-9)

    def test_gain_is_divided_out(self):
        h = ChannelRealization(np.eye(2, dtype=complex))
        y = np.array([2.0, 4.0j])
        np.testing.assert_allclose(zf_equalize(y, h, gain=2.0).z_hat, y / 2.0)

    def test_duplicated_column_rejected(self):
        col = np.array([1.0, 2.0, 3.0 + 1j])
        h = ChannelRealization(np.stack([col, col], axis=1))
        with pytest.raises(RankDeficientChannel):
            zf_equalize(np.zeros(3), h)

    def test_underdetermined_rejected(self):
        h = sample_channel(2, 4, np.random.default_rng(0))
        with pytest.raises(RankDeficientChannel):
            zf_equalize(np.zeros(2), h)


class TestMlRecovery:
    def test_noiseless_membership(self, pipeline):
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        k, res = recover_subblock_ml(a[:, 7], sensing=a)
        assert k == 7
        assert res < 1e-12

    def test_exhaustive_noiseless_recovery(self, pipeline):
        """Every one of the 256 candidate sub-blocks maps back to itself."""
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        for k in range(dictionary.d):
            got, _ = recover_subblock_ml(a[:, k], sensing=a)
            assert got == k

    def test_matches_bruteforce_oracle(self, pipeline):
        """Independent oracle: direct column-difference scan on noisy draws.

        The full 10^4-case agreement run lives in the acceptance suite; this
        is a faster regression check.
        """
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        rng = np.random.default_rng(314)
        for _ in range(2000):
            truth = rng.integers(0, dictionary.d)
            z = a[:, truth] + 0.4 * (
                rng.standard_normal(2) + 1j * rng.standard_normal(2)
            )
            diffs = a - z[:, None]
            oracle = int(np.argmin((diffs.real**2 + diffs.imag**2).sum(axis=0)))
            got, _ = recover_subblock_ml(z, sensing=a)
            assert got == oracle

    def test_tie_breaks_to_lowest_index(self, qpsk):
        """All columns equidistant from the origin: index 0 is returned."""
        cfg = MuxConfig(nt=4, nr=4, l=4, j=4)
        dictionary = build_dictionary(qpsk, 1)
        phi = MeasurementMatrix(np.array([[1.0]]), 1.0)
        k, res = recover_subblock_ml(np.array([0j]), sensing_matrix(phi, dictionary))
        assert k == 0
        assert res == pytest.approx(1.0)

    def test_scale_invariance_of_argmin(self, pipeline):
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        rng = np.random.default_rng(9)
        for _ in range(200):
            z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            k1, _ = recover_subblock_ml(z, sensing=a)
            k2, _ = recover_subblock_ml(3.7 * z, sensing=3.7 * a)
            assert k1 == k2


class TestMlScan:
    @given(
        j=st.integers(1, 10),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_match_bruteforce_argmin(self, j, constellation, seed):
        """Each row of one J-row scan picks its own brute-force nearest column."""
        c = get_constellation(constellation)
        rng = np.random.default_rng(seed)
        rows, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        phi = MeasurementMatrix(rng.standard_normal((rows, n)) / np.sqrt(rows), 1.0)
        a = sensing_matrix(phi, build_dictionary(c, n))
        truth = rng.integers(0, a.shape[1], size=j)
        noise = rng.standard_normal((j, rows)) + 1j * rng.standard_normal((j, rows))
        z = a[:, truth].T + 0.3 * noise
        k, res = _ml_scan(z, _scan_matrix(a))
        assert k.shape == res.shape == (j,)
        for row, k_row, res_row in zip(z, k, res):
            diffs = a - row[:, None]
            dist2 = (diffs.real**2 + diffs.imag**2).sum(axis=0)
            assert k_row == np.argmin(dist2)
            assert res_row == pytest.approx(np.sqrt(dist2[k_row]), abs=1e-9)

    @given(
        j=st.integers(1, 10),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        zf=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_complex_product_reference(self, j, constellation, zf, seed):
        """The real scan picks the indices of the complex-product scan it
        replaces, with residuals equal to rounding, for stacked blocks."""
        c = get_constellation(constellation)
        rng = np.random.default_rng(seed)
        if zf:  # the zf baseline: one symbol per block and an identity phi
            rows, n, phi = 1, 1, MeasurementMatrix(np.eye(1), 1.0)
        else:
            rows, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            phi = MeasurementMatrix(rng.standard_normal((rows, n)) / np.sqrt(rows), 1.0)
        a = sensing_matrix(phi, build_dictionary(c, n))
        stack = (int(rng.integers(1, 4)),)
        truth = rng.integers(0, a.shape[1], size=stack + (j,))
        noise = rng.standard_normal(stack + (j, rows)) + 1j * rng.standard_normal(stack + (j, rows))
        z = a.T[truth] + 0.3 * noise

        # the complex-product formula of the scan, kept as the reference
        res2 = (z.conj() @ a).real * -2.0
        res2 += _colnorm2(z.reshape(-1, rows).T).reshape(z.shape[:-1] + (1,))
        res2 += _colnorm2(a)
        want_k = res2.argmin(axis=-1)
        want_res = np.sqrt(np.maximum(np.take_along_axis(res2, want_k[..., None], -1)[..., 0], 0.0))

        k, res = _ml_scan(z, _scan_matrix(a))
        np.testing.assert_array_equal(k, want_k)
        np.testing.assert_allclose(res, want_res, rtol=1e-9)


class TestIqSplit:
    @given(
        rows=st.integers(1, 3),
        j=st.integers(1, 10),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        tied=st.sampled_from([0.0, 0.3, 1.0]),
        sigma=st.sampled_from([0.0, 0.1, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_demux_picks_the_joint_scan_indices(
        self, rows, j, constellation, stack, tied, sigma, seed
    ):
        """``demux``'s ``ml`` branch, which scores the I/Q half-scans, picks
        the indices of the joint ``_ml_scan`` of the same equalized blocks,
        with residuals equal to rounding.  A ``tied`` share of the blocks is
        tied by construction: each symbol's I and Q parts sit on a level or
        on the midpoint of two neighbouring levels, and some blocks are 0."""
        c = get_constellation(constellation)
        rng = np.random.default_rng(seed)
        n = rows if constellation == "qam16" else int(rng.integers(rows, 4))
        cfg = MuxConfig(nt=rows * j, nr=rows * j, l=n * j, j=j, constellation=constellation)
        phi = MeasurementMatrix(rng.standard_normal((rows, n)) / np.sqrt(rows), 1.0)
        dictionary = build_dictionary(c, n)
        code = Codebook(cfg, phi)

        levels = c.iq_levels
        grid = np.concatenate((levels, (levels[:-1] + levels[1:]) / 2))
        on_grid = grid[rng.integers(0, grid.size, stack + (j, n, 2))] @ np.array([1.0, 1j])
        noise = rng.standard_normal(stack + (j, n)) + 1j * rng.standard_normal(stack + (j, n))
        x = np.where(rng.random(stack + (j, 1)) < tied, on_grid, c.points[
            rng.integers(0, c.order, stack + (j, n))] + sigma * noise)
        x[rng.random(stack + (j,)) < tied / 3] = 0.0
        # the identity channel hands demux these blocks, up to the gain's rounding
        y = (x @ phi.phi.T).reshape(stack + (cfg.m,)) * code.gain
        h = ChannelRealization(np.broadcast_to(np.eye(cfg.m), stack + (cfg.m, cfg.m)).copy())

        rec = demux(y, h, code, solver="ml")
        blocks = zf_equalize(y, h, code.gain).z_hat.reshape(stack + (j, rows))
        want_k, want_res = _ml_scan(blocks, code.scan)
        np.testing.assert_array_equal(rec.s_indices, want_k)
        np.testing.assert_array_equal(rec.x_hat, dictionary.psi.T[want_k].reshape(stack + (cfg.l,)))
        # both square roots of a rounded metric: compare the squares
        np.testing.assert_allclose(rec.residuals**2, want_res**2, rtol=1e-9, atol=1e-12)


class TestOmp:
    def test_noiseless_single_atom(self, pipeline):
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        support, coeffs = recover_subblock_omp(a[:, 3], sensing=a, k_max=1)
        assert support == [3]
        np.testing.assert_allclose(coeffs, [1.0], atol=1e-9)

    def test_two_atoms_least_squares(self):
        """Orthogonal atoms recovered with their exact coefficients."""
        rng = np.random.default_rng(21)
        a = rng.standard_normal((8, 6)) * 0.05
        a[:, 1] = 0.0
        a[1, 1] = 1.0
        a[:, 5] = 0.0
        a[5, 5] = 1.0
        z = 2.0 * a[:, 1] + 3.0 * a[:, 5]
        support, coeffs = recover_subblock_omp(z, sensing=a, k_max=2)
        assert sorted(support) == [1, 5]
        oracle = np.linalg.lstsq(a[:, support], z, rcond=None)[0]
        np.testing.assert_allclose(coeffs, oracle, atol=1e-12)
        by_atom = dict(zip(support, coeffs))
        assert by_atom[1] == pytest.approx(2.0, abs=1e-6)
        assert by_atom[5] == pytest.approx(3.0, abs=1e-6)

    def test_tolerance_above_signal_gives_empty_support(self, pipeline):
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        z = 0.5 * a[:, 0]
        support, coeffs = recover_subblock_omp(z, sensing=a, tol=10.0)
        assert support == []
        assert coeffs.size == 0

    def test_agrees_with_ml_on_unit_columns(self):
        """With unit-norm columns and one atom, OMP picks the ML index on
        noiseless inputs."""
        rng = np.random.default_rng(33)
        a = rng.standard_normal((4, 40)) + 1j * rng.standard_normal((4, 40))
        a /= np.linalg.norm(a, axis=0)
        for k in range(40):
            support, _ = recover_subblock_omp(a[:, k], sensing=a, k_max=1)
            ml_k, _ = recover_subblock_ml(a[:, k], sensing=a)
            assert support == [ml_k] == [k]

    @given(
        rows=st.integers(1, 3),
        j=st.integers(1, 10),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        sigma=st.sampled_from([0.0, 0.05, 0.3, 1.0, 3.0]),
        scale=st.sampled_from([1.0, 1.0, 1e-170]),
        zero_columns=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_stacked_pick_is_the_reference_first_pick(
        self, rows, j, constellation, stack, sigma, scale, zero_columns, seed
    ):
        """The stacked pick of ``demux``'s ``omp`` branch equals, block by
        block, the first pick of ``recover_subblock_omp``: the same index,
        bit for bit, and the residual to rounding.  Some blocks are all
        zero, and with ``zero_columns`` the first two columns of ``phi`` are
        ones and any others zero, so every sensing column of a tuple
        ``(p, -p, ...)`` is exactly zero; at ``scale`` 1e-170 every block's
        norm underflows to 0, so the reference sends it to column 0."""
        rng = np.random.default_rng(seed)
        n = rows if constellation == "qam16" else int(rng.integers(rows, 4))
        cfg = MuxConfig(nt=rows * j, nr=rows * j, l=n * j, j=j, constellation=constellation)
        phi = rng.standard_normal((rows, n)) / np.sqrt(rows)
        if zero_columns and n > 1:
            phi[:, :2], phi[:, 2:] = 1.0, 0.0
        code = Codebook(cfg, MeasurementMatrix(phi, 1.0))
        a = code.sensing
        assert (np.linalg.norm(a, axis=0) == 0).any() == (zero_columns and n > 1)
        truth = rng.integers(0, a.shape[1], size=stack + (j,))
        noise = rng.standard_normal(stack + (j, rows)) + 1j * rng.standard_normal(stack + (j, rows))
        z = scale * (a.T[truth] + sigma * noise)
        z[rng.random(stack + (j,)) < 0.2] = 0.0

        k, res = detection._omp_pick(z, code)
        assert k.shape == res.shape == stack + (j,)
        for at in np.ndindex(k.shape):
            support, _ = recover_subblock_omp(z[at], a, k_max=1)
            want = support[0] if support else 0
            assert k[at] == want
            np.testing.assert_allclose(res[at], np.linalg.norm(z[at] - a[:, want]), rtol=1e-12)

    def test_k_max_validation(self, pipeline):
        cfg, phi, dictionary = pipeline
        with pytest.raises(ValueError):
            recover_subblock_omp(np.zeros(2), sensing_matrix(phi, dictionary), k_max=0)


class TestDemux:
    def test_noiseless_end_to_end(self, pipeline, qpsk):
        """1000 random payloads through a noiseless channel come back exact."""
        cfg, phi, _ = pipeline
        noiseless = NoiseSpec(float("inf"), 0.0)
        for t in range(1000):
            rng = np.random.default_rng([4242, t])
            bits = rng.integers(0, 2, size=16, dtype=np.uint8)
            x = modulate(bits, qpsk)
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, noiseless, rng)
            rec = demux(y, h, Codebook(cfg, phi))
            np.testing.assert_array_equal(demodulate(rec.x_hat, qpsk), bits)

    def test_result_reassembles_decoded_blocks(self, pipeline, qpsk):
        cfg, phi, dictionary = pipeline
        rng = np.random.default_rng(77)
        x = qpsk.points[rng.integers(0, 4, size=cfg.l)]
        z = multiplex(x, phi, cfg)
        h = sample_channel(cfg.nr, cfg.m, rng)
        y = apply_channel(h, z, NoiseSpec(10.0, 0.4), rng)
        rec = demux(y, h, Codebook(cfg, phi))
        rebuilt = np.concatenate(
            [sparse_decode(int(k), dictionary) for k in rec.s_indices]
        )
        np.testing.assert_array_equal(rec.x_hat, rebuilt)
        assert rec.residuals.shape == (cfg.j,)

    def test_matches_direct_zf_oracle_when_uncompressed(self, qpsk):
        """rho = 1 with identity blocks reduces to plain ZF detection.

        The oracle is coded independently: normal-equations inverse plus a
        per-symbol nearest-point slicer.
        """
        cfg = MuxConfig(nt=4, nr=4, l=4, j=4)
        phi = identity_phi(cfg)
        for t in range(400):
            rng = np.random.default_rng([31337, t])
            bits = rng.integers(0, 2, size=8, dtype=np.uint8)
            x = modulate(bits, qpsk)
            z = multiplex(x, phi, cfg)
            h = sample_channel(4, 4, rng)
            y = apply_channel(h, z, NoiseSpec(10.0, 0.4), rng)
            rec = demux(y, h, Codebook(cfg, phi))

            x_zf = np.linalg.inv(h.h.conj().T @ h.h) @ (h.h.conj().T @ y)
            oracle_bits = []
            for s in x_zf:
                k = int(np.argmin(np.abs(s - qpsk.points)))
                oracle_bits.extend(qpsk.labels[k])
            np.testing.assert_array_equal(
                demodulate(rec.x_hat, qpsk), np.array(oracle_bits, dtype=np.uint8)
            )

    def test_deep_noise_gives_chance_level(self, pipeline, qpsk):
        """At -60 dB the decisions are effectively random: BER near 1/2."""
        cfg, phi, _ = pipeline
        errs = bits_total = 0
        for t in range(700):
            rng = np.random.default_rng([91, t])
            bits = rng.integers(0, 2, size=16, dtype=np.uint8)
            x = modulate(bits, qpsk)
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec.from_snr(-60.0, cfg.m), rng)
            rec = demux(y, h, Codebook(cfg, phi))
            errs += int(np.sum(demodulate(rec.x_hat, qpsk) != bits))
            bits_total += bits.size
        assert abs(errs / bits_total - 0.5) < 0.02

    def test_omp_solver_matches_ml_up_to_block_phase(self, pipeline, qpsk):
        """OMP's absolute correlation cannot separate a column from its
        i/-1/-i rotations (all are valid QPSK tuples), so on noiseless input
        its atom is the ML atom up to a per-block phase in {1, i, -1, -i}.
        """
        cfg, phi, dictionary = pipeline
        rotations = np.array([1.0, 1j, -1.0, -1j])
        for t in range(100):
            rng = np.random.default_rng([55, t])
            x = qpsk.points[rng.integers(0, 4, size=cfg.l)]
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec(float("inf"), 0.0), rng)
            ml = demux(y, h, Codebook(cfg, phi), solver="ml")
            omp = demux(y, h, Codebook(cfg, phi), solver="omp")
            for k_ml, k_omp in zip(ml.s_indices, omp.s_indices):
                twins = rotations[:, None] * dictionary.psi[:, k_ml][None, :]
                match = np.isclose(twins, dictionary.psi[:, k_omp][None, :]).all(axis=1)
                assert match.any()

    def test_unknown_solver_rejected(self, pipeline):
        cfg, phi, _ = pipeline
        with pytest.raises(ValueError, match="unknown solver"):
            demux(np.zeros(4), sample_channel(4, 4, np.random.default_rng(0)),
                  Codebook(cfg, phi), solver="mmse")

    @pytest.mark.parametrize("solver", ["ml", "omp", "oneshot"])
    def test_wrong_channel_shape_rejected(self, pipeline, solver):
        cfg, phi, _ = pipeline
        h = sample_channel(cfg.nr, cfg.m - 1, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch, match="channel shape"):
            demux(np.zeros(cfg.nr), h, Codebook(cfg, phi), solver=solver)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("solver", ["ml", "omp", "oneshot"])
    def test_non_finite_input_rejected(self, pipeline, solver):
        """Every solver rejects the receive vector before it computes with it."""
        cfg, phi, _ = pipeline
        h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(0))
        code = Codebook(cfg, phi)
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            y = np.ones(cfg.nr, dtype=complex)
            y[1] = bad
            with pytest.raises(ValueError, match="receive vector and channel must be finite"):
                demux(y, h, code, solver=solver)

    @pytest.mark.parametrize("call", ["ml", "omp", "oneshot", "zf_equalize", "channel_is_usable"])
    def test_non_finite_channel_rejected(self, pipeline, call):
        """A channel holding a nan or inf fails with one line before its SVD
        or its QR."""
        cfg, phi, _ = pipeline
        code = Codebook(cfg, phi)
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(0)).h.copy()
            h[1, 2] = bad
            channel = ChannelRealization(h)
            with pytest.raises(ValueError, match="^channel must be finite$"):
                if call == "zf_equalize":
                    zf_equalize(np.ones(cfg.nr), channel)
                elif call == "channel_is_usable":
                    channel_is_usable(channel)
                else:
                    demux(np.ones(cfg.nr), channel, code, solver=call)


class TestCodebook:
    def test_phi_of_another_setup_rejected(self, pipeline):
        """A matrix drawn for another ``j``, or one row short, does not fit."""
        cfg, phi, _ = pipeline
        other_j = gen_phi(MuxConfig(nt=4, nr=4, l=8, j=4))
        for other in (other_j, MeasurementMatrix(phi.phi[:1], 1.0)):
            with pytest.raises(DimensionMismatch, match="^phi has .* columns for sub-blocks of 4"):
                Codebook(cfg, other)

    def test_derived_values_are_computed_once_bit_for_bit(self, pipeline):
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        code = Codebook(cfg, phi)
        np.testing.assert_array_equal(code.dictionary.psi, dictionary.psi)
        np.testing.assert_array_equal(code.sensing, a)
        assert not code.sensing.flags.writeable
        rows = cfg.subblock_rows
        np.testing.assert_array_equal(code.scan[:rows], -2.0 * a.real)
        np.testing.assert_array_equal(code.scan[rows:-1], -2.0 * a.imag)
        np.testing.assert_array_equal(code.scan[-1], _colnorm2(a))
        assert not code.scan.flags.writeable
        np.testing.assert_array_equal(code.omp_norms, np.linalg.norm(a, axis=0))
        assert code.gain == transmit_gain(phi, cfg)
        norms = code.omp_norms
        h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(2))
        for y in np.random.default_rng(3).standard_normal((3, cfg.nr)):
            demux(y, h, code, solver="omp")
        assert code.omp_norms is norms
        assert not norms.flags.writeable

    def test_scan_is_built_once_with_colnorm2_as_its_last_row(self, pipeline, monkeypatch):
        """``ml`` reads the I/Q half-scan, built once and kept read-only,
        and never builds the joint scan, the dictionary or the sensing
        matrix for the untied blocks it detects."""
        cfg, phi, dictionary = pipeline
        code = Codebook(cfg, phi)
        calls = []
        monkeypatch.setattr(detection, "_scan_matrix", lambda m: calls.append(m) or _scan_matrix(m))
        h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(2))
        ys = np.random.default_rng(3).standard_normal((6, cfg.nr))
        demux(ys[0], h, code)
        iq = code.iq_scan
        for y in ys[1:]:
            demux(y, h, code)
        assert code.iq_scan is iq
        assert len(calls) == 1
        assert not {"scan", "dictionary", "sensing"} & set(vars(code))

        scan, joint = iq
        assert not scan.flags.writeable and not joint.flags.writeable
        levels, n = np.array([-1.0, 1.0]) / np.sqrt(2.0), dictionary.n
        # P[i, u]: level digit i of u, little-endian, as the dictionary orders
        p = np.array([[levels[(u >> i) & 1] for u in range(2**n)] for i in range(n)])
        np.testing.assert_array_equal(scan[:-1], -2.0 * (phi.phi @ p))
        np.testing.assert_array_equal(scan[-1], _colnorm2(phi.phi @ p))
        assert sorted(joint.ravel().tolist()) == list(range(dictionary.d))
        for (u, v), k in np.ndenumerate(joint):
            np.testing.assert_array_equal(dictionary.psi[:, k], p[:, u] + 1j * p[:, v])

    @given(
        constellation=st.sampled_from(["qpsk", "qam16"]),
        n=st.integers(1, 4),
        j=st.integers(1, 3),
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_reassemble_decodes_the_dictionary_columns(self, constellation, n, j, stack, seed):
        """``_reassemble`` decodes each block's column index itself, bit for
        bit the dictionary's column, and builds no dictionary."""
        cfg = MuxConfig(nt=j, nr=j, l=n * j, j=j, constellation=constellation)
        code = Codebook(cfg, MeasurementMatrix(np.ones((1, n)), 1.0))
        psi = build_dictionary(get_constellation(constellation), n).psi
        k = np.random.default_rng(seed).integers(0, psi.shape[1], size=stack + (j,))
        k[..., 0] = psi.shape[1] - 1
        x = detection._reassemble(code, k)
        np.testing.assert_array_equal(x, psi.T[k].reshape(stack + (cfg.l,)))
        assert "dictionary" not in vars(code)

    def test_equal_codebooks_compare_and_hash_by_identity(self):
        spec = load_spec(recipe_path("mimo4x4_l8.json"))
        one, two = _prepare(spec).code, _prepare(spec).code
        assert one == one and one != two
        assert hash(one) == hash(one)
        assert {one, two, one} == {one, two}


class TestStackedTrials:
    """A leading trial axis gives, bit for bit, the one-trial-at-a-time results."""

    STACK = (2, 3)

    def _trials(self, cfg, qpsk):
        rngs = [np.random.default_rng([7, t]) for t in range(6)]
        x = qpsk.points[np.stack([g.integers(0, 4, size=cfg.l) for g in rngs])]
        h = np.stack([sample_channel(cfg.nr, cfg.m, g).h for g in rngs])
        return x, h

    def test_usability_per_trial(self, pipeline, qpsk):
        cfg, _, _ = pipeline
        _, h = self._trials(cfg, qpsk)
        h[4, :, 1] = h[4, :, 0]
        channel = ChannelRealization(h.reshape(self.STACK + h.shape[1:]))
        assert channel_is_usable(channel).tolist() == [[True] * 3, [True, False, True]]
        with pytest.raises(RankDeficientChannel):
            zf_equalize(np.zeros(self.STACK + (cfg.nr,)), channel)

    @pytest.mark.parametrize("solver", ["ml", "omp", "oneshot"])
    def test_stack_equals_single_trials(self, pipeline, qpsk, solver):
        cfg, phi, _ = pipeline
        x, h = self._trials(cfg, qpsk)
        noise = NoiseSpec.from_snr(5.0, cfg.m)
        z = multiplex(x.reshape(self.STACK + (cfg.l,)), phi, cfg)
        channel = ChannelRealization(h.reshape(self.STACK + h.shape[1:]))
        y = np.stack([
            apply_channel(ChannelRealization(h[t]), multiplex(x[t], phi, cfg), noise,
                          np.random.default_rng([8, t]))
            for t in range(6)
        ]).reshape(self.STACK + (cfg.nr,))
        rec = demux(y, channel, Codebook(cfg, phi), solver=solver)
        for t, at in enumerate(np.ndindex(self.STACK)):
            single = ChannelRealization(h[t])
            one = demux(y[at], single, Codebook(cfg, phi), solver=solver)
            np.testing.assert_array_equal(z[at], multiplex(x[t], phi, cfg))
            for got, want in zip(
                (rec.s_indices, rec.x_hat, rec.residuals, rec.condition_number),
                (one.s_indices, one.x_hat, one.residuals, one.condition_number),
            ):
                np.testing.assert_array_equal(got[at], want)


def _joint_ml_oracle(y, h, phi, dictionary, cfg):
    """Brute-force joint ML: score all ``d**J`` transmit vectors directly.

    Joint index ``n`` holds sub-block ``j``'s column ``(n // d**j) % d``;
    ``argmin`` keeps the lowest joint index on ties.  Returns the per-block
    indices and the residual norm.
    """
    d = dictionary.d
    digits = (np.arange(d**cfg.j)[None, :] // d ** np.arange(cfg.j)[:, None]) % d
    x = dictionary.psi[:, digits].transpose(1, 0, 2).reshape(cfg.l, -1)
    z = np.kron(np.eye(cfg.j), phi.phi) @ x * transmit_gain(phi, cfg)
    metric = (np.abs(y[:, None] - h.h @ z) ** 2).sum(axis=0)
    n = int(np.argmin(metric))
    return digits[:, n], float(np.sqrt(metric[n]))


@st.composite
def _joint_cases(draw):
    """Small setups with enumerable ``d**J``: (cfg, y, h, phi, dictionary)."""
    name = draw(st.sampled_from(["qpsk", "qam16"]))
    rows = draw(st.sampled_from([1, 2]))
    cols = draw(st.integers(rows, 2)) if name == "qpsk" else rows
    d = get_constellation(name).order ** cols
    j = draw(st.integers(1, max(k for k in range(1, 5) if d**k <= 65536)))
    m = j * rows
    # nr - m extra receive rows; -1 leaves fewer rows than transmit dimensions
    nr = m + draw(st.integers(-1 if m > 1 else 0, 2))
    cfg = MuxConfig(nt=m, nr=max(nr, m), l=j * cols, j=j,
                    phi_seed=draw(st.integers(0, 2**32 - 1)), constellation=name)
    defect = draw(st.sampled_from([None, "zero", "copy"]))
    snr = draw(st.one_of(st.just(float("inf")), st.floats(-5.0, 40.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = gen_phi(cfg)
    dictionary = build_dictionary(get_constellation(name), cols)
    x = dictionary.psi[:, rng.integers(0, d, size=j)].T.ravel()
    h = sample_channel(nr, m, rng).h
    src, dst = rng.permutation(m + 1)[:2] % m
    if defect == "zero":
        h[:, dst] = 0.0
    elif defect == "copy" and src != dst:
        # A scaled copy: a plain one across two one-row sub-blocks would make
        # swapped candidates tie exactly, leaving the index to rounding.
        h[:, dst] = (rng.standard_normal() + 1j * rng.standard_normal()) * h[:, src]
    h = ChannelRealization(h)
    y = apply_channel(h, multiplex(x, phi, cfg), NoiseSpec.from_snr(snr, m), rng)
    return cfg, y, h, phi, dictionary


class TestOneshot:
    @given(case=_joint_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, case):
        """Sphere search indices equal the d**J enumeration's, J = 1..4."""
        cfg, y, h, phi, dictionary = case
        rec = demux(y, h, Codebook(cfg, phi), solver="oneshot")
        k, res = _joint_ml_oracle(y, h, phi, dictionary, cfg)
        np.testing.assert_array_equal(rec.s_indices, k)
        np.testing.assert_allclose(rec.residuals[0], res, rtol=1e-6, atol=1e-9)

    def test_residual_is_direct_norm(self, qpsk, pipeline):
        cfg, phi, _ = pipeline
        g = transmit_gain(phi, cfg)
        for t in range(200):
            rng = np.random.default_rng([31, t])
            x = qpsk.points[rng.integers(0, 4, size=cfg.l)]
            h = sample_channel(cfg.nr, cfg.m, rng)
            snr = float("inf") if t % 2 else 40.0 * rng.random()
            y = apply_channel(h, multiplex(x, phi, cfg), NoiseSpec.from_snr(snr, cfg.m), rng)
            rec = demux(y, h, Codebook(cfg, phi), solver="oneshot")
            z_hat = (rec.x_hat.reshape(cfg.j, -1) @ phi.phi.T).ravel() * g
            direct = np.linalg.norm(y - h.h @ z_hat)
            if t % 2:
                assert rec.residuals[0] <= 1e-12 * np.linalg.norm(y)
            else:
                np.testing.assert_allclose(rec.residuals[0], direct, rtol=1e-9)

    def test_cap_never_truncates(self, qpsk):
        """Every budget either raises or returns the unbudgeted answer."""
        cfg = MuxConfig(nt=4, nr=4, l=8, j=4, phi_seed=5)
        phi = gen_phi(cfg)
        dictionary = build_dictionary(qpsk, cfg.subblock_cols)
        rng = np.random.default_rng(8)
        h = sample_channel(cfg.nr, cfg.m, rng)
        y = apply_channel(h, multiplex(qpsk.points[rng.integers(0, 4, size=8)], phi, cfg),
                          NoiseSpec.from_snr(-5.0, cfg.m), rng)
        full = demux(y, h, Codebook(cfg, phi), solver="oneshot")
        raised = 0
        for cap in range(dictionary.d, 64 * dictionary.d, dictionary.d):
            try:
                rec = demux(y, h, Codebook(cfg, phi), solver="oneshot",
                            oneshot_cap=cap)
            except DictionaryTooLarge:
                raised += 1
                continue
            np.testing.assert_array_equal(rec.s_indices, full.s_indices)
            assert rec.residuals[0] == full.residuals[0]
        assert raised >= cfg.j

    def test_paper_20x20_recipe_noiseless(self):
        spec = replace(load_spec(recipe_path("mimo20x20_l40.json")),
                       solver="oneshot", snr_db=(float("inf"),), trials=50)
        row = run_sweep(spec).rows[0]
        assert row.trials == 50 and row.bit_errors == 0

    def test_noiseless_exact(self, qpsk, cfg_2x2_l4):
        cfg = cfg_2x2_l4
        phi = gen_phi(cfg)
        for t in range(300):
            rng = np.random.default_rng([12, t])
            bits = rng.integers(0, 2, size=8, dtype=np.uint8)
            x = modulate(bits, qpsk)
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec(float("inf"), 0.0), rng)
            rec = demux(y, h, Codebook(cfg, phi), solver="oneshot")
            np.testing.assert_array_equal(demodulate(rec.x_hat, qpsk), bits)
            assert np.isnan(rec.condition_number)
            assert rec.residuals.shape == (1,)

    def test_agrees_with_two_step_at_high_snr(self, qpsk, cfg_2x2_l4):
        """Both solvers pick the same candidates when noise is small."""
        cfg = cfg_2x2_l4
        phi = gen_phi(cfg)
        agree = 0
        for t in range(300):
            rng = np.random.default_rng([13, t])
            x = qpsk.points[rng.integers(0, 4, size=cfg.l)]
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec.from_snr(35.0, cfg.m), rng)
            one = demux(y, h, Codebook(cfg, phi), solver="oneshot")
            two = demux(y, h, Codebook(cfg, phi), solver="ml")
            agree += int(np.array_equal(one.s_indices, two.s_indices))
        assert agree >= 290

    def test_joint_search_cap(self, qpsk, cfg_2x2_l4):
        cfg = cfg_2x2_l4
        phi = gen_phi(cfg)
        h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(0))
        with pytest.raises(DictionaryTooLarge):
            demux(np.zeros(2), h, Codebook(cfg, phi), solver="oneshot", oneshot_cap=10)
