"""Tests for equalization and the sparse recovery solvers."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _colnorm2,
    _ml_scan,
    channel_is_usable,
    demux,
    recover_subblock_ml,
    recover_subblock_omp,
    sensing_matrix,
    zf_equalize,
)
from csmimo.dictionary import build_dictionary, sparse_decode
from csmimo.errors import DictionaryTooLarge, DimensionMismatch, RankDeficientChannel
from csmimo.harness import load_spec, run_sweep
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
        k, res = _ml_scan(z, a, _colnorm2(a))
        assert k.shape == res.shape == (j,)
        for row, k_row, res_row in zip(z, k, res):
            diffs = a - row[:, None]
            dist2 = (diffs.real**2 + diffs.imag**2).sum(axis=0)
            assert k_row == np.argmin(dist2)
            assert res_row == pytest.approx(np.sqrt(dist2[k_row]), abs=1e-9)


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

    def test_k_max_validation(self, pipeline):
        cfg, phi, dictionary = pipeline
        with pytest.raises(ValueError):
            recover_subblock_omp(np.zeros(2), sensing_matrix(phi, dictionary), k_max=0)


class TestDemux:
    def test_noiseless_end_to_end(self, pipeline, qpsk):
        """1000 random payloads through a noiseless channel come back exact."""
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        noiseless = NoiseSpec(float("inf"), 0.0)
        for t in range(1000):
            rng = np.random.default_rng([4242, t])
            bits = rng.integers(0, 2, size=16, dtype=np.uint8)
            x = modulate(bits, qpsk)
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, noiseless, rng)
            rec = demux(y, h, phi, dictionary, cfg, a)
            np.testing.assert_array_equal(demodulate(rec.x_hat, qpsk), bits)

    def test_result_reassembles_decoded_blocks(self, pipeline, qpsk):
        cfg, phi, dictionary = pipeline
        rng = np.random.default_rng(77)
        x = qpsk.points[rng.integers(0, 4, size=cfg.l)]
        z = multiplex(x, phi, cfg)
        h = sample_channel(cfg.nr, cfg.m, rng)
        y = apply_channel(h, z, NoiseSpec(10.0, 0.4), rng)
        rec = demux(y, h, phi, dictionary, cfg, sensing_matrix(phi, dictionary))
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
        dictionary = build_dictionary(qpsk, 1)
        a = sensing_matrix(phi, dictionary)
        for t in range(400):
            rng = np.random.default_rng([31337, t])
            bits = rng.integers(0, 2, size=8, dtype=np.uint8)
            x = modulate(bits, qpsk)
            z = multiplex(x, phi, cfg)
            h = sample_channel(4, 4, rng)
            y = apply_channel(h, z, NoiseSpec(10.0, 0.4), rng)
            rec = demux(y, h, phi, dictionary, cfg, a)

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
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        errs = bits_total = 0
        for t in range(700):
            rng = np.random.default_rng([91, t])
            bits = rng.integers(0, 2, size=16, dtype=np.uint8)
            x = modulate(bits, qpsk)
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec.from_snr(-60.0, cfg.m), rng)
            rec = demux(y, h, phi, dictionary, cfg, a)
            errs += int(np.sum(demodulate(rec.x_hat, qpsk) != bits))
            bits_total += bits.size
        assert abs(errs / bits_total - 0.5) < 0.02

    def test_omp_solver_matches_ml_up_to_block_phase(self, pipeline, qpsk):
        """OMP's absolute correlation cannot separate a column from its
        i/-1/-i rotations (all are valid QPSK tuples), so on noiseless input
        its atom is the ML atom up to a per-block phase in {1, i, -1, -i}.
        """
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        rotations = np.array([1.0, 1j, -1.0, -1j])
        for t in range(100):
            rng = np.random.default_rng([55, t])
            x = qpsk.points[rng.integers(0, 4, size=cfg.l)]
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec(float("inf"), 0.0), rng)
            ml = demux(y, h, phi, dictionary, cfg, a, solver="ml")
            omp = demux(y, h, phi, dictionary, cfg, a, solver="omp")
            for k_ml, k_omp in zip(ml.s_indices, omp.s_indices):
                twins = rotations[:, None] * dictionary.psi[:, k_ml][None, :]
                match = np.isclose(twins, dictionary.psi[:, k_omp][None, :]).all(axis=1)
                assert match.any()

    def test_unknown_solver_rejected(self, pipeline):
        cfg, phi, dictionary = pipeline
        with pytest.raises(ValueError, match="unknown solver"):
            demux(np.zeros(4), sample_channel(4, 4, np.random.default_rng(0)),
                  phi, dictionary, cfg, sensing_matrix(phi, dictionary), solver="mmse")


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
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        x, h = self._trials(cfg, qpsk)
        noise = NoiseSpec.from_snr(5.0, cfg.m)
        z = multiplex(x.reshape(self.STACK + (cfg.l,)), phi, cfg)
        channel = ChannelRealization(h.reshape(self.STACK + h.shape[1:]))
        y = apply_channel(channel, z, noise, [np.random.default_rng([8, t]) for t in range(6)])
        rec = demux(y, channel, phi, dictionary, cfg, a, solver=solver)
        for t, at in enumerate(np.ndindex(self.STACK)):
            single = ChannelRealization(h[t])
            z_t = multiplex(x[t], phi, cfg)
            y_t = apply_channel(single, z_t, noise, np.random.default_rng([8, t]))
            one = demux(y_t, single, phi, dictionary, cfg, a, solver=solver)
            np.testing.assert_array_equal(z[at], z_t)
            np.testing.assert_array_equal(y[at], y_t)
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
        rec = demux(y, h, phi, dictionary, cfg, sensing_matrix(phi, dictionary),
                    solver="oneshot")
        k, res = _joint_ml_oracle(y, h, phi, dictionary, cfg)
        np.testing.assert_array_equal(rec.s_indices, k)
        np.testing.assert_allclose(rec.residuals[0], res, rtol=1e-6, atol=1e-9)

    def test_residual_is_direct_norm(self, qpsk, pipeline):
        cfg, phi, dictionary = pipeline
        a = sensing_matrix(phi, dictionary)
        g = transmit_gain(phi, cfg)
        for t in range(200):
            rng = np.random.default_rng([31, t])
            x = qpsk.points[rng.integers(0, 4, size=cfg.l)]
            h = sample_channel(cfg.nr, cfg.m, rng)
            snr = float("inf") if t % 2 else 40.0 * rng.random()
            y = apply_channel(h, multiplex(x, phi, cfg), NoiseSpec.from_snr(snr, cfg.m), rng)
            rec = demux(y, h, phi, dictionary, cfg, a, solver="oneshot")
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
        a = sensing_matrix(phi, dictionary)
        rng = np.random.default_rng(8)
        h = sample_channel(cfg.nr, cfg.m, rng)
        y = apply_channel(h, multiplex(qpsk.points[rng.integers(0, 4, size=8)], phi, cfg),
                          NoiseSpec.from_snr(-5.0, cfg.m), rng)
        full = demux(y, h, phi, dictionary, cfg, a, solver="oneshot")
        raised = 0
        for cap in range(dictionary.d, 64 * dictionary.d, dictionary.d):
            try:
                rec = demux(y, h, phi, dictionary, cfg, a, solver="oneshot",
                            oneshot_cap=cap)
            except DictionaryTooLarge:
                raised += 1
                continue
            np.testing.assert_array_equal(rec.s_indices, full.s_indices)
            assert rec.residuals[0] == full.residuals[0]
        assert raised >= cfg.j

    def test_wrong_channel_shape_rejected(self, pipeline):
        cfg, phi, dictionary = pipeline
        h = sample_channel(cfg.nr, cfg.m - 1, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch, match="channel shape"):
            demux(np.zeros(cfg.nr), h, phi, dictionary, cfg,
                  sensing_matrix(phi, dictionary), solver="oneshot")

    def test_non_finite_input_rejected(self, pipeline):
        cfg, phi, dictionary = pipeline
        h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(0))
        with pytest.raises(ValueError, match="finite"):
            demux(np.full(cfg.nr, np.nan), h, phi, dictionary, cfg,
                  sensing_matrix(phi, dictionary), solver="oneshot")

    def test_paper_20x20_recipe_noiseless(self):
        spec = replace(load_spec(recipe_path("mimo20x20_l40.json")),
                       solver="oneshot", snr_db=(float("inf"),), trials=50)
        row = run_sweep(spec).rows[0]
        assert row.trials == 50 and row.bit_errors == 0

    def test_noiseless_exact(self, qpsk, cfg_2x2_l4):
        cfg = cfg_2x2_l4
        phi = gen_phi(cfg)
        dictionary = build_dictionary(qpsk, cfg.subblock_cols)
        a = sensing_matrix(phi, dictionary)
        for t in range(300):
            rng = np.random.default_rng([12, t])
            bits = rng.integers(0, 2, size=8, dtype=np.uint8)
            x = modulate(bits, qpsk)
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec(float("inf"), 0.0), rng)
            rec = demux(y, h, phi, dictionary, cfg, a, solver="oneshot")
            np.testing.assert_array_equal(demodulate(rec.x_hat, qpsk), bits)
            assert np.isnan(rec.condition_number)
            assert rec.residuals.shape == (1,)

    def test_agrees_with_two_step_at_high_snr(self, qpsk, cfg_2x2_l4):
        """Both solvers pick the same candidates when noise is small."""
        cfg = cfg_2x2_l4
        phi = gen_phi(cfg)
        dictionary = build_dictionary(qpsk, cfg.subblock_cols)
        a = sensing_matrix(phi, dictionary)
        agree = 0
        for t in range(300):
            rng = np.random.default_rng([13, t])
            x = qpsk.points[rng.integers(0, 4, size=cfg.l)]
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec.from_snr(35.0, cfg.m), rng)
            one = demux(y, h, phi, dictionary, cfg, a, solver="oneshot")
            two = demux(y, h, phi, dictionary, cfg, a, solver="ml")
            agree += int(np.array_equal(one.s_indices, two.s_indices))
        assert agree >= 290

    def test_joint_search_cap(self, qpsk, cfg_2x2_l4):
        cfg = cfg_2x2_l4
        phi = gen_phi(cfg)
        dictionary = build_dictionary(qpsk, cfg.subblock_cols)
        h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(0))
        with pytest.raises(DictionaryTooLarge):
            demux(np.zeros(2), h, phi, dictionary, cfg, sensing_matrix(phi, dictionary),
                  solver="oneshot", oneshot_cap=10)
