"""Tests for equalization and the sparse recovery solvers."""

from dataclasses import replace
from functools import cached_property
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from csmimo import detection, harness
from csmimo.channel import RANK_TOL, ChannelRealization, NoiseSpec, apply_channel, sample_channel
from csmimo.csmux import (
    MeasurementMatrix,
    MuxConfig,
    gen_phi,
    multiplex,
    transmit_gain,
)
from csmimo.detection import (
    SOLVERS,
    Codebook,
    channel_is_usable,
    demux,
    recover_subblock_omp,
    sensing_matrix,
    zf_equalize,
)
from csmimo.dictionary import build_dictionary, digits
from csmimo.errors import (
    BadSubblockShape,
    DictionaryTooLarge,
    DimensionMismatch,
    RankDeficientChannel,
)
from csmimo.harness import _prepare, load_spec, run_sweep
from csmimo.modem import get_constellation, nearest_point_indices, symbol_indices

from conftest import recipe_path


@pytest.fixture(scope="module")
def pipeline(qpsk, cfg_4x4_l8):
    phi = gen_phi(cfg_4x4_l8)
    return cfg_4x4_l8, phi, build_dictionary(qpsk, cfg_4x4_l8.subblock_cols)


class TestZfEqualize:
    def test_identity_channel_passthrough(self):
        h = ChannelRealization(np.eye(3, dtype=complex))
        y = np.array([1 + 1j, -2j, 0.5])
        np.testing.assert_allclose(zf_equalize(y, h), y, atol=1e-12)

    def test_pseudo_inverse_exactness(self):
        rng = np.random.default_rng(4)
        h = sample_channel(5, 3, rng)
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        np.testing.assert_allclose(zf_equalize(h.h @ z, h), z, atol=1e-9)

    def test_stack_equals_single_trials(self):
        """A stack of channels gives the ``(..., m)`` estimate array, bit for
        bit the estimates of one trial at a time."""
        rng = np.random.default_rng(5)
        h = np.stack([sample_channel(4, 3, rng).h for _ in range(2)])
        y = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        got = zf_equalize(y, ChannelRealization(h))
        assert isinstance(got, np.ndarray) and got.shape == (2, 3)
        for t in range(2):
            np.testing.assert_array_equal(got[t], zf_equalize(y[t], ChannelRealization(h[t])))

    def test_duplicated_column_rejected(self):
        col = np.array([1.0, 2.0, 3.0 + 1j])
        h = ChannelRealization(np.stack([col, col], axis=1))
        with pytest.raises(RankDeficientChannel):
            zf_equalize(np.zeros(3), h)

    def test_underdetermined_rejected(self):
        h = sample_channel(2, 4, np.random.default_rng(0))
        with pytest.raises(RankDeficientChannel):
            zf_equalize(np.zeros(2), h)


def _unitary(rng, n, k):
    """``n x k`` complex matrix with orthonormal columns."""
    return np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]


def _svd_zf(y, h, gain=1.0):
    """The SVD form of ZF that ``zf_equalize`` replaced, kept as reference:
    ``V diag(1/s) Uᴴ y / gain`` per trial."""
    u, s, vh = np.linalg.svd(h, full_matrices=False)
    w = (u.conj().swapaxes(-1, -2) @ y[..., None]) / s[..., None]
    return (vh.conj().swapaxes(-1, -2) @ w)[..., 0] / gain


class TestUsability:
    @given(
        nr=st.integers(1, 6),
        m=st.integers(1, 6),
        log_kappa=st.lists(st.floats(0.0, 14.0), min_size=1, max_size=8),
        singular=st.sets(st.integers(0, 7), max_size=2),
        zero_whole=st.booleans(),
        scale=st.sampled_from([1.0, 1e-3, 1e5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_bound_and_fallback_give_the_svd_decision(
        self, nr, m, log_kappa, singular, zero_whole, scale, seed
    ):
        """On stacks with prescribed condition numbers κ = 1 .. 1e14, square,
        tall and wide, some members exactly singular (a zero column, or a
        zero matrix), ``channel_is_usable`` equals the check on the thin
        SVD, ``s[-1] > RANK_TOL * s[0]`` (false for every wide channel).
        Only a channel whose ``κ`` is at least 1e8 or that is singular
        reaches an SVD: below that the Frobenius bound, at most
        ``min(nr, m)·κ``, clears it."""
        rng = np.random.default_rng(seed)
        k = min(nr, m)
        h = np.empty((len(log_kappa), nr, m), dtype=complex)
        for t, lk in enumerate(log_kappa):
            s = scale * np.geomspace(1.0, 10.0**-lk, k)
            h[t] = (_unitary(rng, nr, k) * s) @ _unitary(rng, m, k).conj().T
        spoiled = sorted(t for t in singular if t < len(log_kappa))
        for t in spoiled:
            if zero_whole:
                h[t] = 0.0
            else:
                h[t][:, rng.integers(m)] = 0.0
        channel = ChannelRealization(h)
        with mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd:
            got = channel_is_usable(channel)
        if m > nr:
            want = np.zeros(len(log_kappa), dtype=bool)
        else:
            s = np.linalg.svd(h, full_matrices=False)[1]
            want = s[:, -1] > RANK_TOL * s[:, 0]
        np.testing.assert_array_equal(got, want)
        assert got.dtype == bool and got.shape == (len(log_kappa),)
        unclear = {t for t, lk in enumerate(log_kappa) if lk >= 8.0} | set(spoiled)
        assert svd.call_count <= (0 if m > nr else len(unclear))
        for t in range(len(log_kappa)):
            assert channel_is_usable(ChannelRealization(h[t])) == want[t]

    def test_bound_and_fallback_at_the_tolerance(self):
        """Around κ = 1/RANK_TOL the decision is the SVD's on either side."""
        rng = np.random.default_rng(12)
        seen = set()
        for lk in np.linspace(11.5, 12.5, 21):
            h = (_unitary(rng, 4, 4) * np.geomspace(1.0, 10.0**-lk, 4)) @ _unitary(rng, 4, 4)
            s = np.linalg.svd(h, full_matrices=False)[1]
            want = s[-1] > RANK_TOL * s[0]
            assert channel_is_usable(ChannelRealization(h)) == want
            seen.add(bool(want))
        assert seen == {True, False}


class TestZfAgainstSvd:
    @given(
        rows=st.integers(1, 3),
        j=st.integers(1, 3),
        extra=st.integers(0, 2),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        stack=st.sampled_from([(), (1,), (5,), (2, 3)]),
        snr=st.floats(-5.0, 40.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_inverse_form_matches_svd_form(self, rows, j, extra, constellation, stack, snr, seed):
        """``zf_equalize``'s ``h.pinv @ y`` equals the SVD form to rounding,
        on square and tall stacks at a finite SNR, and the ``zf`` slicer and
        the ``ml`` scan decide exactly as on the SVD form's estimate."""
        rng = np.random.default_rng(seed)
        m = rows * j
        cfg = MuxConfig(nt=m, nr=m + extra, l=2 * m, j=j, phi_seed=seed % 1000,
                        constellation=constellation)
        code = Codebook(cfg, gen_phi(cfg))
        c = code.alphabet
        x = c.points[rng.integers(0, c.order, stack + (cfg.l,))]
        h = (rng.standard_normal(stack + (cfg.nr, m))
             + 1j * rng.standard_normal(stack + (cfg.nr, m))) * np.sqrt(0.5)
        channel = ChannelRealization(h)
        sigma = np.sqrt(NoiseSpec.from_snr(snr, m).sigma2 / 2.0)
        noise = sigma * (rng.standard_normal(stack + (cfg.nr,))
                         + 1j * rng.standard_normal(stack + (cfg.nr,)))
        y = (h @ multiplex(x, code.phi, cfg)[..., None])[..., 0] + noise

        got = zf_equalize(y, channel) / code.gain
        want = _svd_zf(y, h, code.gain)
        kappa = np.linalg.cond(h)
        size = np.linalg.norm(want, axis=-1)
        np.testing.assert_array_less(
            np.linalg.norm(got - want, axis=-1), 1e-12 * kappa * size + 1e-300)

        rec = demux(y, channel, code, solver="ml")
        blocks = want.reshape(stack + (j, rows))
        np.testing.assert_array_equal(
            rec.x_indices, detection._ml_split(blocks, code)[0].reshape(stack + (cfg.l,)))
        plain = ChannelRealization(h[..., :m, :])
        np.testing.assert_array_equal(
            nearest_point_indices(zf_equalize(y[..., :m], plain), c),
            nearest_point_indices(_svd_zf(y[..., :m], h[..., :m, :]), c))

    def test_two_step_demux_makes_no_svd(self, pipeline):
        """ZF and a two-step ``demux`` of a well-conditioned stack clear it
        on the Frobenius bound and take no singular values."""
        cfg, phi, _ = pipeline
        rng = np.random.default_rng(9)
        h = ChannelRealization(sample_channel(cfg.nr, cfg.m, rng).h[None].repeat(3, axis=0))
        y = rng.standard_normal((3, cfg.nr)) + 0j
        with mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd:
            zf_equalize(y, h)
            for solver in ("ml", "omp"):
                demux(y, h, Codebook(cfg, phi), solver=solver)
        assert svd.call_count == 0


def _ml_demux(z, code):
    """``demux``'s ``ml`` receiver on the ``(..., J, rows)`` blocks ``z``,
    sent through identity channels at the transmit gain, and the blocks it
    sees: the ZF estimate over the gain."""
    m, stack = code.cfg.m, z.shape[:-2]
    h = ChannelRealization(np.broadcast_to(np.eye(m), stack + (m, m)).copy())
    y = z.reshape(stack + (m,)) * code.gain
    return demux(y, h, code, solver="ml"), (zf_equalize(y, h) / code.gain).reshape(z.shape)


class TestMlRecovery:
    def test_noiseless_membership(self, pipeline):
        cfg, phi, psi = pipeline
        a = sensing_matrix(phi, psi)
        rec, _ = _ml_demux(np.stack([a[:, 7]] * cfg.j), Codebook(cfg, phi))
        np.testing.assert_array_equal(rec.s_indices, [7] * cfg.j)
        # the squared residual is ||z||² - 2<z, b> + ||b||², 0 to rounding
        assert (rec.residuals**2 < 1e-12).all()

    def test_exhaustive_noiseless_recovery(self, pipeline):
        """Every one of the 256 candidate sub-blocks maps back to itself."""
        cfg, phi, psi = pipeline
        a = sensing_matrix(phi, psi)
        # column k is block k % J of trial k // J
        rec, _ = _ml_demux(a.T.reshape(-1, cfg.j, cfg.subblock_rows), Codebook(cfg, phi))
        np.testing.assert_array_equal(rec.s_indices.ravel(), np.arange(a.shape[1]))

    def test_matches_bruteforce_oracle(self, pipeline):
        """Independent oracle: direct column-difference scan of the blocks
        ``demux`` sees, on noisy draws.

        The full 10^4-case agreement run lives in the acceptance suite; this
        is a faster regression check.
        """
        cfg, phi, psi = pipeline
        a = sensing_matrix(phi, psi)
        rng = np.random.default_rng(314)
        shape = (1000, cfg.j, cfg.subblock_rows)
        truth = rng.integers(0, a.shape[1], shape[:2])
        z = a.T[truth] + 0.4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        rec, blocks = _ml_demux(z, Codebook(cfg, phi))
        diffs = a - blocks[..., None]
        oracle = (diffs.real**2 + diffs.imag**2).sum(axis=-2).argmin(axis=-1)
        np.testing.assert_array_equal(rec.s_indices, oracle)

    def test_tie_breaks_to_lowest_index(self, qpsk):
        """All four QPSK points are equidistant from the origin: each I/Q
        half-scan breaks its tie to its lowest level index, so the decision
        is the point at the lowest real and imaginary level."""
        cfg = MuxConfig(nt=4, nr=4, l=4, j=4)
        code = Codebook(cfg, MeasurementMatrix(np.array([[1.0]])))
        rec, _ = _ml_demux(np.zeros((cfg.j, 1), dtype=complex), code)
        np.testing.assert_array_equal(rec.x_hat, np.full(cfg.l, qpsk.iq_levels[0] * (1 + 1j)))
        np.testing.assert_allclose(rec.residuals, 1.0)

    def test_scale_invariance_of_argmin(self, pipeline):
        """Scaling the blocks and the matrix alike keeps every pick."""
        cfg, phi, _ = pipeline
        rng = np.random.default_rng(9)
        shape = (200, cfg.j, cfg.subblock_rows)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rec, _ = _ml_demux(z, Codebook(cfg, phi))
        scaled, _ = _ml_demux(3.7 * z, Codebook(cfg, MeasurementMatrix(3.7 * phi.phi)))
        np.testing.assert_array_equal(rec.s_indices, scaled.s_indices)


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
        a column whose joint metric is the joint minimum to rounding, and
        the brute-force argmin of the same equalized blocks on every block
        whose minimum is unique beyond rounding; its residuals are the
        brute-force minimum's to rounding.  A ``tied`` share of the blocks is
        tied by construction: each symbol's I and Q parts sit on a level or
        on the midpoint of two neighbouring levels, and some blocks are 0.
        A tie may go to a column other than the lowest tied one: each half
        breaks its own ties to the lowest level tuple."""
        c = get_constellation(constellation)
        rng = np.random.default_rng(seed)
        n = rows if constellation == "qam16" else int(rng.integers(rows, 4))
        cfg = MuxConfig(nt=rows * j, nr=rows * j, l=n * j, j=j, constellation=constellation)
        phi = MeasurementMatrix(rng.standard_normal((rows, n)) / np.sqrt(rows))
        psi = build_dictionary(c, n)
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
        blocks = (zf_equalize(y, h) / code.gain).reshape(stack + (j, rows))
        a = code.sensing
        diffs = blocks[..., None] - a
        metric = (diffs.real**2 + diffs.imag**2).sum(axis=-2)
        least = metric.min(axis=-1)
        colnorm2 = (a.real**2 + a.imag**2).sum(axis=0)
        margin = 1e-9 * ((blocks.real**2 + blocks.imag**2).sum(axis=-1) + colnorm2.max())
        picked = np.take_along_axis(metric, rec.s_indices[..., None], axis=-1)[..., 0]
        assert (picked <= least + margin).all()
        unique = (metric <= (least + margin)[..., None]).sum(axis=-1) == 1
        np.testing.assert_array_equal(rec.s_indices[unique], metric.argmin(axis=-1)[unique])
        np.testing.assert_array_equal(
            rec.x_hat, psi.T[rec.s_indices].reshape(stack + (cfg.l,))
        )
        # a square root of a rounded metric: compare the squares
        np.testing.assert_allclose(rec.residuals**2, least, rtol=1e-9, atol=1e-12)


def _ml_split_reference(z, code):
    """The ``ml`` half-scans as a product per leading index, reference for
    the flat product of ``_ml_split``: each block stack's ``(2J, rows + 1)``
    rows times the scan, argmins decoded by :func:`digits` and the point
    table, and the residuals formed at once."""
    scan, _, point_of = code.iq_scan
    j, r, n = z.shape[-2], point_of.shape[0], code.cfg.subblock_cols
    zr = np.empty(z.shape[:-2] + (2 * j, z.shape[-1] + 1))
    zr[..., :j, :-1] = z.real
    zr[..., j:, :-1] = z.imag
    zr[..., -1] = 1.0
    metric = zr @ scan
    k = metric.argmin(axis=-1)
    best = np.take_along_axis(metric, k[..., None], axis=-1)[..., 0]
    best += np.einsum("...i,...i->...", zr[..., :-1], zr[..., :-1])
    levels = digits(k, r, n)
    return (point_of[levels[..., :j, :], levels[..., j:, :]],
            np.sqrt(np.maximum(best[..., :j] + best[..., j:], 0.0)))


class TestFlatScan:
    """``_ml_split`` scores every half-scan of a stack in one 2-D product and
    decodes the argmins from the tuple table of ``Codebook.iq_scan``."""

    @given(
        trials=st.sampled_from([(), (1,), (2,), (5,), (33,), (97,), (2, 3)]),
        j=st.integers(1, 4),
        rows=st.integers(1, 3),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        tied=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_flat_product_equals_the_product_per_trial(
        self, trials, j, rows, constellation, tied, seed
    ):
        """Decisions and residuals bit for bit those of the product per
        trial, and those of each trial's blocks alone, over trial counts,
        ``J``, ``rows`` and both alphabets; a ``tied`` share of the blocks
        are noiseless codewords or 0, where half-scans tie."""
        rng = np.random.default_rng(seed)
        c = get_constellation(constellation)
        n = int(rng.integers(rows, 4 if constellation == "qam16" else 6))
        cfg = MuxConfig(nt=rows * j, nr=rows * j, l=n * j, j=j, constellation=constellation)
        phi = MeasurementMatrix(rng.standard_normal((rows, n)) / np.sqrt(rows))
        code = Codebook(cfg, phi)
        shape = trials + (j, rows)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sent = c.points[rng.integers(0, c.order, trials + (j, n))] @ phi.phi.T
        z = np.where(rng.random(trials + (j, 1)) < tied, sent, z)
        z[rng.random(trials + (j,)) < tied / 4] = 0.0

        x_indices, residuals = detection._ml_split(z, code)
        want_x, want_res = _ml_split_reference(z, code)
        np.testing.assert_array_equal(x_indices, want_x)
        np.testing.assert_array_equal(residuals(), want_res)
        for t in np.ndindex(trials):
            one_x, one_res = detection._ml_split(z[t], code)
            np.testing.assert_array_equal(one_x, want_x[t])
            np.testing.assert_array_equal(one_res(), want_res[t])

    @given(
        constellation=st.sampled_from(["qpsk", "qam16"]),
        n=st.integers(1, 5),
        shape=st.sampled_from([(), (1,), (4,), (3, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_table_decode_equals_digits(self, constellation, n, shape, seed):
        """The tuple table holds the :func:`digits` of every level tuple, and
        the points it decodes for the half argmins ``u`` and ``v`` are
        ``point_of`` at their digits."""
        cfg = MuxConfig(nt=1, nr=1, l=n, j=1, constellation=constellation)
        code = Codebook(cfg, MeasurementMatrix(np.ones((1, n))))
        _, tuples, point_of = code.iq_scan
        r = point_of.shape[0]
        np.testing.assert_array_equal(tuples, digits(np.arange(r**n), r, n))
        u, v = np.random.default_rng(seed).integers(0, r**n, (2,) + shape + (2,))
        got = detection._pair_points(u, v, code)
        np.testing.assert_array_equal(got, point_of[digits(u, r, n), digits(v, r, n)])


class TestOmp:
    def test_noiseless_single_atom(self, pipeline):
        cfg, phi, psi = pipeline
        a = sensing_matrix(phi, psi)
        k, coef = recover_subblock_omp(a[:, 3], sensing=a)
        assert k == 3
        assert coef == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_ml_on_unit_columns(self):
        """With unit-norm columns and one atom, OMP picks the ML index, the
        least residual of a direct scan, on noiseless inputs."""
        rng = np.random.default_rng(33)
        a = rng.standard_normal((4, 40)) + 1j * rng.standard_normal((4, 40))
        a /= np.linalg.norm(a, axis=0)
        for k in range(40):
            pick, _ = recover_subblock_omp(a[:, k], sensing=a)
            ml_k = int(np.argmin(np.linalg.norm(a - a[:, [k]], axis=0)))
            assert pick == ml_k == k

    def test_coefficient_is_the_least_squares_fit(self):
        """The coefficient is the one-column least-squares fit, and 0 for an
        all-zero block or a zero column."""
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        k, coef = recover_subblock_omp(z, sensing=a)
        fit = np.linalg.lstsq(a[:, [k]], z, rcond=None)[0][0]
        assert coef == pytest.approx(fit, rel=1e-12)
        assert recover_subblock_omp(np.zeros(3), sensing=a) == (0, 0)
        assert recover_subblock_omp(z, sensing=np.zeros((3, 6))) == (0, 0)

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
        block, the pick of ``recover_subblock_omp``: the same index, bit for
        bit, and its least-squares coefficient and residual to rounding
        (coefficient 0 for a block of norm 0).  Some blocks are all
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
        code = Codebook(cfg, MeasurementMatrix(phi))
        a = code.sensing
        assert (np.linalg.norm(a, axis=0) == 0).any() == (zero_columns and n > 1)
        truth = rng.integers(0, a.shape[1], size=stack + (j,))
        noise = rng.standard_normal(stack + (j, rows)) + 1j * rng.standard_normal(stack + (j, rows))
        z = scale * (a.T[truth] + sigma * noise)
        z[rng.random(stack + (j,)) < 0.2] = 0.0

        k, coef, res = detection._omp_pick(z, code)
        assert k.shape == coef.shape == res.shape == stack + (j,)
        for at in np.ndindex(k.shape):
            want, want_coef = recover_subblock_omp(z[at], a)
            assert k[at] == want
            size = np.linalg.norm(z[at])
            np.testing.assert_allclose(coef[at], want_coef, rtol=1e-9,
                                       atol=1e-12 * size / max(np.linalg.norm(a[:, want]), 1e-300))
            np.testing.assert_allclose(res[at], np.linalg.norm(z[at] - want_coef * a[:, want]),
                                       rtol=1e-9, atol=1e-12 * size)


class TestDemux:
    def test_noiseless_end_to_end(self, pipeline, qpsk):
        """1000 random payloads through a noiseless channel come back exact."""
        cfg, phi, _ = pipeline
        noiseless = NoiseSpec(float("inf"), 0.0)
        for t in range(1000):
            rng = np.random.default_rng([4242, t])
            bits = rng.integers(0, 2, size=16, dtype=np.uint8)
            x = qpsk.points[symbol_indices(bits, qpsk)]
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, noiseless, rng)
            rec = demux(y, h, Codebook(cfg, phi))
            rx_bits = qpsk.labels[nearest_point_indices(rec.x_hat, qpsk)].ravel()
            np.testing.assert_array_equal(rx_bits, bits)

    def test_result_reassembles_decoded_blocks(self, pipeline, qpsk):
        cfg, phi, psi = pipeline
        rng = np.random.default_rng(77)
        x = qpsk.points[rng.integers(0, 4, size=cfg.l)]
        z = multiplex(x, phi, cfg)
        h = sample_channel(cfg.nr, cfg.m, rng)
        y = apply_channel(h, z, NoiseSpec(10.0, 0.4), rng)
        rec = demux(y, h, Codebook(cfg, phi))
        np.testing.assert_array_equal(rec.x_hat, psi.T[rec.s_indices].ravel())
        assert rec.residuals.shape == (cfg.j,)

    def test_matches_direct_zf_oracle_when_uncompressed(self, qpsk):
        """rho = 1 with identity blocks reduces to plain ZF detection.

        The oracle is coded independently: normal-equations inverse plus a
        per-symbol nearest-point slicer.
        """
        cfg = MuxConfig(nt=4, nr=4, l=4, j=4)
        phi = MeasurementMatrix(np.eye(1))
        for t in range(400):
            rng = np.random.default_rng([31337, t])
            bits = rng.integers(0, 2, size=8, dtype=np.uint8)
            x = qpsk.points[symbol_indices(bits, qpsk)]
            z = multiplex(x, phi, cfg)
            h = sample_channel(4, 4, rng)
            y = apply_channel(h, z, NoiseSpec(10.0, 0.4), rng)
            rec = demux(y, h, Codebook(cfg, phi))

            x_zf = np.linalg.inv(h.h.conj().T @ h.h) @ (h.h.conj().T @ y)
            oracle_bits = []
            for s in x_zf:
                k = int(np.argmin(np.abs(s - qpsk.points)))
                oracle_bits.extend(qpsk.labels[k])
            rx_bits = qpsk.labels[nearest_point_indices(rec.x_hat, qpsk)].ravel()
            np.testing.assert_array_equal(rx_bits, np.array(oracle_bits, dtype=np.uint8))

    def test_deep_noise_gives_chance_level(self, pipeline, qpsk):
        """At -60 dB the decisions are effectively random: BER near 1/2."""
        cfg, phi, _ = pipeline
        errs = bits_total = 0
        for t in range(700):
            rng = np.random.default_rng([91, t])
            bits = rng.integers(0, 2, size=16, dtype=np.uint8)
            x = qpsk.points[symbol_indices(bits, qpsk)]
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec.from_snr(-60.0, cfg.m), rng)
            rec = demux(y, h, Codebook(cfg, phi))
            rx_bits = qpsk.labels[nearest_point_indices(rec.x_hat, qpsk)].ravel()
            errs += int(np.sum(rx_bits != bits))
            bits_total += bits.size
        assert abs(errs / bits_total - 0.5) < 0.02

    def test_omp_solver_matches_ml_up_to_block_phase(self, pipeline, qpsk):
        """OMP's absolute correlation cannot separate a column from its
        i/-1/-i rotations (all are valid QPSK tuples), so on noiseless input
        its atom is the ML atom up to a per-block phase in {1, i, -1, -i};
        its coefficient undoes that phase, so its block estimate is the ML
        block to rounding.
        """
        cfg, phi, psi = pipeline
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
                twins = rotations[:, None] * psi[:, k_ml][None, :]
                match = np.isclose(twins, psi[:, k_omp][None, :]).all(axis=1)
                assert match.any()
            np.testing.assert_allclose(omp.x_hat, ml.x_hat, atol=1e-9)

    def test_unknown_solver_rejected(self, pipeline):
        cfg, phi, _ = pipeline
        with pytest.raises(ValueError, match="unknown solver"):
            demux(np.zeros(4), sample_channel(4, 4, np.random.default_rng(0)),
                  Codebook(cfg, phi), solver="mmse")

    def test_omp_on_one_row_sub_blocks_rejected(self, qpsk, cfg_2x2_l4):
        """On one-row sub-blocks every column ties on ``|z|``, so ``demux``
        rejects ``omp`` with the spec's one-line error before any pick; the
        other solvers detect."""
        cfg = cfg_2x2_l4
        code = Codebook(cfg, gen_phi(cfg))
        h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(0))
        y = apply_channel(h, multiplex(qpsk.points[:cfg.l], code.phi, cfg),
                          NoiseSpec.from_snr(20.0, cfg.m), np.random.default_rng(1))
        with pytest.raises(BadSubblockShape, match=r"^omp needs m/j >= 2: [^\n]*$"):
            demux(y, h, code, solver="omp")
        for solver in ("ml", "oneshot"):
            assert demux(y, h, code, solver=solver).s_indices.shape == (cfg.j,)

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
        """A channel holding a nan or inf fails with one line before its
        inverse or its QR."""
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
        for other in (other_j, MeasurementMatrix(phi.phi[:1])):
            with pytest.raises(DimensionMismatch, match="^phi has .* columns for sub-blocks of 4"):
                Codebook(cfg, other)

    def test_derived_values_are_computed_once_bit_for_bit(self, pipeline):
        cfg, phi, psi = pipeline
        a = sensing_matrix(phi, psi)
        code = Codebook(cfg, phi)
        np.testing.assert_array_equal(code.dictionary, psi)
        np.testing.assert_array_equal(code.sensing, a)
        assert not code.sensing.flags.writeable
        np.testing.assert_array_equal(code.omp_norms, np.linalg.norm(a, axis=0))
        assert code.gain == transmit_gain(phi, cfg)
        norms = code.omp_norms
        h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(2))
        for y in np.random.default_rng(3).standard_normal((3, cfg.nr)):
            demux(y, h, code, solver="omp")
        assert code.omp_norms is norms
        assert not norms.flags.writeable

    def test_scan_is_built_once_with_colnorm2_as_its_last_row(self, pipeline, monkeypatch):
        """``ml`` reads the I/Q half-scan, the level digits of its tuples and
        the point table of the I/Q level pairs, built once and kept
        read-only, and never builds the dictionary, the sensing matrix or
        anything of size ``q**n``."""
        cfg, phi, _ = pipeline
        code = Codebook(cfg, phi)
        calls, build = [], Codebook.iq_scan.func
        counted = cached_property(lambda self: calls.append(self) or build(self))
        counted.__set_name__(Codebook, "iq_scan")
        monkeypatch.setattr(Codebook, "iq_scan", counted)
        h = sample_channel(cfg.nr, cfg.m, np.random.default_rng(2))
        ys = np.random.default_rng(3).standard_normal((6, cfg.nr))
        demux(ys[0], h, code)
        iq = code.iq_scan
        for y in ys[1:]:
            demux(y, h, code)
        assert code.iq_scan is iq
        assert len(calls) == 1
        assert not {"dictionary", "sensing"} & set(vars(code))

        scan, tuples, point_of = iq
        assert not scan.flags.writeable and not point_of.flags.writeable
        assert not tuples.flags.writeable
        levels, n = np.array([-1.0, 1.0]) / np.sqrt(2.0), cfg.subblock_cols
        # P[i, u]: level digit i of u, little-endian, as the dictionary orders
        p = np.array([[levels[(u >> i) & 1] for u in range(2**n)] for i in range(n)])
        np.testing.assert_array_equal(levels[tuples], p.T)
        b = phi.phi @ p
        np.testing.assert_array_equal(scan[:-1], -2.0 * b)
        np.testing.assert_array_equal(scan[-1], np.einsum("ij,ij->j", b, b))
        points = code.alphabet.points
        assert sorted(point_of.ravel().tolist()) == list(range(points.size))
        for (a, b), k in np.ndenumerate(point_of):
            assert points[k] == levels[a] + 1j * levels[b]
        # nothing of size q**n: the scan, the (√q**n, n) digits and the
        # (√q, √q) point table only
        assert scan.size + tuples.size + point_of.size == (
            (cfg.subblock_rows + 1) * 2**n + n * 2**n + 2 * 2)

    @given(
        constellation=st.sampled_from(["qpsk", "qam16"]),
        n=st.integers(1, 4),
        j=st.integers(1, 3),
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_ml_symbols_are_the_dictionary_columns(self, constellation, n, j, stack, seed):
        """An ``ml`` ``demux`` returns each block's symbols bit for bit as
        the dictionary column its ``s_indices`` names, and builds no
        dictionary."""
        cfg = MuxConfig(nt=j, nr=j, l=n * j, j=j, constellation=constellation)
        code = Codebook(cfg, MeasurementMatrix(np.ones((1, n))))
        rng = np.random.default_rng(seed)
        h = ChannelRealization(np.stack([_unitary(rng, j, j) for _ in range(int(np.prod(stack)))])
                               .reshape(stack + (j, j)))
        # wide spread, so that the outermost levels are picked too
        y = 4.0 * (rng.standard_normal(stack + (j,)) + 1j * rng.standard_normal(stack + (j,)))
        rec = demux(y, h, code, solver="ml")
        assert "dictionary" not in vars(code)
        psi = build_dictionary(get_constellation(constellation), n)
        np.testing.assert_array_equal(rec.x_hat, psi.T[rec.s_indices].reshape(stack + (cfg.l,)))

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
                (rec.s_indices, rec.x_indices, rec.x_hat, rec.residuals),
                (one.s_indices, one.x_indices, one.x_hat, one.residuals),
            ):
                np.testing.assert_array_equal(got[at], want)


class TestFormedOnFirstRead:
    """``s_indices``, ``x_hat`` and ``residuals`` are formed when first read."""

    FIELDS = ("s_indices", "x_hat", "residuals")

    @given(
        solver=st.sampled_from(SOLVERS),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        order=st.permutations(FIELDS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_lazy_fields_equal_their_eager_values(
        self, solver, constellation, stack, order, seed
    ):
        """Each field, read in any order after the caller has overwritten
        the receive vectors and channels it passed and detected others,
        equals bit for bit the field read right after the call, and is
        formed once."""
        # QAM16 on sub-blocks of two symbols: the oneshot search's d**J fits its budget
        # and a fifth receive antenna, out of reach of every R z in the search
        cfg = MuxConfig(nt=4, nr=5, l=8 if constellation == "qpsk" else 4, j=2,
                        phi_seed=seed % 1000, constellation=constellation)
        code = Codebook(cfg, gen_phi(cfg))
        rng = np.random.default_rng(seed)
        h = np.stack([_unitary(rng, 5, 4) for _ in range(int(np.prod(stack)))]).reshape(
            stack + (5, 4))
        y = rng.standard_normal(stack + (5,)) + 1j * rng.standard_normal(stack + (5,))
        eager = demux(y, ChannelRealization(h), code, solver=solver)
        want = {name: getattr(eager, name) for name in self.FIELDS}

        y_in, h_in = y.copy(), h.copy()
        lazy = demux(y_in, ChannelRealization(h_in), code, solver=solver)
        assert not set(self.FIELDS) & set(vars(lazy))
        np.testing.assert_array_equal(lazy.x_indices, eager.x_indices)
        y_in[...], h_in[...] = y[::-1], h[::-1]
        demux(y_in, ChannelRealization(h_in), code, solver=solver)
        for name in order:
            got = getattr(lazy, name)
            np.testing.assert_array_equal(got, want[name])
            assert getattr(lazy, name) is got


class TestPointIndices:
    """``demux`` returns the point index of every decided symbol, which the
    demapper reads without slicing ``x_hat`` again."""

    @given(
        solver=st.sampled_from(SOLVERS),
        constellation=st.sampled_from(["qpsk", "qam16"]),
        rows=st.sampled_from([1, 2]),
        j=st.sampled_from([1, 2]),
        extra=st.sampled_from([0, 1]),
        stack=st.sampled_from([(), (1,), (3,), (2, 2)]),
        snr=st.sampled_from([0.0, 12.0, float("inf")]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_indices_are_the_decided_points(
        self, solver, constellation, rows, j, extra, stack, snr, seed
    ):
        """``x_indices`` is the nearest point of every symbol of ``x_hat``
        for every solver.  ``ml`` and ``oneshot`` decide constellation
        vectors, so their ``x_hat`` is ``points[x_indices]`` bit for bit and
        ``s_indices`` encodes each block's ``x_indices`` little-endian.
        ``omp`` scales its atom, so its slice may differ from the picked
        column, and it needs sub-blocks of two rows or more."""
        m, n = rows * j, rows + extra
        assume(not (solver == "omp" and rows == 1))
        # the joint search of d**J candidates stays within its budget at 0 dB
        assume(not (solver == "oneshot" and constellation == "qam16" and extra))
        cfg = MuxConfig(nt=m, nr=m, l=n * j, j=j, phi_seed=seed % 1000,
                        constellation=constellation)
        code = Codebook(cfg, gen_phi(cfg))
        c, rng = code.alphabet, np.random.default_rng(seed)
        x = c.points[rng.integers(0, c.order, stack + (cfg.l,))]
        h = np.stack([_unitary(rng, m, m) for _ in range(int(np.prod(stack)))])
        h = h.reshape(stack + (m, m))
        sigma = np.sqrt(NoiseSpec.from_snr(snr, m).sigma2 / 2.0)
        noise = sigma * (rng.standard_normal(stack + (m,))
                         + 1j * rng.standard_normal(stack + (m,)))
        y = (h @ multiplex(x, code.phi, cfg)[..., None])[..., 0] + noise

        rec = demux(y, ChannelRealization(h), code, solver=solver)
        assert rec.x_indices.shape == rec.x_hat.shape == stack + (cfg.l,)
        assert rec.x_indices.dtype == np.int64
        np.testing.assert_array_equal(
            rec.x_indices, nearest_point_indices(rec.x_hat, c).reshape(rec.x_hat.shape))
        if solver != "omp":
            np.testing.assert_array_equal(rec.x_hat, c.points[rec.x_indices])
            blocks = rec.x_indices.reshape(stack + (j, n))
            np.testing.assert_array_equal(rec.s_indices, blocks @ c.order ** np.arange(n))


def _joint_ml_oracle(y, h, phi, psi, cfg):
    """Brute-force joint ML: score all ``d**J`` transmit vectors directly.

    Joint index ``n`` holds sub-block ``j``'s column ``(n // d**j) % d``;
    ``argmin`` keeps the lowest joint index on ties.  Returns the per-block
    indices and the residual norm.
    """
    d = psi.shape[1]
    digits = (np.arange(d**cfg.j)[None, :] // d ** np.arange(cfg.j)[:, None]) % d
    x = psi[:, digits].transpose(1, 0, 2).reshape(cfg.l, -1)
    z = np.kron(np.eye(cfg.j), phi.phi) @ x * transmit_gain(phi, cfg)
    metric = (np.abs(y[:, None] - h.h @ z) ** 2).sum(axis=0)
    n = int(np.argmin(metric))
    return digits[:, n], float(np.sqrt(metric[n]))


def _oneshot_reference(y, h, code, cap=1 << 20):
    """``demux``'s ``oneshot`` branch one trial at a time through the
    recursive :func:`_sphere_search_reference`: ``(indices, residuals,
    nodes)`` with the leading trial axes of ``h``."""
    cfg = code.cfg
    a = code.sensing * code.gain
    q, r = h.qr
    yq = (q.conj().swapaxes(-1, -2) @ y[..., None])[..., 0]
    blocks = r.reshape(h.stack_shape + (h.nr, cfg.j, cfg.subblock_rows)).swapaxes(-3, -2)
    indices = np.empty(h.stack_shape + (cfg.j,), dtype=np.int64)
    residuals = np.empty(h.stack_shape + (1,))
    nodes = np.empty(h.stack_shape, dtype=np.int64)
    for t in np.ndindex(h.stack_shape):
        contrib = blocks[t] @ a
        indices[t], residuals[t], nodes[t] = _sphere_search_reference(
            yq[t], contrib, cfg, a.shape[1], cap)
    return indices, residuals, nodes


def _sphere_search_reference(yq, contrib, cfg, d, cap):
    """The recursive depth-first search that the lockstep search replaced:
    joint indices, residual and visited nodes of one trial from its rotated
    receive vector ``yq = Q^H y`` and candidate contributions
    ``contrib = R_i a``."""
    rows = cfg.subblock_rows
    best = np.inf
    best_path = [d] * cfg.j  # above every joint index
    path = [0] * cfg.j
    scored = 0

    def search(level, target, partial):
        nonlocal best, best_path, scored
        if scored + d > cap:
            raise DictionaryTooLarge(
                f"joint search needs more than {cap} scored candidates "
                f"({d} per node over {cfg.j} sub-blocks)"
            )
        scored += d
        lo = level * rows
        diff = target[lo : lo + rows, None] - contrib[level, lo : lo + rows]
        metric = partial + (diff.real**2 + diff.imag**2).sum(axis=0)
        if level == 0:
            k = int(metric.argmin())
            path[0] = k
            # the joint index orders by the last sub-block first
            if metric[k] < best or (metric[k] == best and path[::-1] < best_path):
                best, best_path = float(metric[k]), path[::-1]
            return
        for k in np.argsort(metric, kind="stable"):
            if metric[k] > best:
                break
            path[level] = int(k)
            search(level - 1, target[:lo] - contrib[level, :lo, k], metric[k])

    search(cfg.j - 1, yq, 0.0)
    # rows of Q^H y below m are out of reach of every R z
    out = yq[cfg.m :]
    residual = np.sqrt(best + float(out.real @ out.real + out.imag @ out.imag))
    return best_path[::-1], residual, scored // d


@st.composite
def _joint_cases(draw, stack=(), exact_copies=False):
    """Small setups with enumerable ``d**J``: (cfg, y, h, phi, psi).

    ``stack`` is the leading trial axes of ``y`` and ``h``; each trial draws
    its own symbols, channel, channel defect and SNR.  With
    ``exact_copies`` a copied channel column may be a plain copy.
    """
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
    phi = gen_phi(cfg)
    psi = build_dictionary(get_constellation(name), cols)
    defects = [None, "zero", "copy"] + (["plain copy"] if exact_copies else [])
    ys, hs = [], []
    for _ in range(int(np.prod(stack))):
        defect = draw(st.sampled_from(defects))
        snr = draw(st.one_of(st.just(float("inf")), st.floats(-5.0, 40.0)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        x = psi[:, rng.integers(0, d, size=j)].T.ravel()
        h = sample_channel(nr, m, rng).h
        src, dst = rng.permutation(m + 1)[:2] % m
        if defect == "zero":
            h[:, dst] = 0.0
        elif defect == "plain copy":
            # across two one-row sub-blocks, swapped candidates tie exactly
            h[:, dst] = h[:, src]
        elif defect == "copy" and src != dst:
            # A scaled copy: a plain one across two one-row sub-blocks would make
            # swapped candidates tie exactly, leaving the index to rounding.
            h[:, dst] = (rng.standard_normal() + 1j * rng.standard_normal()) * h[:, src]
        h = ChannelRealization(h)
        ys.append(apply_channel(h, multiplex(x, phi, cfg), NoiseSpec.from_snr(snr, m), rng))
        hs.append(h.h)
    y = np.reshape(ys, stack + (nr,))
    return cfg, y, ChannelRealization(np.reshape(hs, stack + (nr, m))), phi, psi


class TestOneshot:
    @given(case=_joint_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_oracle(self, case):
        """Sphere search indices equal the d**J enumeration's, J = 1..4."""
        cfg, y, h, phi, psi = case
        rec = demux(y, h, Codebook(cfg, phi), solver="oneshot")
        k, res = _joint_ml_oracle(y, h, phi, psi, cfg)
        np.testing.assert_array_equal(rec.s_indices, k)
        np.testing.assert_allclose(rec.residuals[0], res, rtol=1e-6, atol=1e-9)

    @given(case=_joint_cases(stack=(3,), exact_copies=True), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_lockstep_search_is_the_recursive_search(self, case, data):
        """The lockstep search of a stack makes, trial by trial, the
        decisions of the recursive depth-first search it replaced: the same
        indices and bit for bit the same residuals, also where plain column
        copies make candidates tie exactly.  At budgets around each trial's
        node count and at drawn ones it raises ``DictionaryTooLarge``
        exactly when the recursion raises on some trial, and each trial
        detected alone gives bit for bit its row of the stack."""
        cfg, y, h, phi, psi = case
        code, d = Codebook(cfg, phi), psi.shape[1]
        want, residuals, nodes = _oneshot_reference(y, h, code)
        rec = demux(y, h, code, solver="oneshot")
        np.testing.assert_array_equal(rec.s_indices, want)
        np.testing.assert_array_equal(rec.residuals, residuals)
        for t in range(len(y)):
            one = demux(y[t], ChannelRealization(h.h[t]), code, solver="oneshot")
            for got, stacked in zip((one.s_indices, one.x_hat, one.residuals),
                                    (rec.s_indices, rec.x_hat, rec.residuals)):
                np.testing.assert_array_equal(got, stacked[t])
        searches = (lambda cap: _oneshot_reference(y, h, code, cap),
                    lambda cap: demux(y, h, code, solver="oneshot", oneshot_cap=cap))
        drawn = data.draw(st.lists(st.integers(0, int(nodes.max() + 1) * d), max_size=3))
        for cap in {n * d + edge for n in nodes.tolist() for edge in (-1, 0)} | set(drawn):
            for search in searches:
                if (nodes * d > cap).any():
                    with pytest.raises(DictionaryTooLarge):
                        search(cap)
                else:
                    search(cap)

    @pytest.mark.parametrize("j, nodes", [(2, 5), (3, 9), (4, 13)])
    def test_candidates_at_the_best_metric_are_visited(self, qpsk, j, nodes):
        """A candidate whose partial metric equals the best metric so far is
        visited, as the recursion visits it.  With an identity channel and
        matrix and ``y = (a_2, a_1, a_3, 0)[-j:]`` cut to ``j`` entries
        ending in 0, every candidate of the last sub-block has the partial
        metric ``|a|²``, and the first path adds an exact 0 to it at every
        level below, so every level holds candidates tied with the best
        metric.  Each tie goes to the lowest joint index."""
        cfg = MuxConfig(nt=j, nr=j, l=j, j=j)
        code = Codebook(cfg, MeasurementMatrix(np.eye(1)))
        y = np.append(qpsk.points[[2, 1, 3][: j - 1]], 0.0)
        h = ChannelRealization(np.eye(j))
        want, residual, visited = _oneshot_reference(y, h, code)
        assert want.tolist() == [2, 1, 3][: j - 1] + [0] and visited == nodes
        rec = demux(y, h, code, solver="oneshot", oneshot_cap=nodes * 4)
        np.testing.assert_array_equal(rec.s_indices, want)
        np.testing.assert_array_equal(rec.residuals, residual)
        with pytest.raises(DictionaryTooLarge):
            demux(y, h, code, solver="oneshot", oneshot_cap=nodes * 4 - 1)

    def test_rank_orders_ties_as_a_stable_sort(self):
        """``_rank`` sorts with the default sort and sorts again, stably,
        only the rows that hold an exact tie, so its order is the stable
        one, which the default sort does not give for 256 candidates with
        ties."""
        rng = np.random.default_rng(5)
        metric = rng.integers(0, 6, size=(4, 256)).astype(float)
        metric[0] = rng.permutation(256)
        order, ranked = detection._rank(metric)
        np.testing.assert_array_equal(order, metric.argsort(axis=-1, kind="stable"))
        np.testing.assert_array_equal(ranked, np.sort(metric, axis=-1))

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
        d = qpsk.order**cfg.subblock_cols
        rng = np.random.default_rng(8)
        h = sample_channel(cfg.nr, cfg.m, rng)
        y = apply_channel(h, multiplex(qpsk.points[rng.integers(0, 4, size=8)], phi, cfg),
                          NoiseSpec.from_snr(-5.0, cfg.m), rng)
        full = demux(y, h, Codebook(cfg, phi), solver="oneshot")
        raised = 0
        for cap in range(d, 64 * d, d):
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

    def test_paper_20x20_recipe_over_budget_at_20_db(self):
        """At 20 dB the (20,20)-40 search needs more than the default budget
        of ``2**20`` scored candidates on most trials, so a sweep stops with
        ``DictionaryTooLarge``.  With early stop off the first chunk holds
        all four trials: its lockstep search raises, and the chunk's
        one-by-one rerun raises again from the first trial over budget."""
        spec = replace(load_spec(recipe_path("mimo20x20_l40.json")), solver="oneshot",
                       snr_db=(20.0,), trials=4, early_stop_errors=0)
        with mock.patch.object(harness, "_tally_chunk", wraps=harness._tally_chunk) as tally, \
                pytest.raises(DictionaryTooLarge, match=r"^joint search needs more than 1048576 "):
            run_sweep(spec)
        sizes = [call.args[2] for call in tally.call_args_list]
        assert sizes[0] == 4 and set(sizes[1:]) == {1}

    def test_noiseless_exact(self, qpsk, cfg_2x2_l4):
        cfg = cfg_2x2_l4
        phi = gen_phi(cfg)
        for t in range(300):
            rng = np.random.default_rng([12, t])
            bits = rng.integers(0, 2, size=8, dtype=np.uint8)
            x = qpsk.points[symbol_indices(bits, qpsk)]
            z = multiplex(x, phi, cfg)
            h = sample_channel(cfg.nr, cfg.m, rng)
            y = apply_channel(h, z, NoiseSpec(float("inf"), 0.0), rng)
            rec = demux(y, h, Codebook(cfg, phi), solver="oneshot")
            rx_bits = qpsk.labels[nearest_point_indices(rec.x_hat, qpsk)].ravel()
            np.testing.assert_array_equal(rx_bits, bits)
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
