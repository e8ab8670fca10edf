"""Tests for the fading channel and noise accounting."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmimo import channel as channel_module
from csmimo.channel import ChannelRealization, NoiseSpec, apply_channel, gains, sample_channel
from csmimo.errors import DimensionMismatch, SpecError


class TestSampleChannel:
    def test_deterministic_given_seed(self):
        a = sample_channel(2, 2, np.random.default_rng(42))
        b = sample_channel(2, 2, np.random.default_rng(42))
        np.testing.assert_array_equal(a.h, b.h)

    def test_shape(self):
        h = sample_channel(3, 5, np.random.default_rng(0))
        assert h.h.shape == (3, 5)
        assert h.nr == 3 and h.m_tx == 5

    def test_entry_moments(self):
        """Sample moments over 1e5 draws: mean 0, unit variance per entry."""
        rng = np.random.default_rng(2024)
        draws = np.concatenate(
            [sample_channel(10, 10, rng).h.ravel() for _ in range(1000)]
        )
        assert draws.size == 100_000
        assert abs(np.mean(draws.real)) < 0.02
        assert abs(np.mean(draws.imag)) < 0.02
        assert abs(np.mean(np.abs(draws) ** 2) - 1.0) < 0.02

    def test_real_part_kurtosis_gaussian(self):
        """Fourth moment check: kurtosis of the real part near 3."""
        rng = np.random.default_rng(99)
        x = sample_channel(1000, 1000, rng).h.real.ravel()
        kurt = np.mean((x - x.mean()) ** 4) / np.var(x) ** 2
        assert abs(kurt - 3.0) < 0.1

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            sample_channel(0, 2, np.random.default_rng(0))


@given(
    shape=st.sampled_from([(1, 1), (2, 2), (4, 4), (8, 4), (20, 20)]),
    stack=st.sampled_from([(), (1,), (3,), (2, 3)]),
    zeros=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_gains_equal_the_complex_sum(shape, stack, zeros, seed):
    """``gains`` writes both parts into one array: equal to
    ``(re + 1j·im)·√½``, and bit for bit equal wherever the normal is not
    exactly 0, whose sign the sum may drop; ``zeros`` plants ±0 normals."""
    nr, m_tx = shape
    k = nr * m_tx
    normals = np.random.default_rng(seed).standard_normal(stack + (2 * k,))
    if zeros:
        normals[..., ::3] = 0.0
        normals[..., 1::5] = -0.0
    got = gains(normals, nr, m_tx)
    want = ((normals[..., :k] + 1j * normals[..., k:]) * np.sqrt(0.5)).reshape(got.shape)
    assert got.shape == stack + (nr, m_tx) and got.dtype == np.complex128
    np.testing.assert_array_equal(got, want)
    got, want = got.reshape(stack + (k,)), want.reshape(stack + (k,))
    for part, half in ((np.real, normals[..., :k]), (np.imag, normals[..., k:])):
        bits = [np.ascontiguousarray(part(a)).view(np.uint64)[half != 0] for a in (got, want)]
        np.testing.assert_array_equal(*bits)


class TestFactorizations:
    @pytest.mark.parametrize("nr, m", [(5, 3), (3, 3), (2, 3)])
    def test_stacked_qr_equals_single_draws(self, nr, m):
        """One stacked QR gives, bit for bit, each draw's own complete QR."""
        rng = np.random.default_rng(4)
        channel = ChannelRealization(
            np.stack([sample_channel(nr, m, rng).h for _ in range(6)]).reshape(2, 3, nr, m))
        q, r = channel.qr
        assert q.shape == (2, 3, nr, nr) and r.shape == (2, 3, nr, m)
        for t in np.ndindex(2, 3):
            want_q, want_r = np.linalg.qr(channel.h[t], mode="complete")
            np.testing.assert_array_equal(q[t], want_q)
            np.testing.assert_array_equal(r[t], want_r)
        assert channel.qr is channel.qr

    @given(nr=st.integers(1, 5), m=st.integers(1, 5), n=st.integers(1, 12), data=st.data(),
           stack_first=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_slices_share_the_stacks_factorizations(self, nr, m, n, data, stack_first, seed):
        """``channel[lo:hi]`` and ``channel[rows]``, for an index array that
        may repeat and reorder draws, have, bit for bit, the pseudo-inverse,
        the usability flags and the QR of a stack of their own draws.  They
        are the stack's rows: whether the stack or a part reads them first,
        the stack's inverse is made once (one stacked ``inv``, or one per
        matrix after an exactly singular draw, here a zero one, fails the
        stacked call), and slicing or gathering after that, a slice of a
        slice included, makes no further LAPACK call.  A wide stack has
        flags, all false, and no inverse."""
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        rows = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
        zero = data.draw(st.sampled_from([None, *range(n)]))
        h = gains(np.random.default_rng(seed).standard_normal((n, 2 * nr * m)), nr, m)
        if zero is not None:
            h[zero] = 0.0
        wide = m > nr
        names = ("usable", "qr") if wide else ("usable", "qr", "pinv")
        channel = ChannelRealization(h)
        with mock.patch("csmimo.channel._pinv", wraps=channel_module._pinv) as pinv, \
                mock.patch("numpy.linalg.inv", wraps=np.linalg.inv) as inv, \
                mock.patch("numpy.linalg.qr", wraps=np.linalg.qr) as qr:
            if stack_first:
                [getattr(channel, name) for name in names]
            part = channel[lo:hi]
            got = [getattr(part, name) for name in names]
            again = channel[lo:hi][: hi - lo]
            got_again = [getattr(again, name) for name in names]
            gathered = channel[rows]
            got_gathered = [getattr(gathered, name) for name in names]
            whole = [getattr(channel, name) for name in names]
        singular = zero is not None and not wide
        assert pinv.call_count == (0 if wide else 1)
        assert inv.call_count == (0 if wide else 1 + n if singular else 1)
        # the complete QR, and the reduced one of a tall channel's inverse
        assert qr.call_count == 1 + (nr > m)
        own = ChannelRealization(h[lo:hi].copy())
        want = [getattr(own, name) for name in names]
        for w, a, b in zip(*(_arrays(v) for v in (want, got, got_again)), strict=True):
            np.testing.assert_array_equal(a, w)
            np.testing.assert_array_equal(b, w)
        np.testing.assert_array_equal(part.h, own.h)
        own_gathered = ChannelRealization(h[rows])
        want = [getattr(own_gathered, name) for name in names]
        for w, a, b in zip(*(_arrays(v) for v in (want, got_gathered, whole)), strict=True):
            np.testing.assert_array_equal(a, w)
            np.testing.assert_array_equal(a, b[rows])
        np.testing.assert_array_equal(gathered.h, h[rows])
        if wide:
            assert not channel.usable.any()
        elif singular:
            assert not channel.usable[zero] and np.isnan(channel.pinv[zero]).all()

    def test_only_a_stack_is_sliced(self):
        """Slicing or gathering by a 1-D integer array cuts trials off the
        leading axis, never rows of one matrix; any other index raises."""
        one = sample_channel(2, 2, np.random.default_rng(6))
        for rows in (slice(0, 1), np.array([0])):
            with pytest.raises(TypeError, match="leading trial axis"):
                one[rows]
        stack = ChannelRealization(np.stack([one.h, one.h]))
        for rows in (0, np.int64(1), [0, 1], (0, 1), np.array(1), np.array([[0, 1]]),
                     np.array([True, False]), np.array([0.0, 1.0]), Ellipsis, None):
            with pytest.raises(TypeError, match="leading trial axis"):
                stack[rows]

    def test_condition_number_is_exact_and_read_lazily(self):
        """``condition_number`` is ``s[0]/s[-1]`` of every matrix's thin SVD,
        computed only when first read, and only once."""
        rng = np.random.default_rng(9)
        channel = ChannelRealization(np.stack([sample_channel(4, 4, rng).h for _ in range(3)]))
        with mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd:
            channel.pinv, channel.usable, channel.qr
            assert svd.call_count == 0
            kappa = channel.condition_number
            assert channel.condition_number is kappa
            assert svd.call_count == 1
        s = np.linalg.svd(channel.h, full_matrices=False)[1]
        np.testing.assert_array_equal(kappa, s[:, 0] / s[:, -1])

    def test_equal_draws_compare_and_hash_by_identity(self):
        h = sample_channel(2, 2, np.random.default_rng(5)).h
        one, two = ChannelRealization(h), ChannelRealization(h.copy())
        assert one == one and one != two
        assert hash(one) == hash(one)
        assert {one, two, one} == {one, two}


def _arrays(values):
    """The arrays of ``values``, a factorization's tuple unpacked."""
    return [a for v in values for a in (v if isinstance(v, tuple) else (v,))]


class TestNoiseSpec:
    def test_sigma2_from_snr(self):
        spec = NoiseSpec.from_snr(10.0, rx_energy=4.0)
        assert spec.sigma2 == pytest.approx(0.4)

    def test_infinite_snr_is_noiseless(self):
        assert NoiseSpec.from_snr(float("inf"), 4.0).sigma2 == 0.0

    def test_negative_sigma2_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(0.0, -1.0)

    @pytest.mark.parametrize("sigma2", [float("inf"), float("nan")])
    def test_non_finite_sigma2_rejected(self, sigma2):
        with pytest.raises(ValueError, match="^sigma2 must be finite and >= 0"):
            NoiseSpec(0.0, sigma2)

    @pytest.mark.parametrize("snr", [-3200.0, float("nan"), 5000.0, 1e308, -1e308, float("-inf")])
    def test_snr_of_non_finite_sigma2_rejected(self, snr):
        """At -3200 dB ``2 / 10**-320`` rounds to ``inf``, which used to
        pass as a noise variance.  ``10**(snr/10)`` overflows at 5000 and
        1e308 dB, which must not become a noiseless point (``2/inf == 0``),
        and is 0 at -1e308 and -inf dB.  All lie outside the dB range."""
        with pytest.raises(SpecError, match=r"^snr_db must be in -1000\.\.1000 dB, or inf$"):
            NoiseSpec.from_snr(snr, 2.0)

    @given(snr=st.floats(allow_nan=True, allow_infinity=True))
    @settings(max_examples=300, deadline=None)
    def test_from_snr_gives_a_finite_sigma2_or_a_value_error(self, snr):
        """No SNR point gives an arithmetic error, or a sigma2 that is not a
        finite float ``>= 0``; only ``inf`` dB gives sigma2 = 0."""
        try:
            sigma2 = NoiseSpec.from_snr(snr, 4.0).sigma2
        except ValueError:
            return
        assert 0.0 <= sigma2 < np.inf
        assert (sigma2 == 0.0) == (snr == np.inf)


class TestApplyChannel:
    def test_noiseless_identity_channel(self):
        h = ChannelRealization(np.eye(3, dtype=complex))
        z = np.array([1 + 2j, -0.5j, 0.25])
        out = apply_channel(h, z, NoiseSpec(float("inf"), 0.0), np.random.default_rng(0))
        np.testing.assert_array_equal(out, z)

    def test_pure_noise_variance(self):
        """With z = 0 the output is noise; its energy matches sigma2."""
        h = ChannelRealization(np.eye(4, dtype=complex))
        sigma2 = 0.37
        rng = np.random.default_rng(11)
        samples = np.concatenate(
            [
                apply_channel(h, np.zeros(4), NoiseSpec(0.0, sigma2), rng)
                for _ in range(25_000)
            ]
        )
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(sigma2, rel=0.02)

    def test_noise_energy_scales_with_antennas(self):
        """E||v||^2 = nr * sigma2."""
        nr, sigma2 = 6, 1.7
        h = ChannelRealization(np.zeros((nr, 2), dtype=complex))
        rng = np.random.default_rng(3)
        total = np.mean(
            [
                np.sum(np.abs(apply_channel(h, np.zeros(2), NoiseSpec(0.0, sigma2), rng)) ** 2)
                for _ in range(40_000)
            ]
        )
        assert total == pytest.approx(nr * sigma2, rel=0.02)

    def test_reproducible_with_seed(self):
        h = sample_channel(2, 2, np.random.default_rng(1))
        z = np.array([1.0, 1j])
        noise = NoiseSpec(5.0, 0.5)
        a = apply_channel(h, z, noise, np.random.default_rng(77))
        b = apply_channel(h, z, noise, np.random.default_rng(77))
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        """A wrong transmit length, or a stack of channels, which a sweep
        sends through ``noisy`` instead."""
        h = sample_channel(2, 3, np.random.default_rng(0))
        with pytest.raises(DimensionMismatch):
            apply_channel(h, np.zeros(2), NoiseSpec(0.0, 0.0), np.random.default_rng(0))
        stack = ChannelRealization(np.zeros((3, 2, 2), dtype=complex))
        with pytest.raises(DimensionMismatch, match="one channel"):
            apply_channel(stack, np.zeros((3, 2)), NoiseSpec(0.0, 0.0), np.random.default_rng(0))

