"""Tests for constellation mapping and hard-decision demapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csmimo import modem
from csmimo.errors import IndivisibleBitLength, SpecError
from csmimo.modem import (
    Constellation,
    get_constellation,
    nearest_point_indices,
    symbol_indices,
)

SQRT2 = np.sqrt(2.0)


class TestQpskMapping:
    def test_fixed_labeling(self, qpsk):
        """The four Gray-labeled points, in index order."""
        expected = np.array([1 + 1j, 1 - 1j, -1 - 1j, -1 + 1j]) / SQRT2
        np.testing.assert_allclose(qpsk.points, expected, atol=1e-15)
        np.testing.assert_array_equal(
            qpsk.labels, [[0, 0], [0, 1], [1, 1], [1, 0]]
        )

    def test_modulate_single_symbol(self, qpsk):
        np.testing.assert_allclose(
            qpsk.points[symbol_indices([0, 0], qpsk)], [(1 + 1j) / SQRT2], atol=1e-15
        )

    def test_modulate_all_four(self, qpsk):
        bits = [0, 0, 0, 1, 1, 1, 1, 0]
        expected = np.array([1 + 1j, 1 - 1j, -1 - 1j, -1 + 1j]) / SQRT2
        np.testing.assert_allclose(
            qpsk.points[symbol_indices(bits, qpsk)], expected, atol=1e-15
        )

    def test_indivisible_length_rejected(self, qpsk):
        with pytest.raises(IndivisibleBitLength):
            qpsk.points[symbol_indices([0, 1, 0], qpsk)]

    def test_demodulate_noisy_symbol(self, qpsk):
        idx = nearest_point_indices(np.array([(0.9 + 1.1j) / SQRT2]), qpsk)
        bits = qpsk.labels[idx].ravel()
        np.testing.assert_array_equal(bits, [0, 0])

    def test_demodulate_origin_tie_breaks_low(self, qpsk):
        """The origin is equidistant from all points; index 0 wins."""
        idx = nearest_point_indices(np.array([0j]), qpsk)
        np.testing.assert_array_equal(qpsk.labels[idx].ravel(), [0, 0])

    def test_unit_energy(self, qpsk):
        assert abs(np.mean(np.abs(qpsk.points) ** 2) - 1.0) < 1e-12


class TestQam16:
    def test_unit_energy(self, qam16):
        assert abs(np.mean(np.abs(qam16.points) ** 2) - 1.0) < 1e-12

    def test_order_and_bits(self, qam16):
        assert qam16.order == 16
        assert qam16.bits_per_symbol == 4

    def test_gray_neighbours_differ_in_one_bit(self, qam16):
        """Nearest geometric neighbours of every point differ by one bit."""
        pts = qam16.points
        for i in range(16):
            d = np.abs(pts - pts[i])
            d[i] = np.inf
            for j in np.flatnonzero(np.isclose(d, d.min())):
                assert np.sum(qam16.labels[i] != qam16.labels[j]) == 1

    def test_roundtrip(self, qam16):
        rng = np.random.default_rng(7)
        bits = rng.integers(0, 2, size=4 * 200, dtype=np.uint8)
        rx = qam16.labels[nearest_point_indices(qam16.points[symbol_indices(bits, qam16)], qam16)]
        np.testing.assert_array_equal(rx.ravel(), bits)


class TestIqLevels:
    def test_qpsk_levels(self, qpsk):
        np.testing.assert_array_equal(qpsk.iq_levels, np.array([-1.0, 1.0]) / SQRT2)

    def test_qam16_levels(self, qam16):
        np.testing.assert_array_equal(qam16.iq_levels, np.array([-3.0, -1.0, 1.0, 3.0]) / np.sqrt(10.0))

    @pytest.mark.parametrize("name", sorted(modem._REGISTRY))
    def test_points_are_the_product_set(self, name):
        """Every registry alphabet has I/Q levels: a ``Codebook`` takes its
        alphabet from the registry, and its ``ml`` scan reads them."""
        c = get_constellation(name)
        assert c.iq_levels is not None
        grid = c.iq_levels[:, None] + 1j * c.iq_levels[None, :]
        assert sorted(c.points.tolist(), key=lambda p: (p.real, p.imag)) == sorted(
            grid.ravel().tolist(), key=lambda p: (p.real, p.imag)
        )
        assert not c.iq_levels.flags.writeable

    @pytest.mark.parametrize("name", sorted(modem._REGISTRY))
    def test_points_are_closed_under_negation(self, name):
        """``-x`` is a point for every point ``x``: then ``ψ`` and ``-ψ`` are
        both dictionary columns, which is why ``csmimo analyze`` reports
        ``delta_2(phi*psi)`` as exactly 1 without enumerating supports."""
        c = get_constellation(name)
        assert set((-c.points).tolist()) == set(c.points.tolist())

    @pytest.mark.parametrize(
        "points",
        [
            np.exp(2j * np.pi * np.arange(8) / 8),  # 8-PSK
            np.array([1.0 + 0j, -1.0]),  # BPSK: no imaginary levels
            # a 4 x 2 grid: the two axes take different levels
            (np.array([-3.0, -1.0, 1.0, 3.0])[:, None] + 1j * np.array([-1.0, 1.0])).ravel()
            / np.sqrt(6.0),
        ],
    )
    def test_non_product_alphabet_has_none(self, points):
        b = int(np.log2(points.size))
        labels = (np.arange(points.size)[:, None] >> np.arange(b - 1, -1, -1)) & 1
        assert Constellation("other", points, labels).iq_levels is None


@pytest.mark.parametrize("name", ["qpsk", "qam16"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(name, data):
    """Mapping bits to points and demapping the nearest points gives the
    bits back, for any valid-length bit sequence."""
    c = get_constellation(name)
    n_sym = data.draw(st.integers(min_value=1, max_value=64))
    bits = np.array(
        data.draw(
            st.lists(
                st.integers(0, 1),
                min_size=n_sym * c.bits_per_symbol,
                max_size=n_sym * c.bits_per_symbol,
            )
        ),
        dtype=np.uint8,
    )
    rx = c.labels[nearest_point_indices(c.points[symbol_indices(bits, c)], c)]
    np.testing.assert_array_equal(rx.ravel(), bits)


@pytest.mark.parametrize("name", ["qpsk", "qam16"])
@given(
    shape=st.sampled_from([(), (1,), (7,), (3, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_label_distances_count_the_differing_bits(name, shape, seed):
    """The read-only distance table at the sent and decided point indices
    sums to the bits in which their labels differ."""
    c = get_constellation(name)
    tx, rx = np.random.default_rng(seed).integers(0, c.order, (2,) + shape + (4,))
    distances = c.label_distances
    assert not distances.flags.writeable and distances.dtype == np.int64
    np.testing.assert_array_equal(distances[tx, rx].sum(axis=-1),
                                  (c.labels[tx] != c.labels[rx]).sum(axis=(-1, -2)))


@pytest.mark.parametrize("name", ["qpsk", "qam16"])
def test_empirical_energy(name):
    """Mean symbol energy of random payloads approaches one."""
    c = get_constellation(name)
    rng = np.random.default_rng(123)
    bits = rng.integers(0, 2, size=c.bits_per_symbol * 120_000, dtype=np.uint8)
    energy = np.mean(np.abs(c.points[symbol_indices(bits, c)]) ** 2)
    assert abs(energy - 1.0) < 0.01


def test_symbol_roundtrip_through_points(qpsk):
    """Exact constellation points demap to themselves."""
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 4, size=500)
    symbols = qpsk.points[idx]
    np.testing.assert_array_equal(nearest_point_indices(symbols, qpsk), idx)


def test_unknown_constellation_rejected():
    """Names match exactly: ``QPSK`` is not ``qpsk``."""
    for name in ("qam1024", "QPSK", " qpsk"):
        with pytest.raises(SpecError, match=r"^constellation must be one of \('qpsk', 'qam16'\)$"):
            get_constellation(name)


def test_bad_labeling_rejected():
    points = np.array([1 + 0j, -1 + 0j])
    with pytest.raises(ValueError, match="bijection"):
        Constellation("bad", points, np.array([[0], [0]], dtype=np.uint8))


@pytest.mark.parametrize("labels", [
    [[0, 0], [0, 1], [0, 2], [0, 3]],  # the uint8 cast kept 2 and 3 as bits
    [[0, 0], [0, 1], [1, 1], [1, 0.5]],  # truncated to 0
    [[0, 0], [0, 1], [1, 1], [1, -1]],  # OverflowError from the cast
    [[0, 0], [0, 1], [1, 1], [1, 256]],
    [[1], [2]],  # an IndexError past the label table of an order-2 alphabet
])
def test_labels_that_are_not_bits_rejected(labels):
    points = get_constellation("qpsk").points if len(labels) == 4 else np.array([1 + 0j, -1 + 0j])
    with pytest.raises(ValueError, match="^constellation labels must be bits, each 0 or 1$"):
        Constellation("bad", points, labels)


def test_non_unit_energy_rejected():
    points = np.array([2 + 0j, -2 + 0j])
    with pytest.raises(ValueError, match="energy"):
        Constellation("bad", points, np.array([[0], [1]], dtype=np.uint8))
