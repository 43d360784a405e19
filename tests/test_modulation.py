"""Tests for square Gray-coded QAM."""

import itertools

import numpy as np
import pytest

from immimo.modulation import QamConstellation


def hamming(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


class TestConstruction:
    @pytest.mark.parametrize("m", [2, 3, 8, 32, 0, 5])
    def test_non_square_orders_rejected(self, m):
        with pytest.raises(ValueError):
            QamConstellation(m)

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_unit_average_energy(self, m):
        c = QamConstellation(m)
        assert c.points.shape == (m,)
        assert abs(np.mean(np.abs(c.points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_points_distinct(self, m):
        c = QamConstellation(m)
        assert len(set(np.round(c.points, 12))) == m


class Test4QamExactPoints:
    def test_known_map(self):
        # label bits (b0 b1) msb-first: b0 -> I axis, b1 -> Q axis,
        # 0 on an axis is the positive level. 00 -> (1+1j)/sqrt(2).
        c = QamConstellation(4)
        s = np.sqrt(2.0)
        expect = {
            (0, 0): (1 + 1j) / s,
            (0, 1): (1 - 1j) / s,
            (1, 0): (-1 + 1j) / s,
            (1, 1): (-1 - 1j) / s,
        }
        for bits, point in expect.items():
            got = c.modulate(np.array(bits))
            assert np.allclose(got, [point]), f"bits {bits}"

    def test_16qam_corner(self):
        # label 0000 -> most positive corner (3+3j)/sqrt(10)
        c = QamConstellation(16)
        got = c.modulate(np.zeros(4, dtype=int))
        assert np.allclose(got, [(3 + 3j) / np.sqrt(10.0)])


class TestGrayProperty:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_nearest_neighbours_differ_in_one_bit(self, m):
        c = QamConstellation(m)
        pts = c.points
        # minimum distance on the square grid
        dmin = min(
            abs(pts[i] - pts[j])
            for i, j in itertools.combinations(range(m), 2)
        )
        for i, j in itertools.combinations(range(m), 2):
            if abs(pts[i] - pts[j]) < dmin * 1.001:
                assert hamming(i, j) == 1, f"labels {i:b} {j:b} not Gray-adjacent"


class TestRoundTrip:
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_all_labels_round_trip(self, m):
        c = QamConstellation(m)
        d = c.bits_per_symbol
        bits = np.array(
            [[int(b) for b in format(lab, f"0{d}b")] for lab in range(m)]
        ).reshape(-1)
        assert np.array_equal(c.demodulate(c.modulate(bits)), bits)

    def test_round_trip_with_small_noise(self, np_rng):
        c = QamConstellation(16)
        bits = np_rng.integers(0, 2, size=4000)
        sym = c.modulate(bits)
        noisy = sym + 0.01 * (np_rng.normal(size=1000) + 1j * np_rng.normal(size=1000))
        assert np.array_equal(c.demodulate(noisy), bits)

    def test_batched_shapes(self, np_rng):
        c = QamConstellation(4)
        bits = np_rng.integers(0, 2, size=(5, 3, 8))
        sym = c.modulate(bits)
        assert sym.shape == (5, 3, 4)
        assert np.array_equal(c.demodulate(sym), bits)

    def test_bit_count_validated(self):
        c = QamConstellation(16)
        with pytest.raises(ValueError):
            c.modulate(np.zeros(3, dtype=int))
