"""Kernel evaluation, Gram construction, and the bandwidth grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from spectral_series import InputError, KernelSpec, bandwidth_grid, gram_matrix, kernel_value


class TestKernelSpec:
    def test_gaussian_requires_positive_bandwidth(self):
        with pytest.raises(InputError):
            KernelSpec.gaussian(0.0)
        with pytest.raises(InputError):
            KernelSpec.gaussian(-1.0)

    def test_poly_requires_positive_integer_degree(self):
        with pytest.raises(InputError):
            KernelSpec.polynomial(0)

    def test_labels(self):
        assert "gaussian" in KernelSpec.gaussian(2.0).label()
        assert "poly" in KernelSpec.polynomial(3).label()

    def test_with_bandwidth_only_for_gaussian(self):
        assert KernelSpec.gaussian(1.0).with_bandwidth(2.0).bandwidth == 2.0
        with pytest.raises(InputError):
            KernelSpec.polynomial(2).with_bandwidth(1.0)


class TestKernelValue:
    def test_gaussian_zero_distance(self):
        assert kernel_value(KernelSpec.gaussian(0.7), np.array([1.0, 2.0]),
                            np.array([1.0, 2.0])) == 1.0

    def test_gaussian_unit_exponent(self):
        # squared distance 4 at bandwidth 1 -> exp(-4/4) = e^-1
        v = kernel_value(KernelSpec.gaussian(1.0), np.array([0.0]), np.array([2.0]))
        assert np.isclose(v, np.exp(-1.0), atol=1e-15)

    def test_poly_inner_product_one(self):
        # (<x,y> + 1)^q with <x,y>=1, q=2 -> 4
        v = kernel_value(KernelSpec.polynomial(2), np.array([1.0, 0.0]),
                         np.array([1.0, 5.0]))
        assert v == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            kernel_value(KernelSpec.gaussian(1.0), np.array([1.0]), np.array([1.0, 2.0]))


class TestGramMatrix:
    def test_self_gram_diagonal_and_symmetry(self):
        X = np.random.default_rng(0).normal(size=(30, 4))
        K = gram_matrix(KernelSpec.gaussian(0.5), X)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)

    def test_gaussian_self_gram_matches_direct_formula_bitwise(self):
        X = np.random.default_rng(5).normal(size=(300, 3))
        bw = 0.7
        direct = np.exp(-squareform(pdist(X, "sqeuclidean")) / (4.0 * bw))
        np.fill_diagonal(direct, 1.0)
        assert np.array_equal(gram_matrix(KernelSpec.gaussian(bw), X), direct)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_poly_self_gram_exactly_symmetric(self, degree):
        X = np.random.default_rng(6).normal(size=(300, 4))
        K = gram_matrix(KernelSpec.polynomial(degree), X)
        assert np.array_equal(K, K.T)

    def test_two_point_closed_form(self):
        # distance 2 at bandwidth 1: off-diagonal is exactly e^-1
        X = np.array([[0.0], [2.0]])
        K = gram_matrix(KernelSpec.gaussian(1.0), X)
        assert np.allclose(K, [[1.0, np.exp(-1)], [np.exp(-1), 1.0]], atol=1e-15)

    def test_cross_gram_shape_and_values(self):
        rng = np.random.default_rng(1)
        A, B = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        spec = KernelSpec.gaussian(0.8)
        K = gram_matrix(spec, A, B)
        assert K.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert np.isclose(K[i, j], kernel_value(spec, A[i], B[j]), atol=1e-12)

    def test_poly_gram_matches_direct(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        K = gram_matrix(KernelSpec.polynomial(3), X)
        direct = (X @ X.T + 1.0) ** 3
        assert np.allclose(K, (direct + direct.T) / 2.0, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 20.0))
    @settings(max_examples=25, deadline=None)
    def test_gaussian_gram_is_psd(self, seed, bw):
        X = np.random.default_rng(seed).normal(size=(15, 3))
        K = gram_matrix(KernelSpec.gaussian(bw), X)
        assert np.linalg.eigvalsh(K).min() >= -1e-10

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_poly_gram_is_psd(self, seed, q):
        X = np.random.default_rng(seed).normal(size=(12, 3))
        K = gram_matrix(KernelSpec.polynomial(q), X)
        bound = 1e-10 * max(1.0, np.abs(K).max())
        assert np.linalg.eigvalsh(K).min() >= -bound


class TestBandwidthGrid:
    def test_single_value_is_quarter_median(self):
        # two points at distance 2: lone squared distance 4 -> 4/4 = 1
        X = np.array([[0.0], [2.0]])
        grid = bandwidth_grid(X, 1)
        assert grid.shape == (1,) and np.isclose(grid[0], 1.0, atol=1e-12)

    def test_sorted_positive(self):
        X = np.random.default_rng(0).normal(size=(40, 3))
        grid = bandwidth_grid(X, 7)
        assert grid.shape == (7,)
        assert np.all(grid > 0.0)
        assert np.all(np.diff(grid) > 0.0)

    def test_identical_points_rejected(self):
        with pytest.raises(InputError):
            bandwidth_grid(np.ones((5, 2)), 3)

    def test_near_degenerate_spread_collapses(self):
        # all pairwise distances equal: percentile spread is zero
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        grid = bandwidth_grid(X, 4)
        assert grid.shape[0] >= 1
        assert np.all(grid > 0.0)
