"""Out-of-sample extension and the eigenmap transform."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_series import (
    EIGENVALUE_FLOOR_REL,
    InputError,
    KernelSpec,
    Mode,
    NumericalError,
    eigenmap,
    extend,
    fit,
    fit_basis,
    gen_spiral,
    predict,
)


def spiral_basis(mode=Mode.STOCHASTIC, n=50, j_max=8, bw=1.0, seed=0):
    X = gen_spiral(n, noise_sd=0.05, seed=seed).features
    return X, fit_basis(X, KernelSpec.gaussian(bw), j_max, mode)


class TestExtend:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_training_points_reproduced(self, mode):
        X, basis = spiral_basis(mode)
        out = extend(basis, X, basis.n_components - 1)
        assert np.max(np.abs(out - basis.eigenvectors)) <= 1e-10

    def test_constant_column_extends_to_constant(self):
        X, basis = spiral_basis()
        queries = np.random.default_rng(1).normal(size=(20, 2)) * 3.0
        out = extend(basis, queries, 3)
        assert np.allclose(out[:, 0], basis.eigenvectors[0, 0], atol=1e-8)

    def test_midpoint_of_symmetric_pair(self):
        # two points, query at the midpoint: equal weights, so the extension
        # is the plain eigenvector average scaled by 1/lambda
        X = np.array([[0.0], [2.0]])
        basis = fit_basis(X, KernelSpec.gaussian(1.0), 1, Mode.STOCHASTIC)
        out = extend(basis, np.array([[1.0]]), 1)
        expected = basis.eigenvectors.mean(axis=0) / basis.eigenvalues
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_j_out_of_range(self):
        X, basis = spiral_basis()
        with pytest.raises(InputError):
            extend(basis, X, basis.n_components)
        with pytest.raises(InputError):
            extend(basis, X, -1)

    def test_dimension_mismatch(self):
        X, basis = spiral_basis()
        with pytest.raises(InputError):
            extend(basis, np.ones((3, 5)), 2)

    def test_floor_rejection_names_index(self):
        # polynomial of degree 1 in 2-D has Gram rank 3: eigenvalue 4 is dead
        X = gen_spiral(30, noise_sd=0.05, seed=2).features
        basis = fit_basis(X, KernelSpec.polynomial(1), 6, Mode.UNIFORM)
        floor = EIGENVALUE_FLOOR_REL * basis.eigenvalues[0]
        assert basis.eigenvalues[3] <= floor  # precondition for the message
        with pytest.raises(NumericalError, match="index 3"):
            extend(basis, X, 6)

    def test_far_query_falls_back_to_nearest_row(self, caplog):
        X, basis = spiral_basis(bw=0.01)
        far = np.array([[500.0, 500.0]])  # every kernel value underflows
        with caplog.at_level(logging.WARNING, logger="spectral_series.nystrom"):
            out = extend(basis, far, 4)
        assert any("underflow" in rec.message for rec in caplog.records)
        nearest = np.argmin(((X - far) ** 2).sum(axis=1))
        assert np.array_equal(out[0], basis.eigenvectors[nearest, :5])

    def test_mix_of_live_and_dead_queries(self):
        X, basis = spiral_basis(bw=0.01)
        queries = np.vstack([X[3], [500.0, 500.0]])
        out = extend(basis, queries, 2)
        assert np.allclose(out[0], basis.eigenvectors[3, :3], atol=1e-8)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        X, basis = spiral_basis()
        queries = np.vstack([X[:2], [[0.5, bad]], [[500.0, 500.0]]])
        with pytest.raises(InputError, match="row 2"):
            extend(basis, queries, 3)
        with pytest.raises(InputError, match="row 2"):
            eigenmap(basis, queries, 3)

    def test_non_finite_query_rejected_by_predict(self):
        data = gen_spiral(50, noise_sd=0.05, seed=0)
        model = fit(data.features, data.responses, KernelSpec.gaussian(1.0), 8)
        with pytest.raises(InputError, match="row 0"):
            predict(model, np.array([[np.nan, 0.0], [np.inf, 1.0]]))

    @given(st.integers(0, 2 ** 31 - 1),
           st.sampled_from([Mode.STOCHASTIC, Mode.BIAS_CORRECTED,
                            Mode.SYMMETRIC, Mode.UNIFORM]))
    @settings(max_examples=15, deadline=None)
    def test_training_consistency_over_random_instances(self, seed, mode):
        X = np.random.default_rng(seed).normal(size=(30, 3))
        basis = fit_basis(X, KernelSpec.gaussian(1.5), 6, mode)
        out = extend(basis, X, 6)
        assert np.max(np.abs(out - basis.eigenvectors)) <= 1e-10


class TestEigenmap:
    def test_training_restriction(self):
        X, basis = spiral_basis()
        coords = eigenmap(basis, X, 2)
        assert coords.shape == (50, 2)
        assert np.allclose(coords, basis.eigenvectors[:, 1:3], atol=1e-10)

    def test_j_must_be_positive(self):
        X, basis = spiral_basis()
        with pytest.raises(InputError):
            eigenmap(basis, X, 0)

    def test_query_shape(self):
        X, basis = spiral_basis()
        queries = np.random.default_rng(3).normal(size=(7, 2))
        assert eigenmap(basis, queries, 3).shape == (7, 3)

    def test_first_coordinate_tracks_arc_parameter(self):
        # the leading nontrivial eigenfunction orders points along the spiral
        from scipy.stats import spearmanr

        data = gen_spiral(400, noise_sd=0.05, seed=0)
        basis = fit_basis(data.features, KernelSpec.gaussian(0.25), 1,
                          Mode.STOCHASTIC)
        coords = eigenmap(basis, data.features, 1)
        rho = spearmanr(coords[:, 0], data.responses).statistic
        assert abs(rho) >= 0.95
