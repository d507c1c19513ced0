"""Classical reference estimators: kernel smoother, neighbors, ridge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_series import (
    InputError,
    KernelSpec,
    KNNModel,
    NumericalError,
    NWModel,
    gen_spiral,
    knn_predict,
    krr_fit,
    krr_penalty_grid,
    krr_predict,
    nw_predict,
)


class TestNadarayaWatson:
    def test_single_training_point(self):
        X, y = np.array([[1.0, 2.0]]), np.array([7.0])
        queries = np.random.default_rng(0).normal(size=(5, 2))
        assert np.allclose(nw_predict(X, y, 1.0, queries), 7.0, atol=1e-12)

    def test_huge_bandwidth_gives_global_mean(self):
        rng = np.random.default_rng(1)
        X, y = rng.normal(size=(20, 2)), rng.normal(size=20)
        preds = nw_predict(X, y, 1e12, rng.normal(size=(4, 2)))
        assert np.allclose(preds, y.mean(), atol=1e-6)

    def test_tiny_bandwidth_at_training_point(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, 6.0, 7.0])
        preds = nw_predict(X, y, 1e-12, np.array([[1.0]]))
        assert np.isclose(preds[0], 6.0, atol=1e-12)

    def test_two_point_closed_form(self):
        # query at the first point: weights (1, e^-1), prediction is the
        # kernel-weighted average
        X = np.array([[0.0], [2.0]])
        y = np.array([0.0, 1.0])
        pred = nw_predict(X, y, 1.0, np.array([[0.0]]))[0]
        w = np.exp(-1.0)
        assert np.isclose(pred, w / (1.0 + w), atol=1e-12)

    def test_far_query_falls_back_to_nearest_label(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([5.0, 9.0])
        pred = nw_predict(X, y, 1e-12, np.array([[100.0]]))
        assert pred[0] == 9.0

    @given(st.integers(0, 2 ** 31 - 1), st.floats(1e-3, 1e3))
    @settings(max_examples=25, deadline=None)
    def test_prediction_stays_in_label_range(self, seed, bw):
        rng = np.random.default_rng(seed)
        X, y = rng.normal(size=(15, 2)), rng.normal(size=15)
        preds = nw_predict(X, y, bw, rng.normal(size=(6, 2)))
        assert np.all(preds >= y.min() - 1e-9)
        assert np.all(preds <= y.max() + 1e-9)


class TestKnn:
    def test_own_label_at_k1(self):
        X = np.array([[0.0], [1.0], [5.0]])
        y = np.array([3.0, 4.0, 9.0])
        assert knn_predict(X, y, 1, np.array([[1.0]]))[0] == 4.0

    def test_k_equals_n_is_global_mean(self):
        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(12, 2)), rng.normal(size=12)
        preds = knn_predict(X, y, 12, rng.normal(size=(3, 2)))
        assert np.allclose(preds, y.mean(), atol=1e-12)

    def test_collinear_pair_average(self):
        # query 0.9: nearest two of (0, 1, 2) are x=1 and x=0
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.0, 1.0, 2.0])
        assert knn_predict(X, y, 2, np.array([[0.9]]))[0] == 0.5

    def test_distance_tie_prefers_lowest_index(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([10.0, 20.0])
        assert knn_predict(X, y, 1, np.array([[0.0]]))[0] == 10.0

    def test_k_validated(self):
        X, y = np.ones((3, 1)), np.ones(3)
        with pytest.raises(InputError):
            knn_predict(X, y, 0, X)
        with pytest.raises(InputError):
            knn_predict(X, y, 4, X)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_prediction_stays_in_label_range(self, seed, k):
        rng = np.random.default_rng(seed)
        X, y = rng.normal(size=(10, 2)), rng.normal(size=10)
        preds = knn_predict(X, y, k, rng.normal(size=(4, 2)))
        assert np.all((preds >= y.min() - 1e-12) & (preds <= y.max() + 1e-12))


class TestKrr:
    def test_scalar_solve(self):
        # n=1, K=(1), penalty 1: (1 + 1) alpha = y
        model = krr_fit(np.array([[0.0]]), np.array([3.0]),
                        KernelSpec.gaussian(1.0), 1.0)
        assert np.isclose(model.dual_coefficients[0], 1.5, atol=1e-14)

    def test_huge_penalty_shrinks_to_zero(self):
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(15, 2)), rng.normal(size=15)
        model = krr_fit(X, y, KernelSpec.gaussian(1.0), 1e12)
        assert np.max(np.abs(model.dual_coefficients)) <= 1e-10
        assert np.max(np.abs(krr_predict(model, X))) <= 1e-8

    def test_tiny_penalty_interpolates(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(20, 2)) * 3.0  # spread keeps K well-conditioned
        y = rng.normal(size=20)
        model = krr_fit(X, y, KernelSpec.gaussian(0.3), 1e-10)
        assert np.max(np.abs(krr_predict(model, X) - y)) <= 1e-4

    def test_prediction_linear_in_dual_coefficients(self):
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(10, 2)), rng.normal(size=10)
        model = krr_fit(X, y, KernelSpec.gaussian(1.0), 0.5)
        doubled = type(model)(model.kernel, model.training_points,
                              model.dual_coefficients * 2.0, model.penalty)
        q = rng.normal(size=(4, 2))
        assert np.allclose(krr_predict(doubled, q), 2.0 * krr_predict(model, q),
                           atol=1e-12)

    def test_ill_conditioned_system_rejected(self):
        # huge bandwidth makes K a matrix of ones; with a tiny penalty the
        # condition bound blows past the limit
        X = np.random.default_rng(6).normal(size=(50, 2))
        with pytest.raises(NumericalError, match="condition"):
            krr_fit(X, np.ones(50), KernelSpec.gaussian(1e12), 1e-15)

    def test_penalty_must_be_positive(self):
        with pytest.raises(InputError):
            krr_fit(np.ones((2, 1)), np.ones(2), KernelSpec.gaussian(1.0), 0.0)

    def test_penalty_grid_scales_with_response_variance(self):
        y = np.random.default_rng(7).normal(size=30)
        grid = krr_penalty_grid(y)
        assert grid.shape == (10,)
        assert np.all(np.diff(grid) > 0.0)
        assert np.allclose(grid, np.geomspace(1e-8, 1e2, 10) * np.var(y, ddof=1),
                           rtol=1e-12)

    def test_penalty_grid_constant_response(self):
        grid = krr_penalty_grid(np.full(5, 2.0))
        assert np.all(grid > 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("estimator", ["nw", "knn", "krr"])
def test_non_finite_query_rejected(estimator, bad):
    # NaN distances used to sort first (kNN) or hit the underflow fallback (NW)
    data = gen_spiral(200, seed=0)
    X, y = data.features, data.responses
    predictors = {
        "nw": lambda Q: nw_predict(X, y, 1.0, Q),
        "knn": lambda Q: knn_predict(X, y, 5, Q),
        "krr": lambda Q: krr_fit(X, y, KernelSpec.gaussian(1.0), 1e-3).predict(Q),
    }
    queries = np.vstack([X[:2], [[0.5, bad]], [[500.0, 500.0]]])
    with pytest.raises(InputError, match="row 2 contains NaN or Inf"):
        predictors[estimator](queries)
