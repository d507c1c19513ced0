"""Classical reference estimators: kernel smoother, neighbors, ridge."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.spatial.distance import cdist

from spectral_series import (
    Dataset,
    InputError,
    KernelSpec,
    KNNModel,
    NumericalError,
    NWModel,
    gen_spiral,
    gram_matrix,
    knn_predict,
    krr_fit,
    krr_penalty_grid,
    krr_predict,
    nw_predict,
    tune_baseline,
)
from spectral_series import baselines, kernels
from spectral_series.kernels import READ_BLOCK_BYTES, row_blocks


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

    def test_polynomial_kernel_matches_dense_solve(self):
        # a polynomial Gram's condition bound takes a pass of its own over |K|
        # instead of the build's row sums; fit and sweep both go that way
        data = gen_spiral(200, noise_sd=0.1, seed=14)
        train = Dataset(data.features[:120], data.responses[:120])
        val = Dataset(data.features[120:], data.responses[120:])
        spec, n, penalties = KernelSpec.polynomial(2), 120, [1e-3, 1e-2, 1e-1]
        K = gram_matrix(spec, train.features)
        Kv = gram_matrix(spec, val.features, train.features)
        dense = {p: np.linalg.solve(K + n * p * np.eye(n), train.responses) for p in penalties}
        model, report = tune_baseline(train, val, penalties, "krr", spec)
        for p in penalties:
            alpha = krr_fit(train.features, train.responses, spec, p).dual_coefficients
            assert np.max(np.abs(alpha - dense[p])) <= 1e-8 * np.max(np.abs(dense[p]))
            loss = np.mean((val.responses - Kv @ dense[p]) ** 2)
            assert np.isclose(report.loss_surface[("krr", p, -1)], loss, rtol=1e-8, atol=0.0)
        assert np.max(np.abs(model.dual_coefficients - dense[model.penalty])) <= (
            1e-8 * np.max(np.abs(dense[model.penalty])))

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


def max_abs_row_sum(K):
    """The Gershgorin radius of the ridge solve's condition bound."""
    return float(np.abs(K).sum(axis=1).max())


def ridge_solve(K, y, penalty):
    """(K + n*penalty*I)^-1 y by the ridge route of krr_fit and tune_baseline, in a copy of K."""
    K = np.array(K, dtype=float, order="C")
    return baselines._ridge_solver(K, y, max_abs_row_sum(K))(penalty)


class TestKrrSolve:
    """The ridge solve behind krr_fit and tune_baseline, on a given K."""

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.05), KernelSpec.polynomial(2)],
                             ids=["gaussian", "poly"])
    def test_backward_stable_and_close_to_dense_solve(self, spec):
        # the tridiagonal route is backward stable, so it agrees with a
        # Cholesky solve up to the condition bound times rounding
        data = gen_spiral(300, noise_sd=0.1, seed=11)
        X, y = data.features, data.responses
        K = gram_matrix(spec, X)
        n, eps = K.shape[0], np.finfo(float).eps
        row_bound = max_abs_row_sum(K)
        solved = 0
        for penalty in krr_penalty_grid(y, 11):
            try:
                alpha = ridge_solve(K, y, penalty)
            except NumericalError as exc:
                assert "condition" in str(exc)
                continue
            A = K + n * penalty * np.eye(n)
            backward = np.linalg.norm(A @ alpha - y) / (
                np.linalg.norm(A, 2) * np.linalg.norm(alpha) + np.linalg.norm(y))
            assert backward <= 10 * n * eps
            ref = scipy.linalg.solve(A, y, assume_a="pos")
            cond_bound = (row_bound + n * penalty) / (n * penalty)
            assert np.linalg.norm(alpha - ref) <= cond_bound * n * eps * np.linalg.norm(ref)
            solved += 1
        assert solved >= 5

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_systems(self, n):
        # n = 1 has no off-diagonal for dptsv and no reflector to apply;
        # n = 2 is tridiagonal already (one reflector, tau = 0)
        X = np.array([[0.0], [0.7]])[:n]
        y = np.array([3.0, -1.0])[:n]
        K = gram_matrix(KernelSpec.gaussian(0.5), X)
        alpha = ridge_solve(K, y, 0.25)
        assert np.allclose(alpha, np.linalg.solve(K + 0.25 * n * np.eye(n), y),
                           rtol=1e-14, atol=0.0)
        model = krr_fit(X, y, KernelSpec.gaussian(0.5), 0.25)
        assert np.array_equal(model.dual_coefficients, alpha)

    def test_penalty_sweep_reduces_k_once(self, monkeypatch):
        # one tridiagonal reduction serves all 10 penalties; no Cholesky factorization
        calls = {"dsytrd": 0, "dposv": 0}
        for name in calls:
            real = getattr(scipy.linalg.lapack, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg.lapack, name, counted)
        data = gen_spiral(300, noise_sd=0.1, seed=13)
        train = Dataset(data.features[:200], data.responses[:200])
        val = Dataset(data.features[200:], data.responses[200:])
        penalties = krr_penalty_grid(train.responses)
        _, report = tune_baseline(train, val, penalties, "krr", KernelSpec.gaussian(0.1))
        assert len(report.loss_surface) == 10
        assert calls == {"dsytrd": 1, "dposv": 0}

    def test_inputs_left_unchanged(self):
        # the solve consumes the K that the fit builds; the caller's points
        # and responses stay as they were
        data = gen_spiral(200, noise_sd=0.1, seed=12)
        X, y = data.features, data.responses
        X0, y0 = X.copy(), y.copy()
        krr_fit(X, y, KernelSpec.gaussian(0.1), 1e-3)
        assert np.array_equal(X, X0) and np.array_equal(y, y0)

    @pytest.mark.parametrize("case", ["not_positive_definite", "nan_in_y", "nan_in_K"])
    def test_failed_solve_is_numerical_error(self, case):
        n = 30
        K, y = np.eye(n), np.ones(n)
        if case == "not_positive_definite":
            K = -K  # the Gershgorin bound passes; the factorization fails
        elif case == "nan_in_y":
            y[4] = np.nan
        else:
            K[3, 5] = K[5, 3] = np.nan
        with pytest.raises(NumericalError, match="ridge solve failed"):
            ridge_solve(K, y, 1e-3)


def spiral_predictors(n=200):
    """The three baseline predictors on an n-point spiral, keyed by name."""
    data = gen_spiral(n, seed=0)
    X, y = data.features, data.responses
    return X, {
        "nw": lambda Q: nw_predict(X, y, 1.0, Q),
        "knn": lambda Q: knn_predict(X, y, 5, Q),
        "krr": lambda Q: krr_fit(X, y, KernelSpec.gaussian(1.0), 1e-3).predict(Q),
    }


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("estimator", ["nw", "knn", "krr"])
def test_non_finite_query_rejected(estimator, bad):
    # NaN distances used to sort first (kNN) or hit the underflow fallback (NW)
    X, predictors = spiral_predictors()
    queries = np.vstack([X[:2], [[0.5, bad]], [[500.0, 500.0]]])
    with pytest.raises(InputError, match="row 2 contains NaN or Inf"):
        predictors[estimator](queries)


@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("estimator", ["nw", "knn", "krr"])
def test_query_dimension_mismatch_rejected(estimator, columns):
    # kNN used to let scipy's cdist raise ValueError
    _, predictors = spiral_predictors(50)
    with pytest.raises(InputError,
                       match=f"query dimension {columns} does not match training dimension 2"):
        predictors[estimator](np.zeros((4, columns)))


def whole_array_predictors(X, y, bw, k, krr):
    """Each predictor as one query-by-training matrix over all query rows."""

    def nw(Q):
        K = gram_matrix(KernelSpec.gaussian(bw), Q, X)
        P = K @ np.column_stack([y, np.ones_like(y)])
        with np.errstate(divide="ignore", invalid="ignore"):
            out = P[:, 0] / P[:, 1]
        idx = np.nonzero(P[:, 1] <= 0.0)[0]
        out[idx] = y[np.argmin(cdist(Q[idx], X, "sqeuclidean"), axis=1)]
        return out

    def knn(Q):
        order = np.argsort(cdist(Q, X, "sqeuclidean"), axis=1, kind="stable")[:, :k]
        return y[order].mean(axis=1)

    return {"nw": nw, "knn": knn,
            "krr": lambda Q: gram_matrix(krr.kernel, Q, X) @ krr.dual_coefficients}


@pytest.mark.parametrize("estimator", ["nw", "knn", "krr"])
def test_blocked_prediction_bit_identical_to_whole_array(estimator):
    data = gen_spiral(800, noise_sd=0.1, seed=6)
    X, y = data.features, data.responses
    krr = krr_fit(X, y, KernelSpec.gaussian(0.05), 1e-3)
    blocked = {"nw": lambda Q: nw_predict(X, y, 0.05, Q),
               "knn": lambda Q: knn_predict(X, y, 7, Q),
               "krr": krr.predict}[estimator]
    whole = whole_array_predictors(X, y, 0.05, 7, krr)[estimator]
    # 3.5 blocks, with far (underflowing) rows in the middle of the second.
    # The query count is a multiple of 64: OpenBLAS rounds a matrix-vector
    # product's rows by where they fall in its per-thread shares, so only then
    # is the whole-array reference itself free of ragged shares
    step = next(row_blocks(10 ** 9, X.shape[0], READ_BLOCK_BYTES)).stop
    Q = gen_spiral(3 * step + step // 2, noise_sd=0.1, seed=7).features
    assert Q.shape[0] % 64 == 0
    Q[step + step // 2:step + step // 2 + 3] += 500.0
    assert np.array_equal(blocked(Q), whole(Q))


@pytest.mark.parametrize("workers", [1, 2])
def test_polynomial_gram_and_fit_make_no_square_temporary(workers, monkeypatch):
    # a polynomial Gram's finiteness check (gram_matrix) and krr_fit's row
    # bound walk K one row block per worker; K itself lies in a memory map
    # tracemalloc does not see. A whole-matrix isfinite (2.1 MiB of bools
    # here) or np.abs(K) (17 MiB) breaks the bound
    n = 1500
    data = gen_spiral(n, noise_sd=0.1, seed=6)
    spec = KernelSpec.polynomial(2)
    monkeypatch.setattr(kernels, "READ_WORKERS", workers)
    for build in (lambda: gram_matrix(spec, data.features),
                  lambda: krr_fit(data.features, data.responses, spec, 1e-1)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workers * READ_BLOCK_BYTES + 64 * 1024


@pytest.mark.parametrize("estimator", ["nw", "knn", "krr"])
def test_heap_peak_independent_of_query_count(estimator, monkeypatch):
    data = gen_spiral(800, noise_sd=0.1, seed=6)
    X, y = data.features, data.responses
    krr = krr_fit(X, y, KernelSpec.gaussian(0.05), 1e-3)
    predictor = {"nw": lambda Q: nw_predict(X, y, 0.05, Q),
                 "knn": lambda Q: knn_predict(X, y, 7, Q),
                 "krr": krr.predict}[estimator]
    queries = gen_spiral(20_000, noise_sd=0.1, seed=8).features
    peaks = {}
    for workers, m in ((1, 2_000), (1, 20_000), (2, 20_000)):
        monkeypatch.setattr(kernels, "READ_WORKERS", workers)
        tracemalloc.start()
        try:
            predictor(queries[:m])
            peaks[workers, m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # allowed: the output's own growth (8 bytes per extra row) and 64 KiB of
    # small objects; one block of the query-by-training matrix is 1 MiB
    assert peaks[1, 20_000] <= peaks[1, 2_000] + 18_000 * 8 + 64 * 1024
    # knn holds a block's distances and its argsort at once
    working = peaks[1, 20_000] - 20_000 * 8
    assert working <= 3 * READ_BLOCK_BYTES
    # on the pool each worker holds one block's heap at most
    assert peaks[2, 20_000] <= 20_000 * 8 + 2 * working + 64 * 1024
