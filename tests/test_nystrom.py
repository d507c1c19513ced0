"""Out-of-sample extension and the eigenmap transform."""

import dataclasses
import logging
import tracemalloc

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
    SeriesModel,
    eigenmap,
    extend,
    fit,
    fit_basis,
    gen_circle,
    gen_spiral,
    gram_matrix,
    nw_predict,
    predict,
)
from spectral_series import kernels
from spectral_series.kernels import READ_BLOCK_BYTES, bandwidth_grid, row_blocks


def spiral_basis(mode=Mode.STOCHASTIC, n=50, j_max=8, bw=1.0, seed=0):
    X = gen_spiral(n, noise_sd=0.05, seed=seed).features
    return X, fit_basis(X, KernelSpec.gaussian(bw), j_max, mode)


def below_floor_query(X, bandwidth):
    """A query row whose every Gaussian weight lies in (2**-1074, 2**-1021).

    Bisection on a ray out of the data puts its nearest training point at
    exponent -725: below the floor EXP_SLOW_BELOW = -707.7, where the kernel
    writes 0, and above -744.4, where np.exp's value is still not 0.
    """
    direction = np.ones(X.shape[1]) / np.sqrt(X.shape[1])
    target = 725.0 * 4.0 * bandwidth
    lo, hi = 0.0, 1e3
    for _ in range(100):
        t = 0.5 * (lo + hi)
        q = X.mean(axis=0) + t * direction
        if ((X - q) ** 2).sum(axis=1).min() < target:
            lo = t
        else:
            hi = t
    return q[None, :]


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

    @pytest.mark.parametrize("reader", ["extend", "predict"])
    def test_nan_eigenvalue_rejected_at_the_floor(self, reader):
        # NaN compares False against the floor; a NaN at j <= J must raise
        # rather than turn every prediction into NaN
        X, basis = spiral_basis()
        lam = basis.eigenvalues.copy()
        lam[2] = np.nan
        bad = dataclasses.replace(basis, eigenvalues=lam)
        with pytest.raises(NumericalError, match="index 2"):
            if reader == "extend":
                extend(bad, X, 4)
            else:
                predict(SeriesModel(bad, np.ones(bad.n_components), J=4), X)
        assert np.array_equal(extend(bad, X, 1), extend(basis, X, 1))

    def test_far_query_falls_back_to_nearest_row(self, caplog):
        X, basis = spiral_basis(bw=0.01)
        far = np.array([[500.0, 500.0]])  # every kernel value underflows
        with caplog.at_level(logging.WARNING, logger="spectral_series.nystrom"):
            out = extend(basis, far, 4)
        assert any("underflow" in rec.message for rec in caplog.records)
        nearest = np.argmin(((X - far) ** 2).sum(axis=1))
        assert np.array_equal(out[0], basis.eigenvectors[nearest, :5])

    @pytest.mark.parametrize("reader", ["extend", "predict", "nw_predict"])
    def test_query_below_the_floor_falls_back_alone_and_in_a_batch(self, reader, caplog):
        # np.exp gives this query subnormal weights; the Gram's floor makes
        # them 0, so it takes the nearest-training-point fallback, as a query
        # whose weights all underflow to exactly 0 does
        data = gen_spiral(50, noise_sd=0.05, seed=0)
        X, y = data.features, data.responses
        q = below_floor_query(X, 0.01)
        sq = ((X - q) ** 2).sum(axis=1)
        plain = np.exp(sq / -0.04)
        assert 0.0 < plain.max() < 2.0 ** -1021
        nearest = int(np.argmin(sq))
        if reader == "extend":
            basis = fit_basis(X, KernelSpec.gaussian(0.01), 8)
            read, want = (lambda Q: extend(basis, Q, 4)), basis.eigenvectors[nearest, :5]
        elif reader == "predict":
            model = fit(X, y, KernelSpec.gaussian(0.01), 8, J=4)
            read = lambda Q: predict(model, Q)
            want = model.basis.eigenvectors[nearest, :5] @ model.coefficients[:5]
        else:
            read, want = (lambda Q: nw_predict(X, y, 0.01, Q)), y[nearest]
        batch = np.vstack([X[:5] + 0.01, q, X[5:9] + 0.01])
        with caplog.at_level(logging.WARNING, logger="spectral_series.nystrom"):
            alone, inside = read(q)[0], read(batch)[5]
        assert sum("underflowed" in rec.message for rec in caplog.records) == 2
        assert np.array_equal(alone, inside)
        assert np.allclose(alone, want, rtol=1e-12, atol=0.0)

    def test_mix_of_live_and_dead_queries(self):
        X, basis = spiral_basis(bw=0.01)
        queries = np.vstack([X[3], [500.0, 500.0]])
        out = extend(basis, queries, 2)
        assert np.allclose(out[0], basis.eigenvectors[3, :3], atol=1e-8)
        assert np.all(np.isfinite(out))

    def test_far_rows_fallback_heap_bounded(self):
        # the nearest-point search for dead rows must not form an
        # (m_dead, n, d) difference array: that was 320 MB here
        X = np.random.default_rng(4).normal(size=(1000, 1000))
        basis = fit_basis(X, KernelSpec.gaussian(bandwidth_grid(X)[0]), 5)
        far = X[:40] + 1e3
        tracemalloc.start()
        try:
            out = extend(basis, far, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nearest = [np.argmin(((X - q) ** 2).sum(axis=1)) for q in far]
        assert np.array_equal(out, basis.eigenvectors[nearest, :6])
        assert peak < 8e6

    @pytest.mark.parametrize("mode", list(Mode))
    def test_heap_peak_is_one_cross_gram(self, mode):
        # weights are written into the cross Gram: no second m x n array
        X, basis = spiral_basis(mode, n=500, j_max=10, bw=0.5)
        queries = gen_spiral(4000, noise_sd=0.1, seed=1).features
        tracemalloc.start()
        try:
            extend(basis, queries, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * queries.shape[0] * basis.n * 8

    def test_overflowing_polynomial_row_falls_back(self):
        # polynomial kernel rows can overflow to inf: such rows stay dead
        X = gen_spiral(40, noise_sd=0.05, seed=2).features
        basis = fit_basis(X, KernelSpec.polynomial(3), 2, Mode.UNIFORM)
        queries = np.vstack([X[5], X[7] * 1e120])
        with np.errstate(over="ignore", invalid="ignore"):
            out = extend(basis, queries, 2)
        nearest = np.argmin(((X - queries[1]) ** 2).sum(axis=1))
        assert np.array_equal(out[1], basis.eigenvectors[nearest, :3])
        assert np.allclose(out[0], basis.eigenvectors[5, :3], atol=1e-8)

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


def entrywise_reference(basis, Xnew, J):
    """The extension computed the long way: every weight written into the
    cross Gram, then the product with Psi, then the division by lambda."""
    Kx = gram_matrix(basis.kernel, Xnew, basis.training_points)
    rows = Kx.sum(axis=1)[:, None]
    degrees = basis.degrees[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        if basis.mode is Mode.UNIFORM:
            W = Kx / basis.n
        elif basis.mode is Mode.STOCHASTIC:
            W = Kx / rows
        elif basis.mode is Mode.BIAS_CORRECTED:
            W = Kx / degrees
            W /= W.sum(axis=1)[:, None]
        else:
            W = Kx / np.sqrt(rows) / np.sqrt(basis.n * degrees)
    return (W @ basis.eigenvectors[:, : J + 1]) / basis.eigenvalues[None, : J + 1]


def nearest_rows(X, queries):
    return np.array([np.argmin(((X - q) ** 2).sum(axis=1)) for q in queries])


class TestBlockedReadPath:
    """extend and predict build the cross Gram one block of query rows at a
    time and fold beta / lambda into the right-hand side."""

    @staticmethod
    def fitted(mode, n=1000, j_max=10, bw=0.5):
        data = gen_spiral(n, noise_sd=0.1, seed=3)
        return fit(data.features, data.responses, KernelSpec.gaussian(bw), j_max, mode)

    @staticmethod
    def queries(n_train, n_blocks=3.5):
        # far rows sit in the middle of the second block
        step = next(row_blocks(10 ** 9, n_train, READ_BLOCK_BYTES)).stop  # rows per block
        Q = gen_spiral(int(n_blocks * step), noise_sd=0.1, seed=4).features
        far = np.arange(step + step // 2, step + step // 2 + 3)
        Q[far] += 500.0
        return Q, far

    @pytest.mark.parametrize("mode", list(Mode))
    def test_blocks_equal_per_block_calls(self, mode):
        model = self.fitted(mode)
        Q, _ = self.queries(model.basis.n)
        blocks = list(row_blocks(Q.shape[0], model.basis.n, READ_BLOCK_BYTES))
        assert len(blocks) >= 3
        ext = extend(model.basis, Q, model.J)
        pred = predict(model, Q)
        assert np.array_equal(
            ext, np.vstack([extend(model.basis, Q[b], model.J) for b in blocks]))
        assert np.array_equal(
            pred, np.concatenate([predict(model, Q[b]) for b in blocks]))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_high_d_blocks_equal_per_block_calls(self, mode):
        # d = 64 takes the BLAS distance route; n = 700 gives 1472-row blocks,
        # which are not whole distance tiles
        n = 700
        step = next(row_blocks(10 ** 9, n)).stop
        data = gen_circle(n + int(3.5 * step), d=64, noise_var=0.1, seed=3, rotate=True)
        model = fit(data.features[:n], data.responses[:n], KernelSpec.gaussian(0.2), 10, mode)
        Q = data.features[n:].copy()
        Q[step + step // 2:step + step // 2 + 3] += 500.0
        blocks = list(row_blocks(Q.shape[0], n))
        assert len(blocks) >= 3
        assert np.array_equal(
            extend(model.basis, Q, model.J),
            np.vstack([extend(model.basis, Q[b], model.J) for b in blocks]))
        assert np.array_equal(
            predict(model, Q), np.concatenate([predict(model, Q[b]) for b in blocks]))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_gaussian_matches_entrywise_reference(self, mode):
        model = self.fitted(mode)
        basis, J, beta = model.basis, model.J, model.coefficients[: model.J + 1]
        Q, far = self.queries(basis.n)
        live = np.setdiff1d(np.arange(Q.shape[0]), far)
        ref = entrywise_reference(basis, Q, J)
        ext = extend(basis, Q, J)
        scale = np.abs(ref[live]).max(axis=0)
        assert np.all(np.abs(ext[live] - ref[live]) <= 1e-12 * scale)
        pred, ref_pred = predict(model, Q), ref @ beta
        assert np.all(np.abs(pred[live] - ref_pred[live])
                      <= 1e-12 * np.abs(ref_pred[live]).max())

    def test_polynomial_uniform_matches_entrywise_reference(self):
        # one live row at 1e6 and one overflowing row, both in a middle block.
        # J = 6 keeps lambda_J / lambda_0 near 3e-3: at the rank-10 cutoff
        # (J = 9, ratio 2.5e-7) the long way and the folded product both sit
        # about 3e-11 from an extended-precision value, so they cannot agree
        # to 1e-11 there
        data = gen_spiral(1000, noise_sd=0.1, seed=3)
        model = fit(data.features, data.responses, KernelSpec.polynomial(3), 9,
                    Mode.UNIFORM, J=6)
        basis, J = model.basis, model.J
        Q, far = self.queries(basis.n)
        Q[far[0]] = [1e6, 1e6]
        Q[far[1]] = data.features[0] * 1e120
        live = np.setdiff1d(np.arange(Q.shape[0]), far[1])
        with np.errstate(over="ignore", invalid="ignore"):
            ext = extend(basis, Q, J)
            pred = predict(model, Q)
            # the public Gram refuses the overflowing row, so the reference
            # takes the live rows alone
            ref = entrywise_reference(basis, Q[live], J)
        with pytest.raises(NumericalError, match="overflowed"):
            gram_matrix(basis.kernel, Q, basis.training_points)
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(ext[live] - ref) <= 1e-11 * scale)
        ref_pred = ref @ model.coefficients[: J + 1]
        assert np.all(np.abs(pred[live] - ref_pred) <= 1e-11 * np.abs(ref_pred).max())
        nearest = nearest_rows(data.features, Q[far[1:2]])
        Psi = basis.eigenvectors[:, : J + 1]
        assert np.array_equal(ext[far[1]], Psi[nearest[0]])
        assert pred[far[1]] == (Psi @ model.coefficients[: J + 1])[nearest[0]]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_fallback_rows_are_the_nearest_training_row(self, mode, caplog):
        model = self.fitted(mode)
        basis, J = model.basis, model.J
        Q, far = self.queries(basis.n)
        nearest = nearest_rows(basis.training_points, Q[far])
        Psi = basis.eigenvectors[:, : J + 1]
        with caplog.at_level(logging.WARNING, logger="spectral_series.nystrom"):
            ext = extend(basis, Q, J)
            pred = predict(model, Q)
        assert np.array_equal(ext[far], Psi[nearest])
        assert np.array_equal(pred[far], (Psi @ model.coefficients[: J + 1])[nearest])
        # one record per call, counting the rows of every block
        assert [rec.args[0] for rec in caplog.records] == [3, 3]

    def test_polynomial_row_with_negative_normaliser_is_extended(self, caplog):
        # A polynomial row is dead when its plain row sum is <= 0, not its
        # normaliser: here the row sum is > 0 while Kx @ (1/deg) is < 0, and
        # the weights k / (deg * normaliser) still sum to 1
        X = np.linspace(-3.0, 0.8, 12)[:, None]
        basis = fit_basis(X, KernelSpec.polynomial(1), 3, Mode.BIAS_CORRECTED)
        q = np.array([[-8.0]])
        Kx = gram_matrix(basis.kernel, q, X)
        assert Kx.sum() > 0.0 and (Kx @ (1.0 / basis.degrees))[0] < 0.0
        # lambda = 1 belongs to the constant column, at index 1 here
        assert basis.eigenvalues[1] == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(basis.eigenvectors[:, 1], np.sqrt(12), rtol=1e-12)
        with caplog.at_level(logging.WARNING, logger="spectral_series.nystrom"):
            ext = extend(basis, q, 1)
        assert not caplog.records
        assert ext[0, 1] == pytest.approx(np.sqrt(12), rel=1e-12)
        # the fallback would have copied the nearest training row (X = -3)
        assert abs(ext[0, 0] - basis.eigenvectors[0, 0]) > 1.0
        ref = entrywise_reference(basis, q, 1)
        assert np.allclose(ext, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("mode", [Mode.STOCHASTIC, Mode.SYMMETRIC])
    def test_heap_peak_independent_of_query_count(self, mode, monkeypatch):
        model = self.fitted(mode)
        queries = gen_spiral(20_000, noise_sd=0.1, seed=5).features
        working = {}
        for workers, m in ((1, 2_000), (1, 20_000), (2, 20_000)):
            monkeypatch.setattr(kernels, "READ_WORKERS", workers)
            for name, call in (("extend", lambda Q: extend(model.basis, Q, model.J)),
                               ("predict", lambda Q: predict(model, Q))):
                tracemalloc.start()
                try:
                    out = call(queries[:m])
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                working[name, workers, m] = peak - out.nbytes
        for name in ("extend", "predict"):
            assert working[name, 1, 20_000] <= 1.05 * working[name, 1, 2_000]
            # one block of the cross Gram, not all 2000 rows of it
            assert working[name, 1, 2_000] < 0.6 * 2_000 * model.basis.n * 8
            assert working[name, 1, 20_000] <= 2 * READ_BLOCK_BYTES
            # on the pool each worker holds one block's heap at most; the
            # slack covers the pool's own objects
            assert working[name, 2, 20_000] <= 2 * working[name, 1, 20_000] + 64 * 1024


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
