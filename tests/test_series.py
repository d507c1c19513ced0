"""Series coefficients, prediction, semi-supervised fitting, roughness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_series import (
    InputError,
    KernelSpec,
    Mode,
    SeriesModel,
    estimate_coefficients,
    fit,
    fit_ssl,
    fit_basis,
    gen_circle,
    gen_spiral,
    gram_matrix,
    predict,
    save_model,
    smoothness_functional,
    smoothness_spectrum,
    wls_coefficients,
)


def spiral_basis(n=60, j_max=10, bw=1.0, seed=0, mode=Mode.STOCHASTIC):
    X = gen_spiral(n, noise_sd=0.05, seed=seed).features
    return X, fit_basis(X, KernelSpec.gaussian(bw), j_max, mode)


class TestEstimateCoefficients:
    def test_basis_column_gives_unit_vector(self):
        _, basis = spiral_basis()
        for k in (0, 2, 5):
            beta = estimate_coefficients(basis, basis.eigenvectors[:, k])
            expected = np.zeros(basis.n_components)
            expected[k] = 1.0
            assert np.max(np.abs(beta - expected)) <= 1e-8

    def test_constant_response_loads_only_the_constant_term(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        basis = fit_basis(X, KernelSpec.gaussian(1.0), 8, Mode.STOCHASTIC)
        beta = estimate_coefficients(basis, np.full(30, 4.0))
        # psi_0 is the constant sqrt(n), so beta_0 = c / sqrt(n)
        assert np.isclose(beta[0], 4.0 / np.sqrt(30.0), atol=1e-10)
        assert np.max(np.abs(beta[1:])) <= 1e-8

    def test_zero_response(self):
        _, basis = spiral_basis()
        assert np.array_equal(estimate_coefficients(basis, np.zeros(60)),
                              np.zeros(basis.n_components))

    def test_linearity(self):
        _, basis = spiral_basis()
        rng = np.random.default_rng(1)
        y1, y2 = rng.normal(size=60), rng.normal(size=60)
        b = estimate_coefficients
        assert np.allclose(b(basis, y1 + 2.0 * y2),
                           b(basis, y1) + 2.0 * b(basis, y2), atol=1e-12)

    def test_response_length_checked(self):
        _, basis = spiral_basis()
        with pytest.raises(InputError):
            estimate_coefficients(basis, np.ones(10))

    def test_partial_labeling_validation(self):
        _, basis = spiral_basis()
        y = np.ones(2)
        with pytest.raises(InputError):
            estimate_coefficients(basis, y, labeled=np.array([0, 0]))
        with pytest.raises(InputError):
            estimate_coefficients(basis, y, labeled=np.array([0, 60]))
        with pytest.raises(InputError):
            estimate_coefficients(basis, np.ones(0), labeled=np.array([], dtype=int))

    def test_full_labeling_matches_default_path(self):
        _, basis = spiral_basis()
        y = np.random.default_rng(2).normal(size=60)
        direct = estimate_coefficients(basis, y)
        indexed = estimate_coefficients(basis, y, labeled=np.arange(60))
        assert np.allclose(direct, indexed, atol=1e-14)

    def test_partial_labeling_recovers_basis_column(self):
        # y = psi_k restricted to the labeled rows is still projected to e_k
        # up to subsampling error; with most rows labeled the error is small
        _, basis = spiral_basis(n=80, j_max=6)
        labeled = np.arange(0, 80, 2)
        beta = estimate_coefficients(basis, basis.eigenvectors[labeled, 2],
                                     labeled=labeled)
        assert abs(beta[2] - 1.0) < 0.35
        assert abs(beta[0]) < 0.2


class TestWlsCoefficients:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_projection(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 3))
        basis = fit_basis(X, KernelSpec.gaussian(1.5), 6, Mode.STOCHASTIC)
        y = rng.normal(size=30)
        assert np.max(np.abs(wls_coefficients(basis, y)
                             - estimate_coefficients(basis, y))) <= 1e-10

    def test_normal_matrix_is_n_identity(self):
        _, basis = spiral_basis()
        Z = basis.eigenvectors
        W = np.diag(basis.n * basis.ortho_weights)
        assert np.max(np.abs(Z.T @ W @ Z - basis.n * np.eye(basis.n_components))) <= 1e-8

    def test_zero_response(self):
        _, basis = spiral_basis()
        assert np.allclose(wls_coefficients(basis, np.zeros(60)), 0.0, atol=1e-14)


class TestSeriesModel:
    def test_coefficient_count_checked(self):
        _, basis = spiral_basis()
        with pytest.raises(InputError):
            SeriesModel(basis, np.ones(3), J=2)

    def test_j_range_checked(self):
        _, basis = spiral_basis(j_max=5)
        with pytest.raises(InputError):
            SeriesModel(basis, np.ones(6), J=6)

    def test_with_truncation_is_a_view(self):
        X, basis = spiral_basis(j_max=5)
        model = SeriesModel(basis, np.arange(6.0), J=5)
        small = model.with_truncation(2)
        assert small.J == 2
        assert small.basis is model.basis
        assert np.array_equal(small.coefficients, model.coefficients)


class TestPredict:
    def test_training_points_recover_projection(self):
        X, basis = spiral_basis()
        y = np.random.default_rng(3).normal(size=60)
        model = SeriesModel(basis, estimate_coefficients(basis, y), J=10)
        preds = predict(model, X)
        expected = basis.eigenvectors @ model.coefficients
        assert np.allclose(preds, expected, atol=1e-10)

    def test_constant_fit_predicts_constant_anywhere(self):
        X = np.random.default_rng(4).normal(size=(40, 2))
        model = fit(X, np.full(40, 2.5), KernelSpec.gaussian(1.0), j_max=8)
        queries = np.random.default_rng(5).normal(size=(10, 2))
        assert np.allclose(predict(model, queries), 2.5, atol=1e-6)

    def test_j_zero_is_flat(self):
        X, basis = spiral_basis()
        y = np.random.default_rng(6).normal(size=60)
        model = SeriesModel(basis, estimate_coefficients(basis, y), J=0)
        preds = predict(model, np.random.default_rng(7).normal(size=(15, 2)))
        assert np.allclose(preds, preds[0], atol=1e-8)

    def test_truncation_changes_nothing_but_cutoff(self):
        X, basis = spiral_basis()
        y = gen_spiral(60, noise_sd=0.05, seed=0).responses
        full = SeriesModel(basis, estimate_coefficients(basis, y), J=10)
        part = full.with_truncation(4)
        Psi = basis.eigenvectors
        assert np.allclose(predict(part, X), Psi[:, :5] @ full.coefficients[:5],
                           atol=1e-10)


class TestFoldedOperands:
    """predict folds its extension operands once per model, with the same bits."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("J", [4, 10])
    def test_predict_equals_expansion_bit_for_bit(self, mode, J):
        # the reference is a fresh model's first predict, the call that folds
        X, basis = spiral_basis(n=80, mode=mode)
        y = gen_spiral(80, noise_sd=0.05, seed=0).responses
        model = SeriesModel(basis, estimate_coefficients(basis, y), J=J)
        queries = np.vstack([X[:7], np.random.default_rng(J).normal(size=(30, 2))])
        want = predict(model, queries)
        assert np.array_equal(predict(model, queries), want)
        assert np.array_equal(predict(model, queries[5:9]), want[5:9])

    def test_truncation_folds_its_own_operands(self):
        X, basis = spiral_basis()
        y = gen_spiral(60, noise_sd=0.05, seed=0).responses
        full = SeriesModel(basis, estimate_coefficients(basis, y), J=10)
        predict(full, X)
        part = full.with_truncation(3)
        fresh = SeriesModel(basis, full.coefficients, J=3)
        assert np.array_equal(predict(part, X), predict(fresh, X))

    def test_archive_is_the_same_before_and_after_a_predict(self, tmp_path):
        X, basis = spiral_basis()
        y = gen_spiral(60, noise_sd=0.05, seed=0).responses
        model = SeriesModel(basis, estimate_coefficients(basis, y), J=7)
        save_model(tmp_path / "before.ssm", model)
        predict(model, X)
        save_model(tmp_path / "after.ssm", model)
        assert (tmp_path / "before.ssm").read_bytes() == (tmp_path / "after.ssm").read_bytes()


class TestFitSsl:
    def test_no_unlabeled_rows_is_supervised(self):
        data = gen_spiral(50, noise_sd=0.05, seed=1)
        a = fit(data.features, data.responses, KernelSpec.gaussian(1.0), 6)
        b = fit_ssl(data.features, data.responses, None,
                    KernelSpec.gaussian(1.0), 6)
        c = fit_ssl(data.features, data.responses, np.empty((0, 2)),
                    KernelSpec.gaussian(1.0), 6)
        for other in (b, c):
            assert not other.ssl
            assert np.array_equal(a.coefficients, other.coefficients)

    def test_pooled_basis_sees_all_rows(self):
        lab = gen_spiral(30, noise_sd=0.05, seed=2)
        unl = gen_spiral(70, noise_sd=0.05, seed=3).features
        model = fit_ssl(lab.features, lab.responses, unl,
                        KernelSpec.gaussian(1.0), 8)
        assert model.ssl
        assert model.basis.n == 100
        # pooled basis keeps the orthogonality invariant over all rows
        G = (model.basis.eigenvectors.T
             @ np.diag(model.basis.ortho_weights)
             @ model.basis.eigenvectors)
        assert np.max(np.abs(G - np.eye(9))) <= 1e-8

    def test_dimension_mismatch(self):
        lab = gen_spiral(20, seed=4)
        with pytest.raises(InputError):
            fit_ssl(lab.features, lab.responses, np.ones((5, 3)),
                    KernelSpec.gaussian(1.0), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_unlabeled_row_rejected(self, bad):
        lab = gen_spiral(40, seed=4)
        with pytest.raises(InputError, match="unlabeled row 1 contains NaN or Inf"):
            fit_ssl(lab.features, lab.responses, np.array([[1.0, 2.0], [bad, 0.0]]),
                    KernelSpec.gaussian(1.0), 4)

    def test_unlabeled_rows_help_when_labels_are_scarce(self):
        # 50 labels alone give a near-disconnected kernel graph at this
        # bandwidth; 1000 extra unlabeled rows reconnect it. Config and
        # margin were frozen from a pre-registered pilot (10 seeds).
        from scipy.spatial.distance import pdist

        gaps = []
        for seed in range(10):
            lab = gen_circle(50, d=2, noise_var=0.25, seed=seed)
            unl = gen_circle(1000, d=2, noise_var=0.0, seed=100 + seed).features
            test = gen_circle(400, d=2, noise_var=0.0, seed=200 + seed)

            pooled = np.vstack([lab.features, unl])
            eps = float(np.percentile(pdist(pooled) ** 2, 1.0)) / 4.0
            spec = KernelSpec.gaussian(eps)

            sup = fit(lab.features, lab.responses, spec, j_max=4)
            ssl = fit_ssl(lab.features, lab.responses, unl, spec, j_max=4)
            err_sup = np.mean((predict(sup, test.features) - test.responses) ** 2)
            err_ssl = np.mean((predict(ssl, test.features) - test.responses) ** 2)
            gaps.append(err_ssl - err_sup)
        assert np.median(gaps) <= 0.0


class TestSmoothnessFunctional:
    def test_constant_model_is_perfectly_smooth(self):
        X = np.random.default_rng(8).normal(size=(30, 2))
        model = fit(X, np.full(30, 3.0), KernelSpec.gaussian(1.0), 6)
        assert abs(smoothness_functional(model)) <= 1e-10

    def test_basis_column_recovers_its_roughness(self):
        _, basis = spiral_basis()
        nu2 = smoothness_spectrum(basis)
        for k in (1, 3, 5):
            model = SeriesModel(
                basis, estimate_coefficients(basis, basis.eigenvectors[:, k]),
                J=basis.n_components - 1)
            assert np.isclose(smoothness_functional(model), nu2[k], atol=1e-6)

    def test_rougher_targets_score_higher(self):
        _, basis = spiral_basis()
        scores = []
        for k in (1, 3, 5):
            model = SeriesModel(
                basis, estimate_coefficients(basis, basis.eigenvectors[:, k]),
                J=basis.n_components - 1)
            scores.append(smoothness_functional(model))
        assert scores[0] < scores[1] < scores[2]

    def test_respects_truncation(self):
        _, basis = spiral_basis()
        y = basis.eigenvectors[:, 5]
        full = SeriesModel(basis, estimate_coefficients(basis, y), J=10)
        cut = full.with_truncation(3)  # the energy at component 5 is dropped
        assert smoothness_functional(cut) < smoothness_functional(full)
