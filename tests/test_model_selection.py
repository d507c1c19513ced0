"""Grid tuning for the series estimator and the baselines."""

import itertools
import logging
import tracemalloc
import types

import numpy as np
import pytest

from spectral_series import (
    Dataset,
    EigenMethod,
    FitReport,
    InputError,
    KernelSpec,
    Mode,
    NumericalError,
    SplitSpec,
    TuneGrid,
    bandwidth_grid,
    empirical_loss,
    estimate_coefficients,
    evaluate_on,
    extend,
    fit_basis,
    gen_circle,
    gen_spiral,
    knn_predict,
    krr_fit,
    krr_predict,
    loss_se,
    nw_predict,
    predict,
    split,
    tune_baseline,
    tune_series,
)
from spectral_series import baselines, kernels, model_selection
from spectral_series.model_selection import _rank
from spectral_series.nystrom import EIGENVALUE_FLOOR_REL
from spectral_series.series import SeriesModel


def spiral_splits(n=150, noise_sd=0.1, seed=0):
    data = gen_spiral(n, noise_sd=noise_sd, seed=seed)
    return split(data, SplitSpec(seed=seed))


class TestLossFunctions:
    def test_perfect_fit(self):
        assert empirical_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_unit_loss(self):
        assert empirical_loss(np.zeros(2), np.array([1.0, -1.0])) == 1.0

    def test_permutation_invariance(self):
        p = np.array([1.0, 2.0, 3.0])
        a = np.array([0.0, 1.0, 5.0])
        perm = [2, 0, 1]
        assert empirical_loss(p, a) == empirical_loss(p[perm], a[perm])

    def test_se_of_equal_residuals_is_zero(self):
        assert loss_se(np.zeros(4), np.full(4, 2.0)) == 0.0

    def test_se_hand_computed(self):
        # squared residuals (0, 2): sd = sqrt(2), se = sqrt(2)/sqrt(2) = 1
        preds = np.array([0.0, 0.0])
        actual = np.array([0.0, np.sqrt(2.0)])
        assert np.isclose(loss_se(preds, actual), 1.0, atol=1e-12)

    def test_se_shrinks_like_sqrt_n(self):
        preds = np.array([0.0, 0.0])
        actual = np.array([0.0, np.sqrt(2.0)])
        base = loss_se(np.tile(preds, 100), np.tile(actual, 100))
        quad = loss_se(np.tile(preds, 400), np.tile(actual, 400))
        assert np.isclose(quad, base / 2.0, rtol=2e-3)

    def test_validation(self):
        with pytest.raises(InputError):
            empirical_loss(np.ones(2), np.ones(3))
        with pytest.raises(InputError):
            loss_se(np.ones(1), np.ones(1))


class TestTuneGrid:
    def test_needs_candidates(self):
        with pytest.raises(InputError):
            TuneGrid()

    def test_bandwidths_must_ascend(self):
        with pytest.raises(InputError):
            TuneGrid(bandwidths=(2.0, 1.0))
        with pytest.raises(InputError):
            TuneGrid(bandwidths=(-1.0, 2.0))

    def test_kernels_enumerated(self):
        grid = TuneGrid(bandwidths=(0.5, 1.0), degrees=(1, 2), j_max=5)
        labels = [k.label() for k in grid.kernels]
        assert len(labels) == 4

    @pytest.mark.parametrize("kwargs, match", [
        pytest.param({"degrees": (0,)}, "degree candidates must be an integer >= 1, got 0",
                     id="degree-0"),
        # 2.5 used to be tuned as degree 2, and a j_max of 5.5 to end in a
        # TypeError inside the sweep
        pytest.param({"degrees": (2.5,)}, "degree candidates must be an integer >= 1, got 2.5",
                     id="degree-2.5"),
        pytest.param({"degrees": (1, np.nan)}, "degree candidates must be an integer",
                     id="degree-nan"),
        pytest.param({"bandwidths": (1.0,), "j_max": -1}, "j_max must be an integer >= 0",
                     id="j_max-negative"),
        pytest.param({"bandwidths": (1.0,), "j_max": 5.5}, "j_max must be an integer >= 0, "
                     "got 5.5", id="j_max-5.5"),
        pytest.param({"bandwidths": (1.0,), "j_max": np.inf}, "j_max must be an integer",
                     id="j_max-inf"),
    ])
    def test_integer_fields_checked(self, kwargs, match):
        with pytest.raises(InputError, match=match):
            TuneGrid(**kwargs)

    def test_integral_floats_accepted(self):
        grid = TuneGrid(degrees=(2.0, np.int64(3)), j_max=np.int64(5))
        assert grid.degrees == (2, 3) and grid.j_max == 5
        assert all(type(v) is int for v in (*grid.degrees, grid.j_max))

    def test_degrees_must_not_repeat(self):
        # a repeated degree would fit the same candidate twice
        with pytest.raises(InputError, match="degree candidates must not repeat"):
            TuneGrid(degrees=(3, 3, 1))
        assert TuneGrid(degrees=(3, 1)).degrees == (3, 1)


class TestFitReport:
    def test_chosen_must_be_minimum(self):
        surface = {("gaussian", 1.0, 0): 1.0, ("gaussian", 1.0, 1): 0.5}
        with pytest.raises(InputError):
            FitReport(surface, ("gaussian", 1.0, 0), 1.0)
        report = FitReport(surface, ("gaussian", 1.0, 1), 0.5)
        rows = report.surface_rows()
        assert rows[0] == ("gaussian", 1.0, 0, 1.0)

    @pytest.mark.parametrize("surface, tied, pick", [
        ({("gaussian", 1.0, 2): 0.5, ("gaussian", 2.0, 2): 0.5},
         ("gaussian", 1.0, 2), ("gaussian", 2.0, 2)),
        ({("gaussian", 1.0, 1): 0.5, ("gaussian", 2.0, 2): 0.5},
         ("gaussian", 2.0, 2), ("gaussian", 1.0, 1)),
        ({("knn", 1.0, -1): 1.0, ("knn", 5.0, -1): 1.0}, ("knn", 1.0, -1), ("knn", 5.0, -1)),
    ])
    def test_chosen_must_be_the_tie_rules_pick(self, surface, tied, pick):
        # a minimal loss alone used to pass; the tie rule (_rank) must pick it too
        with pytest.raises(InputError, match="tie rule"):
            FitReport(surface, tied, 0.5)
        assert FitReport(surface, pick, 0.5).chosen == pick


class TestTuneSeries:
    def test_surface_enumerates_full_grid(self):
        train, val, _ = spiral_splits()
        grid = TuneGrid(bandwidths=(0.5, 1.0, 2.0), j_max=10)
        model, report = tune_series(train, val, grid)
        assert len(report.loss_surface) == 3 * 11
        assert report.chosen in report.loss_surface
        assert report.loss_surface[report.chosen] == min(report.loss_surface.values())
        assert set(report.timings) == {"kernel_build", "eigendecomposition",
                                       "coefficient", "validation"}

    def test_truncation_sweep_matches_refits(self):
        # the per-J losses from one coefficient pass equal full refits
        train, val, _ = spiral_splits(n=90)
        grid = TuneGrid(bandwidths=(0.8, 1.6), j_max=8)
        _, report = tune_series(train, val, grid)
        for bw in grid.bandwidths:
            basis = fit_basis(train.features, KernelSpec.gaussian(bw), 8,
                              Mode.STOCHASTIC)
            coef = estimate_coefficients(basis, train.responses)
            for J in range(9):
                refit = SeriesModel(basis, coef, J)
                direct = empirical_loss(predict(refit, val.features), val.responses)
                assert np.isclose(report.loss_surface[("gaussian", bw, J)],
                                  direct, atol=1e-10)

    @staticmethod
    def overflowing_splits():
        """Spiral splits scaled by 1e80: every cubic Gram entry overflows to inf,
        while a Gaussian bandwidth of 1e160 is the scale of the data."""
        train, val, _ = spiral_splits()
        return (Dataset(train.features * 1e80, train.responses),
                Dataset(val.features * 1e80, val.responses))

    def test_failed_candidate_scored_inf_logged_and_timed(self, caplog, monkeypatch):
        # a clock that advances 1 s per reading: each stage adds 1 s per run,
        # the poly candidate's kernel build and failed fit included
        ticks = itertools.count()
        monkeypatch.setattr(model_selection, "time",
                            types.SimpleNamespace(perf_counter=lambda: float(next(ticks))))
        train, val = self.overflowing_splits()
        grid = TuneGrid(bandwidths=(1e160,), degrees=(3,), j_max=10)
        with np.errstate(over="ignore", invalid="ignore"), caplog.at_level(
                logging.WARNING, logger="spectral_series.model_selection"):
            model, report = tune_series(train, val, grid)
        assert report.chosen[:2] == ("gaussian", 1e160) and model.basis.kernel == grid.kernels[0]
        poly = [loss for key, loss in report.loss_surface.items() if key[0] == "poly"]
        assert len(poly) == 11 and all(loss == np.inf for loss in poly)
        logged = [rec.getMessage() for rec in caplog.records
                  if rec.name == "spectral_series.model_selection"]
        assert len(logged) == 1 and logged[0].startswith("candidate poly(q=3) failed")
        # the shared distances count once as kernel build and once as validation
        assert report.timings == {"kernel_build": 3.0, "eigendecomposition": 2.0,
                                  "coefficient": 1.0, "validation": 2.0}

    def test_no_usable_candidate_raises(self):
        train, val = self.overflowing_splits()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="no kernel candidate produced a usable fit"):
                tune_series(train, val, TuneGrid(degrees=(3,), j_max=10))

    def test_single_candidate_j0(self):
        train, val, _ = spiral_splits()
        model, report = tune_series(train, val, TuneGrid(bandwidths=(1.0,), j_max=0))
        assert report.chosen[2] == 0 and model.J == 0
        flat = predict(model, val.features)
        assert np.isclose(report.val_loss,
                          empirical_loss(flat, val.responses), atol=1e-12)

    def test_exact_target_selects_enough_terms(self):
        # noiseless y = psi_2: tuning must keep at least components 0..2 and
        # drive the validation loss to the exact-representation floor
        X = gen_spiral(80, noise_sd=0.05, seed=3).features
        idx = np.random.default_rng(0).permutation(80)
        X_train, X_val = X[idx[:60]], X[idx[60:]]
        basis = fit_basis(X_train, KernelSpec.gaussian(1.0), 10, Mode.STOCHASTIC)
        train = Dataset(X_train, basis.eigenvectors[:, 2], None)
        val = Dataset(X_val, extend(basis, X_val, 2)[:, 2], None)
        _, report = tune_series(train, val, TuneGrid(bandwidths=(1.0,), j_max=10))
        assert report.chosen[2] >= 2
        assert report.val_loss <= 1e-6

    def test_polynomial_candidates_run_in_uniform_mode(self):
        train, val, _ = spiral_splits(n=100)
        grid = TuneGrid(degrees=(1, 2), j_max=4)
        model, report = tune_series(train, val, grid)
        assert model.basis.mode is Mode.UNIFORM
        assert {k[0] for k in report.loss_surface} == {"poly"}

    def test_failed_candidate_recorded_as_inf(self):
        # degree-1 kernel in 2-D has rank 3: truncations past it are unusable
        train, val, _ = spiral_splits(n=80)
        grid = TuneGrid(degrees=(1,), j_max=10)
        model, report = tune_series(train, val, grid)
        assert len(report.loss_surface) == 11
        assert report.loss_surface[("poly", 1.0, 10)] == np.inf
        assert np.isfinite(report.loss_surface[("poly", 1.0, 2)])

    def test_unlabeled_rows_enter_the_basis(self):
        train, val, _ = spiral_splits(n=60)
        unl = gen_spiral(40, noise_sd=0.1, seed=9).features
        model, _ = tune_series(train, val, TuneGrid(bandwidths=(1.0,), j_max=6),
                               unlabeled=unl)
        assert model.ssl
        assert model.basis.n == train.n + 40

    def test_non_finite_unlabeled_row_rejected(self):
        # it used to fail every candidate and end in NumericalError
        train, val, _ = spiral_splits(n=60)
        with pytest.raises(InputError, match="unlabeled row 0 contains NaN or Inf"):
            tune_series(train, val, TuneGrid(bandwidths=(1.0,), j_max=6),
                        unlabeled=np.array([[np.nan, 0.0], [1.0, 2.0]]))

    def test_responses_required(self):
        train, val, _ = spiral_splits()
        bare = Dataset(train.features, None, None)
        with pytest.raises(InputError):
            tune_series(bare, val, TuneGrid(bandwidths=(1.0,)))

    def test_tie_breaks_prefer_smaller_j_then_smoother_kernel(self):
        def first(a, b, loss_a=1.0, loss_b=1.0):
            return _rank(a, loss_a) < _rank(b, loss_b)

        # at equal loss and J: the wider bandwidth, Gaussian over polynomial,
        # the lower degree
        assert first(("gaussian", 2.0, 3), ("gaussian", 1.0, 3))
        assert not first(("gaussian", 1.0, 3), ("gaussian", 2.0, 3))
        assert first(("gaussian", 1.0, 3), ("poly", 1.0, 3))
        assert first(("poly", 1.0, 3), ("poly", 2.0, 3))
        # the smaller J before any kernel preference, the lower loss before J
        assert first(("poly", 3.0, 2), ("gaussian", 9.0, 3))
        assert first(("poly", 3.0, 9), ("gaussian", 9.0, 0), loss_a=0.5)
        # a baseline tie goes to the larger parameter, the smoother model
        for kind in ("nw", "knn", "krr"):
            assert first((kind, 5.0, -1), (kind, 1.0, -1))

    def test_exact_ties_break_to_small_j_and_smooth_kernel(self):
        # zero training responses give exactly-zero coefficients for every
        # candidate, so all losses are bit-identical: the tie rule must pick
        # the smallest truncation and then the smoothest kernel
        X = gen_spiral(60, noise_sd=0.05, seed=4).features
        train = Dataset(X[:40], np.zeros(40), None)
        val = Dataset(X[40:], np.ones(20), None)
        _, report = tune_series(train, val,
                                TuneGrid(bandwidths=(0.5, 1.0, 2.0), j_max=5))
        assert report.chosen == ("gaussian", 2.0, 0)


def reference_sweep(train, val, grid, mode=Mode.STOCHASTIC, method=None, unlabeled=None):
    """Per-candidate public path: fit_basis -> extend.

    Returns the loss surface and each candidate's (basis, coefficients).
    """
    pooled = train.features if unlabeled is None else np.vstack([train.features, unlabeled])
    labeled = None if unlabeled is None else np.arange(train.n)
    j_cap = min(grid.j_max, pooled.shape[0] - 1)
    surface, fits = {}, {}
    for spec in grid.kernels:
        gaussian = spec.family == "gaussian"
        param = spec.bandwidth if gaussian else float(spec.degree)
        basis = fit_basis(pooled, spec, j_cap, mode if gaussian else Mode.UNIFORM, method)
        coef = estimate_coefficients(basis, train.responses, labeled=labeled)
        floor = EIGENVALUE_FLOOR_REL * basis.eigenvalues[0]
        usable = min(int(np.count_nonzero(basis.eigenvalues > floor)), j_cap + 1)
        losses = np.full(grid.j_max + 1, np.inf)
        psi = extend(basis, val.features, usable - 1)
        err = val.responses[:, None] - np.cumsum(psi * coef[:usable], axis=1)
        losses[:usable] = np.mean(err * err, axis=0)
        surface.update({(spec.family, param, J): float(v) for J, v in enumerate(losses)})
        fits[(spec.family, param)] = (basis, coef)
    return surface, fits


class TestSharedSweep:
    """The sweep's shared distances give the per-candidate path's exact bits."""

    @pytest.mark.parametrize("case", ["gaussian", "mixed", "unlabeled"])
    def test_bit_identical_to_per_candidate_path(self, case):
        train, val, test = spiral_splits(n=300, seed=2)
        bandwidths = tuple(bandwidth_grid(train.features, 3))
        degrees = (1, 2, 3) if case == "mixed" else ()
        unl = gen_spiral(80, noise_sd=0.1, seed=7).features if case == "unlabeled" else None
        grid = TuneGrid(bandwidths=bandwidths, degrees=degrees, j_max=25)
        method = EigenMethod("randomized", seed=4) if case == "gaussian" else None
        model, report = tune_series(train, val, grid, method=method, unlabeled=unl)
        surface, fits = reference_sweep(train, val, grid, method=method, unlabeled=unl)
        assert report.loss_surface == surface
        chosen = min(surface, key=lambda k: (surface[k], k[2]))
        assert report.chosen == chosen
        basis, coef = fits[chosen[:2]]
        ref_model = SeriesModel(basis, coef, chosen[2], ssl=unl is not None)
        assert np.array_equal(predict(model, test.features),
                              predict(ref_model, test.features))

    @pytest.mark.parametrize("d", [kernels.BLOCK_GRAM_MAX_D + 1, 1000])
    def test_high_d_bit_identical_to_per_candidate_path(self, d):
        # both widths share the sweep's distances: pdist/cdist just above
        # BLOCK_GRAM_MAX_D, the BLAS distance route at d = 1000
        data = gen_circle(400, d=d, noise_var=0.5, seed=5, rotate=True)
        train, val, test = split(data, SplitSpec(seed=5))
        grid = TuneGrid(bandwidths=tuple(bandwidth_grid(train.features, 3)), j_max=20)
        method = EigenMethod("randomized", seed=5)
        model, report = tune_series(train, val, grid, method=method)
        surface, fits = reference_sweep(train, val, grid, method=method)
        assert report.loss_surface == surface
        chosen = min(surface, key=lambda k: (surface[k], k[2]))
        assert report.chosen == chosen
        basis, coef = fits[chosen[:2]]
        assert np.array_equal(predict(model, test.features),
                              predict(SeriesModel(basis, coef, chosen[2]), test.features))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_full_solver_bit_identical_in_every_mode(self, mode):
        # the sweep builds every operator in one buffer and its validation
        # Grams in an array of their own here, as the 150 validation rows
        # outnumber the 110 pooled training rows
        data = gen_spiral(230, noise_sd=0.1, seed=6)
        X, y = data.features, data.responses
        train, val = Dataset(X[:80], y[:80], None), Dataset(X[80:], y[80:], None)
        unl = gen_spiral(30, noise_sd=0.1, seed=8).features
        grid = TuneGrid(bandwidths=tuple(bandwidth_grid(train.features, 3)),
                        degrees=(2,), j_max=15)
        method = EigenMethod("full")
        model, report = tune_series(train, val, grid, mode, method, unlabeled=unl)
        surface, fits = reference_sweep(train, val, grid, mode, method, unlabeled=unl)
        assert report.loss_surface == surface
        chosen = min(surface, key=lambda k: (surface[k], k[2]))
        assert report.chosen == chosen
        basis, coef = fits[chosen[:2]]
        ref_model = SeriesModel(basis, coef, chosen[2], ssl=True)
        assert np.array_equal(predict(model, val.features), predict(ref_model, val.features))

    @staticmethod
    def _sweep_peak(data, n):
        """tune_series' traced heap peak on 2 grid bandwidths, n training rows, j_max 20."""
        X, y = data.features, data.responses
        train, val = Dataset(X[:n], y[:n], None), Dataset(X[n:], y[n:], None)
        grid = TuneGrid(bandwidths=tuple(bandwidth_grid(train.features, 2)), j_max=20)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tune_series(train, val, grid)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @staticmethod
    def _one_buffer_bound(n, j_max):
        """One n x n buffer, one block per worker and ten n x (j_max+1) arrays."""
        blocks = max(1, kernels.READ_WORKERS) * kernels.READ_BLOCK_BYTES
        return n * n * 8 + blocks + 10 * n * (j_max + 1) * 8

    def test_sweep_holds_one_n_by_n_buffer(self):
        # up to BLOCK_GRAM_MAX_D columns a Gaussian sweep stores no
        # distances and holds one n x n buffer: each candidate's Gram is
        # built from the points in it, one block per worker at a time, then
        # normalized and solved in it, and its validation cross Gram reuses
        # it. Beyond that: ten n x (j_max+1) arrays, the fit's six (see
        # test_heap_beyond_gram_is_one_block), the winner's basis and the
        # validation extension's m x (j_max+1) arrays. Shared distances
        # (32 MB here), a K per candidate or a validation Gram of its own
        # (16 MB) break the bound
        n, m, j_max = 2000, 1000, 20
        peak = self._sweep_peak(gen_spiral(n + m, noise_sd=0.1, seed=3), n)
        assert peak <= self._one_buffer_bound(n, j_max)

    def test_sweep_at_the_block_width_holds_one_n_by_n_buffer(self):
        # the widest rows whose Grams are built from the points
        n, m, j_max = 2000, 1000, 20
        data = gen_circle(n + m, d=kernels.BLOCK_GRAM_MAX_D, noise_var=0.5, seed=3)
        assert self._sweep_peak(data, n) <= self._one_buffer_bound(n, j_max)

    @pytest.mark.parametrize("d", [kernels.BLOCK_GRAM_MAX_D + 1, kernels.BLAS_DISTANCE_MIN_D])
    def test_high_d_sweep_shares_its_distances(self, d):
        # above BLOCK_GRAM_MAX_D the distances are computed once for the
        # sweep (pdist/cdist, then BLAS products from BLAS_DISTANCE_MIN_D):
        # beyond them the sweep holds one n x n buffer, which leaves half a
        # validation Gram for everything else. The condensed training
        # distances lie in a memory map of their own, which tracemalloc
        # does not see, so only the validation distances count
        n, m = 2000, 1000
        data = gen_circle(n + m, d=d, noise_var=0.5, seed=3)
        peak = self._sweep_peak(data, n)
        shared = m * n * 8
        assert peak <= shared + n * n * 8 + m * n * 8 // 2

    @pytest.mark.parametrize("d, shared", [(kernels.BLOCK_GRAM_MAX_D, 0),
                                           (kernels.BLOCK_GRAM_MAX_D + 1, 1)])
    def test_distances_shared_only_above_the_block_width(self, d, shared, monkeypatch):
        # recomputing wide rows' distances per bandwidth would cost a sweep
        # more than storing them once; narrow rows' distances are not stored
        data = gen_circle(90, d=d, noise_var=0.5, seed=4)
        train, val, _ = split(data, SplitSpec(seed=4))
        grid = TuneGrid(bandwidths=tuple(bandwidth_grid(train.features, 3)), j_max=10)
        calls = []
        monkeypatch.setattr(kernels, "sq_distances",
                            lambda A, real=kernels.sq_distances:
                            calls.append(A.shape) or real(A))
        tune_series(train, val, grid)
        assert len(calls) == shared

    def test_krr_bit_identical_to_per_penalty_fits(self):
        # 1e-18 trips the condition bound and must be refused the same way
        train, val, test = spiral_splits(n=300, seed=3)
        spec = KernelSpec.gaussian(0.5)
        penalties = [1e-18, 1e-6, 1e-4, 1e-2]
        model, report = tune_baseline(train, val, penalties, "krr", kernel=spec)
        surface, models = {}, {}
        for p in penalties:
            try:
                models[p] = krr_fit(train.features, train.responses, spec, p)
            except NumericalError:
                surface[("krr", p, -1)] = np.inf
                continue
            surface[("krr", p, -1)] = empirical_loss(
                krr_predict(models[p], val.features), val.responses)
        assert surface[("krr", 1e-18, -1)] == np.inf
        assert report.loss_surface == surface
        ref = models[report.chosen[1]]
        assert report.chosen == min(surface, key=surface.get)
        assert np.array_equal(model.dual_coefficients, ref.dual_coefficients)
        assert np.array_equal(model.predict(test.features), ref.predict(test.features))


class TestValidationExtension:
    """The tuner scores both kernel families through one validation extension."""

    def test_polynomial_surface_matches_refit_predictions(self):
        # criterion 06's check on polynomial candidates, which run in Uniform
        # mode; a J at the eigenvalue floor is inf here and raises in predict
        data = gen_spiral(120, noise_sd=0.1, seed=1)
        train, val, _ = split(data, SplitSpec(seed=1))
        degrees = (1, 2, 3)
        _, report = tune_series(train, val, TuneGrid(degrees=degrees, j_max=8),
                                Mode.UNIFORM)
        finite = 0
        for q in degrees:
            basis = fit_basis(train.features, KernelSpec.polynomial(q), 8, Mode.UNIFORM)
            coef = estimate_coefficients(basis, train.responses)
            for J in range(9):
                loss = report.loss_surface[("poly", float(q), J)]
                model = SeriesModel(basis, coef, J)
                if np.isfinite(loss):
                    finite += 1
                    refit = empirical_loss(predict(model, val.features), val.responses)
                    assert abs(loss - refit) <= 1e-10
                else:
                    with pytest.raises(NumericalError, match="floor"):
                        predict(model, val.features)
        assert finite > len(degrees)

    def test_far_validation_row_scored_at_nearest_training_row(self, caplog):
        train, val, _ = spiral_splits(n=150, seed=3)
        far = np.array([[500.0, 500.0]])  # every kernel weight underflows
        val_far = Dataset(np.vstack([val.features, far]), np.append(val.responses, 0.25))
        grid = TuneGrid(bandwidths=tuple(bandwidth_grid(train.features, 3)), j_max=6)
        with caplog.at_level(logging.WARNING, logger="spectral_series.nystrom"):
            model, report = tune_series(train, val_far, grid)
        fallbacks = [rec.args[0] for rec in caplog.records
                     if rec.name == "spectral_series.nystrom"]
        assert fallbacks == [1] * len(grid.kernels)  # one record per candidate
        assert all(np.isfinite(v) for v in report.loss_surface.values())
        nearest = np.argmin(((train.features - far) ** 2).sum(axis=1))
        J = model.J
        at_nearest = model.basis.eigenvectors[nearest, :J + 1] @ model.coefficients[:J + 1]
        preds = np.append(predict(model, val.features), at_nearest)
        assert abs(report.val_loss - empirical_loss(preds, val_far.responses)) <= 1e-10


class TestGridEdges:
    @staticmethod
    def report(chosen, widths=(1.0, 2.0, 3.0), j_max=3, dead_from=None):
        surface = {}
        for w in widths:
            for J in range(j_max + 1):
                dead = dead_from is not None and J >= dead_from
                surface[("gaussian", w, J)] = np.inf if dead else 1.0
        surface[chosen] = 0.5
        return FitReport(surface, chosen, 0.5)

    def test_interior_choice_names_no_edge(self):
        assert self.report(("gaussian", 2.0, 1)).grid_edges == ()

    def test_j_at_the_cap(self):
        assert self.report(("gaussian", 2.0, 3)).grid_edges == ("J at the cap (3)",)

    def test_cap_is_the_largest_finite_truncation(self):
        report = self.report(("gaussian", 2.0, 2), dead_from=3)
        assert report.grid_edges == ("J at the cap (2)",)

    def test_bandwidth_edges(self):
        assert self.report(("gaussian", 1.0, 1)).grid_edges == (
            "bandwidth at the lowest grid value",)
        assert self.report(("gaussian", 3.0, 3)).grid_edges == (
            "J at the cap (3)", "bandwidth at the highest grid value")

    def test_single_bandwidth_is_no_edge(self):
        assert self.report(("gaussian", 1.0, 1), widths=(1.0,)).grid_edges == ()

    def test_baseline_report_has_no_truncation_edge(self):
        report = FitReport({("knn", 1.0, -1): 2.0, ("knn", 5.0, -1): 1.0},
                           ("knn", 5.0, -1), 1.0)
        assert report.grid_edges == ()


class TestTuneBaseline:
    def test_single_candidate(self):
        train, val, _ = spiral_splits()
        model, report = tune_baseline(train, val, [0.7], "nw")
        assert report.chosen == ("nw", 0.7, -1)

    def test_surface_uses_minus_one_truncation(self):
        train, val, _ = spiral_splits()
        _, report = tune_baseline(train, val, [1, 3, 5], "knn")
        assert all(k[2] == -1 for k in report.loss_surface)

    def test_pure_noise_selects_k_equals_n(self):
        # variance reduction: with no signal the n-neighbor mean wins
        chosen = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            data = Dataset(rng.normal(size=(60, 2)), rng.normal(size=60), None)
            train, val, _ = split(data, SplitSpec(seed=seed))
            _, report = tune_baseline(train, val, [1, train.n], "knn")
            chosen.append(report.chosen[1])
        assert np.median(chosen) == float(train.n)

    def test_tie_prefers_larger_parameter(self):
        # constant responses: every k predicts exactly the constant, so all
        # losses are exactly zero and the tie goes to the largest parameter
        X = np.arange(20.0)[:, None]
        train = Dataset(X[:12], np.full(12, 2.0), None)
        val = Dataset(X[12:], np.full(8, 2.0), None)
        _, report = tune_baseline(train, val, [1, 3, 5], "knn")
        assert all(v == 0.0 for v in report.loss_surface.values())
        assert report.chosen[1] == 5

    @pytest.mark.parametrize("kind, candidates, match", [
        ("knn", [2.5], "k must be an integer"),
        ("knn", [1, 3, 2.5], "k must be an integer"),
        ("knn", [1, 1000], r"k must be an integer in 1\.\.\d+, got 1000"),
        ("nw", [0.5, 0.0], "bandwidth must be > 0"),
        ("nw", [0.5, np.nan], "bandwidth must be > 0"),
        # an infinite bandwidth used to be chosen as the constant mean(y), an
        # infinite penalty as the zero predictor, and "a" to raise ValueError
        ("nw", [0.5, np.inf], "bandwidth must be > 0 and finite, got inf"),
        ("krr", [1e-2, np.inf], "penalty must be > 0 and finite, got inf"),
        ("krr", [1e-2, 0.0], "penalty must be > 0"),
        ("krr", ["a"], "penalty must be > 0 and finite, got 'a'"),
    ])
    def test_bad_candidate_raises_before_scoring(self, kind, candidates, match,
                                                 monkeypatch):
        # k = 2.5 used to be scored as k = 2 and reported as ("knn", 2.5, -1);
        # a bad krr penalty is refused before K is built and reduced
        train, val, _ = spiral_splits()
        scored, built = [], []
        monkeypatch.setattr(model_selection, "empirical_loss",
                            lambda *args: scored.append(args) or 0.0)
        monkeypatch.setattr(model_selection, "gram_matrix",
                            lambda *args: built.append(args) or np.eye(2))
        with pytest.raises(InputError, match=match):
            tune_baseline(train, val, candidates, kind, KernelSpec.gaussian(0.5))
        assert scored == [] and built == []

    @pytest.mark.parametrize("kind, candidates", [
        ("nw", [0.3, 0.7, 1.5, 4.0]),
        ("knn", [1, 3, 5.0, 20]),
    ])
    def test_candidates_scored_without_rechecking_inputs(self, kind, candidates,
                                                         monkeypatch):
        train, val, _ = spiral_splits()
        checks = []
        for name in ("_checked_training", "_checked_queries"):
            real = getattr(baselines, name)
            monkeypatch.setattr(
                baselines, name,
                lambda *args, real=real, name=name, **kw: checks.append(name)
                or real(*args, **kw))
        _, report = tune_baseline(train, val, candidates, kind)
        assert checks == []
        predictor = {"nw": nw_predict, "knn": knn_predict}[kind]
        for param in candidates:
            preds = predictor(train.features, train.responses, param, val.features)
            assert report.loss_surface[(kind, float(param), -1)] == \
                empirical_loss(preds, val.responses)

    def test_krr_needs_kernel(self):
        train, val, _ = spiral_splits()
        with pytest.raises(InputError):
            tune_baseline(train, val, [0.1], "krr")

    def test_unknown_kind(self):
        train, val, _ = spiral_splits()
        with pytest.raises(InputError):
            tune_baseline(train, val, [1], "svm")

    def test_failed_candidates_skipped(self):
        # the tiny penalty trips the condition bound; tuning falls back to
        # the workable one
        train, val, _ = spiral_splits(n=60)
        _, report = tune_baseline(train, val, [1e-18, 1.0], "krr",
                                  kernel=KernelSpec.gaussian(1e9))
        assert report.loss_surface[("krr", 1e-18, -1)] == np.inf
        assert report.chosen[1] == 1.0

    def test_all_failed_raises(self):
        train, val, _ = spiral_splits(n=60)
        with pytest.raises(NumericalError):
            tune_baseline(train, val, [1e-18], "krr",
                          kernel=KernelSpec.gaussian(1e9))


class TestEvaluateOn:
    def test_loss_and_se(self):
        data = Dataset(np.zeros((4, 1)), np.array([1.0, 1.0, 1.0, 1.0]), None)
        loss, se = evaluate_on(lambda X: np.zeros(X.shape[0]), data)
        assert loss == 1.0 and se == 0.0

    def test_requires_responses(self):
        with pytest.raises(InputError):
            evaluate_on(lambda X: np.zeros(X.shape[0]),
                        Dataset(np.zeros((3, 1)), None, None))
