"""Acceptance suite: one test per release criterion.

Each test states its claim and tolerance inline; the terminal summary prints
one PASS/FAIL line per criterion. Numbers quoted in comments are medians from
pinned-seed pilot runs of the same recipes.
"""

import json
import struct
import time

import numpy as np
import pytest

from spectral_series import (
    EigenMethod,
    KernelSpec,
    Mode,
    SplitSpec,
    TuneGrid,
    bandwidth_grid,
    eigendecompose,
    empirical_loss,
    estimate_coefficients,
    extend,
    fit,
    fit_basis,
    gen_circle,
    gen_spiral,
    gram_matrix,
    load_csv,
    load_model,
    predict,
    row_stochastic,
    smoothness_functional,
    smoothness_spectrum,
    split,
    symmetric_normalize,
    tune_series,
    wls_coefficients,
)
from spectral_series.benchmarks import (
    _tuned_krr,
    _tuned_series,
    run_circle_dims,
    run_growing_n,
    run_spiral_compare,
)
from spectral_series.baselines import krr_penalty_grid
from spectral_series.cli import main
from spectral_series.series import SeriesModel


def _warm_blas():
    X = np.random.default_rng(0).normal(size=(350, 50))
    fit_basis(X, KernelSpec.gaussian(1.0), 30, Mode.STOCHASTIC, EigenMethod("full"))


@pytest.fixture(scope="module")
def spiral_bases():
    """Gaussian bases over a 5-point bandwidth grid on spiral data (n=200)."""
    start = time.perf_counter()
    X = gen_spiral(200, noise_sd=0.1, seed=0).features
    bases = [fit_basis(X, KernelSpec.gaussian(bw), 20, Mode.STOCHASTIC)
             for bw in bandwidth_grid(X, 5)]
    return bases, X, time.perf_counter() - start


@pytest.fixture(scope="module")
def spiral_suite():
    """Shared spiral estimator comparison (suite defaults, 10 seeds)."""
    loss_rows, _ = run_spiral_compare(n=400, n_seeds=10)

    def median(estimator):
        return float(np.median([r["loss"] for r in loss_rows
                                if r["estimator"] == estimator]))

    return median


def test_criterion_01_orthonormality(spiral_bases):
    # basis columns are orthonormal in the stationary-weighted inner product
    bases, _, seconds = spiral_bases
    for basis in bases:
        psi = basis.eigenvectors
        gram = psi.T @ (basis.ortho_weights[:, None] * psi)
        dev = np.abs(gram - np.eye(psi.shape[1])).max()
        assert dev <= 1e-8
    assert seconds < 5.0


def test_criterion_02_eigen_identity(spiral_bases):
    # each retained column satisfies A psi = lambda psi for the row-stochastic
    # operator it came from
    bases, X, _ = spiral_bases
    for basis in bases:
        A = row_stochastic(gram_matrix(basis.kernel, X))
        residual = A @ basis.eigenvectors - basis.eigenvalues * basis.eigenvectors
        assert np.abs(residual).max() <= 1e-8


def test_criterion_03_nystrom_training_consistency(spiral_bases):
    # out-of-sample extension evaluated at the training points returns the
    # stored eigenvectors. The extension divides the eigen-identity residual
    # (machine scale, ~4e-15 here) by lambda_j, so the absolute 1e-10 bound
    # is asserted where float64 can express it (lambda_j >= 1e-3) and the
    # un-amplified residual is asserted at machine scale for every retained
    # component
    bases, X, _ = spiral_bases
    for basis in bases:
        J = basis.n_components - 1
        dev = np.abs(extend(basis, X, J) - basis.eigenvectors).max(axis=0)
        live = basis.eigenvalues >= 1e-3
        assert live.any()
        assert dev[live].max() <= 1e-10
        assert (dev * basis.eigenvalues).max() <= 1e-12


def test_criterion_04_weighted_least_squares_oracle():
    # the weighted-inner-product coefficients equal the WLS solve, and the
    # design matrix is exactly orthogonal under the weight matrix
    rng = np.random.default_rng(42)
    for trial in range(50):
        n = int(rng.integers(20, 60))
        d = int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        mode = (Mode.STOCHASTIC, Mode.UNIFORM, Mode.SYMMETRIC,
                Mode.BIAS_CORRECTED)[trial % 4]
        basis = fit_basis(X, KernelSpec.gaussian(bandwidth_grid(X, 1)[0]),
                          min(10, n - 1), mode)
        direct = estimate_coefficients(basis, y)
        wls = wls_coefficients(basis, y)
        assert np.abs(direct - wls).max() <= 1e-10
        Z = basis.eigenvectors
        W = np.diag(basis.n * basis.ortho_weights)
        assert np.abs(Z.T @ W @ Z - basis.n * np.eye(Z.shape[1])).max() <= 1e-8


def test_criterion_05_exact_representation():
    # targets already in the span are recovered: coefficients to 1e-7 and
    # zero loss at noiseless validation points taken from the training rows
    rng = np.random.default_rng(7)
    for trial in range(10):
        X = gen_spiral(60, noise_sd=0.1, seed=trial).features
        J = int(rng.integers(1, 11))
        c = rng.normal(size=J + 1)
        basis = fit_basis(X, KernelSpec.gaussian(1.0), 10, Mode.STOCHASTIC)
        y = basis.eigenvectors[:, : J + 1] @ c
        model = fit(X, y, KernelSpec.gaussian(1.0), j_max=10, J=J)
        assert np.abs(model.coefficients[: J + 1] - c).max() <= 1e-7
        if J + 1 < model.coefficients.size:
            assert np.abs(model.coefficients[J + 1:]).max() <= 1e-7
        holdout = X[::3]
        loss = empirical_loss(predict(model, holdout), y[::3])
        assert loss <= 1e-10


def test_criterion_06_fast_truncation_sweep():
    # the shared-coefficient truncation sweep reproduces refit-from-scratch
    # validation losses across the full grid
    data = gen_spiral(120, noise_sd=0.1, seed=1)
    train, val, _ = split(data, SplitSpec(seed=1))
    bandwidths = tuple(bandwidth_grid(train.features, 3))
    _, report = tune_series(train, val, TuneGrid(bandwidths, j_max=8))
    for bw in bandwidths:
        basis = fit_basis(train.features, KernelSpec.gaussian(bw), 8,
                          Mode.STOCHASTIC)
        coef = estimate_coefficients(basis, train.responses)
        for J in range(9):
            refit = empirical_loss(
                predict(SeriesModel(basis, coef, J), val.features),
                val.responses)
            assert abs(report.loss_surface[("gaussian", bw, J)] - refit) <= 1e-10


def test_criterion_07_dimension_independence():
    # circle response in d ambient dimensions: tuned loss varies < 1.5x and
    # post-kernel compute varies < 1.3x across d (pilot: 1.13x, 1.0-1.2x).
    # Compute is each seed's eigendecomposition plus coefficient seconds,
    # compared as the median over seeds: a sum of ~50 intervals of ~7 ms
    # per d would hinge on a handful of scheduler stalls.
    _warm_blas()
    start = time.perf_counter()
    loss_rows, time_rows = run_circle_dims(
        dims=(10, 100, 500), n=500, n_seeds=10, noise_var=0.5,
        grid_size=5, j_max=30, method=EigenMethod("full"))
    wall = time.perf_counter() - start
    medians, compute = {}, {}
    for d in (10, 100, 500):
        medians[d] = float(np.median(
            [r["loss"] for r in loss_rows if r["sweep_value"] == d]))
        compute[d] = float(np.median([
            sum(r["seconds"] for r in time_rows if r["sweep_value"] == d
                and r["seed"] == seed
                and r["stage"] in ("eigendecomposition", "coefficient"))
            for seed in range(10)]))
    loss_ratio = max(medians.values()) / min(medians.values())
    assert loss_ratio < 1.5, f"loss ratio {loss_ratio:.3f}, medians per d {medians}"
    compute_ratio = max(compute.values()) / min(compute.values())
    assert compute_ratio < 1.3, (
        f"compute ratio {compute_ratio:.3f}, median seconds per d {compute}")
    assert wall < 300.0


def test_criterion_08_series_matches_krr(spiral_suite):
    # matched Gaussian kernels: tuned series and KRR medians within 1.3x on
    # both benchmarks (pilot: spiral 1.11x, circle d=100 1.05x)
    spiral_ratio = (max(spiral_suite("series-radial"), spiral_suite("krr-radial"))
                    / min(spiral_suite("series-radial"), spiral_suite("krr-radial")))
    assert spiral_ratio < 1.3

    series_losses, krr_losses = [], []
    for seed in range(10):
        data = gen_circle(500, 100, 0.5, seed=seed, rotate=True)
        train, val, test = split(data, SplitSpec(seed=seed))
        bandwidths = tuple(bandwidth_grid(train.features, 5))
        _, _, ev = _tuned_series(train, val, test, 5, 30)
        series_losses.append(ev[0])
        _, _, ev = _tuned_krr(train, val, test, bandwidths,
                              krr_penalty_grid(train.responses))
        krr_losses.append(ev[0])
    ms, mk = float(np.median(series_losses)), float(np.median(krr_losses))
    assert max(ms, mk) / min(ms, mk) < 1.3


def test_criterion_09_radial_beats_linear(spiral_suite):
    # the adaptive radial basis must beat the degree-1 polynomial series
    # (a linear-projection basis) on the spiral (pilot: 0.0009 vs 0.43)
    assert spiral_suite("series-radial") < spiral_suite("series-poly1")


def test_criterion_10_randomized_solver_fidelity():
    # randomized eigendecomposition: eigenvalues to rel 1e-3, tuned loss
    # within 1.1x, and at n=2000 at most 0.6x the full solver's wall clock
    # (pilot: 1e-8, 1.01x, 0.07x)
    data = gen_circle(1000, 10, 0.5, seed=0, rotate=True)
    X = data.features
    eps = bandwidth_grid(X, 1)[0]
    A = symmetric_normalize(gram_matrix(KernelSpec.gaussian(eps), X))
    full_vals, _ = eigendecompose(A, 20, EigenMethod("full"))
    rnd_vals, _ = eigendecompose(A, 20, EigenMethod("randomized", seed=0))
    assert (np.abs(rnd_vals - full_vals) / np.abs(full_vals)).max() <= 1e-3

    train, val, test = split(data, SplitSpec(seed=0))
    _, _, ev_full = _tuned_series(train, val, test, 5, 20,
                                  method=EigenMethod("full"))
    _, _, ev_rnd = _tuned_series(train, val, test, 5, 20,
                                 method=EigenMethod("randomized", seed=0))
    assert max(ev_full[0], ev_rnd[0]) / min(ev_full[0], ev_rnd[0]) <= 1.1

    big = gen_circle(2000, 10, 0.5, seed=0, rotate=True).features
    A2 = symmetric_normalize(
        gram_matrix(KernelSpec.gaussian(bandwidth_grid(big, 1)[0]), big))
    eigendecompose(A2, 20, EigenMethod("randomized", seed=0))  # warmup
    ratios = []
    for _ in range(3):
        t0 = time.perf_counter()
        eigendecompose(A2, 20, EigenMethod("full"))
        t_full = time.perf_counter() - t0
        t0 = time.perf_counter()
        eigendecompose(A2, 20, EigenMethod("randomized", seed=0))
        ratios.append((time.perf_counter() - t0) / t_full)
    median = float(np.median(ratios))
    assert median <= 0.6, f"median {median:.3f} of the randomized / full time ratios {ratios}"


def test_criterion_11_loss_shrinks_with_sample_size():
    # growing-n spiral suite: median tuned series loss is nonincreasing
    # across every doubling (pilot medians 0.0082/0.0075/0.0047/0.0041)
    loss_rows, _ = run_growing_n(ns=(100, 200, 400, 800), n_seeds=10)
    medians = []
    for n in (100, 200, 400, 800):
        medians.append(float(np.median(
            [r["loss"] for r in loss_rows
             if r["estimator"] == "series-full" and r["sweep_value"] == n])))
    assert all(b <= a for a, b in zip(medians, medians[1:])), medians


def test_criterion_12_smoothness_diagnostic():
    # for y equal to one basis function the roughness functional returns that
    # function's spectrum entry, and roughness grows along the spectrum
    X = gen_spiral(150, noise_sd=0.1, seed=2).features
    basis = fit_basis(X, KernelSpec.gaussian(1.0), 10, Mode.STOCHASTIC)
    nu2 = smoothness_spectrum(basis)
    values = {}
    for k in (1, 3, 5):
        model = fit(X, basis.eigenvectors[:, k], KernelSpec.gaussian(1.0),
                    j_max=10)
        values[k] = smoothness_functional(model)
        assert abs(values[k] - nu2[k]) <= 1e-6
    assert values[1] < values[3] < values[5]


def test_criterion_13_cli_round_trip(tmp_path):
    # tune -> archive -> load -> predict is bit-identical to fit-time
    # predictions, through both the library and the CSV pipeline, and the
    # documented exit codes 0/2/3/4 all surface
    data_csv = tmp_path / "spiral.csv"
    assert main(["gen", "spiral", "--n", "150", "--seed", "0",
                 "--out", str(data_csv)]) == 0

    prefix = tmp_path / "run"
    assert main(["tune", "--data", str(data_csv), "--seed", "0",
                 "--jmax", "12", "--grid-size", "3", "--out", str(prefix)]) == 0
    model, prep = load_model(f"{prefix}.model")
    queries = load_csv(data_csv, response_column="y")
    fit_time = predict(model, prep.apply(queries.features))

    preds_csv = tmp_path / "preds.csv"
    assert main(["predict", "--model", f"{prefix}.model",
                 "--data", str(data_csv), "--out", str(preds_csv)]) == 0
    written = load_csv(preds_csv).features.ravel()
    assert np.array_equal(written, fit_time)

    reloaded, _ = load_model(f"{prefix}.model")
    assert np.array_equal(predict(reloaded, prep.apply(queries.features)),
                          fit_time)

    assert main(["tune", "--data", str(data_csv), "--response", "absent",
                 "--seed", "0", "--out", str(tmp_path / "x")]) == 2
    assert main(["embed", "--data", str(data_csv), "--model",
                 f"{prefix}.model", "--jdim", "25",
                 "--out", str(tmp_path / "e.csv")]) == 3

    raw = (tmp_path / "run.model").read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + hlen])
    header["format_version"] = 99
    blob = json.dumps(header, sort_keys=True).encode()
    (tmp_path / "run.model").write_bytes(
        struct.pack("<Q", len(blob)) + blob + raw[8 + hlen:])
    assert main(["predict", "--model", str(tmp_path / "run.model"),
                 "--data", str(data_csv), "--out", str(tmp_path / "p.csv")]) == 4
