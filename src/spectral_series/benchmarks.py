"""Benchmark suites: dimension sweep, sample-size sweep, estimator comparison.

Each suite returns long-format rows ready for CSV export: loss rows with
LOSS_FIELDS and timing rows with TIME_FIELDS. SUITES maps the names the CLI
accepts to the suite functions, whose signatures hold the only copy of each
suite's defaults. Suites are deterministic given their seed list and run
cells sequentially so stage wall-clocks stay comparable; the dimension
sweep runs seed-major so that warm-up and machine drift do not land on a
single sweep value.
"""

from __future__ import annotations

import logging

import numpy as np

from .baselines import krr_penalty_grid, krr_predict
from .dataset import SplitSpec, gen_circle, gen_spiral, split
from .diffusion import EigenMethod, Mode
from .kernels import KernelSpec, bandwidth_grid
from .model_selection import TuneGrid, _rank, evaluate_on, tune_baseline, tune_series
from .series import predict

__all__ = [
    "LOSS_FIELDS",
    "SUITES",
    "TIME_FIELDS",
    "run_circle_dims",
    "run_growing_n",
    "run_spiral_compare",
    "knn_candidates",
]

logger = logging.getLogger(__name__)

LOSS_FIELDS = ("suite", "estimator", "sweep_value", "seed", "loss", "se")
TIME_FIELDS = ("suite", "estimator", "sweep_value", "seed", "stage", "seconds")

# two full turns: long enough that the adaptive basis matters, short enough
# that ambient-metric estimators (KRR, NW) stay in their stable regime
DEFAULT_COMPARE_U_MAX = float(4.0 * np.pi ** 2)


def knn_candidates(n_train: int, n_grid: int = 10) -> list[int]:
    """Log-spaced neighbor counts from 1 to n_train, deduplicated."""
    ks = np.unique(np.geomspace(1, n_train, n_grid).round().astype(int))
    return [int(k) for k in ks]


def _add_rows(loss_rows, time_rows, cell, timings, test):
    """Append the loss row and one timing row per stage for one cell.

    cell is (suite, estimator, sweep_value, seed); test is (loss, se).
    """
    key = dict(zip(LOSS_FIELDS[:4], cell))
    loss_rows.append({**key, "loss": test[0], "se": test[1]})
    time_rows.extend({**key, "stage": stage, "seconds": secs}
                     for stage, secs in timings.items())


def _tuned_series(train, val, test, grid_size, j_max, mode=Mode.STOCHASTIC,
                  method=None, degrees=()):
    if degrees:
        grid = TuneGrid(degrees=tuple(degrees), j_max=j_max)
    else:
        grid = TuneGrid(tuple(bandwidth_grid(train.features, grid_size)), j_max=j_max)
    model, report = tune_series(train, val, grid, mode=mode, method=method)
    test_eval = evaluate_on(lambda X: predict(model, X), test)
    report.test_loss, report.test_se = test_eval
    return model, report, test_eval


def _tuned_krr(train, val, test, bandwidths, penalties):
    best = None  # (rank, model)
    timings = {"fit": 0.0, "validation": 0.0}
    for eps in bandwidths:
        model, report = tune_baseline(train, val, penalties, "krr",
                                      kernel=KernelSpec.gaussian(eps))
        timings["fit"] += report.timings["fit"]
        timings["validation"] += report.timings["validation"]
        # the tuners' tie rule: at equal loss the wider bandwidth wins
        rank = _rank(("gaussian", float(eps), -1), report.val_loss)
        if best is None or rank < best[0]:
            best = (rank, model)
    model = best[1]
    test_eval = evaluate_on(lambda X: krr_predict(model, X), test)
    return model, timings, test_eval


def run_circle_dims(
    dims=(10, 50, 100, 500, 1000, 2500),
    n: int = 500,
    n_seeds: int = 10,
    noise_var: float = 0.5,
    grid_size: int = 5,
    j_max: int = 30,
    method: EigenMethod | None = None,
):
    """Tuned Gaussian-kernel series regression on a circle embedded in R^d.

    The manifold is one-dimensional regardless of d, so test loss and the
    post-kernel pipeline stages should not grow with the ambient dimension.
    Cells run seed-major (every d for seed 0, then seed 1, ...) so each d
    sees the same machine state.
    """
    loss_rows, time_rows = [], []
    for seed in range(n_seeds):
        for d in dims:
            data = gen_circle(n, d, noise_var, seed=seed, rotate=True)
            train, val, test = split(data, SplitSpec(seed=seed))
            _, report, test_eval = _tuned_series(train, val, test, grid_size, j_max,
                                                 method=method)
            _add_rows(loss_rows, time_rows, ("circle-dims", "series-radial", d, seed),
                      report.timings, test_eval)
        logger.info("circle-dims seed=%d done", seed)
    return loss_rows, time_rows


def run_growing_n(
    ns=(100, 200, 400, 800),
    n_seeds: int = 10,
    noise_sd: float = 0.25,
    test_n: int = 2000,
    grid_size: int = 5,
    j_max: int = 40,
):
    """Tuned spiral fits as the sample doubles, Full vs Randomized eigensolver.

    Each replicate tunes on a fresh size-n sample (2:1 train:validation) and
    scores on a fixed held-out sample of test_n points, so losses are
    comparable across n. Per-point squared errors are heavy-tailed here; an
    evaluation set that grew with n would drag the seed-median toward the
    tail and mask the trend.
    """
    loss_rows, time_rows = [], []
    for n in ns:
        for seed in range(n_seeds):
            data = gen_spiral(n, noise_sd=noise_sd, seed=seed)
            perm = np.random.default_rng(seed).permutation(n)
            n_train = (2 * n) // 3
            train = data.take(np.sort(perm[:n_train]))
            val = data.take(np.sort(perm[n_train:]))
            test = gen_spiral(test_n, noise_sd=noise_sd, seed=10_000 + seed)
            for label, method in (
                ("series-full", EigenMethod("full")),
                ("series-randomized", EigenMethod("randomized", seed=seed)),
            ):
                _, report, test_eval = _tuned_series(
                    train, val, test, grid_size, min(j_max, train.n - 1),
                    method=method)
                _add_rows(loss_rows, time_rows, ("growing-n", label, n, seed),
                          report.timings, test_eval)
        logger.info("growing-n n=%d done", n)
    return loss_rows, time_rows


def run_spiral_compare(
    n: int = 400,
    n_seeds: int = 10,
    noise_sd: float = 0.1,
    u_max: float = DEFAULT_COMPARE_U_MAX,
    grid_size: int = 5,
    j_max: int = 30,
    poly_degrees=(1, 2, 3, 4, 5, 6),
):
    """Estimator comparison on the noisy spiral: series, KRR, NW, kNN.

    Emits both the degree-tuned polynomial series and the fixed degree-1
    variant (a linear-kernel series, the weakest reference point).
    """
    loss_rows, time_rows = [], []
    for seed in range(n_seeds):
        data = gen_spiral(n, noise_sd=noise_sd, u_max=u_max, seed=seed)
        train, val, test = split(data, SplitSpec(seed=seed))
        bandwidths = tuple(bandwidth_grid(train.features, grid_size))
        penalties = krr_penalty_grid(train.responses)

        for label, degrees in (("series-radial", ()), ("series-poly", poly_degrees),
                               ("series-poly1", (1,))):
            _, report, ev = _tuned_series(train, val, test, grid_size, j_max,
                                          degrees=degrees)
            _add_rows(loss_rows, time_rows, ("spiral-compare", label, n, seed),
                      report.timings, ev)

        _, timings, ev = _tuned_krr(train, val, test, bandwidths, penalties)
        _add_rows(loss_rows, time_rows, ("spiral-compare", "krr-radial", n, seed),
                  timings, ev)

        for kind, candidates in (("nw", bandwidths),
                                 ("knn", knn_candidates(train.n))):
            model, report = tune_baseline(train, val, candidates, kind)
            ev = evaluate_on(model.predict, test)
            _add_rows(loss_rows, time_rows, ("spiral-compare", kind, n, seed),
                      report.timings, ev)
        logger.info("spiral-compare seed=%d done", seed)
    return loss_rows, time_rows


SUITES = {
    "circle-dims": run_circle_dims,
    "growing-n": run_growing_n,
    "spiral-compare": run_spiral_compare,
}
