"""Metamorphic invariants of fit/predict and tune_series: exact properties of the estimator.

They hold whatever the eigensolver's rounding, so they gate a change that
moves bits without needing its parent's bits:

- linearity in the responses: the basis does not read y and the
  coefficients are linear in it, so 3y gives 3x the predictions;
- a constant shift of the responses shifts every prediction by that
  constant in Stochastic and BiasCorrected modes, whose first basis
  function is the constant with eigenvalue 1 (Symmetric and Uniform modes
  do not reproduce constants; README);
- a permutation of the training rows permutes K, its normalization and the
  basis functions' values alike, so the predictions do not change;
- a rotation plus translation of training and query points leaves every
  Gaussian kernel entry as it was up to rounding, so the predictions do not
  change. It runs at d = 2, 12 and 40, one width per route of a Gaussian
  self Gram (kernels._gram_into: from the points, from pdist's distances,
  from the BLAS route's), and translates by about 1e3 per coordinate, so
  that the BLAS route's centering on the column mean is put to work;
- tune_series' chosen (kernel, J) and its validation loss do not change
  under a permutation of the training rows or a rotation plus translation
  of both splits.

Linearity, permutation and shift run for every mode they hold in with the
two exact methods. "randomized" is left out of the permutation property: it
draws its Gaussian probe matrix in row order, so permuted rows meet other
probe entries and span another approximate subspace. It is left out of the
shift property too: its first basis function is only near the constant
(a shift was off by up to 2.3e-3 of max |prediction| at the 2nd grid
bandwidth). The rotation keeps the row order, so it runs all three methods.
The training set holds LANCZOS_MIN_N rows and 2 (j_max + 1) + 1 < n, so
"lanczos" runs ARPACK, not its LAPACK hand-over.

Each fit/predict tolerance is relative to max |prediction|; its margin over
the worst deviation seen (at these sizes, the 2nd to 4th of 5 grid
bandwidths) and over the roadmap's probe (300 spiral points, the 2nd
bandwidth) is written beside it. A tuning case must have no near-tie: the
runner-up entry of its loss surface must lie more than NO_TIE_GAP above the
chosen loss, or hypothesis discards the case. Over 8 seeds at each of
d = 2, 12 and 40 the gaps seen were 3.8e-3 to 0.11, 4.7e-4 to 0.18 and
5.3e-4 to 4.6e-2, against loss changes of at most 2.7e-13 under either
transformation.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_series import (
    Dataset, EigenMethod, KernelSpec, Mode, SplitSpec, TuneGrid, bandwidth_grid, fit, gen_spiral,
    predict, split, tune_series,
)
from spectral_series.diffusion import LANCZOS_MIN_N

N_TRAIN, N_QUERY = LANCZOS_MIN_N, 200
J_MAX, J = 40, 30
# 33x the worst linearity deviation seen, 1200x the roadmap probe's
LINEARITY_RTOL = 1e-12
# 100x the worst permutation deviation seen, 3200x the roadmap probe's
PERMUTATION_RTOL = 1e-11
# 37x the worst shift deviation seen (2.7e-14), 100x the roadmap probe's (9.7e-15)
SHIFT_RTOL = 1e-12
# 45x the worst rotation deviation seen (2.2e-13, at d = 12), 380x the
# roadmap probe's (2.6e-14); centering the d = 40 distances on 0 instead of
# the column mean read 1.3e-9
ROTATION_RTOL = 1e-11
TRANSLATION_SCALE = 1e3
# the runner-up's relative excess over the chosen loss that makes a tuning
# case free of near-ties: 3.7e4x the largest loss change seen
NO_TIE_GAP = 1e-8
# relative change of the chosen validation loss: 370x the largest seen
TUNE_LOSS_RTOL = 1e-10

cases = given(seed=st.integers(0, 2**20), grid_index=st.integers(1, 3))
few = settings(max_examples=3, deadline=None)
exact_methods = ("lanczos", "full")
modes_and_methods = pytest.mark.parametrize(
    "mode, method", [(mode, method) for mode in Mode for method in exact_methods],
    ids=lambda v: getattr(v, "value", v))
widths = pytest.mark.parametrize("d", [2, 12, 40])


def _points(seed: int, n: int, d: int) -> Dataset:
    """Spiral points with d - 2 noise columns beside them."""
    data = gen_spiral(n, noise_sd=0.1, seed=seed)
    if d == 2:
        return data
    noise = 0.3 * np.random.default_rng(seed).normal(size=(n, d - 2))
    return Dataset(np.hstack([data.features, noise]), data.responses)


def _case(seed: int, grid_index: int, d: int = 2):
    data = _points(seed, N_TRAIN + N_QUERY, d)
    X, y, Q = data.features[:N_TRAIN], data.responses[:N_TRAIN], data.features[N_TRAIN:]
    spec = KernelSpec.gaussian(float(bandwidth_grid(X, 5)[grid_index]))
    return X, y, Q, spec


def _moved(seed: int, d: int):
    """A random rotation plus translation of d-column rows, as a function of them."""
    rng = np.random.default_rng(seed)
    rotation, _ = np.linalg.qr(rng.normal(size=(d, d)))
    shift = TRANSLATION_SCALE * rng.normal(size=d)
    return lambda rows: rows @ rotation.T + shift


def _predictions(X, y, spec, mode, method, Q):
    return predict(fit(X, y, spec, J_MAX, mode, EigenMethod(method), J=J), Q)


def test_lanczos_runs_arpack():
    assert N_TRAIN >= LANCZOS_MIN_N and 2 * (J_MAX + 1) + 1 < N_TRAIN


@modes_and_methods
@few
@cases
def test_predictions_are_linear_in_the_responses(mode, method, seed, grid_index):
    X, y, Q, spec = _case(seed, grid_index)
    base = _predictions(X, y, spec, mode, method, Q)
    tripled = _predictions(X, 3.0 * y, spec, mode, method, Q)
    scale = 3.0 * np.abs(base).max()
    assert np.abs(tripled - 3.0 * base).max() <= LINEARITY_RTOL * scale


@pytest.mark.parametrize("mode", [Mode.STOCHASTIC, Mode.BIAS_CORRECTED], ids=lambda m: m.value)
@pytest.mark.parametrize("method", exact_methods)
@few
@cases
def test_a_constant_shift_of_the_responses_shifts_the_predictions(mode, method, seed,
                                                                  grid_index):
    X, y, Q, spec = _case(seed, grid_index)
    base = _predictions(X, y, spec, mode, method, Q)
    shifted = _predictions(X, y + 5.0, spec, mode, method, Q)
    assert np.abs(shifted - 5.0 - base).max() <= SHIFT_RTOL * np.abs(base).max()


@modes_and_methods
@few
@cases
def test_predictions_ignore_the_training_row_order(mode, method, seed, grid_index):
    X, y, Q, spec = _case(seed, grid_index)
    order = np.random.default_rng(seed).permutation(N_TRAIN)
    base = _predictions(X, y, spec, mode, method, Q)
    permuted = _predictions(X[order], y[order], spec, mode, method, Q)
    assert np.abs(permuted - base).max() <= PERMUTATION_RTOL * np.abs(base).max()


@widths
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**20), grid_index=st.integers(1, 3), mode=st.sampled_from(Mode),
       method=st.sampled_from(("lanczos", "full", "randomized")))
def test_predictions_ignore_a_rotation_and_translation(d, seed, grid_index, mode, method):
    X, y, Q, spec = _case(seed, grid_index, d)
    move = _moved(seed, d)
    base = _predictions(X, y, spec, mode, method, Q)
    moved = _predictions(move(X), y, spec, mode, method, move(Q))
    assert np.abs(moved - base).max() <= ROTATION_RTOL * np.abs(base).max()


@widths
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_tuning_ignores_the_row_order_and_a_rotation(d, seed):
    train, val, _ = split(_points(seed, 2 * N_TRAIN, d), SplitSpec(seed=seed))
    # one grid for every run, so that a chosen key names the same bandwidth
    grid = TuneGrid(tuple(bandwidth_grid(train.features, 5)), j_max=J)
    report = tune_series(train, val, grid)[1]
    runner_up = min(v for k, v in report.loss_surface.items() if k != report.chosen)
    assume(runner_up > (1.0 + NO_TIE_GAP) * report.val_loss)
    order = np.random.default_rng(seed).permutation(train.n)
    move = _moved(seed, d)
    for other in (tune_series(Dataset(train.features[order], train.responses[order]), val,
                              grid)[1],
                  tune_series(Dataset(move(train.features), train.responses),
                              Dataset(move(val.features), val.responses), grid)[1]):
        assert other.chosen == report.chosen
        assert abs(other.val_loss - report.val_loss) <= TUNE_LOSS_RTOL * report.val_loss
