"""Metamorphic invariants of fit/predict: exact properties of the estimator.

They hold whatever the eigensolver's rounding, so they gate a change that
moves bits without needing its parent's bits:

- linearity in the responses: the basis does not read y and the
  coefficients are linear in it, so 3y gives 3x the predictions;
- a permutation of the training rows permutes K, its normalization and the
  basis functions' values alike, so the predictions do not change.

Both run for every mode with the two exact methods. "randomized" is left
out of the permutation property: it draws its Gaussian probe matrix in row
order, so permuted rows meet other probe entries and span another
approximate subspace. The training set holds LANCZOS_MIN_N rows and
2 (j_max + 1) + 1 < n, so "lanczos" runs ARPACK, not its LAPACK hand-over.

Each tolerance is relative to max |prediction|. The worst deviations seen
were, over 6 seeds and the 2nd to 4th of 5 grid bandwidths at these sizes:
linearity 3.0e-14 and permutation 1.0e-13 (the 4th bandwidth, the widest
here); the roadmap's probe at the 2nd bandwidth read 8.5e-16 and 3.1e-14.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_series import EigenMethod, KernelSpec, Mode, bandwidth_grid, fit, gen_spiral, predict
from spectral_series.diffusion import LANCZOS_MIN_N

N_TRAIN, N_QUERY = LANCZOS_MIN_N, 200
J_MAX, J = 40, 30
# 33x the worst linearity deviation seen, 1200x the roadmap probe's
LINEARITY_RTOL = 1e-12
# 100x the worst permutation deviation seen, 3200x the roadmap probe's
PERMUTATION_RTOL = 1e-11

cases = given(seed=st.integers(0, 2**20), grid_index=st.integers(1, 3))
few = settings(max_examples=3, deadline=None)
modes_and_methods = pytest.mark.parametrize(
    "mode, method", [(mode, method) for mode in Mode for method in ("lanczos", "full")],
    ids=lambda v: getattr(v, "value", v))


def _case(seed: int, grid_index: int):
    data = gen_spiral(N_TRAIN + N_QUERY, noise_sd=0.1, seed=seed)
    X, y, Q = data.features[:N_TRAIN], data.responses[:N_TRAIN], data.features[N_TRAIN:]
    spec = KernelSpec.gaussian(float(bandwidth_grid(X, 5)[grid_index]))
    return X, y, Q, spec


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


@modes_and_methods
@few
@cases
def test_predictions_ignore_the_training_row_order(mode, method, seed, grid_index):
    X, y, Q, spec = _case(seed, grid_index)
    order = np.random.default_rng(seed).permutation(N_TRAIN)
    base = _predictions(X, y, spec, mode, method, Q)
    permuted = _predictions(X[order], y[order], spec, mode, method, Q)
    assert np.abs(permuted - base).max() <= PERMUTATION_RTOL * np.abs(base).max()
