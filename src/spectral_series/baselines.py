"""Reference estimators: Nadaraya-Watson, k-nearest neighbors, kernel ridge."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack
from scipy.spatial.distance import cdist

from .errors import InputError, NumericalError
from .kernels import (
    KernelSpec, _checked_int, _checked_queries, _checked_training, cross_gram, gram_matrix,
    map_blocks, matmul,
)
from .nystrom import _extend

__all__ = [
    "NWModel",
    "KNNModel",
    "KRRModel",
    "nw_predict",
    "knn_predict",
    "krr_fit",
    "krr_predict",
    "krr_penalty_grid",
]

KRR_CONDITION_LIMIT = 1e12


def nw_predict(
    X_train: np.ndarray, y: np.ndarray, bandwidth: float, Xnew: np.ndarray
) -> np.ndarray:
    """Locally weighted mean with Gaussian kernel weights.

    Each prediction is a convex combination of training labels, so it lies in
    [min(y), max(y)]. It is nystrom's Stochastic extension of y: one product
    of each cross Gram block with [y | 1] gives the weighted sums and their
    normaliser. Queries whose weights all underflow get their nearest
    neighbor's label (logged by spectral_series.nystrom). Training points,
    labels and queries follow the input contract (README, "Input contract");
    a fault, or a bandwidth that is not > 0, raises InputError.
    """
    X_train, y = _checked_training(X_train, y)
    bandwidth = _checked_bandwidth(bandwidth)
    Xnew = _checked_queries(Xnew, X_train.shape[1])
    return _nw(X_train, y, bandwidth, Xnew)


def _checked_bandwidth(bandwidth: float) -> float:
    if not bandwidth > 0:
        raise InputError(f"bandwidth must be > 0, got {bandwidth}")
    return float(bandwidth)


def _nw(X_train: np.ndarray, y: np.ndarray, bandwidth: float, Xnew: np.ndarray) -> np.ndarray:
    """nw_predict on checked inputs, which are not scanned again."""
    M = np.column_stack([y, np.ones_like(y)])
    return _extend(KernelSpec.gaussian(bandwidth), X_train, Xnew, M, y, 1.0)


def knn_predict(X_train: np.ndarray, y: np.ndarray, k: int, Xnew: np.ndarray) -> np.ndarray:
    """Mean label over the k nearest training points (distance ties: lowest index).

    Training points, labels and queries follow the input contract (README,
    "Input contract"); a fault, or a k that is not an integer in 1..n, raises
    InputError.
    """
    X_train, y = _checked_training(X_train, y)
    k = _checked_int(k, "k", 1, X_train.shape[0])
    Xnew = _checked_queries(Xnew, X_train.shape[1])
    return _knn(X_train, y, k, Xnew)


def _knn(X_train: np.ndarray, y: np.ndarray, k: int, Xnew: np.ndarray) -> np.ndarray:
    """knn_predict on checked inputs, which are not scanned again."""
    out = np.empty(Xnew.shape[0])

    def block(rows: slice) -> None:
        # stable sort keeps the lowest training index first among equal distances
        order = np.argsort(cdist(Xnew[rows], X_train, "sqeuclidean"),
                           axis=1, kind="stable")
        out[rows] = y[order[:, :k]].mean(axis=1)

    # cdist and argsort are single-threaded loops at every d
    map_blocks(block, Xnew.shape[0], X_train.shape[0])
    return out


@dataclass(frozen=True)
class NWModel:
    """Nadaraya-Watson smoother: training sample plus a Gaussian bandwidth."""

    training_points: np.ndarray
    responses: np.ndarray
    bandwidth: float

    def predict(self, Xnew: np.ndarray) -> np.ndarray:
        return nw_predict(self.training_points, self.responses, self.bandwidth, Xnew)


@dataclass(frozen=True)
class KNNModel:
    """k-nearest-neighbor regressor."""

    training_points: np.ndarray
    responses: np.ndarray
    k: int

    def predict(self, Xnew: np.ndarray) -> np.ndarray:
        return knn_predict(self.training_points, self.responses, self.k, Xnew)


@dataclass(frozen=True)
class KRRModel:
    """Kernel ridge regressor in dual form: f(x) = sum_i alpha_i k(x, X_i)."""

    kernel: KernelSpec
    training_points: np.ndarray
    dual_coefficients: np.ndarray
    penalty: float

    def predict(self, Xnew: np.ndarray) -> np.ndarray:
        return krr_predict(self, Xnew)


def krr_fit(X: np.ndarray, y: np.ndarray, spec: KernelSpec, penalty: float) -> KRRModel:
    """Solve (K + n*penalty*I) alpha = y.

    Refuses visibly ill-conditioned systems: the Gershgorin bound
    max_rowsum(K + n*penalty*I) / (n*penalty) estimates the condition number
    from above for a positive semi-definite K. X and y follow the input
    contract (README, "Input contract"); a fault raises InputError, not the
    NumericalError of a failed solve.
    """
    X, y = _checked_training(X, y)
    K = gram_matrix(spec, X)
    alpha = krr_solve(K, y, penalty, max_abs_row_sum(K))
    return KRRModel(spec, X, alpha, penalty)


def max_abs_row_sum(K: np.ndarray) -> float:
    """Largest absolute row sum of K: the Gershgorin radius krr_solve needs."""
    return float(np.abs(K).sum(axis=1).max())


def krr_solve(K: np.ndarray, y: np.ndarray, penalty: float, row_bound: float) -> np.ndarray:
    """Dual coefficients solving (K + n*penalty*I) alpha = y; K and y are not modified.

    row_bound is max_abs_row_sum(K), passed in so that a penalty sweep over
    one K takes it once. Refuses visibly ill-conditioned systems (see krr_fit).
    Each call is one Cholesky factorization (LAPACK ``dposv``) done in place
    on a single copy of K with the ridge added to its diagonal. K must be
    exactly symmetric, as every self Gram is: the factorization reads the
    upper triangle of the copy's Fortran view, which is its lower triangle.
    A failed factorization (K + n*penalty*I not positive definite) or a
    non-finite solution raises NumericalError.
    """
    n = K.shape[0]
    if not penalty > 0:
        raise InputError(f"penalty must be > 0, got {penalty}")
    ridge = n * penalty
    cond_bound = (row_bound + ridge) / ridge
    if cond_bound > KRR_CONDITION_LIMIT:
        raise NumericalError(
            f"system condition estimate {cond_bound:.3e} exceeds "
            f"{KRR_CONDITION_LIMIT:.0e}; increase the penalty"
        )
    M = np.array(K, dtype=float, order="C")
    M.flat[:: n + 1] += ridge  # off the diagonal, K + ridge*I adds +0.0: same bits
    _, alpha, info = scipy.linalg.lapack.dposv(M.T, y, lower=0, overwrite_a=1)
    if info != 0:
        raise NumericalError(
            f"ridge solve failed: Cholesky factorization broke down (dposv info {info})"
        )
    if not np.isfinite(alpha).all():
        raise NumericalError("ridge solve failed: non-finite dual coefficients")
    return alpha


def krr_predict(model: KRRModel, Xnew: np.ndarray) -> np.ndarray:
    """Dual-form prediction at query points, checked as in the input contract."""
    Xnew = _checked_queries(Xnew, model.training_points.shape[1])
    alpha = model.dual_coefficients
    gram = cross_gram(model.kernel, model.training_points)
    out = np.empty(Xnew.shape[0])
    map_blocks(lambda rows: matmul(gram(Xnew[rows]), alpha, out=out[rows]),
               Xnew.shape[0], model.training_points.shape[0], Xnew.shape[1])
    return out


def krr_penalty_grid(y: np.ndarray, n_grid: int = 10) -> np.ndarray:
    """Log-spaced ridge penalties 1e-8..1e2 scaled by the response variance.

    y holding NaN or Inf raises InputError.
    """
    _, y = _checked_training(None, y)
    scale = float(np.var(y, ddof=1)) if y.size >= 2 else 1.0
    if scale <= 0.0:
        scale = 1.0
    return np.geomspace(1e-8, 1e2, n_grid) * scale
