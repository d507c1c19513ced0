"""Reference estimators: Nadaraya-Watson, k-nearest neighbors, kernel ridge."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial.distance import cdist

from .errors import InputError, NumericalError
from .kernels import KernelSpec, check_finite_rows, gram_matrix

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

logger = logging.getLogger(__name__)

KRR_CONDITION_LIMIT = 1e12


def nw_predict(
    X_train: np.ndarray, y: np.ndarray, bandwidth: float, Xnew: np.ndarray
) -> np.ndarray:
    """Locally weighted mean with Gaussian kernel weights.

    Each prediction is a convex combination of training labels, so it lies in
    [min(y), max(y)]. Queries whose weights all underflow get their nearest
    neighbor's label (logged). Query rows with NaN or Inf raise InputError.
    """
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != X_train.shape[0]:
        raise InputError(f"got {y.shape[0]} labels for {X_train.shape[0]} points")
    if not bandwidth > 0:
        raise InputError(f"bandwidth must be > 0, got {bandwidth}")
    Xnew = np.atleast_2d(np.asarray(Xnew, dtype=float))
    check_finite_rows(Xnew)
    K = gram_matrix(KernelSpec.gaussian(bandwidth), Xnew, X_train)
    sums = K.sum(axis=1)
    dead = sums <= 0.0
    sums[dead] = 1.0
    out = (K @ y) / sums
    if dead.any():
        idx = np.nonzero(dead)[0]
        nearest = np.argmin(cdist(Xnew[idx], X_train, "sqeuclidean"), axis=1)
        out[idx] = y[nearest]
        logger.warning(
            "kernel weights underflowed for %d query point(s); "
            "used nearest neighbor's label", idx.size,
        )
    return out


def knn_predict(X_train: np.ndarray, y: np.ndarray, k: int, Xnew: np.ndarray) -> np.ndarray:
    """Mean label over the k nearest training points (distance ties: lowest index).

    Query rows with NaN or Inf raise InputError.
    """
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = X_train.shape[0]
    if y.shape[0] != n:
        raise InputError(f"got {y.shape[0]} labels for {n} points")
    if not (1 <= k <= n):
        raise InputError(f"k must be in 1..{n}, got {k}")
    Xnew = np.atleast_2d(np.asarray(Xnew, dtype=float))
    check_finite_rows(Xnew)
    dists = cdist(Xnew, X_train, "sqeuclidean")
    # stable sort keeps the lowest training index first among equal distances
    order = np.argsort(dists, axis=1, kind="stable")[:, :k]
    return y[order].mean(axis=1)


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
    from above for a positive semi-definite K.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    if y.shape[0] != n:
        raise InputError(f"got {y.shape[0]} labels for {n} points")
    if not penalty > 0:
        raise InputError(f"penalty must be > 0, got {penalty}")
    K = gram_matrix(spec, X)
    ridge = n * penalty
    cond_bound = (np.abs(K).sum(axis=1).max() + ridge) / ridge
    if cond_bound > KRR_CONDITION_LIMIT:
        raise NumericalError(
            f"system condition estimate {cond_bound:.3e} exceeds "
            f"{KRR_CONDITION_LIMIT:.0e}; increase the penalty"
        )
    M = K + ridge * np.eye(n)
    try:
        alpha = scipy.linalg.solve(M, y, assume_a="pos")
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise NumericalError(f"ridge solve failed: {exc}") from exc
    return KRRModel(spec, X, alpha, penalty)


def krr_predict(model: KRRModel, Xnew: np.ndarray) -> np.ndarray:
    """Dual-form prediction at query points; rows with NaN or Inf raise InputError."""
    Xnew = np.atleast_2d(np.asarray(Xnew, dtype=float))
    check_finite_rows(Xnew)
    Kx = gram_matrix(model.kernel, Xnew, model.training_points)
    return Kx @ model.dual_coefficients


def krr_penalty_grid(y: np.ndarray, n_grid: int = 10) -> np.ndarray:
    """Log-spaced ridge penalties 1e-8..1e2 scaled by the response variance."""
    y = np.asarray(y, dtype=float).ravel()
    scale = float(np.var(y, ddof=1)) if y.size >= 2 else 1.0
    if scale <= 0.0:
        scale = 1.0
    return np.geomspace(1e-8, 1e2, n_grid) * scale
