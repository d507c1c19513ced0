"""Reference estimators: Nadaraya-Watson, k-nearest neighbors, kernel ridge."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg.lapack
from scipy.spatial.distance import cdist

from .errors import NumericalError
from .kernels import (
    KernelSpec, _checked_int, _checked_positive, _checked_queries, _checked_training, cross_gram,
    gram_matrix, map_blocks, matmul,
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
    normaliser. Queries whose weights all lie below 2^-1021, and so are 0
    (the Gram's floor), get their nearest neighbor's label (logged by
    spectral_series.nystrom). Training points, labels and queries follow the
    input contract (README, "Input contract"); a fault, or a bandwidth that
    is not finite and > 0, raises InputError.
    """
    X_train, y = _checked_training(X_train, y)
    bandwidth = _checked_positive(bandwidth, "bandwidth")
    Xnew = _checked_queries(Xnew, X_train.shape[1])
    return _nw(X_train, y, bandwidth, Xnew)


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
    from above for a positive semi-definite K. The solve takes the route of
    _ridge_solver in the fit's own K: one tridiagonal reduction, O(n^3), made
    to be shared by a penalty sweep over one Gram (tune_baseline), so one fit
    costs more than a Cholesky factorization would. X and y follow the input
    contract (README, "Input contract"); a fault, or a penalty that is not
    finite and > 0, raises InputError, not the NumericalError of a failed
    solve.
    """
    X, y = _checked_training(X, y)
    penalty = _checked_positive(penalty, "penalty")
    K, row_bound = _gram_and_row_bound(spec, X)
    alpha = _ridge_solver(K, y, row_bound)(penalty)
    return KRRModel(spec, X, alpha, penalty)


def max_abs_row_sum(K: np.ndarray) -> float:
    """Largest absolute row sum of K: the Gershgorin radius krr_solve needs."""
    return float(np.abs(K).sum(axis=1).max())


def _gram_and_row_bound(spec: KernelSpec, X: np.ndarray) -> tuple[np.ndarray, float]:
    """The self Gram of checked points X and its max_abs_row_sum, from one build.

    Every Gaussian entry is >= 0, so the largest of the row sums the build
    takes is max_abs_row_sum(K) bit for bit, with no pass of its own; a
    polynomial Gram may hold negative entries and pays that pass.
    """
    if spec.family != "gaussian":
        K = gram_matrix(spec, X)
        return K, max_abs_row_sum(K)
    sums = np.empty(X.shape[0])
    K = gram_matrix(spec, X, sums=sums)
    return K, float(sums.max())


def krr_solve(K: np.ndarray, y: np.ndarray, penalty: float, row_bound: float) -> np.ndarray:
    """Dual coefficients solving (K + n*penalty*I) alpha = y; K and y are not modified.

    row_bound is max_abs_row_sum(K). The solve works in one copy of K, by
    the route of _ridge_solver. A penalty that is not finite and > 0 raises
    InputError; a visibly ill-conditioned system (see krr_fit), a
    K + n*penalty*I that is not positive definite, or a non-finite solution
    raises NumericalError.
    """
    penalty = _checked_positive(penalty, "penalty")
    return _ridge_solver(np.array(K, dtype=float, order="C"), y, row_bound)(penalty)


def _ridge_solver(K: np.ndarray, y: np.ndarray, row_bound: float) -> Callable[[float], np.ndarray]:
    """solve(penalty) -> alpha with (K + n*penalty*I) alpha = y, for any number of penalties.

    The systems differ only by a shift of the diagonal, so they share one
    orthogonal reduction K = Q T Q^T with T tridiagonal (LAPACK dsytrd, in
    place: K is consumed) and one Q^T y. Every penalty meets the condition
    bound (see krr_fit) first, so the reduction is made when the first
    penalty passes it. Each penalty then costs O(n^2): (T + n*penalty*I) z =
    Q^T y by dptsv, O(n), and alpha = Q z by dormqr. K must be C-ordered and
    exactly symmetric, as every self Gram is: the reduction reads the lower
    triangle of its Fortran view, which is its upper triangle. A
    T + n*penalty*I that is not positive definite, or a non-finite alpha,
    raises NumericalError.
    """
    n = K.shape[0]
    reduction = []  # [reflectors, tau, d, e, Q^T y] once made

    def solve(penalty: float) -> np.ndarray:
        ridge = n * penalty
        cond_bound = (row_bound + ridge) / ridge
        if cond_bound > KRR_CONDITION_LIMIT:
            raise NumericalError(
                f"system condition estimate {cond_bound:.3e} exceeds "
                f"{KRR_CONDITION_LIMIT:.0e}; increase the penalty"
            )
        if not reduction:
            reduction.extend(_tridiagonalize(K, y))
        V, tau, d, e, qty = reduction
        # a decoupled unit row keeps e non-empty at n = 1, which the wrapper
        # refuses, and changes no bit of the other entries
        _, _, z, info = scipy.linalg.lapack.dptsv(
            np.append(d + ridge, 1.0), np.append(e, 0.0), np.append(qty, 0.0)[:, None],
            overwrite_d=1, overwrite_e=1, overwrite_b=1)
        if info != 0:
            raise NumericalError(
                f"ridge solve failed: T + n*penalty*I is not positive definite "
                f"(dptsv info {info})"
            )
        alpha = _apply_q(V, tau, z[:n, 0], "N")
        if not np.isfinite(alpha).all():
            raise NumericalError("ridge solve failed: non-finite dual coefficients")
        return alpha

    return solve


def _tridiagonalize(K: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Reflectors, tau, diagonal and off-diagonal of K = Q T Q^T, and Q^T y; K is consumed."""
    n = K.shape[0]
    lwork = int(scipy.linalg.lapack.dsytrd_lwork(n, lower=1)[0])
    c, d, e, tau, _ = scipy.linalg.lapack.dsytrd(K.T, lower=1, lwork=lwork, overwrite_a=1)
    # Q = diag(1, Q'), where Q' is the product of reflectors stored from c[1, 0]
    # down with c's leading dimension: LAPACK dormtr's view for UPLO = 'L'
    V = c.ravel(order="F")[1:1 + n * (n - 1)].reshape(n, n - 1, order="F")
    return V, tau, d, e, _apply_q(V, tau, y, "T")


def _apply_q(V: np.ndarray, tau: np.ndarray, x: np.ndarray, trans: str) -> np.ndarray:
    """Q x (trans "N") or Q^T x ("T") as a new array, for _tridiagonalize's Q."""
    out = np.array(x, dtype=float)
    if out.size > 1:
        # lwork 1 takes the unblocked dorm2r: on one column it measured about
        # twice as fast as the blocked route at n = 800
        cq, _, _ = scipy.linalg.lapack.dormqr("L", trans, V, tau, out[1:, None], 1,
                                             overwrite_c=1)
        out[1:] = cq[:, 0]
    return out


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
    """n_grid log-spaced ridge penalties 1e-8..1e2 scaled by the response variance.

    y holding NaN or Inf, or an n_grid that is not an integer >= 0, raises
    InputError.
    """
    _, y = _checked_training(None, y)
    n_grid = _checked_int(n_grid, "n_grid", 0)
    scale = float(np.var(y, ddof=1)) if y.size >= 2 else 1.0
    if scale <= 0.0:
        scale = 1.0
    return np.geomspace(1e-8, 1e2, n_grid) * scale
