"""Mercer kernels and Gram-matrix construction.

Two families are supported: the Gaussian kernel
``exp(-||x - y||^2 / (4 * bandwidth))`` and the polynomial kernel
``(<x, y> + 1)^degree``. Self Gram matrices are exactly symmetric, so the
downstream symmetric eigensolver never sees floating-point asymmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

from .errors import InputError

__all__ = ["KernelSpec", "kernel_value", "gram_matrix", "bandwidth_grid"]


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its single hyperparameter.

    family is "gaussian" (needs bandwidth > 0) or "poly" (needs integer
    degree >= 1). Distances are Euclidean.
    """

    family: str
    bandwidth: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.family == "gaussian":
            if self.bandwidth is None or not (self.bandwidth > 0):
                raise InputError(f"gaussian kernel needs bandwidth > 0, got {self.bandwidth}")
        elif self.family == "poly":
            if self.degree is None or int(self.degree) != self.degree or self.degree < 1:
                raise InputError(f"poly kernel needs integer degree >= 1, got {self.degree}")
            object.__setattr__(self, "degree", int(self.degree))
        else:
            raise InputError(f"unknown kernel family {self.family!r}")

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        return cls("gaussian", bandwidth=bandwidth)

    @classmethod
    def polynomial(cls, degree: int) -> "KernelSpec":
        return cls("poly", degree=degree)

    def with_bandwidth(self, bandwidth: float) -> "KernelSpec":
        if self.family != "gaussian":
            raise InputError("with_bandwidth only applies to the gaussian family")
        return replace(self, bandwidth=bandwidth)

    def label(self) -> str:
        if self.family == "gaussian":
            return f"gaussian(eps={self.bandwidth:.6g})"
        return f"poly(q={self.degree})"


def _check_dims(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise InputError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]} columns")
    return A, B


def check_finite_rows(X: np.ndarray) -> None:
    """Raise InputError naming the first query row that holds NaN or Inf.

    Such a row has no distance to any training point, so no estimator can
    predict there; without the check, NaN distances sort or fall back to an
    arbitrary training row.
    """
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise InputError(f"query row {int(np.argmin(finite))} contains NaN or Inf")


def kernel_value(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate the kernel on a single pair of d-vectors."""
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise InputError(f"dimension mismatch: {x.shape} vs {y.shape}")
    if spec.family == "gaussian":
        sq = float(np.dot(x - y, x - y))
        return float(np.exp(-sq / (4.0 * spec.bandwidth)))
    return float((np.dot(x, y) + 1.0) ** spec.degree)


def gram_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix K with K[i, j] = k(A_i, B_j).

    With B omitted (or identical to A) the self Gram matrix is computed. It is
    exactly symmetric, and for the Gaussian family its diagonal is exactly 1.
    """
    self_gram = B is None or B is A
    if self_gram:
        A, _ = _check_dims(A, A)
        if spec.family == "gaussian":
            # squareform(pdist) is exactly symmetric and every later step is
            # elementwise, so K needs no symmetrizing pass
            K = squareform(pdist(A, "sqeuclidean"))
            K /= -4.0 * spec.bandwidth
            np.exp(K, out=K)
            np.fill_diagonal(K, 1.0)
            return K
        K = (A @ A.T + 1.0) ** spec.degree
        return 0.5 * (K + K.T)
    A, B = _check_dims(A, B)
    if spec.family == "gaussian":
        return np.exp(-cdist(A, B, "sqeuclidean") / (4.0 * spec.bandwidth))
    return (A @ B.T + 1.0) ** spec.degree


def bandwidth_grid(X: np.ndarray, n_grid: int = 1) -> np.ndarray:
    """Candidate Gaussian bandwidths from the pairwise-distance distribution.

    Values are squared-distance quantiles divided by 4: the median alone for
    n_grid=1, otherwise a log-spaced grid spanning the 1st to 99th percentile.
    Zero distances (duplicate points) are dropped before taking quantiles.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 2:
        raise InputError("bandwidth_grid needs at least 2 points")
    if n_grid < 1:
        raise InputError("n_grid must be >= 1")
    sq = pdist(X, "sqeuclidean")
    sq = sq[sq > 0.0]
    if sq.size == 0:
        raise InputError("all points identical; no distance scale to build a grid from")
    if n_grid == 1:
        return np.array([float(np.median(sq)) / 4.0])
    lo = float(np.percentile(sq, 1.0)) / 4.0
    hi = float(np.percentile(sq, 99.0)) / 4.0
    # degenerate spread (e.g. one distinct distance) collapses to one value
    if not hi > lo:
        return np.array([lo])
    return np.geomspace(lo, hi, n_grid)
