"""The spectral series regression estimator.

A response is expanded in the adaptive eigenbasis: f(x) = sum_j beta_j
psi_j(x). Coefficients are weighted empirical projections; prediction
composes them with the out-of-sample extension. Coefficients are always
estimated up to the basis cutoff, so changing the truncation J is free.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .diffusion import EigenBasis, EigenMethod, Mode, fit_basis, smoothness_spectrum
from .errors import InputError, NumericalError
from .kernels import KernelSpec, _checked_int, _checked_queries, _checked_training, matmul
from . import nystrom

__all__ = [
    "SeriesModel",
    "estimate_coefficients",
    "wls_coefficients",
    "predict",
    "fit",
    "fit_ssl",
    "smoothness_functional",
]


@dataclass(frozen=True)
class SeriesModel:
    """Fitted expansion: basis, coefficients up to the cutoff, truncation J.

    Only terms 0..J enter predictions; the remaining coefficients are kept so
    retruncation does not refit anything. ssl records whether unlabeled rows
    entered the basis. The expansion operands of terms 0..J are folded on the
    first predict and kept with the model, not in its archive.
    """

    basis: EigenBasis
    coefficients: np.ndarray
    J: int
    ssl: bool = False

    def __post_init__(self):
        coef = np.asarray(self.coefficients, dtype=float).ravel()
        if coef.shape[0] != self.basis.n_components:
            raise InputError(
                f"{coef.shape[0]} coefficients for {self.basis.n_components} components"
            )
        if not np.all(np.isfinite(coef)):
            raise NumericalError("non-finite expansion coefficient")
        object.__setattr__(self, "J", _checked_int(self.J, "J", 0, self.basis.n_components - 1))
        object.__setattr__(self, "coefficients", coef)

    def with_truncation(self, J: int) -> "SeriesModel":
        """Same fit viewed at a different truncation; no recomputation."""
        return replace(self, J=J)

    @cached_property
    def _operands(self) -> tuple[np.ndarray, np.ndarray, float]:
        return nystrom._operands(self.basis, self.J, self.coefficients[: self.J + 1])


def _coefficient_weights(basis: EigenBasis, labeled: np.ndarray | None) -> np.ndarray:
    """Per-row projection weights c so that beta_j = sum_i c_i y_i psi_j(X_i).

    With every row labeled, c is the orthogonality weight and the projections
    are exact under the basis inner product. With a labeled subset, the
    family's sampling weights are renormalized over the labeled rows, which
    keeps the projection unbiased and reduces to the full formula when the
    subset is everything.
    """
    n = basis.n
    if labeled is None:
        return basis.ortho_weights
    labeled = np.asarray(labeled, dtype=int)
    if labeled.size == 0:
        raise InputError("labeled set is empty")
    if labeled.min() < 0 or labeled.max() >= n:
        raise InputError(f"labeled indices out of range 0..{n - 1}")
    if np.unique(labeled).size != labeled.size:
        raise InputError("labeled indices contain duplicates")
    if basis.mode in (Mode.STOCHASTIC, Mode.BIAS_CORRECTED):
        s_lab = basis.stationary[labeled]
        return s_lab / (n * s_lab.sum())
    return np.full(labeled.size, 1.0 / labeled.size)


def estimate_coefficients(
    basis: EigenBasis, y: np.ndarray, labeled: np.ndarray | None = None
) -> np.ndarray:
    """Project responses onto every basis column.

    y is aligned with the labeled rows (all training rows when labeled is
    None). Returns the full coefficient vector beta_0..beta_Jmax. y of
    another length, or holding NaN or Inf, raises InputError.
    """
    _, y = _checked_training(None, y)
    return _coefficients(basis, y, labeled)


def _coefficients(basis: EigenBasis, y: np.ndarray, labeled: np.ndarray | None) -> np.ndarray:
    """estimate_coefficients for 1-D finite responses y, which are not scanned again."""
    c = _coefficient_weights(basis, labeled)
    if y.shape[0] != c.shape[0]:
        raise InputError(f"got {y.shape[0]} responses for {c.shape[0]} labeled rows")
    Psi = basis.eigenvectors if labeled is None else basis.eigenvectors[labeled]
    return matmul(Psi.T, c * y)


def wls_coefficients(basis: EigenBasis, y: np.ndarray) -> np.ndarray:
    """Coefficients by explicit weighted least squares on the basis columns.

    Solves (Z^T W Z) beta = Z^T W y with Z the basis columns at the training
    points and W the diagonal sampling-weight matrix (n times the
    orthogonality weights). Because Z^T W Z = n I up to roundoff, this agrees
    with estimate_coefficients; it exists as an independent cross-check. y
    holding NaN or Inf raises InputError.
    """
    _, y = _checked_training(None, y)
    if y.shape[0] != basis.n:
        raise InputError(f"got {y.shape[0]} responses for {basis.n} training rows")
    Z = basis.eigenvectors
    w = basis.n * basis.ortho_weights
    ZtWZ = matmul(Z.T, w[:, None] * Z)
    ZtWy = matmul(Z.T, w * y)
    try:
        return scipy.linalg.solve(ZtWZ, ZtWy, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"singular normal equations: {exc}") from exc


def predict(model: SeriesModel, Xnew: np.ndarray) -> np.ndarray:
    """Evaluate the truncated expansion at query points.

    Costs one kernel pass over the training points plus one two-column
    product, whatever J is: the model folds beta / lambda into its extension
    operands on the first call and keeps them. Memory beyond the output is
    bounded by one block of query rows, whatever their number. The checks and
    the far-query fallback are nystrom.extend's.
    """
    Xnew, _ = nystrom._check_query(model.basis, Xnew, model.J)
    basis = model.basis
    return nystrom._extend(basis.kernel, basis.training_points, Xnew, *model._operands)


def fit(
    X: np.ndarray,
    y: np.ndarray,
    spec: KernelSpec,
    j_max: int,
    mode: Mode = Mode.STOCHASTIC,
    method: EigenMethod | None = None,
    J: int | None = None,
) -> SeriesModel:
    """Supervised fit: basis on X, coefficients from all rows.

    J defaults to j_max; pass a smaller value to truncate immediately. This
    is fit_ssl with no unlabeled rows, so X and y follow the input contract
    (README, "Input contract") and a fault in either raises InputError
    before any kernel is built.
    """
    return fit_ssl(X, y, None, spec, j_max, mode, method, J)


def pool_unlabeled(X_labeled: np.ndarray, X_unlabeled: np.ndarray | None) -> np.ndarray:
    """Labeled rows stacked over the checked unlabeled ones, or the labeled rows alone.

    The unlabeled rows are checked as queries are (a 1-D array is one row):
    another dimension, or a row holding NaN or Inf, raises InputError.
    """
    if X_unlabeled is None or np.size(X_unlabeled) == 0:
        return X_labeled
    X_unlabeled = _checked_queries(X_unlabeled, X_labeled.shape[1], "unlabeled")
    return np.vstack([X_labeled, X_unlabeled])


def fit_ssl(
    X_labeled: np.ndarray,
    y: np.ndarray,
    X_unlabeled: np.ndarray | None,
    spec: KernelSpec,
    j_max: int,
    mode: Mode = Mode.STOCHASTIC,
    method: EigenMethod | None = None,
    J: int | None = None,
) -> SeriesModel:
    """Semi-supervised fit: basis on labeled plus unlabeled rows pooled.

    The eigenbasis and its weights see the pooled sample; the coefficient
    projection runs over the labeled rows only. With no unlabeled rows this
    is exactly the supervised fit. Labeled points and y follow the input
    contract, unlabeled rows are checked as queries are (README, "Input
    contract"); a fault raises InputError.
    """
    X_labeled, y = _checked_training(X_labeled, y)
    pooled = pool_unlabeled(X_labeled, X_unlabeled)
    ssl = pooled.shape[0] > X_labeled.shape[0]
    basis = fit_basis(pooled, spec, j_max, mode, method)
    coef = _coefficients(basis, y, np.arange(X_labeled.shape[0]) if ssl else None)
    return SeriesModel(basis, coef, j_max if J is None else J, ssl=ssl)


def smoothness_functional(model: SeriesModel) -> float:
    """Roughness of the fitted function: sum_j nu^2_j beta_j^2 over j <= J.

    Zero for constants; grows as energy moves into higher (rougher)
    components. Gaussian-kernel bases only.
    """
    nu2 = smoothness_spectrum(model.basis)[: model.J + 1]
    beta = model.coefficients[: model.J + 1]
    return float(np.sum(nu2 * beta * beta))
