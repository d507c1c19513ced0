"""Out-of-sample extension of the eigenbasis and the eigenmap transform."""

from __future__ import annotations

import logging

import numpy as np
from scipy.spatial.distance import cdist

from .diffusion import EigenBasis, Mode
from .errors import InputError, NumericalError
from .kernels import check_finite_rows, gram_matrix

__all__ = ["EIGENVALUE_FLOOR_REL", "extend", "eigenmap"]

logger = logging.getLogger(__name__)

# components with eigenvalue <= EIGENVALUE_FLOOR_REL * lambda_0 cannot be
# extended (the formula divides by lambda_j) and are rejected by name
EIGENVALUE_FLOOR_REL = 1e-10


def _weigh_in_place(basis: EigenBasis, Kx: np.ndarray, rows: np.ndarray) -> None:
    """Turn Kx into the row weights W so that the extension is (W @ Psi) / lambda.

    rows holds Kx's row sums. Each mode mirrors its training-time
    normalization, so at a training point the weighted sum reproduces the
    stored eigenvector row exactly (the eigenvector identity). Query rows
    whose kernel sums underflow to zero are handled by the caller.
    """
    mode = basis.mode
    n = basis.n
    with np.errstate(divide="ignore", invalid="ignore"):
        if mode is Mode.UNIFORM:
            Kx /= n
        elif mode is Mode.STOCHASTIC:
            Kx /= rows[:, None]
        elif mode is Mode.BIAS_CORRECTED:
            # p(x) cancels in the row normalization, so only training degrees enter
            Kx /= basis.degrees[None, :]
            Kx /= Kx.sum(axis=1)[:, None]
        else:
            # symmetric conjugate: k / sqrt(querysum * trainsum)
            Kx /= np.sqrt(rows)[:, None]
            Kx /= np.sqrt(n * basis.degrees)[None, :]


def _dead_rows(basis: EigenBasis, Kx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Query rows whose kernel mass cannot be normalized (underflow or overflow)."""
    if basis.kernel.family == "gaussian":
        # entries lie in [0, 1] or are NaN, so the row sum alone decides
        return ~(rows > 0.0)
    dead = ~np.isfinite(Kx).all(axis=1) | (np.abs(Kx).sum(axis=1) <= 0.0)
    if basis.mode is not Mode.UNIFORM:
        dead |= rows <= 0.0
    return dead


def extend_from_gram(
    basis: EigenBasis, Xnew: np.ndarray, Kx: np.ndarray, J: int
) -> np.ndarray:
    """extend() given the query cross Gram Kx = k(Xnew, training points).

    Kx is overwritten with the extension weights. Xnew must be a finite
    2-D float array and J must pass the eigenvalue-floor check; extend()
    checks both. Callers that already hold the squared query distances
    build Kx from them and skip a second distance pass.
    """
    lam = basis.eigenvalues[: J + 1]
    rows = Kx.sum(axis=1)
    dead = _dead_rows(basis, Kx, rows)
    _weigh_in_place(basis, Kx, rows)
    out = (Kx @ basis.eigenvectors[:, : J + 1]) / lam[None, :]

    if dead.any():
        # nearest training point's weight row reproduces that point's basis row
        idx = np.nonzero(dead)[0]
        nearest = np.argmin(cdist(Xnew[idx], basis.training_points, "sqeuclidean"), axis=1)
        out[idx] = basis.eigenvectors[nearest, : J + 1]
        logger.warning(
            "kernel weights underflowed for %d query point(s); "
            "fell back to nearest training point", idx.size,
        )
    return out


def extend(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Evaluate basis functions 0..J at m query points; returns m x (J+1).

    Entry (i, j) = (1/lambda_j) * sum_l w(x_i, X_l) * Psi[l, j] with the
    mode-matched weights w. Queries so far from the training set that every
    kernel value underflows fall back to the nearest training point's basis
    row (logged). Query rows holding NaN or inf raise InputError: they have
    no nearest training point.
    """
    Xnew = np.atleast_2d(np.asarray(Xnew, dtype=float))
    if Xnew.shape[1] != basis.training_points.shape[1]:
        raise InputError(
            f"query dimension {Xnew.shape[1]} does not match "
            f"training dimension {basis.training_points.shape[1]}"
        )
    check_finite_rows(Xnew)
    if not (0 <= J <= basis.n_components - 1):
        raise InputError(f"J must be in 0..{basis.n_components - 1}, got {J}")
    lam = basis.eigenvalues[: J + 1]
    floor = EIGENVALUE_FLOOR_REL * basis.eigenvalues[0]
    bad = np.nonzero(lam <= floor)[0]
    if bad.size:
        raise NumericalError(
            f"eigenvalue {lam[bad[0]]:.3e} at index {bad[0]} is at or below the "
            f"floor {floor:.3e}; reduce J"
        )

    Kx = gram_matrix(basis.kernel, Xnew, basis.training_points)
    return extend_from_gram(basis, Xnew, Kx, J)


def eigenmap(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Coordinates (psi_1, ..., psi_J) at the query points; returns m x J.

    Drops the constant component psi_0, leaving the nontrivial diffusion
    coordinates used for embeddings.
    """
    if J < 1:
        raise InputError("eigenmap needs J >= 1")
    return extend(basis, Xnew, J)[:, 1:]
