"""Out-of-sample extension of the eigenbasis and the eigenmap transform."""

from __future__ import annotations

import logging

import numpy as np

from .diffusion import EigenBasis, Mode
from .errors import InputError, NumericalError
from .kernels import check_finite_rows, gram_matrix

__all__ = ["EIGENVALUE_FLOOR_REL", "extend", "eigenmap"]

logger = logging.getLogger(__name__)

# components with eigenvalue <= EIGENVALUE_FLOOR_REL * lambda_0 cannot be
# extended (the formula divides by lambda_j) and are rejected by name
EIGENVALUE_FLOOR_REL = 1e-10


def _extension_weights(basis: EigenBasis, Kx: np.ndarray) -> np.ndarray:
    """Row weights W so that the extension is (W @ Psi) / lambda.

    Each mode mirrors its training-time normalization, so at a training point
    the weighted sum reproduces the stored eigenvector row exactly (the
    eigenvector identity). Query rows whose kernel sums underflow to zero are
    handled by the caller.
    """
    mode = basis.mode
    n = basis.n
    if mode is Mode.UNIFORM:
        return Kx / n
    if mode is Mode.STOCHASTIC:
        rows = Kx.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return Kx / rows[:, None]
    if mode is Mode.BIAS_CORRECTED:
        # p(x) cancels in the row normalization, so only training degrees enter
        Kc = Kx / basis.degrees[None, :]
        rows = Kc.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return Kc / rows[:, None]
    # symmetric conjugate: k / sqrt(querysum * trainsum)
    rows = Kx.sum(axis=1)
    train_sums = n * basis.degrees
    with np.errstate(divide="ignore", invalid="ignore"):
        return Kx / np.sqrt(rows)[:, None] / np.sqrt(train_sums)[None, :]


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
    # rows whose kernel mass underflows entirely cannot be normalized
    dead = ~np.isfinite(Kx).all(axis=1) | (np.abs(Kx).sum(axis=1) <= 0.0)
    if basis.mode in (Mode.STOCHASTIC, Mode.BIAS_CORRECTED, Mode.SYMMETRIC):
        dead |= Kx.sum(axis=1) <= 0.0

    W = _extension_weights(basis, Kx)
    out = (W @ basis.eigenvectors[:, : J + 1]) / lam[None, :]

    if dead.any():
        # nearest training point's weight row reproduces that point's basis row
        idx = np.nonzero(dead)[0]
        diffs = Xnew[idx, None, :] - basis.training_points[None, :, :]
        nearest = np.argmin(np.einsum("ijk,ijk->ij", diffs, diffs), axis=1)
        out[idx] = basis.eigenvectors[nearest, : J + 1]
        logger.warning(
            "kernel weights underflowed for %d query point(s); "
            "fell back to nearest training point", idx.size,
        )
    return out


def eigenmap(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Coordinates (psi_1, ..., psi_J) at the query points; returns m x J.

    Drops the constant component psi_0, leaving the nontrivial diffusion
    coordinates used for embeddings.
    """
    if J < 1:
        raise InputError("eigenmap needs J >= 1")
    return extend(basis, Xnew, J)[:, 1:]
