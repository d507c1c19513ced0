"""Out-of-sample extension of the eigenbasis and the eigenmap transform.

Every mode's extension weights factor as W = diag(a) Kx diag(b), with Kx the
query cross Gram. So the extension of any right-hand side R is
a * (Kx @ (b * R)), and no query-by-training rescaling pass is needed:
extend() takes R = Psi / lambda, expansion() the vector R = Psi (beta /
lambda), which turns a sum over basis functions into one matrix-vector
product. Query rows are processed in blocks of kernels.BLOCK_BYTES. A
SeriesModel folds its expansion operands once (expansion_operands) and hands
them to every later call.
"""

from __future__ import annotations

import logging
from collections.abc import Callable

import numpy as np
from scipy.spatial.distance import cdist

from .diffusion import EIGENVALUE_FLOOR_REL, EigenBasis, Mode
from .errors import InputError, NumericalError
from .kernels import check_finite_rows, gram_matrix, matmul, row_blocks

__all__ = ["EIGENVALUE_FLOOR_REL", "extend", "eigenmap"]

logger = logging.getLogger(__name__)


def _check_query(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Xnew as a 2-D float array, after the checks every extension needs."""
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
    return Xnew


def _operands(
    basis: EigenBasis, J: int, beta: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side b * R and fallback rows T for basis functions 0..J.

    Without beta, R = Psi / lambda and T = Psi (columns 0..J); with beta,
    R = Psi (beta / lambda) and T = Psi beta. Each mode's b mirrors its
    training-time normalization: 1/sqrt(n * degree) in Symmetric mode (the
    conjugate k / sqrt(querysum * trainsum)), 1/degree in BiasCorrected mode
    (p(x) cancels in the row normalization), 1 otherwise.
    """
    Psi = basis.eigenvectors[:, : J + 1]
    lam = basis.eigenvalues[: J + 1]
    if beta is None:
        R, T = Psi / lam[None, :], Psi
    else:
        # Psi is a column-sliced view, which f2py copies; the copy is made
        # once here, and a SeriesModel folds these operands once
        Psi = np.ascontiguousarray(Psi)
        R, T = matmul(Psi, beta / lam), matmul(Psi, beta)
    if basis.mode is Mode.SYMMETRIC:
        R = (R.T / np.sqrt(basis.n * basis.degrees)).T
    elif basis.mode is Mode.BIAS_CORRECTED:
        R = (R.T / basis.degrees).T
    return R, T


def _dead_rows(basis: EigenBasis, Kx: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Query rows whose kernel mass cannot be normalized (underflow or overflow)."""
    if basis.kernel.family == "gaussian":
        # entries lie in [0, 1] or are NaN, so the row sum alone decides
        return ~(rows > 0.0)
    dead = ~np.isfinite(Kx).all(axis=1) | (np.abs(Kx).sum(axis=1) <= 0.0)
    if basis.mode is not Mode.UNIFORM:
        dead |= rows <= 0.0
    return dead


def _extend_block(
    basis: EigenBasis, Xq: np.ndarray, Kx: np.ndarray,
    R: np.ndarray, T: np.ndarray, out: np.ndarray,
) -> int:
    """Write a * (Kx @ R) for the query rows Xq into out; Kx is left unchanged.

    a is the mode's row factor, so at a training point the weighted sum
    reproduces the stored row exactly (the eigenvector identity). Rows whose
    kernel mass cannot be normalized get T at their nearest training point,
    whose weight row reproduces that point's basis row. Returns their count.
    """
    mode = basis.mode
    rows = Kx.sum(axis=1)
    dead = _dead_rows(basis, Kx, rows)
    matmul(Kx, R, out=out)
    if mode is Mode.UNIFORM:
        out /= basis.n
    else:
        if mode is Mode.STOCHASTIC:
            a = rows
        elif mode is Mode.BIAS_CORRECTED:
            a = matmul(Kx, 1.0 / basis.degrees)
        else:
            a = np.sqrt(rows)
        # out.T puts the query axis last for a vector and a matrix alike
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(out.T, a, out=out.T)

    idx = np.nonzero(dead)[0]
    if idx.size:
        nearest = np.argmin(cdist(Xq[idx], basis.training_points, "sqeuclidean"), axis=1)
        out[idx] = T[nearest]
    return idx.size


def _log_fallback(count: int) -> None:
    if count:
        logger.warning(
            "kernel weights underflowed for %d query point(s); "
            "fell back to nearest training point", count,
        )


def extend_blocked(
    basis: EigenBasis, Xnew: np.ndarray, J: int,
    operands: Callable[[], tuple[np.ndarray, np.ndarray]],
) -> np.ndarray:
    """The read path: per block of query rows, cross Gram then _extend_block.

    operands returns _operands' (R, T), or expansion_operands' for a caller
    that keeps them; it is called after the query checks, so a J at the
    eigenvalue floor raises before any division by its eigenvalue.
    """
    Xnew = _check_query(basis, Xnew, J)
    R, T = operands()
    out = np.empty((Xnew.shape[0],) + R.shape[1:])
    fallbacks = 0
    for rows in row_blocks(Xnew.shape[0], basis.n):
        Kx = gram_matrix(basis.kernel, Xnew[rows], basis.training_points)
        fallbacks += _extend_block(basis, Xnew[rows], Kx, R, T, out[rows])
        del Kx  # else it lives on while the next block's is built
    _log_fallback(fallbacks)
    return out


def extend_from_gram(
    basis: EigenBasis, Xnew: np.ndarray, Kx: np.ndarray, J: int
) -> np.ndarray:
    """extend() given the query cross Gram Kx = k(Xnew, training points).

    Kx is left unchanged. Xnew must be a finite 2-D float array and J must
    pass the eigenvalue-floor check; extend() checks both. Callers that
    already hold the squared query distances build Kx from them and skip a
    second distance pass.
    """
    R, T = _operands(basis, J, None)
    out = np.empty((Kx.shape[0], J + 1))
    _log_fallback(_extend_block(basis, Xnew, Kx, R, T, out))
    return out


def extend(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Evaluate basis functions 0..J at m query points; returns m x (J+1).

    Entry (i, j) = (1/lambda_j) * sum_l w(x_i, X_l) * Psi[l, j] with the
    mode-matched weights w. Queries so far from the training set that every
    kernel value underflows fall back to the nearest training point's basis
    row (logged). Query rows holding NaN or inf raise InputError: they have
    no nearest training point. Memory beyond the output is bounded by one
    block of query rows, whatever m is.
    """
    return extend_blocked(basis, Xnew, J, lambda: _operands(basis, J, None))


def expansion(basis: EigenBasis, Xnew: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Evaluate sum_j coefficients[j] * psi_j at m query points; returns m values.

    Equals extend(basis, Xnew, J) @ coefficients with J = len(coefficients) - 1,
    up to rounding, in one kernel pass and one matrix-vector product whatever
    J is. Queries whose kernel values all underflow take the expansion's value
    at the nearest training point (logged); the other checks are extend()'s.
    """
    beta = np.asarray(coefficients, dtype=float).ravel()
    J = beta.size - 1
    return extend_blocked(basis, Xnew, J, lambda: _operands(basis, J, beta))


def expansion_operands(
    basis: EigenBasis, coefficients: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The operands expansion(basis, ., coefficients) computes on every call.

    coefficients must hold at most basis.n_components finite values.
    """
    beta = np.asarray(coefficients, dtype=float).ravel()
    return _operands(basis, beta.size - 1, beta)


def eigenmap(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Coordinates (psi_1, ..., psi_J) at the query points; returns m x J.

    Drops the constant component psi_0, leaving the nontrivial diffusion
    coordinates used for embeddings.
    """
    if J < 1:
        raise InputError("eigenmap needs J >= 1")
    return extend(basis, Xnew, J)[:, 1:]
