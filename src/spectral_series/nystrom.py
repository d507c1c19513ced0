"""Out-of-sample extension of the eigenbasis and the eigenmap transform.

Every mode's extension weights factor as W = diag(a) Kx diag(b), with Kx the
query cross Gram. So the extension of any right-hand side R is
a * (Kx @ (b * R)), and no query-by-training rescaling pass is needed. Every
reader takes one path: _check_query, then _operands, then _extend, which
builds the cross Gram one block of query rows at a time and runs
_extend_block on it (kernels.map_blocks). Below kernels.BLAS_DISTANCE_MIN_D
columns, where the distance and exponential loops are single-threaded, the
blocks run on a worker pool, one whole block (cross Gram, row factor,
product, fallback rows) per task, each writing only its own output rows;
the output's bits do not depend on the worker count. The training side of
the cross distances is prepared once per call (kernels.cross_gram).
extend() takes R = Psi / lambda; a SeriesModel folds
R = Psi (beta / lambda) once, which turns a sum over basis functions
into one matrix-vector product per block; the tuner hands _extend the
validation cross Gram it built from the sweep's shared distances.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.spatial.distance import cdist

from .diffusion import EIGENVALUE_FLOOR_REL, EigenBasis, Mode, _n_usable
from .errors import InputError, NumericalError
from .kernels import _checked_queries, cross_gram, map_blocks, matmul

__all__ = ["EIGENVALUE_FLOOR_REL", "extend", "eigenmap"]

logger = logging.getLogger(__name__)


def _check_query(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Xnew as a 2-D float array, after the checks every extension needs."""
    Xnew = _checked_queries(Xnew, basis.training_points.shape[1])
    if not (0 <= J <= basis.n_components - 1):
        raise InputError(f"J must be in 0..{basis.n_components - 1}, got {J}")
    usable = _n_usable(basis.eigenvalues)
    if J >= usable:
        raise NumericalError(
            f"eigenvalue {basis.eigenvalues[usable]:.3e} at index {usable} is not "
            f"above the floor {EIGENVALUE_FLOOR_REL:.0e} * lambda_0; reduce J"
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


def _extend(
    basis: EigenBasis, Xq: np.ndarray, R: np.ndarray, T: np.ndarray,
    Kx: np.ndarray | None = None,
) -> np.ndarray:
    """_extend_block over the checked query rows Xq; fallbacks logged once.

    Without Kx the cross Gram is built one block of query rows at a time
    (kernels.map_blocks), each block on one thread, so memory beyond the
    output is one block per thread; a caller that already holds the whole
    cross Gram passes it as Kx, which is left unchanged.
    """
    out = np.empty((Xq.shape[0],) + R.shape[1:])
    if Kx is not None:
        fallbacks = _extend_block(basis, Xq, Kx, R, T, out)
    else:
        gram = cross_gram(basis.kernel, basis.training_points)

        def block(rows: slice) -> int:
            return _extend_block(basis, Xq[rows], gram(Xq[rows]), R, T, out[rows])

        fallbacks = sum(map_blocks(block, Xq.shape[0], basis.n, Xq.shape[1]))
    if fallbacks:
        logger.warning(
            "kernel weights underflowed for %d query point(s); "
            "fell back to nearest training point", fallbacks,
        )
    return out


def extend(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Evaluate basis functions 0..J at m query points; returns m x (J+1).

    Entry (i, j) = (1/lambda_j) * sum_l w(x_i, X_l) * Psi[l, j] with the
    mode-matched weights w. Queries so far from the training set that every
    kernel value underflows fall back to the nearest training point's basis
    row (logged). Queries follow the input contract (README, "Input
    contract"): a 1-D Xnew is one row, and a column count other than the
    training one or a row holding NaN or Inf raises InputError. Memory beyond
    the output is bounded by one block of query rows, whatever m is.
    """
    Xnew = _check_query(basis, Xnew, J)
    return _extend(basis, Xnew, *_operands(basis, J, None))


def eigenmap(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Coordinates (psi_1, ..., psi_J) at the query points; returns m x J.

    Drops the constant component psi_0, leaving the nontrivial diffusion
    coordinates used for embeddings.
    """
    if J < 1:
        raise InputError("eigenmap needs J >= 1")
    return extend(basis, Xnew, J)[:, 1:]
