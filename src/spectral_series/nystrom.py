"""Out-of-sample extension of the eigenbasis and the eigenmap transform.

Every mode's extension weights are w(x, X_l) = k(x, X_l) b_l / s(x)^p, with
the normaliser s(x) = sum_l k(x, X_l) c_l (see _operands). So one product
per block of query rows, P = Kx @ [b * R | c] with Kx the block's cross
Gram, extends any right-hand side R: its last column is s, the others are
the output times s^p. Every reader takes one path: _check_query, then
_operands, then _extend, which builds the cross Gram one block of query rows
at a time and runs _extend_block on it (kernels.map_blocks). Below
kernels.BLAS_DISTANCE_MIN_D columns, where the distance and exponential
loops are single-threaded, the blocks run on a worker pool, one whole block
per task, each writing only its own output rows; the output's bits do not
depend on the worker count. extend() takes R = Psi / lambda; a SeriesModel
folds R = Psi (beta / lambda) once, so a prediction is a two-column product
per block; the tuner passes the validation cross Gram it built; and
baselines.nw_predict extends R = y in Stochastic mode.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.spatial.distance import cdist

from .diffusion import EIGENVALUE_FLOOR_REL, EigenBasis, Mode, _n_usable
from .errors import NumericalError
from .kernels import KernelSpec, _checked_int, _checked_queries, cross_gram, map_blocks, matmul

__all__ = ["EIGENVALUE_FLOOR_REL", "extend", "eigenmap"]

logger = logging.getLogger(__name__)


def _check_query(basis: EigenBasis, Xnew: np.ndarray, J: int) -> tuple[np.ndarray, int]:
    """Xnew as a 2-D float array and J as an int, after the checks every extension needs."""
    Xnew = _checked_queries(Xnew, basis.training_points.shape[1])
    J = _checked_int(J, "J", 0, basis.n_components - 1)
    usable = _n_usable(basis.eigenvalues)
    if J >= usable:
        raise NumericalError(
            f"eigenvalue {basis.eigenvalues[usable]:.3e} at index {usable} is not "
            f"above the floor {EIGENVALUE_FLOOR_REL:.0e} * lambda_0; reduce J"
        )
    return Xnew, J


def _operands(
    basis: EigenBasis, J: int, beta: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Right-hand side M = [b * R | c], fallback rows T and power p for 0..J.

    Without beta, R = Psi / lambda and T = Psi (columns 0..J); with beta,
    R = Psi (beta / lambda) and T = Psi beta. The weights k(x, X_l) b_l / s^p,
    s = sum_l k(x, X_l) c_l, mirror the training-time normalization: Stochastic
    b = c = p = 1; Symmetric b = 1/sqrt(n deg), c = 1, p = 1/2 (the conjugate
    k / sqrt(querysum * trainsum)); BiasCorrected b = c = 1/deg, p = 1 (p(x)
    cancels in the row normalization); Uniform b = 1/n, c = 1, p = 0. Only
    here does the read path branch on the mode.
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
    d, c, p = 1.0, 1.0, 1.0
    if basis.mode is Mode.SYMMETRIC:
        d, p = np.sqrt(basis.n * basis.degrees), 0.5
    elif basis.mode is Mode.BIAS_CORRECTED:
        d, c = basis.degrees, 1.0 / basis.degrees
    elif basis.mode is Mode.UNIFORM:
        d, p = basis.n, 0.0
    return np.column_stack([(R.T / d).T, np.broadcast_to(c, basis.n)]), T, p


def _extend_block(
    spec: KernelSpec, training_points: np.ndarray, Xq: np.ndarray, Kx: np.ndarray,
    M: np.ndarray, T: np.ndarray, p: float, out: np.ndarray,
) -> int:
    """Write (Kx @ b R) / s^p for the query rows Xq into out; Kx is left unchanged.

    One product P = Kx @ M gives both: its last column is the normaliser s,
    the others are Kx @ (b R); p = 1/2 divides by sqrt(s), p = 0 by nothing
    (s^0 is exactly 1). At a training point the weighted sum reproduces the
    stored row exactly (the eigenvector identity). Rows whose kernel mass
    cannot be normalized get T at their nearest training point, whose weight
    row reproduces that point's basis row. Returns their count.
    """
    P = matmul(Kx, M)
    s = P[:, -1]
    # .T puts the query axis last for a vector and a matrix alike; for a 1-D
    # out, P[:, :1] reshapes to a strided view of P's first column
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(P[:, :-1].reshape(out.shape).T, s ** p, out=out.T)
    if spec.family == "gaussian":
        # entries lie in [0, 1] or are NaN and c > 0, so the normaliser alone decides
        dead = ~(s > 0.0)
    else:
        dead = ~np.isfinite(Kx).all(axis=1) | (np.abs(Kx).sum(axis=1) <= 0.0)
        if p > 0.0:
            dead |= Kx.sum(axis=1) <= 0.0
    idx = np.nonzero(dead)[0]
    if idx.size:
        nearest = np.argmin(cdist(Xq[idx], training_points, "sqeuclidean"), axis=1)
        out[idx] = T[nearest]
    return idx.size


def _extend(
    spec: KernelSpec, training_points: np.ndarray, Xq: np.ndarray,
    M: np.ndarray, T: np.ndarray, p: float, Kx: np.ndarray | None = None,
) -> np.ndarray:
    """_extend_block over the checked query rows Xq; fallbacks logged once.

    Without Kx the cross Gram k(Xq, training_points) is built one block of
    query rows at a time (kernels.map_blocks), each block on one thread, so
    memory beyond the output is one block per thread; a caller that already
    holds the whole cross Gram passes it as Kx, which is left unchanged.
    A Gaussian query whose every weight lies below 2^-1021 has only 0
    weights (the kernels module's floor), and so takes the fallback.
    """
    out = np.empty((Xq.shape[0],) + T.shape[1:])
    if Kx is not None:
        fallbacks = _extend_block(spec, training_points, Xq, Kx, M, T, p, out)
    else:
        gram = cross_gram(spec, training_points)

        def block(rows: slice) -> int:
            return _extend_block(spec, training_points, Xq[rows], gram(Xq[rows]),
                                 M, T, p, out[rows])

        fallbacks = sum(map_blocks(block, Xq.shape[0], *training_points.shape))
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
    kernel value lies below 2^-1021, and so is 0 (the Gram's floor), fall
    back to the nearest training point's basis row (logged). Queries follow
    the input contract (README, "Input contract"): a 1-D Xnew is one row,
    and a column count other than the training one or a row holding NaN or
    Inf raises InputError. Memory beyond the output is bounded by one block
    of query rows, whatever m is.
    """
    Xnew, J = _check_query(basis, Xnew, J)
    return _extend(basis.kernel, basis.training_points, Xnew, *_operands(basis, J, None))


def eigenmap(basis: EigenBasis, Xnew: np.ndarray, J: int) -> np.ndarray:
    """Coordinates (psi_1, ..., psi_J) at the query points; returns m x J.

    Drops the constant component psi_0, leaving the nontrivial diffusion
    coordinates used for embeddings.
    """
    return extend(basis, Xnew, _checked_int(J, "eigenmap J", 1))[:, 1:]
