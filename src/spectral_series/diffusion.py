"""Kernel normalizations, stationary weights, and the adaptive eigenbasis.

Pipeline: Gram matrix K -> mode-specific normalization -> symmetric
eigendecomposition (Lanczos, dense LAPACK or randomized) -> density
rescaling. The result is an orthogonal basis adapted to the sampling
distribution of the data.

fit_basis carries one n x n array from Gram to eigenvectors. It builds the
Gram with its row sums (kernels._self_gram_into), symmetric by construction.
The row sums give the degrees, the stationary weights and the symmetric
scaling, and every normalization is applied to K in place, one
kernels.READ_BLOCK_BYTES (1 MiB) block of rows at a time, which stays in a
core's L2, so the fit's heap beyond K stays below one 8 MiB block. Finite
row sums stand in for a scan of K's entries, so no operator with a NaN or
Inf entry reaches the solver.
tune_series builds each candidate's Gram in one buffer for the whole sweep and
hands it to _fit, the fit behind fit_basis.

The symmetry contract, stated here once: every operator a solver sees
(_SOLVERS) is finite, exactly symmetric, C-ordered float64 and the solve's
own, so a solver may read either triangle and overwrite it. LAPACK's eigh
and the ridge reduction (baselines._ridge_solver) read the upper triangle,
the Lanczos dsymv the lower one and the randomized range finder both, and
all of them then solve one operator. A Gram the package builds is exactly
symmetric by construction (the kernels module notes), and every
normalization keeps it so, since each entry meets the single product
v_i v_j (_scale_pairs). A caller's matrix enters through one door, _own:
it must be 2-D and real, and square where the formula pairs rows with
columns, else InputError. eigendecompose then scans its copy once for
NaN, Inf and asymmetry beyond SYMMETRY_RTOL (NumericalError) and, in the
same tile loop, overwrites the lower triangle with the upper one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dgemqrt, dgeqrt

from .errors import InputError, NumericalError
from .kernels import (
    READ_BLOCK_BYTES, KernelSpec, _checked_int, _checked_training, _self_gram_into, matmul,
    row_blocks,
)

__all__ = [
    "Mode",
    "EigenMethod",
    "EigenBasis",
    "row_stochastic",
    "symmetric_normalize",
    "stationary_weights",
    "bias_correct",
    "eigendecompose",
    "rescale",
    "fit_basis",
    "smoothness_spectrum",
]

logger = logging.getLogger(__name__)

# two eigenvalues closer than EIGENVALUE_TIE_GAP * lambda_0 are tied
EIGENVALUE_TIE_GAP = 1e-12
# the extension divides by lambda_j, so only the leading run of eigenvalues
# above EIGENVALUE_FLOOR_REL * lambda_0 (_n_usable) can be extended; a J past
# it is rejected by name
EIGENVALUE_FLOOR_REL = 1e-10
# below this many rows the Lanczos method hands the solve to LAPACK
LANCZOS_MIN_N = 400
SYMMETRY_RTOL = 1e-10
SYMMETRY_TILE = 256


class Mode(str, Enum):
    """How the Gram matrix is normalized before eigendecomposition."""

    STOCHASTIC = "stochastic"
    SYMMETRIC = "symmetric"
    BIAS_CORRECTED = "bias_corrected"
    UNIFORM = "uniform"

    @classmethod
    def parse(cls, name: str) -> "Mode":
        try:
            return cls(name.strip().lower().replace("-", "_"))
        except (AttributeError, ValueError):  # AttributeError: name is not a str
            raise InputError(
                f"unknown mode {name!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class EigenMethod:
    """Eigensolver choice.

    - "lanczos" (the default): exact, by restarted Lanczos (ARPACK's eigsh)
      on the k = j_max+1 largest pairs. It hands the solve to "full" below
      LANCZOS_MIN_N = 400 rows, the measured crossover: summed over a
      spiral's five grid bandwidths, a fit at n = 400 took about as long
      with either solver for k = 61 and less with Lanczos for k = 11 and
      31, while at n = 350 LAPACK was ahead for k = 11 and 61. It also
      hands it over whenever 2k + 1 >= n. ARPACK's restarts are seeded,
      so a tied spectrum gives the same pairs in every call and every
      process.
    - "full": exact, by LAPACK's dense subset eigh.
    - "randomized": Gaussian range-finding with power iteration; the only
      method that reads oversample, power_iters and seed.

    oversample, power_iters and seed must be integers >= 0 (2.0 counts as 2),
    else InputError.
    """

    name: str = "lanczos"
    oversample: int = 10
    power_iters: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.name not in _SOLVERS:
            raise InputError(f"method must be one of {list(_SOLVERS)}, got {self.name!r}")
        for name in ("oversample", "power_iters", "seed"):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name, 0))


@dataclass(frozen=True)
class EigenBasis:
    """Eigenvalues and basis functions evaluated at the training points.

    eigenvectors column j holds basis function j at the n training rows.
    degrees are retained because out-of-sample extension of a bias-corrected
    basis needs the training-point density estimates.
    """

    kernel: KernelSpec
    training_points: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    stationary: np.ndarray
    degrees: np.ndarray
    mode: Mode = Mode.STOCHASTIC
    method: EigenMethod = field(default_factory=EigenMethod)

    @property
    def n(self) -> int:
        return self.training_points.shape[0]

    @property
    def n_components(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def ortho_weights(self) -> np.ndarray:
        """Weights w making Psi^T diag(w) Psi = I.

        Stochastic-family bases are orthonormal in the stationary measure
        (w = s / n); Uniform and Symmetric bases are orthonormal in the
        empirical measure (w = 1/n).
        """
        if self.mode in (Mode.STOCHASTIC, Mode.BIAS_CORRECTED):
            return self.stationary / self.n
        return np.full(self.n, 1.0 / self.n)


def _check_row_sums(sums: np.ndarray, positive: bool = True) -> np.ndarray:
    """sums, unless NumericalError: they stand in for a scan of K.

    A NaN or Inf entry leaves its row sum non-finite, so finite row sums
    mean a finite K. The degree-weighted modes (positive=True) also divide
    by each sum and by their total, which must then be > 0 and finite.
    """
    # a NaN or Inf row sum, or an overflowing total, leaves the total non-finite
    finite = np.isfinite(sums.sum()) if positive else np.isfinite(sums).all()
    if not finite:
        raise NumericalError("kernel row sums overflowed to NaN or Inf; rescale the features")
    if positive and np.any(sums <= 0.0):
        raise NumericalError("kernel matrix has a nonpositive row sum")
    return sums


# a product v_i v_j of positive floats stays finite and nonzero while every
# v_i lies in [1 / _PAIR_MAX, _PAIR_MAX]
_PAIR_MAX = np.sqrt(np.finfo(float).max)


def _scale_pairs(K: np.ndarray, v: np.ndarray, op,
                 sums: np.ndarray | None = None) -> np.ndarray:
    """K_ij = op(K_ij, v_i v_j) in place, one row block at a time; op is multiply or divide.

    Each entry meets the single product v_i v_j, as with a full np.outer, so a
    symmetric K stays exactly symmetric and the bits do not depend on the
    blocking; the heap beyond K is one READ_BLOCK_BYTES block. With sums
    given, the scaled rows' sums are written into it while each block is in
    cache, with the bits of K.sum(axis=1). v comes from K's row sums: a
    product that would overflow (multiply) or reach 0 (divide) means they
    underflowed, and raises NumericalError before K is touched.
    """
    if (v.max() > _PAIR_MAX) if op is np.multiply else (v.min() < 1.0 / _PAIR_MAX):
        raise NumericalError("kernel row sums underflowed; rescale the features")
    for rows in row_blocks(K.shape[0], K.shape[1], READ_BLOCK_BYTES):
        block = K[rows]
        op(block, np.outer(v[rows], v), out=block)
        if sums is not None:
            block.sum(axis=1, out=sums[rows])
    return K


def _own(K, square: bool = True, copy: bool = True) -> np.ndarray:
    """A caller's matrix K as C-ordered float64, a copy of its own unless copy is False.

    The one door of a caller's matrix (see the module notes): K must be 2-D
    and real, and square where square is True, else InputError; a complex K
    is refused, not cast to its real part. A float64 C-ordered K passes with
    copy False as it is, so no output bit depends on the check.
    """
    try:
        if np.iscomplexobj(K):
            raise InputError("expected a real matrix, got complex entries")
        A = (np.array if copy else np.asarray)(K, dtype=float, order="C")
    except (TypeError, ValueError):
        raise InputError(f"expected a numeric matrix, got {type(K).__name__}") from None
    if A.ndim != 2 or (square and A.shape[0] != A.shape[1]):
        raise InputError(f"expected a {'square' if square else '2-D'} matrix, got shape {A.shape}")
    return A


def row_stochastic(K: np.ndarray) -> np.ndarray:
    """Markov transition matrix: each row of K divided by its row sum.

    K is 2-D and real, else InputError.
    """
    K = _own(K, square=False)
    K /= _check_row_sums(K.sum(axis=1))[:, None]
    return K


def symmetric_normalize(K: np.ndarray) -> np.ndarray:
    """Symmetric conjugate of the Markov matrix: K_ij / sqrt(rowsum_i rowsum_j).

    Shares its eigenvalues with row_stochastic(K) (similarity transform by
    diag(rowsums)^(1/2)). For symmetric K it is exactly symmetric, because
    each entry is K_ij times the single product r_i r_j, so the symmetric
    eigensolver applies. K is square and real, else InputError.
    """
    K = _own(K)
    return _scale_pairs(K, 1.0 / np.sqrt(_check_row_sums(K.sum(axis=1))), np.multiply)


def stationary_weights(K: np.ndarray) -> np.ndarray:
    """Stationary distribution of the row-normalized random walk.

    Proportional to the row sums (equivalently to the degree estimates),
    normalized to sum to 1. K is 2-D and real, else InputError.
    """
    sums = _check_row_sums(_own(K, square=False, copy=False).sum(axis=1))
    return sums / sums.sum()


def bias_correct(K: np.ndarray) -> np.ndarray:
    """Divide K entrywise by the degree products p(X_i) p(X_j).

    Removes the leading sampling-density bias; the corrected matrix is fed
    back through the stochastic pipeline. Exactly symmetric for symmetric K.
    The degrees p(X_i) are the row means of K. K is square and real, else
    InputError.
    """
    K = _own(K)
    return _scale_pairs(K, _check_row_sums(K.sum(axis=1)) / K.shape[0], np.divide)


def _check_symmetric(A: np.ndarray) -> np.ndarray:
    """Square A, scanned and made exactly symmetric from its upper triangle in place.

    NumericalError if A holds NaN or Inf or is not symmetric within
    SYMMETRY_RTOL relative to max |A|.
    """
    scale = max(float(A.max()), -float(A.min()), 1e-300)
    # NaN compares False against the tolerance, so test finiteness first
    if not np.isfinite(scale):
        raise NumericalError("matrix holds NaN or Inf entries (kernel overflow?)")
    # max |A - A^T| over the upper-triangle tiles: |a - b| == |b - a|, so this
    # equals the full-matrix maximum, while each tile and its mirror stay in
    # cache instead of the strided full transpose; each lower tile is then
    # overwritten by its mirror while both are still there
    n, asym = A.shape[0], 0.0
    for i in range(0, n, SYMMETRY_TILE):
        for j in range(i, n, SYMMETRY_TILE):
            upper = A[i:i + SYMMETRY_TILE, j:j + SYMMETRY_TILE]
            lower = A[j:j + SYMMETRY_TILE, i:i + SYMMETRY_TILE]
            # entries near the float limit with opposite signs overflow to
            # inf, which the tolerance test below reports
            with np.errstate(over="ignore"):
                asym = max(asym, float(np.abs(upper - lower.T).max()))
            np.copyto(lower, upper.T,
                      where=np.tri(*lower.shape, k=-1, dtype=bool) if i == j else True)
    if asym > SYMMETRY_RTOL * scale:
        raise NumericalError(
            f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} relative tolerance"
        )
    return A


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    # deterministic orientation: largest-magnitude entry of each column > 0
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _n_usable(eigenvalues: np.ndarray) -> int:
    """Length of the leading run of eigenvalues above the extension floor.

    Components 0..run-1 can be extended; the run ends at the first eigenvalue
    at or below EIGENVALUE_FLOOR_REL * lambda_0, or at a NaN, which compares
    False against the floor.
    """
    above = eigenvalues > EIGENVALUE_FLOOR_REL * eigenvalues[0]
    return above.size if above.all() else int(np.argmin(above))


def _log_ties(eigenvalues: np.ndarray) -> None:
    """One warning per eigensolve: the tie count and the first tied pair.

    Only pairs above the extension floor count; the ones below it can never
    enter a prediction.
    """
    usable = eigenvalues[: _n_usable(eigenvalues)]
    gaps = np.abs(np.diff(usable))
    ties = np.nonzero(gaps < EIGENVALUE_TIE_GAP * abs(float(eigenvalues[0])))[0]
    if ties.size:
        j = ties[0]
        logger.warning(
            "%d eigenvalue tie(s), first at indices %d/%d (gap %.3e); "
            "vector order is solver-dependent",
            ties.size, j, j + 1, gaps[j],
        )


def _solve_lapack(A: np.ndarray, k: int, method: EigenMethod,
                  start: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's subset eigh: only the k largest pairs, worked out inside A."""
    n = A.shape[0]
    # LAPACK wants Fortran order and copies a C-ordered A. A.T is the Fortran
    # view of the same memory; with lower=True it reads A's upper triangle,
    # which is A by the symmetry contract (module notes), so the result is
    # bit-identical to eigh(A)
    vals, vecs = scipy.linalg.eigh(A.T, subset_by_index=(n - k, n - 1),
                                   overwrite_a=True, check_finite=False)
    # returned ascending
    return vals[::-1], vecs[:, ::-1]


def _solve_randomized(A: np.ndarray, k: int, method: EigenMethod,
                      start: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian range-finding with power iteration, seeded by method.seed."""
    n = A.shape[0]
    rng = np.random.default_rng(method.seed)
    n_probe = min(n, k + method.oversample)
    Y = matmul(A, rng.standard_normal((n, n_probe)))
    for _ in range(method.power_iters):
        Y = matmul(A, _orthonormal_basis(Y))
    Q = _orthonormal_basis(Y)
    B = matmul(Q.T, matmul(A, Q))
    B = 0.5 * (B + B.T)
    # A is finite, but its products can still overflow
    if not np.isfinite(B).all():
        raise NumericalError("randomized projection overflowed (kernel scale too large?)")
    vals, U = scipy.linalg.eigh(B, check_finite=False)
    return vals[::-1][:k], matmul(Q, U[:, ::-1][:, :k])


def _orthonormal_basis(Y: np.ndarray) -> np.ndarray:
    """The Q of Y's reduced QR, as a Fortran-ordered array.

    LAPACK's dgeqrt factors the whole n x k panel in one recursive block
    (Elmroth & Gustavson 2000), and dgemqrt applies the block reflector to
    the first k columns of the identity; both run on BLAS-3 products. The
    panel steps of geqrf/orgqr are matrix-vector products instead, which
    took 2.2 ms for an 800 x 41 panel on 2 threads against 0.5 ms here.
    """
    # a non-finite Y is caught by the projection check that follows
    k = Y.shape[1]
    V, T, _ = dgeqrt(k, Y, overwrite_a=1)
    return dgemqrt(V, T, np.eye(Y.shape[0], k, order="F"), overwrite_c=1)[0]


def _solve_lanczos(A: np.ndarray, k: int, method: EigenMethod,
                   start: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """ARPACK's restarted Lanczos on the k largest pairs, from a fixed start.

    Hands the solve to LAPACK where EigenMethod says so. ARPACK restarts a
    Krylov space that breaks down, as it can on a tied spectrum, from a
    random vector; rng=0 seeds it, so the pairs are the same in every call.
    """
    n = A.shape[0]
    if n < LANCZOS_MIN_N or 2 * k + 1 >= n:
        return _solve_lapack(A, k, method, start)
    # imported here: it adds about 15 ms to the package import
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    # dsymv on the Fortran view A.T reads A in place, on scipy's BLAS pool,
    # the one eigh uses
    AT = A.T
    op = LinearOperator((n, n), matvec=lambda x: dsymv(1.0, AT, x), dtype=float)
    v0 = np.ones(n) if start is None else start
    try:
        vals, vecs = eigsh(op, k, which="LA", v0=v0, tol=0, rng=0)
    except ArpackError as exc:
        raise NumericalError(f"Lanczos eigensolver failed: {exc}") from None
    # returned ascending
    return vals[::-1], vecs[:, ::-1]


# EigenMethod.name -> solver(A, k, method, start) returning the k largest
# pairs, largest first. A meets the symmetry contract (module notes); start
# is a vector near the top eigenvector, or None.
_SOLVERS = {
    "lanczos": _solve_lanczos,
    "full": _solve_lapack,
    "randomized": _solve_randomized,
}


def eigendecompose(
    A: np.ndarray, j_max: int, method: EigenMethod | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Top j_max+1 eigenpairs of a symmetric matrix, largest first.

    Eigenvectors are scaled so (1/n) sum_i v_j(i) v_k(i) = delta_jk and
    sign-fixed. method defaults to EigenMethod(), i.e. "lanczos", which
    solves with LAPACK ("full") below LANCZOS_MIN_N = 400 rows and when
    2(j_max+1) + 1 >= n; see EigenMethod. Every method is deterministic, on
    tied spectra too; the randomized one given its seed. A is left
    unchanged: every method works in one copy of A, made exactly symmetric
    from A's upper triangle (the symmetry contract, module notes), so every
    method solves the same operator. No subnormal entry is zeroed; a
    Gaussian Gram holds none (see the kernels module notes). An A that is
    not a square real matrix, or a j_max that is not an integer in
    0..n-1, raises InputError, and an A that is not symmetric within
    SYMMETRY_RTOL, or holds NaN or Inf, raises NumericalError; so does a
    solver that fails or returns fewer than j_max+1 pairs.
    """
    A = _own(A)
    j_max = _checked_int(j_max, "j_max", 0, A.shape[0] - 1)
    return _eigendecompose(_check_symmetric(A), j_max, method)


def _eigendecompose(
    A: np.ndarray, j_max: int, method: EigenMethod | None,
    start: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """eigendecompose of a finite, exactly symmetric, C-ordered float64 A.

    j_max is an int in 0..n-1. A is not scanned, and the solver may
    overwrite it. start, a vector near the top eigenvector, is the Lanczos
    start vector.
    """
    n = A.shape[0]
    k = j_max + 1
    if method is None:
        method = EigenMethod()
    vals, vecs = _SOLVERS[method.name](A, k, method, start)
    # LAPACK's subset solve can return fewer pairs than asked for, without
    # an error, on a nearly diagonal operator
    if vals.shape[0] != k or vecs.shape[1] != k:
        raise NumericalError(
            f"eigensolver returned {vals.shape[0]} of the {k} eigenpairs asked for"
        )
    _log_ties(vals)
    # eigh returns unit-2-norm columns; scale to the (1/n)-inner-product norm.
    # Contiguous copies keep downstream matrix products bit-reproducible after
    # an archive round-trip (BLAS summation order depends on memory layout).
    vals = np.ascontiguousarray(vals)
    return vals, np.ascontiguousarray(_fix_signs(vecs * np.sqrt(n)))


def rescale(vectors: np.ndarray, stationary: np.ndarray) -> np.ndarray:
    """Divide row i by sqrt(stationary_i).

    Maps eigenvectors of the symmetric conjugate to right eigenvectors of the
    Markov matrix, orthonormal in the stationary-weighted inner product.
    """
    stationary = np.asarray(stationary, dtype=float)
    # NaN compares False, so test for the weights that are > 0
    if not np.all(stationary > 0.0):
        raise NumericalError("nonpositive stationary weight; cannot rescale")
    return vectors / np.sqrt(stationary)[:, None]


def fit_basis(
    X: np.ndarray,
    spec: KernelSpec,
    j_max: int,
    mode: Mode = Mode.STOCHASTIC,
    method: EigenMethod | None = None,
) -> EigenBasis:
    """Build the adaptive eigenbasis on training points X.

    Stochastic and BiasCorrected modes run the full normalize/eigendecompose/
    rescale pipeline; Symmetric keeps the conjugate eigenvectors unrescaled;
    Uniform eigendecomposes K/n directly with flat weights (the route for
    kernels whose entries may be negative). The n x n Gram is built here
    with its row sums, symmetric by construction, in a memory map of its own
    (kernels._self_gram_into), and the normalization and the solver work
    inside it. A Gaussian Gram of at most kernels.BLOCK_GRAM_MAX_D (8)
    columns is built from the points one 1 MiB block of rows per pool worker
    at a time, with no stored distances; a wider one from its squared
    distances, written into K and exponentiated there in the same blocks
    (below kernels.BLAS_DISTANCE_MIN_D columns they are pdist's, whose n^2/2
    lie in a memory map of their own until K is filled; from it on no other
    n^2-scale array is made). Beyond K and that map, the fit's heap is a few
    1 MiB blocks, one column chunk of the distances and a few n x (j_max+1)
    arrays. Row sums
    that are not finite raise NumericalError in every mode, and in the
    degree-weighted modes so do row sums that are not > 0. X follows the
    input contract (README, "Input contract") with at least 2 points, and
    j_max is an integer in 0..n-1; a fault raises InputError before any
    kernel is built.
    """
    X, _ = _checked_training(X, min_rows=2)
    n = X.shape[0]
    j_max = _checked_int(j_max, "j_max", 0, n - 1)
    sums = np.empty(n)
    K = _self_gram_into(spec, X, sums=sums)
    return _fit(X, spec, j_max, mode, method, K, sums)


def _fit(
    X: np.ndarray, spec: KernelSpec, j_max: int, mode: Mode,
    method: EigenMethod | None, K: np.ndarray, sums: np.ndarray,
) -> EigenBasis:
    """fit_basis on checked points X, given K and its row sums.

    K must be C-ordered float64 and exactly symmetric; it is consumed. Its
    finiteness is judged from sums alone.
    """
    n = X.shape[0]
    if method is None:
        method = EigenMethod()
    start = None
    if mode is Mode.UNIFORM:
        degrees = _check_row_sums(sums, positive=False) / n
        stationary = np.full(n, 1.0 / n)
        K /= n
    else:
        degrees = _check_row_sums(sums) / n
        if mode is Mode.BIAS_CORRECTED:
            sums = np.empty(n)
            _scale_pairs(K, degrees, np.divide, sums)
            _check_row_sums(sums)
        stationary = sums / sums.sum()
        root = np.sqrt(sums)
        _scale_pairs(K, 1.0 / root, np.multiply)
        # the operator's top eigenvector is root, so Lanczos starts there
        start = root
    # K is now the normalized operator, which the solver may overwrite
    vals, vecs = _eigendecompose(K, j_max, method, start)
    if mode in (Mode.STOCHASTIC, Mode.BIAS_CORRECTED):
        vecs = rescale(vecs, stationary)
    return EigenBasis(
        kernel=spec,
        training_points=X,
        eigenvalues=vals,
        eigenvectors=vecs,
        stationary=stationary,
        degrees=degrees,
        mode=mode,
        method=method,
    )


def smoothness_spectrum(basis: EigenBasis) -> np.ndarray:
    """Per-component roughness nu^2_j = (1 - lambda_j) / bandwidth.

    Defined for Gaussian-kernel bases only; nonnegative and nondecreasing in
    j because the eigenvalues are sorted descending.
    """
    if basis.kernel.family != "gaussian":
        raise InputError("smoothness spectrum needs a gaussian-kernel basis")
    return np.maximum(0.0, (1.0 - basis.eigenvalues) / basis.kernel.bandwidth)
