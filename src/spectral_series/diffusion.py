"""Kernel normalizations, stationary weights, and the adaptive eigenbasis.

Pipeline: Gram matrix K -> mode-specific normalization -> symmetric
eigendecomposition (exact or randomized) -> density rescaling. The result is
an orthogonal basis adapted to the sampling distribution of the data.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .kernels import KernelSpec, gram_matrix

__all__ = [
    "Mode",
    "EigenMethod",
    "DiffusionSystem",
    "EigenBasis",
    "row_stochastic",
    "symmetric_normalize",
    "stationary_weights",
    "bias_correct",
    "diffusion_system",
    "eigendecompose",
    "rescale",
    "fit_basis",
    "smoothness_spectrum",
]

logger = logging.getLogger(__name__)

EIGENVALUE_TIE_GAP = 1e-12
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
        except ValueError:
            raise InputError(
                f"unknown mode {name!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


@dataclass(frozen=True)
class EigenMethod:
    """Eigensolver choice: exact dense ("full") or randomized range-finding."""

    name: str = "full"
    oversample: int = 10
    power_iters: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.name not in ("full", "randomized"):
            raise InputError(f"method must be 'full' or 'randomized', got {self.name!r}")
        if self.oversample < 0 or self.power_iters < 0:
            raise InputError("oversample and power_iters must be >= 0")


@dataclass(frozen=True)
class DiffusionSystem:
    """Normalized kernel system: the matrix the random walk runs on.

    gram is the (possibly bias-corrected) kernel matrix; degrees are the
    raw-kernel density estimates p(X_i) = (1/n) sum_j k(X_i, X_j); stationary
    holds the random-walk stationary weights (uniform 1/n in Uniform mode).
    """

    gram: np.ndarray
    degrees: np.ndarray
    stationary: np.ndarray
    mode: Mode

    def __post_init__(self):
        if self.mode is not Mode.UNIFORM and np.any(self.degrees <= 0):
            raise NumericalError("nonpositive kernel degree; all degrees must be > 0")
        if np.any(self.stationary < 0):
            raise NumericalError("negative stationary weight")
        total = float(self.stationary.sum())
        if abs(total - 1.0) > 1e-12:
            raise NumericalError(f"stationary weights sum to {total!r}, expected 1")


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

    def truncate(self, n_components: int) -> "EigenBasis":
        """Keep the leading eigenpairs only."""
        if not (1 <= n_components <= self.n_components):
            raise InputError(
                f"n_components must be in 1..{self.n_components}, got {n_components}"
            )
        return EigenBasis(
            self.kernel,
            self.training_points,
            self.eigenvalues[:n_components],
            self.eigenvectors[:, :n_components],
            self.stationary,
            self.degrees,
            self.mode,
            self.method,
        )


def _row_sums(K: np.ndarray) -> np.ndarray:
    K = np.asarray(K, dtype=float)
    sums = K.sum(axis=1)
    if np.any(sums <= 0.0):
        raise NumericalError("kernel matrix has a nonpositive row sum")
    return sums


def row_stochastic(K: np.ndarray) -> np.ndarray:
    """Markov transition matrix: each row of K divided by its row sum."""
    K = np.asarray(K, dtype=float)
    return K / _row_sums(K)[:, None]


def symmetric_normalize(K: np.ndarray) -> np.ndarray:
    """Symmetric conjugate of the Markov matrix: K_ij / sqrt(rowsum_i rowsum_j).

    Shares its eigenvalues with row_stochastic(K) (similarity transform by
    diag(rowsums)^(1/2)). For symmetric K it is exactly symmetric, because
    each entry is K_ij times the single product r_i r_j, so the symmetric
    eigensolver applies.
    """
    K = np.asarray(K, dtype=float)
    inv_root = 1.0 / np.sqrt(_row_sums(K))
    A = np.outer(inv_root, inv_root)
    A *= K
    return A


def stationary_weights(K: np.ndarray) -> np.ndarray:
    """Stationary distribution of the row-normalized random walk.

    Proportional to the row sums (equivalently to the degree estimates),
    normalized to sum to 1.
    """
    sums = _row_sums(K)
    return sums / sums.sum()


def bias_correct(K: np.ndarray) -> np.ndarray:
    """Divide K entrywise by the degree products p(X_i) p(X_j).

    Removes the leading sampling-density bias; the corrected matrix is fed
    back through the stochastic pipeline. Exactly symmetric for symmetric K.
    """
    K = np.asarray(K, dtype=float)
    degrees = K.mean(axis=1)
    if np.any(degrees <= 0.0):
        raise NumericalError("nonpositive degree; cannot bias-correct")
    Kc = np.outer(degrees, degrees)
    np.divide(K, Kc, out=Kc)
    return Kc


def diffusion_system(K: np.ndarray, mode: Mode) -> DiffusionSystem:
    """Assemble the normalized system for the requested mode."""
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    degrees = K.mean(axis=1)
    if mode is Mode.UNIFORM:
        return DiffusionSystem(K, degrees, np.full(n, 1.0 / n), mode)
    if np.any(degrees <= 0.0):
        raise NumericalError("nonpositive kernel degree in a degree-weighted mode")
    gram = bias_correct(K) if mode is Mode.BIAS_CORRECTED else K
    return DiffusionSystem(gram, degrees, stationary_weights(gram), mode)


def _check_symmetric(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InputError(f"expected a square matrix, got shape {A.shape}")
    scale = max(float(A.max()), -float(A.min()), 1e-300)
    # max |A - A^T| over the upper-triangle tiles: |a - b| == |b - a|, so this
    # equals the full-matrix maximum, while each tile and its mirror stay in
    # cache instead of the strided full transpose
    n = A.shape[0]
    tile_max = [
        np.abs(A[i:i + SYMMETRY_TILE, j:j + SYMMETRY_TILE]
               - A[j:j + SYMMETRY_TILE, i:i + SYMMETRY_TILE].T).max()
        for i in range(0, n, SYMMETRY_TILE)
        for j in range(i, n, SYMMETRY_TILE)
    ]
    asym = float(np.max(tile_max))
    # NaN compares False against the tolerance, so test finiteness first
    if not (np.isfinite(scale) and np.isfinite(asym)):
        raise NumericalError("matrix holds NaN or Inf entries (kernel overflow?)")
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


def _log_ties(eigenvalues: np.ndarray) -> None:
    """One warning per eigensolve: the tie count and the first tied pair."""
    gaps = np.abs(np.diff(eigenvalues))
    ties = np.nonzero(gaps < EIGENVALUE_TIE_GAP)[0]
    if ties.size:
        j = ties[0]
        logger.warning(
            "%d eigenvalue tie(s), first at indices %d/%d (gap %.3e); "
            "vector order is solver-dependent",
            ties.size, j, j + 1, gaps[j],
        )


def eigendecompose(
    A: np.ndarray, j_max: int, method: EigenMethod | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Top j_max+1 eigenpairs of a symmetric matrix, largest first.

    Eigenvectors are scaled so (1/n) sum_i v_j(i) v_k(i) = delta_jk and
    sign-fixed. The randomized method uses Gaussian range-finding with
    power iteration and is deterministic given its seed.
    """
    A = _check_symmetric(A)
    n = A.shape[0]
    k = j_max + 1
    if k > n:
        raise InputError(f"j_max+1 = {k} exceeds matrix size {n}")
    if method is None:
        method = EigenMethod()

    if method.name == "full":
        # only the k largest pairs, returned ascending
        vals, vecs = scipy.linalg.eigh(A, subset_by_index=(n - k, n - 1))
        vals = vals[::-1]
        vecs = vecs[:, ::-1]
    else:
        rng = np.random.default_rng(method.seed)
        n_probe = min(n, k + method.oversample)
        Q, _ = np.linalg.qr(A @ rng.standard_normal((n, n_probe)))
        for _ in range(method.power_iters):
            Q, _ = np.linalg.qr(A @ Q)
        B = Q.T @ A @ Q
        B = 0.5 * (B + B.T)
        vals, U = scipy.linalg.eigh(B)
        vals = vals[::-1][:k]
        vecs = Q @ U[:, ::-1][:, :k]

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
    if np.any(stationary <= 0.0):
        raise NumericalError("nonpositive stationary weight; cannot rescale")
    return vectors / np.sqrt(stationary)[:, None]


def fit_basis(
    X: np.ndarray,
    spec: KernelSpec,
    j_max: int,
    mode: Mode = Mode.STOCHASTIC,
    method: EigenMethod | None = None,
    gram: np.ndarray | None = None,
) -> EigenBasis:
    """Build the adaptive eigenbasis on training points X.

    Stochastic and BiasCorrected modes run the full normalize/eigendecompose/
    rescale pipeline; Symmetric keeps the conjugate eigenvectors unrescaled;
    Uniform eigendecomposes K/n directly with flat weights (the route for
    kernels whose entries may be negative). A precomputed self Gram matrix
    for (spec, X) may be passed to avoid rebuilding it; like the one built
    here it must be symmetric, or the eigensolve raises NumericalError.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[0]
    if n < 2:
        raise InputError("fit_basis needs at least 2 training points")
    if j_max < 0:
        raise InputError("j_max must be >= 0")
    if j_max + 1 > n:
        raise InputError(f"j_max+1 = {j_max + 1} exceeds n = {n}")
    if method is None:
        method = EigenMethod()

    K = gram_matrix(spec, X) if gram is None else np.asarray(gram, dtype=float)
    system = diffusion_system(K, mode)
    if mode is Mode.UNIFORM:
        target = K / n
    else:
        target = symmetric_normalize(system.gram)
    vals, vecs = eigendecompose(target, j_max, method)
    if mode in (Mode.STOCHASTIC, Mode.BIAS_CORRECTED):
        vecs = rescale(vecs, system.stationary)
    return EigenBasis(
        kernel=spec,
        training_points=X,
        eigenvalues=vals,
        eigenvectors=vecs,
        stationary=system.stationary,
        degrees=system.degrees,
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
