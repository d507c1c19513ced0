"""Data model, CSV ingestion, standardization, splits, and synthetic generators."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError
from .kernels import (
    _checked_int, _checked_positive, _checked_queries, _checked_real, _checked_training,
)

__all__ = [
    "Dataset",
    "Standardizer",
    "SplitSpec",
    "load_csv",
    "standardize",
    "unit_normalize_rows",
    "split",
    "gen_spiral",
    "gen_circle",
    "gen_uniform_interval",
]

DEFAULT_SPIRAL_U_MAX = 9.0 * np.pi**2  # arc parameter sqrt(u) spans [0, 3*pi]
DEFAULT_SPIRAL_NOISE_SD = 0.1
DEFAULT_CIRCLE_NOISE_VAR = 0.5


@dataclass(frozen=True)
class Dataset:
    """An n x d feature matrix with an optional length-n response vector.

    Parameters
    ----------
    features : ndarray, shape (n, d)
        One row per observation, n >= 1 and d >= 1. Must be finite; a 1-D
        array is refused (README, "Input contract").
    responses : ndarray, shape (n,), optional
        Finite real-valued responses aligned with the feature rows.
    column_names : list of str, optional
        Names for the d feature columns.
    """

    features: np.ndarray
    responses: np.ndarray | None = None
    column_names: list[str] | None = None

    def __post_init__(self):
        feats, resp = _checked_training(self.features, self.responses)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "responses", resp)
        d = feats.shape[1]
        if self.column_names is not None and len(self.column_names) != d:
            raise InputError(
                f"{len(self.column_names)} column names for {d} columns"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset as a new Dataset (responses follow when present)."""
        resp = None if self.responses is None else self.responses[indices]
        return Dataset(self.features[indices], resp, self.column_names)


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform fitted on a training sample.

    Constant columns (sd below ``1e-12 * max(1, |mean|)``) are flagged and
    mapped to exactly 0; the inverse maps them back to their mean. means,
    sds and constant are 1-D and of one length, means and sds finite, and
    each sd > 0 on a column not flagged constant; else InputError.
    transform and inverse take query rows of the fitted width
    (kernels._checked_queries): a 1-D array is one row, and another width or
    a row holding NaN or Inf raises InputError.
    """

    means: np.ndarray
    sds: np.ndarray
    constant: np.ndarray = field(default=None)  # bool mask of constant columns

    def __post_init__(self):
        means = np.asarray(self.means, dtype=float)
        sds = np.asarray(self.sds, dtype=float)
        constant = (np.zeros(means.shape, dtype=bool) if self.constant is None
                    else np.asarray(self.constant, dtype=bool))
        if means.ndim != 1 or sds.shape != means.shape or constant.shape != means.shape:
            raise InputError(f"standardizer means, sds and constant must be 1-D of one length, "
                             f"got shapes {means.shape}, {sds.shape} and {constant.shape}")
        if not (np.isfinite(means).all() and np.isfinite(sds).all()):
            raise InputError("standardizer means and sds must be finite")
        if not (sds[~constant] > 0.0).all():
            raise InputError("standardizer sds must be > 0 on every column not flagged constant")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sds", sds)
        object.__setattr__(self, "constant", constant)

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = _checked_queries(X, self.means.shape[0])
        safe_sds = np.where(self.constant, 1.0, self.sds)
        out = (X - self.means) / safe_sds
        out[:, self.constant] = 0.0
        return out

    def inverse(self, Z: np.ndarray) -> np.ndarray:
        Z = _checked_queries(Z, self.means.shape[0])
        safe_sds = np.where(self.constant, 1.0, self.sds)
        out = Z * safe_sds + self.means
        out[:, self.constant] = self.means[self.constant]
        return out


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the permutation seed.

    The fractions must be finite reals in (0, 1) that sum to 1, and seed an
    integer >= 0 (2.0 counts as 2), else InputError.
    """

    train_frac: float = 0.5
    val_frac: float = 0.25
    test_frac: float = 0.25
    seed: int = 0

    def __post_init__(self):
        fracs = tuple(_checked_real(f, "split fractions")
                      for f in (self.train_frac, self.val_frac, self.test_frac))
        for f in fracs:
            if not (0.0 < f < 1.0):
                raise InputError(f"split fractions must lie in (0,1), got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-12:
            raise InputError(f"split fractions must sum to 1, got {sum(fracs)!r}")
        object.__setattr__(self, "seed", _checked_int(self.seed, "seed", 0))


def load_csv(path, has_header: bool = True, response_column=None) -> Dataset:
    """Read a numeric CSV into a Dataset.

    Lines starting with ``#`` are skipped (generator files carry a
    ``# seed=<n>`` comment). ``response_column`` may be a header name or a
    0-based column index; the matching column becomes the responses and is
    removed from the features.
    """
    rows = []
    header = None
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            if has_header and header is None:
                header = [c.strip() for c in row]
                continue
            rows.append((lineno, [c.strip() for c in row]))

    if not rows:
        raise InputError(f"{path}: no data rows")

    width = len(rows[0][1])
    values = np.empty((len(rows), width), dtype=float)
    for i, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise InputError(
                f"{path}: line {lineno} has {len(row)} fields, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}, column {j + 1}: non-numeric value {cell!r}"
                ) from None

    resp_idx = None
    if response_column is not None:
        if isinstance(response_column, int):
            if not (0 <= response_column < width):
                raise InputError(
                    f"response column index {response_column} out of range (0..{width - 1})"
                )
            resp_idx = response_column
        else:
            if header is None or response_column not in header:
                raise InputError(f"response column {response_column!r} not found")
            resp_idx = header.index(response_column)

    if resp_idx is None:
        names = header
        return Dataset(values, None, names)
    keep = [j for j in range(width) if j != resp_idx]
    names = [header[j] for j in keep] if header is not None else None
    return Dataset(values[:, keep], values[:, resp_idx], names)


def standardize(data: Dataset) -> tuple[Dataset, Standardizer]:
    """Center each column to mean 0 and scale to sample sd 1 (n-1 convention).

    A column whose mean or sd overflows raises NumericalError.
    """
    if data.n < 2:
        raise InputError("standardize needs at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        means = data.features.mean(axis=0)
        sds = data.features.std(axis=0, ddof=1)
    finite = np.isfinite(means) & np.isfinite(sds)
    if not finite.all():
        raise NumericalError(f"column {int(np.argmin(finite))}'s mean or sd overflows; "
                             f"cannot standardize")
    constant = sds <= 1e-12 * np.maximum(1.0, np.abs(means))
    std = Standardizer(means, sds, constant)
    return Dataset(std.transform(data.features), data.responses, data.column_names), std


def unit_normalize_rows(data: Dataset) -> Dataset:
    """Rescale every row to Euclidean norm 1."""
    return Dataset(_unit_rows(data.features), data.responses, data.column_names)


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """X's rows divided by their Euclidean norms; InputError names a zero row."""
    norms = np.linalg.norm(X, axis=1)
    zero = np.nonzero(norms == 0.0)[0]
    if zero.size:
        raise InputError(f"row {zero[0]} has zero norm; cannot unit-normalize")
    return X / norms[:, None]


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic disjoint train/validation/test partition.

    Sizes are floor(n * frac) per block with the remainder assigned to train,
    so the three blocks always cover all n rows.
    """
    n = data.n
    if n < 3:
        raise InputError("split needs at least 3 rows")
    n_train = int(np.floor(n * spec.train_frac))
    n_val = int(np.floor(n * spec.val_frac))
    n_test = int(np.floor(n * spec.test_frac))
    n_train += n - (n_train + n_val + n_test)
    if n_val == 0 or n_test == 0:
        raise InputError(
            f"fractions {spec.train_frac}/{spec.val_frac}/{spec.test_frac} "
            f"leave an empty block at n={n}; use more rows or larger fractions"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    i_train = np.sort(perm[:n_train])
    i_val = np.sort(perm[n_train : n_train + n_val])
    i_test = np.sort(perm[n_train + n_val :])
    return data.take(i_train), data.take(i_val), data.take(i_test)


def gen_spiral(
    n: int,
    noise_sd: float = DEFAULT_SPIRAL_NOISE_SD,
    u_max: float = DEFAULT_SPIRAL_U_MAX,
    seed: int = 0,
) -> Dataset:
    """Noisy planar spiral (sqrt(u) cos sqrt(u), sqrt(u) sin sqrt(u)).

    u is uniform on (0, u_max) and the response is the arc parameter
    sqrt(u), which serves as the regression target. noise_sd is a finite
    real >= 0 and u_max a finite real > 0, else InputError.
    """
    n, seed = _checked_int(n, "n", 1), _checked_int(seed, "seed", 0)
    noise_sd = _checked_real(noise_sd, "noise_sd", 0.0)
    u_max = _checked_positive(u_max, "u_max")
    rng = np.random.default_rng(seed)
    t = np.sqrt(rng.uniform(0.0, u_max, size=n))
    eps = rng.normal(0.0, noise_sd, size=(n, 2)) if noise_sd > 0 else np.zeros((n, 2))
    feats = np.column_stack([t * np.cos(t), t * np.sin(t)]) + eps
    return Dataset(feats, t, ["x1", "x2"])


def gen_circle(
    n: int,
    d: int = 2,
    noise_var: float = DEFAULT_CIRCLE_NOISE_VAR,
    seed: int = 0,
    rotate: bool = False,
) -> Dataset:
    """Unit circle embedded in R^d with angle responses Y ~ N(theta, noise_var).

    The circle lives in the first two coordinates; with ``rotate`` a seeded
    random orthogonal matrix mixes it into all d coordinates. Only the
    matrix's first two columns touch the circle, so only they are formed,
    at O(nd) cost. noise_var is a finite real >= 0, else InputError.
    """
    n, d, seed = _checked_int(n, "n", 1), _checked_int(d, "d", 2), _checked_int(seed, "seed", 0)
    noise_var = _checked_real(noise_var, "noise_var", 0.0)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    if rotate:
        # QR column j depends only on input columns <= j, so these match the
        # full d x d factorization; drawing all d x d normals keeps the
        # response noise on the same random stream
        q, r = np.linalg.qr(rng.standard_normal((d, d))[:, :2])
        q *= np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
        feats = np.outer(np.cos(theta), q[:, 0]) + np.outer(np.sin(theta), q[:, 1])
    else:
        feats = np.zeros((n, d))
        feats[:, 0] = np.cos(theta)
        feats[:, 1] = np.sin(theta)
    y = theta if noise_var == 0 else theta + rng.normal(0.0, np.sqrt(noise_var), size=n)
    return Dataset(feats, y, [f"x{j + 1}" for j in range(d)])


def gen_uniform_interval(n: int, lo: float = 0.0, hi: float = 1.0, seed: int = 0) -> Dataset:
    """1-D features uniform on (lo, hi), finite reals; no responses."""
    n, seed = _checked_int(n, "n", 1), _checked_int(seed, "seed", 0)
    lo, hi = _checked_real(lo, "lo"), _checked_real(hi, "hi")
    if lo >= hi:
        raise InputError(f"need lo < hi, got ({lo}, {hi})")
    rng = np.random.default_rng(seed)
    return Dataset(rng.uniform(lo, hi, size=(n, 1)), None, ["x1"])
