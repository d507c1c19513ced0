"""Validation-loss tuning for the series estimator and the baselines.

The series tuner exploits basis orthogonality: for each kernel candidate the
coefficients are estimated once at the basis cutoff, every truncation J is
then scored from one extension of the validation points via cumulative sums.
Truncation never changes results, only cost.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    KNNModel, KRRModel, NWModel, _gram_and_row_bound, _knn, _nw, _ridge_solve,
)
from .dataset import Dataset
from .diffusion import EigenMethod, Mode, _fit, _n_usable
from .errors import InputError, NumericalError
from .kernels import (
    KernelSpec, _checked_int, _checked_positive, _checked_queries, _gram_into, _sweep_distances,
    gram_matrix, matmul,
)
from .nystrom import _extend, _operands
from .series import SeriesModel, _coefficients, pool_unlabeled

__all__ = [
    "TuneGrid",
    "FitReport",
    "empirical_loss",
    "loss_se",
    "tune_series",
    "tune_baseline",
    "evaluate_on",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TuneGrid:
    """Candidate kernels and the basis cutoff for the tuning sweep.

    Gaussian candidates come from ``bandwidths``, finite and > 0; polynomial
    candidates from ``degrees``, integers >= 1. At least one candidate is
    required, and ``j_max`` is an integer >= 0. An integral float such as 2.0
    counts as that integer; a fault raises InputError.
    """

    bandwidths: tuple[float, ...] = ()
    degrees: tuple[int, ...] = ()
    j_max: int = 60

    def __post_init__(self):
        bw = tuple(_checked_positive(b, "bandwidth candidates") for b in self.bandwidths)
        dg = tuple(_checked_int(q, "degree candidates", 1) for q in self.degrees)
        if not bw and not dg:
            raise InputError("tuning grid has no kernel candidates")
        if any(b2 <= b1 for b1, b2 in zip(bw, bw[1:])):
            raise InputError("bandwidth candidates must be strictly ascending")
        if len(set(dg)) != len(dg):
            raise InputError("degree candidates must not repeat")
        object.__setattr__(self, "bandwidths", bw)
        object.__setattr__(self, "degrees", dg)
        object.__setattr__(self, "j_max", _checked_int(self.j_max, "j_max", 0))

    @property
    def kernels(self) -> list[KernelSpec]:
        return [KernelSpec.gaussian(b) for b in self.bandwidths] + [
            KernelSpec.polynomial(q) for q in self.degrees
        ]


@dataclass
class FitReport:
    """Tuning outcome: the loss surface, the winner, and stage timings.

    loss_surface maps (kernel family, parameter, J) to validation loss;
    baseline reports use J = -1. Unusable truncations (eigenvalue at the
    extension floor, J beyond the basis size, or a loss that is not finite)
    are recorded as inf so the surface always enumerates the full grid.
    chosen must be the surface's first entry in _rank's order, which holds
    the tie rule; any other raises InputError. timings maps a stage to its
    seconds summed over the sweep. tune_series' stages are kernel_build (the
    candidates' self Grams and the one computation of the training and
    validation distances that Gaussian candidates share, where
    kernels._sweep_distances stores any), eigendecomposition, coefficient
    and validation (each validation Gram, its extension and scoring).
    """

    loss_surface: dict[tuple[str, float, int], float]
    chosen: tuple[str, float, int]
    val_loss: float
    test_loss: float | None = None
    test_se: float | None = None
    timings: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.chosen not in self.loss_surface:
            raise InputError(f"chosen key {self.chosen} missing from the loss surface")
        best = min(self.loss_surface, key=lambda key: _rank(key, self.loss_surface[key]))
        if self.chosen != best:
            raise InputError(f"chosen entry {self.chosen} is not the tie rule's pick {best}")

    @property
    def grid_edges(self) -> tuple[str, ...]:
        """The edges of the tuning grid that the chosen entry sits on.

        A choice on an edge may have been cut short by the grid. J is at the
        cap when it is the largest truncation the chosen kernel scored
        finitely (j_max, or less when the basis was smaller or hit the
        eigenvalue floor). A Gaussian bandwidth is on an edge when it is the
        lowest or highest of two or more grid bandwidths. Empty when the
        choice is interior.
        """
        family, param, J = self.chosen
        edges = []
        if J >= 0:
            cap = max(k[2] for k, v in self.loss_surface.items()
                      if k[:2] == (family, param) and np.isfinite(v))
            if J == cap:
                edges.append(f"J at the cap ({cap})")
        if family == "gaussian":
            widths = sorted({k[1] for k in self.loss_surface if k[0] == family})
            if len(widths) > 1 and param == widths[0]:
                edges.append("bandwidth at the lowest grid value")
            elif len(widths) > 1 and param == widths[-1]:
                edges.append("bandwidth at the highest grid value")
        return tuple(edges)

    def surface_rows(self) -> list[tuple[str, float, int, float]]:
        """Long-format rows (family, parameter, J, loss), sorted for export."""
        return [(k[0], k[1], k[2], v) for k, v in sorted(self.loss_surface.items())]


def _residuals(predictions, actuals, min_n: int) -> np.ndarray:
    """actuals - predictions, for two raveled finite vectors of one length >= min_n.

    Each vector is checked as one-column query rows are
    (kernels._checked_queries); NaN or Inf, a length mismatch or fewer than
    min_n points raises InputError.
    """
    predictions, actuals = (_checked_queries(np.reshape(v, (-1, 1)), 1, what)
                            for v, what in ((predictions, "prediction"), (actuals, "actual")))
    if predictions.shape != actuals.shape:
        raise InputError(f"length mismatch: {len(predictions)} predictions, "
                         f"{len(actuals)} actuals")
    if predictions.shape[0] < min_n:
        raise InputError(f"need at least {min_n} point(s), got {predictions.shape[0]}")
    return (actuals - predictions).ravel()


def empirical_loss(predictions: np.ndarray, actuals: np.ndarray) -> float:
    """Mean squared error of finite predictions against finite actuals (see _residuals)."""
    return float(np.mean(_residuals(predictions, actuals, 1) ** 2))


def loss_se(predictions: np.ndarray, actuals: np.ndarray) -> float:
    """Standard error of the loss estimate: sd of squared residuals over sqrt(n).

    Inputs are checked as empirical_loss's are, with at least 2 points.
    """
    sq = _residuals(predictions, actuals, 2) ** 2
    return float(np.std(sq, ddof=1) / np.sqrt(sq.size))


def evaluate_on(predict_fn, data: Dataset) -> tuple[float, float]:
    """Loss and its standard error for a predictor on a labeled split."""
    if data is None or data.responses is None:
        raise InputError("evaluation split is missing or has no responses")
    preds = predict_fn(data.features)
    return empirical_loss(preds, data.responses), loss_se(preds, data.responses)


def _rank(key: tuple[str, float, int], loss: float) -> tuple:
    """The sort key of a loss-surface entry: tuning picks the entry it ranks first.

    This is the one tie rule, read by both tuners and by FitReport. The lower
    loss wins. At equal loss the smaller J wins, then a Gaussian kernel over a
    polynomial one, then the smoother kernel: the wider bandwidth or the lower
    degree. Baseline entries (J = -1) at equal loss go to the larger
    parameter, the smoother model: the wider bandwidth, the more neighbours
    or the larger penalty.
    """
    family, param, J = key
    poly = family == "poly"
    return loss, J, poly, param if poly else -param


def _checked_splits(train: Dataset, val: Dataset) -> None:
    """Refuse, with InputError, a missing split, a split without responses, or
    a validation split of another width than the training split."""
    if any(s is None or s.responses is None for s in (train, val)):
        raise InputError("tuning needs responses on both the train and validation splits")
    if train.d != val.d:
        raise InputError(f"train has d={train.d} but validation has d={val.d}")


@contextmanager
def _timed(timings: dict[str, float], stage: str):
    """Add the seconds of the block to timings[stage] as it ends, also when it raises."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[stage] += time.perf_counter() - start


def tune_series(
    train: Dataset,
    val: Dataset,
    grid: TuneGrid,
    mode: Mode = Mode.STOCHASTIC,
    method: EigenMethod | None = None,
    unlabeled: np.ndarray | None = None,
) -> tuple[SeriesModel, FitReport]:
    """Select (kernel, J) by validation loss over the full grid.

    Per candidate, one basis fit and one coefficient pass at the cutoff; all
    truncations are scored from a single extension of the validation points.
    Every candidate's operator is built, normalized and solved in one n x n
    buffer for the whole sweep, and once its fit is done, its validation
    cross Gram is built whole in the same buffer (in an array of its own only
    when the validation set has more rows than the training pool) and
    extended in one call. Every Gram, each candidate's and its validation
    Gram, is built by kernels._gram_into, which alone chooses its route (the
    kernels module notes). Gaussian candidates differ only in the exponent's
    scale, so the sweep computes its training and validation distances at
    most once, timed as kernel build: kernels._sweep_distances stores them
    where the route reads them, and each bandwidth then only exponentiates.
    Polynomial candidates run in Uniform mode (their Gram entries may be
    negative, which the degree-weighted modes cannot accept). Unlabeled rows,
    when given, enter every candidate basis; coefficients use training rows
    only. Ties go as _rank orders them. train and val are Datasets, checked
    when they were made (a missing split raises InputError), and unlabeled
    rows are checked as queries are (README, "Input contract"), so the sweep
    scans no input again.
    """
    _checked_splits(train, val)
    pooled = pool_unlabeled(train.features, unlabeled)
    labeled = np.arange(train.n) if pooled.shape[0] > train.n else None

    if pooled.shape[0] < 2:
        raise InputError(f"got {pooled.shape[0]} training points; need at least 2")
    j_cap = min(grid.j_max, pooled.shape[0] - 1)
    surface: dict[tuple[str, float, int], float] = {}
    best = None  # (key, loss, basis, coef)

    timings = dict.fromkeys(("kernel_build", "eigendecomposition", "coefficient",
                             "validation"), 0.0)
    # the distances Gaussian candidates share, where stored, are computed
    # once for the whole sweep
    with _timed(timings, "kernel_build"):
        sq_pooled, sq_val = (_sweep_distances(pooled, val.features) if grid.bandwidths
                             else (None, None))

    n, m = pooled.shape[0], val.n
    K, sums = np.empty((n, n)), np.empty(n)
    # the fit consumes K, so the validation cross Gram goes into its prefix
    Kv = K.reshape(-1)[:m * n].reshape(m, n) if m <= n else np.empty((m, n))

    for spec in grid.kernels:
        gaussian = spec.family == "gaussian"
        cand_mode = mode if gaussian else Mode.UNIFORM
        param = spec.bandwidth if gaussian else float(spec.degree)
        losses = np.full(grid.j_max + 1, np.inf)
        # free the last candidate's basis before this one's is made
        basis = coef = None
        try:
            with _timed(timings, "kernel_build"):
                _gram_into(spec, pooled, None, K, sq_pooled, sums)
            with _timed(timings, "eigendecomposition"):
                basis = _fit(pooled, spec, j_cap, cand_mode, method, K, sums)
            with _timed(timings, "coefficient"):
                coef = _coefficients(basis, train.responses, labeled)
            with _timed(timings, "validation"):
                usable = _n_usable(basis.eigenvalues)
                if usable:
                    _gram_into(spec, val.features, pooled, Kv, sq_val)
                    Psi_val = _extend(spec, pooled, val.features,
                                      *_operands(basis, usable - 1, None), Kx=Kv)
                    cum = np.cumsum(Psi_val * coef[:usable][None, :], axis=1)
                    err = val.responses[:, None] - cum
                    losses[:usable] = np.mean(err * err, axis=0)
        except NumericalError as exc:
            logger.warning("candidate %s failed: %s", spec.label(), exc)
        losses[np.isnan(losses)] = np.inf
        for J in range(grid.j_max + 1):
            surface[(spec.family, param, J)] = float(losses[J])

        # a failed candidate, or one with no usable pair, has no finite loss
        J = int(np.argmin(losses))  # the smallest J at the minimum
        key, loss = (spec.family, param, J), float(losses[J])
        if np.isfinite(loss) and (best is None or _rank(key, loss) < _rank(*best[:2])):
            best = (key, loss, basis, coef)

    if best is None:
        raise NumericalError("no kernel candidate produced a usable fit")

    key, loss, basis, coef = best
    model = SeriesModel(basis, coef, key[2], ssl=labeled is not None)
    report = FitReport(surface, key, loss, timings=timings)
    return model, report


def tune_baseline(
    train: Dataset,
    val: Dataset,
    candidates,
    kind: str,
    kernel: KernelSpec | None = None,
) -> tuple[object, FitReport]:
    """Pick a baseline hyperparameter by validation loss.

    kind is "nw" (candidates are bandwidths), "knn" (neighbor counts), or
    "krr" (penalties; needs the kernel, whose Gram and validation cross Gram
    are built once for all penalties, and every penalty is solved in one
    call: the Gram is reduced to tridiagonal form once, each penalty costs
    an O(n) tridiagonal solve, and Q is applied to all of their solutions
    in one blocked pass; see krr_fit). A penalty whose solve fails scores
    inf and is logged, as any failed candidate is. Ties go as _rank orders
    them: to the larger parameter.
    A missing split raises InputError. Candidates are checked as the
    predictors check them, all before the first is scored and before any
    kernel is built.
    """
    _checked_splits(train, val)
    checked = {"nw": lambda bw: _checked_positive(bw, "bandwidth"),
               "knn": lambda k: _checked_int(k, "k", 1, train.n),
               "krr": lambda penalty: _checked_positive(penalty, "penalty")}
    if kind not in checked:
        raise InputError(f"unknown baseline kind {kind!r}")
    if kind == "krr" and kernel is None:
        raise InputError("krr tuning needs a kernel spec")
    candidates = sorted(checked[kind](param) for param in candidates)
    if not candidates:
        raise InputError("no candidates to tune over")
    score = _nw if kind == "nw" else _knn

    surface: dict[tuple[str, float, int], float] = {}
    timings = {"fit": 0.0, "validation": 0.0}
    if kind == "krr":
        # every penalty shares one K, reduced in place, and one validation cross Gram
        with _timed(timings, "fit"):
            K, row_bound = _gram_and_row_bound(kernel, train.features)
            solved = _ridge_solve(K, train.responses, row_bound, candidates)
            del K  # its map is returned before the validation Gram is made
        with _timed(timings, "validation"):
            Kv = gram_matrix(kernel, val.features, train.features)
    best = None  # (key, loss, model)
    for i, param in enumerate(candidates):
        key = (kind, float(param), -1)
        try:
            with _timed(timings, "fit"):
                if kind == "nw":
                    model = NWModel(train.features, train.responses, param)
                elif kind == "knn":
                    model = KNNModel(train.features, train.responses, param)
                elif isinstance(solved[i], NumericalError):
                    raise solved[i]
                else:
                    alpha = solved[i]
                    model = KRRModel(kernel, train.features, alpha, param)
        except NumericalError as exc:
            logger.warning("%s candidate %s failed: %s", kind, param, exc)
            surface[key] = float("inf")
            continue
        with _timed(timings, "validation"):
            preds = (matmul(Kv, alpha) if kind == "krr"
                     else score(train.features, train.responses, param, val.features))
            loss = empirical_loss(preds, val.responses)
        surface[key] = loss
        if best is None or _rank(key, loss) < _rank(*best[:2]):
            best = (key, loss, model)

    if best is None:
        raise NumericalError(f"every {kind} candidate failed to fit")
    key, loss, model = best
    report = FitReport(surface, key, loss, timings=timings)
    return model, report
