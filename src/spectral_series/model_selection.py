"""Validation-loss tuning for the series estimator and the baselines.

The series tuner exploits basis orthogonality: for each kernel candidate the
coefficients are estimated once at the basis cutoff, every truncation J is
then scored from one extension of the validation points via cumulative sums.
Truncation never changes results, only cost.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    KNNModel, KRRModel, NWModel, _gram_and_row_bound, _knn, _nw, _ridge_solver,
)
from .dataset import Dataset
from .diffusion import EigenMethod, Mode, _fit, _n_usable
from .errors import InputError, NumericalError
from .kernels import (
    KernelSpec, _checked_int, _checked_positive, _gram_into, _self_gram_into, _sweep_distances,
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
    extension floor, or J beyond the basis size) are recorded as inf so the
    surface always enumerates the full grid.
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
        best = min(self.loss_surface.values())
        if self.loss_surface[self.chosen] != best:
            raise InputError("chosen entry does not achieve the loss-surface minimum")

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


def empirical_loss(predictions: np.ndarray, actuals: np.ndarray) -> float:
    """Mean squared error."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    actuals = np.asarray(actuals, dtype=float).ravel()
    if predictions.shape != actuals.shape:
        raise InputError(
            f"length mismatch: {predictions.shape[0]} predictions, "
            f"{actuals.shape[0]} actuals"
        )
    if predictions.size == 0:
        raise InputError("empirical_loss needs at least one point")
    return float(np.mean((actuals - predictions) ** 2))


def loss_se(predictions: np.ndarray, actuals: np.ndarray) -> float:
    """Standard error of the loss estimate: sd of squared residuals over sqrt(n)."""
    predictions = np.asarray(predictions, dtype=float).ravel()
    actuals = np.asarray(actuals, dtype=float).ravel()
    if predictions.shape != actuals.shape:
        raise InputError("length mismatch between predictions and actuals")
    n = predictions.size
    if n < 2:
        raise InputError("loss_se needs at least 2 points")
    sq = (actuals - predictions) ** 2
    return float(np.std(sq, ddof=1) / np.sqrt(n))


def evaluate_on(predict_fn, data: Dataset) -> tuple[float, float]:
    """Loss and its standard error for a predictor on a labeled split."""
    if data.responses is None:
        raise InputError("evaluation split has no responses")
    preds = predict_fn(data.features)
    return empirical_loss(preds, data.responses), loss_se(preds, data.responses)


def _is_smoother(a: KernelSpec, b: KernelSpec) -> bool:
    # tie-break preference: gaussian over poly, then wider bandwidth / lower degree
    if a.family != b.family:
        return a.family == "gaussian"
    if a.family == "gaussian":
        return a.bandwidth > b.bandwidth
    return a.degree < b.degree


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
    extended in one call. How each Gram is built is the kernels module's
    choice: at most kernels.BLOCK_GRAM_MAX_D (8) columns wide, each Gaussian
    Gram, self and validation, is built from the points one 1 MiB block of
    rows per pool worker at a time (kernels._gram_into), and the sweep
    stores no distances, as their cdist loop costs no more than the
    exponentials it feeds. Wider, Gaussian candidates share one computation
    of the training and validation squared distances
    (kernels._sweep_distances), and each bandwidth only exponentiates them.
    Polynomial candidates run in Uniform mode (their Gram entries may be
    negative, which the degree-weighted modes cannot accept). Unlabeled rows,
    when given, enter every candidate basis; coefficients use training rows
    only. Ties prefer smaller J, then the smoother kernel. train and val are
    Datasets, checked when they were made, and unlabeled rows are checked as
    queries are (README, "Input contract"), so the sweep scans no input again.
    """
    if train.responses is None or val.responses is None:
        raise InputError("tuning needs responses on both the train and validation splits")
    if train.d != val.d:
        raise InputError(f"train has d={train.d} but validation has d={val.d}")
    pooled = pool_unlabeled(train.features, unlabeled)
    labeled = np.arange(train.n) if pooled.shape[0] > train.n else None

    if pooled.shape[0] < 2:
        raise InputError(f"got {pooled.shape[0]} training points; need at least 2")
    j_cap = min(grid.j_max, pooled.shape[0] - 1)
    surface: dict[tuple[str, float, int], float] = {}
    best = None  # (loss, J, spec, basis, coef)

    # Gaussian candidates differ only in the exponent's scale, so wide rows'
    # distances are computed once for the whole sweep
    t0 = time.perf_counter()
    sq_pooled = _sweep_distances(pooled) if grid.bandwidths else None
    t1 = time.perf_counter()
    sq_val = _sweep_distances(pooled, val.features) if grid.bandwidths else None
    timings = {"kernel_build": t1 - t0, "eigendecomposition": 0.0,
               "coefficient": 0.0, "validation": time.perf_counter() - t1}

    n, m = pooled.shape[0], val.n
    K, sums = np.empty((n, n)), np.empty(n)
    # the fit consumes K, so the validation cross Gram goes into its prefix
    Kv = K.reshape(-1)[:m * n].reshape(m, n) if m <= n else np.empty((m, n))

    for spec in grid.kernels:
        gaussian = spec.family == "gaussian"
        cand_mode = mode if gaussian else Mode.UNIFORM
        param = spec.bandwidth if gaussian else float(spec.degree)
        losses = np.full(grid.j_max + 1, np.inf)
        basis = coef = None
        try:
            t0 = time.perf_counter()
            _self_gram_into(spec, pooled, K, sq_pooled, sums)
            t1 = time.perf_counter()
            basis = _fit(pooled, spec, j_cap, cand_mode, method, K, sums)
            t2 = time.perf_counter()
            coef = _coefficients(basis, train.responses, labeled)
            t3 = time.perf_counter()
            timings["kernel_build"] += t1 - t0
            timings["eigendecomposition"] += t2 - t1
            timings["coefficient"] += t3 - t2

            usable = _n_usable(basis.eigenvalues)
            if usable:
                _gram_into(spec, val.features, pooled, Kv, sq_val)
                Psi_val = _extend(spec, pooled, val.features,
                                  *_operands(basis, usable - 1, None), Kx=Kv)
                cum = np.cumsum(Psi_val * coef[:usable][None, :], axis=1)
                err = val.responses[:, None] - cum
                losses[:usable] = np.mean(err * err, axis=0)
            timings["validation"] += time.perf_counter() - t3
        except NumericalError as exc:
            logger.warning("candidate %s failed: %s", spec.label(), exc)
            basis = coef = None
        for J in range(grid.j_max + 1):
            surface[(spec.family, param, J)] = float(losses[J])
        if basis is None:
            continue

        finite = np.isfinite(losses)
        if not finite.any():
            continue
        cand_loss = float(losses[finite].min())
        cand_J = int(np.nonzero(losses == cand_loss)[0][0])  # smallest J at the min
        if (
            best is None
            or cand_loss < best[0]
            or (cand_loss == best[0]
                and (cand_J < best[1]
                     or (cand_J == best[1] and _is_smoother(spec, best[2]))))
        ):
            best = (cand_loss, cand_J, spec, basis, coef)

    if best is None:
        raise NumericalError("no kernel candidate produced a usable fit")

    loss, J, spec, basis, coef = best
    param = spec.bandwidth if spec.family == "gaussian" else float(spec.degree)
    model = SeriesModel(basis, coef, J, ssl=labeled is not None)
    report = FitReport(surface, (spec.family, param, J), loss, timings=timings)
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
    are built once for all penalties, and whose Gram is reduced to
    tridiagonal form once, so that each penalty costs O(n^2) more; see
    krr_fit). Exact ties go to the larger parameter, i.e. the smoother model.
    Candidates are checked as the predictors check them, all before the
    first is scored and before any kernel is built.
    """
    if train.responses is None or val.responses is None:
        raise InputError("tuning needs responses on both the train and validation splits")
    if train.d != val.d:
        raise InputError(f"train has d={train.d} but validation has d={val.d}")
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
        t0 = time.perf_counter()
        K, row_bound = _gram_and_row_bound(kernel, train.features)
        solve = _ridge_solver(K, train.responses, row_bound)
        t1 = time.perf_counter()
        Kv = gram_matrix(kernel, val.features, train.features)
        timings["fit"] += t1 - t0
        timings["validation"] += time.perf_counter() - t1
    best = None  # (loss, param, model)
    for param in candidates:
        t0 = time.perf_counter()
        try:
            if kind == "nw":
                model = NWModel(train.features, train.responses, param)
            elif kind == "knn":
                model = KNNModel(train.features, train.responses, param)
            else:
                alpha = solve(param)
                model = KRRModel(kernel, train.features, alpha, param)
        except NumericalError as exc:
            logger.warning("%s candidate %s failed: %s", kind, param, exc)
            surface[(kind, float(param), -1)] = float("inf")
            continue
        t1 = time.perf_counter()
        preds = (matmul(Kv, alpha) if kind == "krr"
                 else score(train.features, train.responses, param, val.features))
        loss = empirical_loss(preds, val.responses)
        timings["fit"] += t1 - t0
        timings["validation"] += time.perf_counter() - t1
        surface[(kind, float(param), -1)] = loss
        if best is None or loss <= best[0]:
            best = (loss, float(param), model)

    if best is None:
        raise NumericalError(f"every {kind} candidate failed to fit")
    loss, param, model = best
    report = FitReport(surface, (kind, param, -1), loss, timings=timings)
    return model, report
