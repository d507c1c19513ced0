"""Spectral series nonparametric regression on adaptive kernel eigenbases.

High-dimensional regression by expanding the target function in the
eigenbasis of a data-adaptive diffusion operator, with out-of-sample
extension, semi-supervised fitting, validation-loss tuning, and classical
baselines (Nadaraya-Watson, k-nearest neighbors, kernel ridge).
"""

import os as _os


def _thread_count() -> int | None:
    """SPECTRAL_SERIES_THREADS as a positive integer, or None if unset or not one."""
    try:
        count = int(_os.environ.get("SPECTRAL_SERIES_THREADS", ""))
    except ValueError:
        return None
    return count if count > 0 else None


# the one parse of SPECTRAL_SERIES_THREADS, which kernels.READ_WORKERS reads
# too; it caps numerical thread pools before any BLAS-backed import sees them
_THREADS = _thread_count()
if _THREADS is not None:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, str(_THREADS))

from .archive import Preprocessing, load_model, save_model
from .baselines import (
    KNNModel,
    KRRModel,
    NWModel,
    knn_predict,
    krr_fit,
    krr_penalty_grid,
    krr_predict,
    nw_predict,
)
from .dataset import (
    Dataset,
    SplitSpec,
    Standardizer,
    gen_circle,
    gen_spiral,
    gen_uniform_interval,
    load_csv,
    split,
    standardize,
    unit_normalize_rows,
)
from .diffusion import (
    EigenBasis,
    EigenMethod,
    Mode,
    bias_correct,
    eigendecompose,
    fit_basis,
    rescale,
    row_stochastic,
    smoothness_spectrum,
    stationary_weights,
    symmetric_normalize,
)
from .errors import ArchiveError, InputError, NumericalError, SpectralSeriesError
from .kernels import KernelSpec, bandwidth_grid, gram_matrix, kernel_value
from .model_selection import (
    FitReport,
    TuneGrid,
    empirical_loss,
    evaluate_on,
    loss_se,
    tune_baseline,
    tune_series,
)
from .nystrom import EIGENVALUE_FLOOR_REL, eigenmap, extend
from .series import (
    SeriesModel,
    estimate_coefficients,
    fit,
    fit_ssl,
    predict,
    smoothness_functional,
    wls_coefficients,
)

__version__ = "0.1.0"
