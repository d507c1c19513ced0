"""One input contract: every public entry point checks points, responses and
queries the same way, raises InputError on a fault, and hands valid inputs to
its arithmetic unchanged."""

import re
import warnings

import numpy as np
import pytest

from spectral_series import (
    Dataset,
    InputError,
    KernelSpec,
    Mode,
    NumericalError,
    SeriesModel,
    SplitSpec,
    Standardizer,
    TuneGrid,
    bandwidth_grid,
    eigenmap,
    empirical_loss,
    estimate_coefficients,
    evaluate_on,
    extend,
    fit,
    fit_basis,
    fit_ssl,
    gen_circle,
    gen_spiral,
    gen_uniform_interval,
    gram_matrix,
    kernel_value,
    knn_predict,
    krr_fit,
    krr_penalty_grid,
    krr_predict,
    loss_se,
    nw_predict,
    predict,
    split,
    standardize,
    tune_baseline,
    tune_series,
    wls_coefficients,
)
from spectral_series import baselines, dataset, diffusion, kernels, nystrom, series
from spectral_series.kernels import _checked_queries, _checked_training

N = 60
SPEC = KernelSpec.gaussian(1.0)


def _valid():
    data = gen_spiral(N, noise_sd=0.1, seed=0)
    queries = gen_spiral(7, noise_sd=0.1, seed=1).features
    return data.features.copy(), data.responses.copy(), queries


_X, _Y, _Q = _valid()
_MODEL = fit(_X, _Y, SPEC, 6)
_KRR = krr_fit(_X, _Y, SPEC, 1e-2)
_VAL = Dataset(*_valid()[:2])


# entry name -> (inputs it reads, n if it checks the length of y; call(X, y, Q))
ENTRIES = {
    "Dataset": ("Xyn", lambda X, y, Q: Dataset(X, y)),
    "fit_basis": ("X", lambda X, y, Q: fit_basis(X, SPEC, 6)),
    "fit": ("Xyn", lambda X, y, Q: fit(X, y, SPEC, 6)),
    "fit_ssl": ("XynQ", lambda X, y, Q: fit_ssl(X, y, Q, SPEC, 6)),
    "estimate_coefficients": ("yn", lambda X, y, Q: estimate_coefficients(_MODEL.basis, y)),
    "wls_coefficients": ("yn", lambda X, y, Q: wls_coefficients(_MODEL.basis, y)),
    "bandwidth_grid": ("X", lambda X, y, Q: bandwidth_grid(X, 3)),
    "tune_series": ("XynQ", lambda X, y, Q: tune_series(
        Dataset(X, y), _VAL, TuneGrid((1.0,), j_max=4), unlabeled=Q)),
    "tune_baseline_nw": ("XynQ", lambda X, y, Q: tune_baseline(
        Dataset(X, y), Dataset(Q, np.ones(len(Q))), [1.0], "nw")),
    "tune_baseline_krr": ("XynQ", lambda X, y, Q: tune_baseline(
        Dataset(X, y), Dataset(Q, np.ones(len(Q))), [1e-2], "krr", SPEC)),
    "krr_fit": ("Xyn", lambda X, y, Q: krr_fit(X, y, SPEC, 1e-2)),
    "krr_penalty_grid": ("y", lambda X, y, Q: krr_penalty_grid(y)),
    "nw_predict": ("XynQ", lambda X, y, Q: nw_predict(X, y, 1.0, Q)),
    "knn_predict": ("XynQ", lambda X, y, Q: knn_predict(X, y, 5, Q)),
    "krr_predict": ("Q", lambda X, y, Q: krr_predict(_KRR, Q)),
    "predict": ("Q", lambda X, y, Q: predict(_MODEL, Q)),
    "extend": ("Q", lambda X, y, Q: extend(_MODEL.basis, Q, 3)),
}


def _set(a, index, value):
    a = a.copy()
    a[index] = value
    return a


# fault name -> (input it spoils, spoil(X, y, Q) -> (X, y, Q))
FAULTS = {
    "nan-points": ("X", lambda X, y, Q: (_set(X, (3, 1), np.nan), y, Q)),
    "inf-points": ("X", lambda X, y, Q: (_set(X, (5, 0), -np.inf), y, Q)),
    "nan-responses": ("y", lambda X, y, Q: (X, _set(y, 4, np.nan), Q)),
    "inf-responses": ("y", lambda X, y, Q: (X, _set(y, 2, np.inf), Q)),
    "zero-columns": ("X", lambda X, y, Q: (np.empty((N, 0)), y, Q)),
    "1-d-points": ("X", lambda X, y, Q: (X[:, 0].copy(), y, Q)),
    "mismatched-lengths": ("n", lambda X, y, Q: (X, y[:-1], Q)),
    "query-columns": ("Q", lambda X, y, Q: (X, y, np.ones((len(Q), 3)))),
    "nan-query": ("Q", lambda X, y, Q: (X, y, _set(Q, (2, 0), np.nan))),
    # d columns in shape[1], but a third axis
    "3-d-query": ("Q", lambda X, y, Q: (X, y, Q[:, :, None])),
}


@pytest.mark.parametrize("entry, fault", [
    pytest.param(entry, fault, id=f"{entry}-{fault}")
    for entry, (reads, _) in ENTRIES.items()
    for fault, (spoils, _) in FAULTS.items() if spoils in reads
])
def test_bad_input_raises_input_error(entry, fault):
    # NaN used to come back as NaN answers (nw, krr_penalty_grid, wls), a
    # finite answer (knn, bandwidth_grid), NumericalError (krr_fit, fit_basis)
    # or a fit on zero columns or on one 600-column point
    X, y, Q = FAULTS[fault][1](*_valid())
    with pytest.raises(InputError):
        ENTRIES[entry][1](X, y, Q)


# argument fault -> call(X, y, Q). Before the integer and positive-scale
# checks were shared, each returned a silently finite answer (inf scales: a
# constant or zero predictor; J = 2.5 in a model or in with_truncation) or
# raised another exception (TypeError, ValueError, OverflowError,
# AttributeError, or NumericalError for fit_basis' and eigendecompose's
# j_max); SplitSpec took any seed and numpy raised TypeError inside split
ARGUMENT_FAULTS = {
    "krr_fit-inf-penalty": lambda X, y, Q: krr_fit(X, y, SPEC, np.inf),
    "tune_baseline_krr-inf-penalty": lambda X, y, Q: tune_baseline(
        Dataset(X, y), _VAL, [np.inf], "krr", SPEC),
    "tune_baseline_krr-string-penalty": lambda X, y, Q: tune_baseline(
        Dataset(X, y), _VAL, ["a"], "krr", SPEC),
    "krr_penalty_grid-2.5": lambda X, y, Q: krr_penalty_grid(y, 2.5),
    "krr_penalty_grid-negative": lambda X, y, Q: krr_penalty_grid(y, -1),
    "KernelSpec-inf-bandwidth": lambda X, y, Q: KernelSpec.gaussian(np.inf),
    "nw_predict-inf-bandwidth": lambda X, y, Q: nw_predict(X, y, np.inf, Q),
    "tune_baseline_nw-inf-bandwidth": lambda X, y, Q: tune_baseline(
        Dataset(X, y), _VAL, [np.inf], "nw"),
    "TuneGrid-inf-bandwidth": lambda X, y, Q: TuneGrid((np.inf,)),
    "fit-J-2.5": lambda X, y, Q: fit(X, y, SPEC, 6, J=2.5),
    "fit_ssl-J-2.5": lambda X, y, Q: fit_ssl(X, y, Q, SPEC, 6, J=2.5),
    "SeriesModel-J-2.5": lambda X, y, Q: SeriesModel(_MODEL.basis, _MODEL.coefficients, 2.5),
    "with_truncation-2.5": lambda X, y, Q: _MODEL.with_truncation(2.5),
    "extend-J-2.5": lambda X, y, Q: extend(_MODEL.basis, Q, 2.5),
    "eigenmap-J-2.5": lambda X, y, Q: eigenmap(_MODEL.basis, Q, 2.5),
    "fit_basis-j_max-2.5": lambda X, y, Q: fit_basis(X, SPEC, 2.5),
    "gen_spiral-n-2.5": lambda X, y, Q: gen_spiral(2.5),
    "gen_spiral-seed-negative": lambda X, y, Q: gen_spiral(10, seed=-1),
    "gen_circle-n-2.5": lambda X, y, Q: gen_circle(2.5),
    "gen_circle-d-2.5": lambda X, y, Q: gen_circle(10, d=2.5),
    "gen_circle-seed-negative": lambda X, y, Q: gen_circle(10, seed=-1),
    "gen_uniform_interval-n-2.5": lambda X, y, Q: gen_uniform_interval(2.5),
    "gen_uniform_interval-seed-2.5": lambda X, y, Q: gen_uniform_interval(10, seed=2.5),
    "bandwidth_grid-n_grid-2.5": lambda X, y, Q: bandwidth_grid(X, 2.5),
    "eigendecompose-j_max-negative": lambda X, y, Q: diffusion.eigendecompose(np.eye(5), -1),
    "eigendecompose-j_max-nan": lambda X, y, Q: diffusion.eigendecompose(np.eye(5), np.nan),
    "eigendecompose-j_max-2.5": lambda X, y, Q: diffusion.eigendecompose(np.eye(5), 2.5),
    "KernelSpec-poly-nan-degree": lambda X, y, Q: KernelSpec.polynomial(np.nan),
    "KernelSpec-poly-inf-degree": lambda X, y, Q: KernelSpec.polynomial(np.inf),
    "Mode.parse-2.5": lambda X, y, Q: Mode.parse(2.5),
    "SplitSpec-seed-2.5": lambda X, y, Q: SplitSpec(seed=2.5),
    "SplitSpec-seed-nan": lambda X, y, Q: SplitSpec(seed=np.nan),
    "SplitSpec-seed-inf": lambda X, y, Q: SplitSpec(seed=np.inf),
    # NaN noise gave the noiseless spiral and True a noise of 1; a string
    # raised TypeError and an infinite or NaN bound numpy's OverflowError
    "gen_spiral-noise_sd-nan": lambda X, y, Q: gen_spiral(10, noise_sd=np.nan),
    "gen_spiral-noise_sd-bool": lambda X, y, Q: gen_spiral(10, noise_sd=True),
    "gen_spiral-noise_sd-string": lambda X, y, Q: gen_spiral(10, noise_sd="1"),
    "gen_spiral-u_max-inf": lambda X, y, Q: gen_spiral(10, u_max=np.inf),
    "gen_spiral-u_max-nan": lambda X, y, Q: gen_spiral(10, u_max=np.nan),
    "gen_circle-noise_var-string": lambda X, y, Q: gen_circle(10, noise_var="1"),
    "gen_uniform_interval-lo-nan": lambda X, y, Q: gen_uniform_interval(10, lo=np.nan),
    "gen_uniform_interval-hi-inf": lambda X, y, Q: gen_uniform_interval(10, hi=np.inf),
    "gen_uniform_interval-lo-neg-inf": lambda X, y, Q: gen_uniform_interval(10, lo=-np.inf),
    "SplitSpec-string-fraction": lambda X, y, Q: SplitSpec("0.5", 0.25, 0.25),
    # an int too large for a float passed the comparisons, then float() overflowed
    "KernelSpec-huge-int-bandwidth": lambda X, y, Q: KernelSpec.gaussian(10 ** 400),
    # a caller's matrix: numpy's AxisError (1-D) or ValueError (the rest)
    "symmetric_normalize-1-d": lambda X, y, Q: diffusion.symmetric_normalize(np.ones(3)),
    "symmetric_normalize-non-square": lambda X, y, Q: diffusion.symmetric_normalize(
        np.ones((2, 3))),
    "bias_correct-non-square": lambda X, y, Q: diffusion.bias_correct(np.ones((2, 3))),
    "bias_correct-3-d": lambda X, y, Q: diffusion.bias_correct(np.ones((2, 2, 2))),
    "stationary_weights-string": lambda X, y, Q: diffusion.stationary_weights("abc"),
    # cast to its real part, with numpy's ComplexWarning
    "eigendecompose-complex": lambda X, y, Q: diffusion.eigendecompose(np.eye(3) + 1j, 1),
    "eigendecompose-non-square": lambda X, y, Q: diffusion.eigendecompose(np.ones((2, 3)), 1),
    # NaN came back as the kernel's value
    "kernel_value-nan-coordinate": lambda X, y, Q: kernel_value(SPEC, [np.nan, 0.0], Q[0]),
    # AttributeError from the missing split's responses
    "evaluate_on-no-split": lambda X, y, Q: evaluate_on(lambda A: np.zeros(len(A)), None),
    "tune_series-no-split": lambda X, y, Q: tune_series(
        Dataset(X, y), None, TuneGrid((1.0,), j_max=4)),
    "tune_baseline-no-split": lambda X, y, Q: tune_baseline(Dataset(X, y), None, [1.0], "nw"),
    # NaN came back as the loss, the second with numpy's RuntimeWarning
    "empirical_loss-nan-prediction": lambda X, y, Q: empirical_loss([np.nan], [1.0]),
    "loss_se-inf-prediction": lambda X, y, Q: loss_se([np.inf, 1.0], [1.0, 2.0]),
    # accepted; the zero sd gave Inf from transform, with a divide warning
    "Standardizer-nan-mean": lambda X, y, Q: Standardizer([np.nan, 0.0], [1.0, 1.0]),
    "Standardizer-zero-sd": lambda X, y, Q: Standardizer([0.0, 0.0], [0.0, 1.0]),
    # the weights read row 0 and the rows numpy's IndexError
    "estimate_coefficients-labeled-0.5": lambda X, y, Q: estimate_coefficients(
        _MODEL.basis, y[:1], labeled=[0.5]),
}


@pytest.mark.parametrize("fault", list(ARGUMENT_FAULTS))
def test_bad_argument_raises_input_error(fault):
    with pytest.raises(InputError):
        ARGUMENT_FAULTS[fault](*_valid())


_POLY_KRR = krr_fit(_X, _Y, KernelSpec.polynomial(3), 1e-2)

# call -> (the exception it raises, or None when it returns, and call(X, y, Q)).
# A polynomial Gram holding Inf came back with numpy's overflow warning, and
# krr_predict's NaN answers with it; a subnormal bandwidth, or a tiny one
# over far-apart points, gave the right Gram, the identity, but leaked
# numpy's overflow warning; standardize leaked np.std's overflow warning,
# then refused its own sds as an input fault.
NUMERIC_EDGES = {
    "gram_matrix-poly-overflow": (NumericalError, lambda X, y, Q: gram_matrix(
        KernelSpec.polynomial(3), X * 1e110)),
    "krr_predict-poly-overflow": (NumericalError, lambda X, y, Q: krr_predict(
        _POLY_KRR, Q * 1e110)),
    "gram_matrix-bandwidth-1e-310": (None, lambda X, y, Q: np.testing.assert_array_equal(
        gram_matrix(KernelSpec.gaussian(1e-310), X), np.eye(len(X)))),
    "gram_matrix-bandwidth-1e-300-far-points": (None, lambda X, y, Q: (
        np.testing.assert_array_equal(gram_matrix(KernelSpec.gaussian(1e-300), X * 1e5),
                                      np.eye(len(X))))),
    "standardize-sd-overflow": (NumericalError, lambda X, y, Q: standardize(
        Dataset([[1e200, 1.0], [-1e200, 2.0], [3e199, 0.5]], [1.0, 1.0, 1.0]))),
}


@pytest.mark.parametrize("case", list(NUMERIC_EDGES))
def test_numeric_edge_leaks_no_warning(case):
    error, call = NUMERIC_EDGES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            call(*_valid())
        else:
            with pytest.raises(error):
                call(*_valid())


# A bool is an int to Python, so each of these calls returned a result for
# True, read as 1 or 1.0. As a count, a seed or a scale a bool is a slip, and
# the shared integer and scale helpers refuse it.
BOOL_ARGUMENTS = {
    "fit-j_max": lambda X, y, Q, b: fit(X, y, SPEC, b),
    "gen_spiral-n": lambda X, y, Q, b: gen_spiral(b),
    "bandwidth_grid-n_grid": lambda X, y, Q, b: bandwidth_grid(X, b),
    "TuneGrid-j_max": lambda X, y, Q, b: TuneGrid((1.0,), j_max=b),
    "SplitSpec-seed": lambda X, y, Q, b: SplitSpec(seed=b),
    "KernelSpec.polynomial": lambda X, y, Q, b: KernelSpec.polynomial(b),
    "KernelSpec.gaussian": lambda X, y, Q, b: KernelSpec.gaussian(b),
    "knn_predict-k": lambda X, y, Q, b: knn_predict(X, y, b, Q),
    "eigendecompose-j_max": lambda X, y, Q, b: diffusion.eigendecompose(np.eye(5), b),
}


@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np.bool_"])
@pytest.mark.parametrize("call", list(BOOL_ARGUMENTS))
def test_bool_argument_raises_input_error(call, value):
    with pytest.raises(InputError):
        BOOL_ARGUMENTS[call](*_valid(), value)


# A string that parses as a number is not one: each helper refuses it, and
# the message quotes it, so that "3" does not read as the valid value 3.
STRING_ARGUMENTS = {
    "fit-j_max": ("3", lambda X, y, Q, v: fit(X, y, SPEC, v)),
    "fit-J": ("2", lambda X, y, Q, v: fit(X, y, SPEC, 6, J=v)),
    "gen_spiral-n": ("10", lambda X, y, Q, v: gen_spiral(v)),
    "bandwidth_grid-n_grid": ("3", lambda X, y, Q, v: bandwidth_grid(X, v)),
    "TuneGrid-j_max": ("4", lambda X, y, Q, v: TuneGrid((1.0,), j_max=v)),
    "TuneGrid-bandwidth": ("1.0", lambda X, y, Q, v: TuneGrid((v,))),
    "SplitSpec-seed": ("1", lambda X, y, Q, v: SplitSpec(seed=v)),
    "KernelSpec.polynomial": ("2", lambda X, y, Q, v: KernelSpec.polynomial(v)),
    "KernelSpec.gaussian": ("1.0", lambda X, y, Q, v: KernelSpec.gaussian(v)),
    "krr_fit-penalty": ("0.1", lambda X, y, Q, v: krr_fit(X, y, SPEC, v)),
    "nw_predict-bandwidth": ("1.0", lambda X, y, Q, v: nw_predict(X, y, v, Q)),
    "knn_predict-k": ("5", lambda X, y, Q, v: knn_predict(X, y, v, Q)),
    "gen_spiral-noise_sd": ("0.1", lambda X, y, Q, v: gen_spiral(10, noise_sd=v)),
    "gen_circle-noise_var": ("0.5", lambda X, y, Q, v: gen_circle(10, noise_var=v)),
    "SplitSpec-train_frac": ("0.5", lambda X, y, Q, v: SplitSpec(v, 0.25, 0.25)),
}


@pytest.mark.parametrize("call", list(STRING_ARGUMENTS))
def test_numeric_string_refused_and_quoted(call):
    value, run = STRING_ARGUMENTS[call]
    with pytest.raises(InputError, match=f"got '{re.escape(value)}'$"):
        run(*_valid(), value)


def test_refused_numbers_print_as_numbers():
    # numpy scalars print as str() shows them, not as np.float64(...)
    with pytest.raises(InputError, match=r"got -1\.0$"):
        KernelSpec.gaussian(np.float64(-1.0))
    with pytest.raises(InputError, match=r"got 2\.5$"):
        SplitSpec(seed=np.float64(2.5))


def test_integral_arguments_accepted():
    # 2.0 counts as 2 and numpy integers pass; no penalty is an empty grid
    X, y, Q = _valid()
    assert fit(X, y, SPEC, 6, J=np.int64(4)).J == 4
    assert type(_MODEL.with_truncation(3.0).J) is int
    assert np.array_equal(extend(_MODEL.basis, Q, 3.0), extend(_MODEL.basis, Q, 3))
    assert np.array_equal(gen_spiral(10.0, seed=np.int64(2)).features,
                          gen_spiral(10, seed=2).features)
    assert krr_penalty_grid(y, 0).shape == (0,)
    assert type(SplitSpec(seed=2.0).seed) is int
    data = gen_spiral(20, seed=1)
    assert np.array_equal(split(data, SplitSpec(seed=2.0))[0].features,
                          split(data, SplitSpec(seed=2))[0].features)
    assert KernelSpec.polynomial(3.0).degree == 3
    assert diffusion.eigendecompose(np.diag([3.0, 2.0, 1.0]), 1.0)[0].shape == (2,)
    assert np.array_equal(estimate_coefficients(_MODEL.basis, y[:2], labeled=[2.0, 5.0]),
                          estimate_coefficients(_MODEL.basis, y[:2], labeled=[2, 5]))


@pytest.mark.parametrize("k", [2.5, 0.5, np.nan])
def test_knn_non_integral_k_rejected(k):
    # 2.5 used to end in a TypeError from the neighbour slice
    X, y, Q = _valid()
    with pytest.raises(InputError, match="k must be an integer"):
        knn_predict(X, y, k, Q)


def test_knn_integral_float_k_accepted():
    X, y, Q = _valid()
    assert np.array_equal(knn_predict(X, y, 5.0, Q), knn_predict(X, y, 5, Q))


def test_messages_name_the_fault():
    X, y, Q = _valid()
    with pytest.raises(InputError, match=r"2-D.*reshape\(-1, 1\)"):
        fit_basis(X[:, 0], SPEC, 3)
    with pytest.raises(InputError, match="training row 3 contains NaN or Inf"):
        krr_fit(_set(X, (3, 1), np.nan), y, SPEC, 1e-2)
    with pytest.raises(InputError, match="response row 4 contains NaN or Inf"):
        krr_penalty_grid(_set(y, 4, np.nan))
    with pytest.raises(InputError, match=f"got {N - 1} responses for {N} training points"):
        nw_predict(X, y[:-1], 1.0, Q)
    with pytest.raises(InputError, match=f"got {N - 1} responses for {N} training points"):
        fit(X, y[:-1], SPEC, 3)
    with pytest.raises(InputError, match="no columns"):
        Dataset(np.empty((N, 0)))
    with pytest.raises(InputError, match="query row 2 contains NaN or Inf"):
        predict(_MODEL, _set(Q, (2, 1), np.inf))


@pytest.mark.parametrize("fault", ["nan-responses", "inf-responses", "mismatched-lengths"])
def test_fit_checks_responses_before_any_gram(fault, monkeypatch):
    # fit used to build the Gram and solve for the basis before it read y
    builds = []
    real = diffusion._self_gram_into
    monkeypatch.setattr(diffusion, "_self_gram_into",
                        lambda *args, **kwargs: builds.append(1) or real(*args, **kwargs))
    X, y, Q = FAULTS[fault][1](*_valid())
    with pytest.raises(InputError):
        fit(X, y, SPEC, 6)
    assert builds == []
    fit(*_valid()[:2], SPEC, 6)
    assert builds == [1]


def test_one_query_row_may_be_1d():
    X, y, Q = _valid()
    for call in (lambda q: predict(_MODEL, q), lambda q: nw_predict(X, y, 1.0, q),
                 lambda q: knn_predict(X, y, 5, q), lambda q: krr_predict(_KRR, q)):
        assert np.array_equal(call(Q[3]), call(Q[3:4]))


@pytest.mark.parametrize("entry", ["nw_predict", "knn_predict", "krr_predict", "predict",
                                   "extend"])
@pytest.mark.parametrize("fault", ["query-columns", "nan-query", "3-d-query"])
def test_queries_checked_before_any_block(entry, fault, monkeypatch):
    # a fault is raised by the entry's check, before a block reaches the pool
    def no_blocks(*args, **kwargs):
        raise AssertionError("a query block ran")

    monkeypatch.setattr(baselines, "map_blocks", no_blocks)
    monkeypatch.setattr(nystrom, "map_blocks", no_blocks)
    X, y, Q = FAULTS[fault][1](*_valid())
    with pytest.raises(InputError):
        ENTRIES[entry][1](X, y, Q)


def test_finite_values_whose_sum_overflows_pass():
    # the one-pass check sums the entries; an overflowing sum alone is no fault
    big = np.full((4, 2), 1e308)
    assert _checked_queries(big, 2) is big
    assert _checked_training(None, np.full(3, -1e308))[1].shape == (3,)


@pytest.mark.parametrize("order", ["C", "F"])
def test_checked_arrays_are_the_callers_own(order):
    # no copy, dtype or memory-order change: the arithmetic sees the caller's
    # array, as it did before the checks were shared
    X, y, Q = (np.asarray(a, order=order) for a in _valid())
    assert _checked_training(X, y)[0] is X
    assert _checked_queries(Q, 2) is Q
    assert Dataset(X, y).features is X
    assert fit_basis(X, SPEC, 4).training_points is X
    assert fit(X, y, SPEC, 4).basis.training_points is X
    assert fit_ssl(X, y, None, SPEC, 4).basis.training_points is X
    assert krr_fit(X, y, SPEC, 1e-2).training_points is X
    # other inputs become what np.atleast_2d(np.asarray(., dtype=float)) gives
    as_list = _checked_training(X.tolist(), y.tolist())
    assert np.array_equal(as_list[0], X) and as_list[0].flags.c_contiguous
    assert np.array_equal(as_list[1], y)
    assert np.array_equal(_checked_queries(Q[0].tolist(), 2), Q[:1])


def _unchecked_training(X, y=None, min_rows=1):
    """The conversion the entry points made before the shared checks."""
    X = None if X is None else np.atleast_2d(np.asarray(X, dtype=float))
    return X, None if y is None else np.asarray(y, dtype=float).ravel()


def _unchecked_queries(Q, d, what="query"):
    return np.atleast_2d(np.asarray(Q, dtype=float))


def _outputs():
    """fit/predict in every mode, the three baselines and a tuning surface."""
    data = gen_spiral(300, noise_sd=0.1, seed=5)
    X = np.asfortranarray(data.features)  # memory order must be kept too
    y = data.responses
    Q = gen_spiral(200, noise_sd=0.1, seed=6).features
    out = []
    for mode in Mode:
        model = fit(X, y, SPEC, 12, mode)
        out += [model.basis.eigenvectors, model.coefficients, predict(model, Q)]
    krr = krr_fit(X, y, SPEC, 1e-3)
    out += [nw_predict(X, y, 0.5, Q), knn_predict(X, y, 7, Q), krr_predict(krr, Q)]
    train, val, _ = split(gen_spiral(240, noise_sd=0.1, seed=7), SplitSpec(seed=1))
    grid = TuneGrid(tuple(bandwidth_grid(train.features, 3)), (2,), j_max=10)
    _, report = tune_series(train, val, grid, unlabeled=Q[:40])
    out.append(np.array([v for _, v in sorted(report.loss_surface.items())]))
    return out


def test_valid_inputs_give_the_unchecked_bits(monkeypatch):
    checked = _outputs()
    for module in (dataset, diffusion, series, baselines, kernels):
        if hasattr(module, "_checked_training"):
            monkeypatch.setattr(module, "_checked_training", _unchecked_training)
    for module in (series, baselines, nystrom, kernels):
        if hasattr(module, "_checked_queries"):
            monkeypatch.setattr(module, "_checked_queries", _unchecked_queries)
    unchecked = _outputs()
    assert len(checked) == len(unchecked)
    for a, b in zip(checked, unchecked):
        assert np.array_equal(a, b)
