"""Span recording for traced runs, and log-record counting for every run.

A traced sweep replaces module-level names in the spectral_series modules with
timing wrappers for its duration, so spans sit at the boundaries where one
layer calls the next. The package source is never edited. Each span holds
(name, start, end, parent index, phase); a layer's self time is its span
duration minus the time covered by its direct children. Work the harness does
to count things (subnormal entries, returned eigenpairs) runs in its own
``harness.observe`` span so it is not charged to the layer it inspects.
"""

from __future__ import annotations

import functools
import logging
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

FLOAT64_TINY = np.finfo(np.float64).tiny

ROOT_SPAN = "harness.sweep"
OBSERVE_SPAN = "harness.observe"


class Tracer:
    """In-memory spans plus per-phase counters.

    ``phase`` labels everything recorded: "setup", "reference", or the
    integer index of a timed sweep. Counters are kept whether or not the
    wrappers are installed; spans exist only while they are.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple, float] = defaultdict(float)
        self.phase = "setup"
        self.unwrapped: list[str] = []
        self._stack: list[int] = []

    def count(self, key: str, value: float = 1) -> None:
        self.counts[(self.phase, key)] += value

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.phase])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, observe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            if observe is not None:
                with tracer.span(OBSERVE_SPAN):
                    observe(tracer, span_name, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, ss):
        """Patch the wrappers into the package for the duration of the block."""
        saved = []
        for module, attr, name, observe in _targets(ss):
            if not hasattr(module, attr):
                label = f"{module.__name__}.{attr}"
                if label not in self.unwrapped:
                    self.unwrapped.append(label)
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if name is None:  # a module proxy, built by observe
                setattr(module, attr, observe(self, original))
            else:
                setattr(module, attr, self._wrap(original, name, observe))
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


class _ModuleProxy:
    """Stands in for a module: named attributes overridden, the rest delegated."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _gram_name(args, kwargs):
    A = args[1] if len(args) > 1 else kwargs.get("A")
    B = args[2] if len(args) > 2 else kwargs.get("B")
    return "kernels.gram_self" if B is None or B is A else "kernels.gram_cross"


def _observe_gram(tracer, span_name, args, kwargs, K):
    tracer.count("kernels.bytes_out", K.nbytes)
    if span_name == "kernels.gram_self":
        tiny = np.count_nonzero(np.abs(K) < FLOAT64_TINY) - np.count_nonzero(K == 0.0)
        tracer.count("kernels.self_entries", K.size)
        tracer.count("kernels.subnormal_entries", tiny)


def _observe_eigensolve(tracer, span_name, args, kwargs, result):
    tracer.count("diffusion.eigpairs_kept", result[0].shape[0])


def _observe_eigh(tracer, span_name, args, kwargs, result):
    values = result[0] if isinstance(result, tuple) else result
    tracer.count("diffusion.eigpairs_returned", values.shape[0])


def _observe_extend(tracer, span_name, args, kwargs, result):
    tracer.count("nystrom.rows", result.shape[0])


def _observe_tune(tracer, span_name, args, kwargs, result):
    surface = result[1].loss_surface
    finite = sum(1 for v in surface.values() if np.isfinite(v))
    tracer.count("model_selection.candidates", len({k[:2] for k in surface}))
    tracer.count("model_selection.surface_entries", len(surface))
    tracer.count("model_selection.surface_finite", finite)
    if result[1].chosen[0] == "krr":
        tracer.count("baselines.krr_refused", len(surface) - finite)


def _eigh_proxy(tracer, scipy_module):
    """diffusion calls ``scipy.linalg.eigh``; give it a scipy whose eigh is traced."""
    linalg = scipy_module.linalg
    eigh = tracer._wrap(linalg.eigh, "diffusion.eigh", _observe_eigh)
    return _ModuleProxy(scipy_module, linalg=_ModuleProxy(linalg, eigh=eigh))


def _targets(ss):
    """(module, attribute, span name, observer) for every traced call site."""
    ms, diffusion = ss.model_selection, ss.diffusion
    nystrom, series, baselines = ss.nystrom, ss.series, ss.baselines
    return [
        # called by the harness through the package namespace
        (ss, "tune_series", "model_selection.tune", _observe_tune),
        (ss, "tune_baseline", "model_selection.tune", _observe_tune),
        (ss, "predict", "series.predict", None),
        (ss, "fit", "series.fit", None),
        (ss, "save_model", "archive.save", None),
        (ss, "load_model", "archive.load", None),
        (ss, "gen_spiral", "dataset.gen", None),
        (ss, "gen_circle", "dataset.gen", None),
        (ss, "split", "dataset.split", None),
        (ss, "bandwidth_grid", "kernels.bandwidth_grid", None),
        # called inside the package, at the module-level name each caller uses
        (ms, "gram_matrix", _gram_name, _observe_gram),
        (ms, "fit_basis", "diffusion.fit_basis", None),
        (ms, "estimate_coefficients", "series.coef", None),
        (ms, "extend", "nystrom.extend", _observe_extend),
        (ms, "krr_fit", "baselines.krr_fit", None),
        (series, "fit_basis", "diffusion.fit_basis", None),
        (series, "estimate_coefficients", "series.coef", None),
        (series, "extend", "nystrom.extend", _observe_extend),
        (diffusion, "gram_matrix", _gram_name, _observe_gram),
        (diffusion, "diffusion_system", "diffusion.system", None),
        (diffusion, "symmetric_normalize", "diffusion.normalize", None),
        (diffusion, "eigendecompose", "diffusion.eigensolve", _observe_eigensolve),
        (diffusion, "rescale", "diffusion.rescale", None),
        (diffusion, "scipy", None, _eigh_proxy),
        (nystrom, "gram_matrix", _gram_name, _observe_gram),
        (baselines, "gram_matrix", _gram_name, _observe_gram),
        (baselines, "krr_predict", "baselines.krr_predict", None),
    ]


def self_times(spans) -> tuple[dict, dict]:
    """Self seconds and call counts keyed by (phase, span name)."""
    covered = defaultdict(float)
    for name, start, end, parent, phase in spans:
        if parent is not None:
            covered[parent] += end - start
    seconds, calls = defaultdict(float), defaultdict(int)
    for idx, (name, start, end, parent, phase) in enumerate(spans):
        seconds[(phase, name)] += (end - start) - covered[idx]
        calls[(phase, name)] += 1
    return seconds, calls


def child_count(spans, name: str, parent_name: str) -> dict:
    """Number of ``name`` spans directly under a ``parent_name`` span, per phase."""
    out = defaultdict(int)
    for span_name, _, _, parent, phase in spans:
        if span_name == name and parent is not None and spans[parent][0] == parent_name:
            out[phase] += 1
    return out


LOG_KEYS = ("diffusion.tie_warnings", "nystrom.fallback_rows",
            "model_selection.candidates_failed", "log.other_records")


class LogCounter(logging.Handler):
    """Counts spectral_series log records per phase instead of printing them.

    Installed for the whole run, so terminal output stays out of the timings.
    """

    def __init__(self, tracer: Tracer):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        msg = str(record.msg)
        if record.name.endswith(".diffusion") and "eigenvalue tie" in msg:
            self.tracer.count("diffusion.tie_warnings")
        elif record.name.endswith(".nystrom") and "underflowed" in msg:
            self.tracer.count("nystrom.fallback_rows", record.args[0])
        elif record.name.endswith(".model_selection") and "candidate" in msg:
            self.tracer.count("model_selection.candidates_failed")
        else:
            self.tracer.count("log.other_records")


@contextmanager
def counting_logs(tracer: Tracer):
    logger = logging.getLogger("spectral_series")
    handler = LogCounter(tracer)
    saved = logger.propagate
    logger.addHandler(handler)
    logger.propagate = False
    try:
        yield handler
    finally:
        logger.removeHandler(handler)
        logger.propagate = saved


# Layers whose self time is reported per timed sweep, and those whose call
# count is reported beside it.
SWEEP_LAYERS = (
    "model_selection.tune", "kernels.gram_self", "kernels.gram_cross",
    "diffusion.fit_basis", "diffusion.system", "diffusion.normalize",
    "diffusion.eigensolve", "diffusion.eigh", "diffusion.rescale",
    "series.coef", "series.predict", "nystrom.extend",
    "baselines.krr_fit", "baselines.krr_predict", OBSERVE_SPAN,
)
COUNTED_LAYERS = (
    "kernels.gram_self", "kernels.gram_cross", "diffusion.eigh",
    "nystrom.extend", "series.predict", "baselines.krr_fit",
)
SETUP_LAYERS = ("dataset.gen", "dataset.split", "archive.save", "archive.load")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sweep_metrics(tracer: Tracer, phases) -> dict[str, float]:
    """Per-sweep means over the traced sweeps ``phases``.

    The self times of SWEEP_LAYERS plus ``harness.residual_s`` (the root
    span's own time) add up to the traced sweep's wall time.
    """
    phases = list(phases)
    n = len(phases)
    seconds, calls = self_times(tracer.spans)
    builds = child_count(tracer.spans, "kernels.gram_self", "baselines.krr_fit")

    def mean(table, key):
        return _ratio(sum(table[(p, key)] for p in phases), n)

    def total(key):
        return sum(tracer.counts[(p, key)] for p in phases)

    out = {f"{layer}_s": mean(seconds, layer) for layer in SWEEP_LAYERS}
    out["harness.residual_s"] = mean(seconds, ROOT_SPAN)
    out.update({f"{layer}_calls": mean(calls, layer) for layer in COUNTED_LAYERS})
    out["kernels.bytes_out"] = _ratio(total("kernels.bytes_out"), n)
    out["kernels.subnormal_frac"] = _ratio(total("kernels.subnormal_entries"),
                                           total("kernels.self_entries"))
    out["diffusion.eigpairs_used_frac"] = _ratio(total("diffusion.eigpairs_kept"),
                                                 total("diffusion.eigpairs_returned"))
    for key in ("diffusion.tie_warnings", "nystrom.rows", "nystrom.fallback_rows",
                "baselines.krr_refused", "model_selection.candidates",
                "model_selection.candidates_failed"):
        out[key] = _ratio(total(key), n)
    out["baselines.krr_gram_builds"] = _ratio(sum(builds[p] for p in phases), n)
    out["model_selection.surface_finite_frac"] = _ratio(
        total("model_selection.surface_finite"), total("model_selection.surface_entries"))
    return out


def setup_metrics(tracer: Tracer, phases=("setup", "reference")) -> dict[str, float]:
    """Self times and archive size summed over the traced set-up phases."""
    seconds, _ = self_times(tracer.spans)
    out = {f"{layer}_s": sum(seconds[(p, layer)] for p in phases) for layer in SETUP_LAYERS}
    out["archive.bytes"] = sum(tracer.counts[(p, "archive.bytes")] for p in phases)
    return out
