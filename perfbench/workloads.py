"""The four benchmark workloads.

Each workload builds its inputs from the seed alone (``setup``), runs one
timed unit of work (``sweep``), and checks the outputs of that unit outside
the timing (``check``, one list of problems per operation). ``reference``
runs the same unit on the fixed reference inputs: it warms the process up and
returns the held-out loss that ``mse_problem`` compares with the value
recorded in ``reference.json``.

Every call into the package goes through the ``spectral_series`` namespace
(``ss.<name>``) at call time, so traced runs see the harness's own calls too.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import spectral_series as ss

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

# The reference inputs are the same in every run: their held-out loss is the
# accuracy guard, and their sweep is the warm-up before timing starts.
REFERENCE_SEED = 0
QUERY_SEED_OFFSET = 10_000

ORTHO_TOL = 1e-8       # acceptance criterion 01
MSE_RTOL = 1e-3        # held-out loss on the reference inputs vs reference.json
# Batch and bulk predictions run the same arithmetic on different matrix
# shapes; BLAS may block the products differently, so allow rounding only.
STREAM_RTOL = 1e-9
STREAM_ATOL = 1e-12

GRID_SIZE = 5
PREDICT_QUERIES = 20_000
STREAM_BATCHES = 200
STREAM_BATCH_ROWS = 100
ARCHIVE_CHECK_ROWS = 2_000


def reference_mse(workload: str) -> float:
    with open(REFERENCE_FILE) as fh:
        return float(json.load(fh)[workload]["test_mse"])


def mse_problem(workload: str, mse: float) -> list[str]:
    ref = reference_mse(workload)
    if not np.isfinite(mse) or abs(mse - ref) > MSE_RTOL * abs(ref):
        return [f"reference test_mse {mse!r} differs from recorded {ref!r}"]
    return []


def finite_problem(preds: np.ndarray, what: str) -> list[str]:
    if not np.all(np.isfinite(preds)):
        return [f"{np.count_nonzero(~np.isfinite(preds))} non-finite {what}"]
    return []


def save_and_load(tracer, model):
    """Write the model to an archive under OUT_DIR and read it back."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"model-{os.getpid()}.ssm")
    try:
        ss.save_model(path, model)
        tracer.count("archive.bytes", os.path.getsize(path))
        return ss.load_model(path)[0]
    finally:
        if os.path.exists(path):
            os.remove(path)


def archive_problem(model, loaded, X: np.ndarray) -> list[str]:
    if not np.array_equal(ss.predict(model, X), ss.predict(loaded, X)):
        return ["archive-loaded predictions are not bit-identical"]
    return []


@dataclass
class Inputs:
    """A workload's generated data; on predict-spiral ``test`` holds the queries."""

    train: object
    val: object
    test: object
    extra: dict = field(default_factory=dict)


class TuneSeries:
    """tune_series over bandwidth_grid(train, 5) with a fixed j_max."""

    def __init__(self, name, make_data, j_max, method):
        self.name = name
        self._make_data = make_data
        self._j_max = j_max
        self._method = method

    def setup(self, seed: int, tracer) -> Inputs:
        data = self._make_data(seed)
        train, val, test = ss.split(data, ss.SplitSpec(seed=seed))
        grid = ss.TuneGrid(tuple(ss.bandwidth_grid(train.features, GRID_SIZE)),
                           j_max=self._j_max)
        return Inputs(train, val, test, {"grid": grid, "method": self._method(seed)})

    def sweep(self, st: Inputs):
        return ss.tune_series(st.train, st.val, st.extra["grid"],
                              method=st.extra["method"])

    def check(self, st: Inputs, out) -> list[list[str]]:
        model, _ = out
        basis = model.basis
        psi = basis.eigenvectors
        gram = psi.T @ (basis.ortho_weights[:, None] * psi)
        dev = float(np.abs(gram - np.eye(psi.shape[1])).max())
        problems = [] if dev <= ORTHO_TOL else [f"basis orthonormality off by {dev:.3e}"]
        preds = ss.predict(model, st.test.features)
        problems += finite_problem(preds, "test predictions")
        st.extra["seed_test_mse"] = ss.empirical_loss(preds, st.test.responses)
        return [problems]

    def reference(self, st: Inputs, tracer) -> tuple[float, list[str]]:
        out = self.sweep(st)
        problems = self.check(st, out)[0]
        problems += archive_problem(out[0], save_and_load(tracer, out[0]),
                                    st.test.features)
        mse = st.extra["seed_test_mse"]
        return mse, problems


class KRRGrid:
    """tune_baseline("krr") per grid bandwidth over krr_penalty_grid (5 x 10)."""

    name = "krr-grid"

    def setup(self, seed: int, tracer) -> Inputs:
        data = ss.gen_spiral(1600, noise_sd=0.1, u_max=4.0 * np.pi ** 2, seed=seed)
        train, val, test = ss.split(data, ss.SplitSpec(seed=seed))
        return Inputs(train, val, test, {
            "bandwidths": ss.bandwidth_grid(train.features, GRID_SIZE),
            "penalties": ss.krr_penalty_grid(train.responses),
        })

    def sweep(self, st: Inputs):
        best, surface = None, {}
        for eps in st.extra["bandwidths"]:
            model, report = ss.tune_baseline(st.train, st.val, st.extra["penalties"],
                                             "krr", kernel=ss.KernelSpec.gaussian(eps))
            surface.update({(float(eps),) + k: v for k, v in report.loss_surface.items()})
            if best is None or report.val_loss < best[0]:
                best = (report.val_loss, model)
        return best, surface

    def check(self, st: Inputs, out) -> list[list[str]]:
        (val_loss, model), surface = out
        problems = []
        if val_loss != min(surface.values()):
            problems.append(f"winner val loss {val_loss!r} is not the surface minimum "
                            f"{min(surface.values())!r}")
        preds = model.predict(st.test.features)
        problems += finite_problem(preds, "test predictions")
        st.extra["seed_test_mse"] = ss.empirical_loss(preds, st.test.responses)
        return [problems]

    def reference(self, st: Inputs, tracer) -> tuple[float, list[str]]:
        problems = self.check(st, self.sweep(st))[0]
        mse = st.extra["seed_test_mse"]
        return mse, problems


@dataclass
class Round:
    bulk: np.ndarray
    bulk_s: float
    batches: list
    latencies_s: list
    stream_s: float


class PredictSpiral:
    """Serve a fitted, archived spiral model: one bulk call, then a closed loop.

    The model is the tune-spiral winner's configuration (second grid
    bandwidth, J=59 of j_max=60) fitted on the seed's tune-spiral train split
    and reloaded from its archive. The closed loop is one client sending the
    next 100-row batch as soon as the previous reply arrives.
    """

    name = "predict-spiral"

    def setup(self, seed: int, tracer) -> Inputs:
        data = ss.gen_spiral(4000, noise_sd=0.1, seed=seed)
        train, val, test = ss.split(data, ss.SplitSpec(seed=seed))
        bandwidth = ss.bandwidth_grid(train.features, GRID_SIZE)[1]
        model = ss.fit(train.features, train.responses,
                       ss.KernelSpec.gaussian(bandwidth), 60, J=59)
        served = save_and_load(tracer, model)
        queries = ss.gen_spiral(PREDICT_QUERIES, noise_sd=0.1,
                                seed=seed + QUERY_SEED_OFFSET)
        return Inputs(train, val, queries, {"fitted": model, "served": served})

    def sweep(self, st: Inputs) -> Round:
        model, Q = st.extra["served"], st.test.features
        t0 = time.perf_counter()
        bulk = ss.predict(model, Q)
        t1 = time.perf_counter()
        batches, latencies = [], []
        for start in range(0, STREAM_BATCHES * STREAM_BATCH_ROWS, STREAM_BATCH_ROWS):
            b0 = time.perf_counter()
            batches.append(ss.predict(model, Q[start:start + STREAM_BATCH_ROWS]))
            latencies.append(time.perf_counter() - b0)
        t2 = time.perf_counter()
        return Round(bulk, t1 - t0, batches, latencies, t2 - t1)

    def check(self, st: Inputs, out: Round) -> list[list[str]]:
        ops = [finite_problem(out.bulk, "bulk predictions")]
        st.extra["seed_test_mse"] = ss.empirical_loss(out.bulk, st.test.responses)
        for i, batch in enumerate(out.batches):
            want = out.bulk[i * STREAM_BATCH_ROWS:(i + 1) * STREAM_BATCH_ROWS]
            problems = finite_problem(batch, f"predictions in batch {i}")
            if not np.allclose(batch, want, rtol=STREAM_RTOL, atol=STREAM_ATOL):
                dev = float(np.abs(batch - want).max())
                problems.append(f"batch {i} differs from bulk output by {dev:.3e}")
            ops.append(problems)
        return ops

    def reference(self, st: Inputs, tracer) -> tuple[float, list[str]]:
        out = self.sweep(st)
        problems = [p for op in self.check(st, out) for p in op]
        problems += archive_problem(st.extra["fitted"], st.extra["served"],
                                    st.test.features[:ARCHIVE_CHECK_ROWS])
        mse = st.extra["seed_test_mse"]
        return mse, problems


WORKLOADS = {
    "tune-spiral": TuneSeries(
        "tune-spiral",
        lambda seed: ss.gen_spiral(4000, noise_sd=0.1, seed=seed),
        60, lambda seed: ss.EigenMethod("full")),
    "tune-circle-hd": TuneSeries(
        "tune-circle-hd",
        lambda seed: ss.gen_circle(1600, d=1000, noise_var=0.5, seed=seed, rotate=True),
        30, lambda seed: ss.EigenMethod("randomized", seed=seed)),
    "predict-spiral": PredictSpiral(),
    "krr-grid": KRRGrid(),
}
