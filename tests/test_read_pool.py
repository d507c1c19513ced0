"""The read path's worker pool: kernels.map_blocks and the readers built on it."""

import itertools
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from spectral_series import (
    InputError,
    KernelSpec,
    Mode,
    NumericalError,
    bias_correct,
    eigendecompose,
    extend,
    fit,
    fit_basis,
    gen_circle,
    gen_spiral,
    gram_matrix,
    knn_predict,
    krr_fit,
    nw_predict,
    predict,
    save_model,
    symmetric_normalize,
)
from spectral_series import kernels, nystrom
from spectral_series.cli import main
from spectral_series.kernels import (
    BLAS_DISTANCE_MIN_D, READ_BLOCK_BYTES, map_blocks, row_blocks, sq_distances,
)

# with this many training columns every block is one query row
ONE_ROW = READ_BLOCK_BYTES // 8
TIMEOUT_S = 60


@pytest.fixture()
def workers(monkeypatch):
    def set_workers(count):
        monkeypatch.setattr(kernels, "READ_WORKERS", count)
    return set_workers


class TestMapBlocks:
    def test_every_block_once_in_order(self, workers):
        workers(4)
        assert map_blocks(lambda rows: rows.start, 100, ONE_ROW) == list(range(100))
        blocks = list(row_blocks(1000, 2048, READ_BLOCK_BYTES))
        assert map_blocks(lambda rows: rows, 1000, 2048) == blocks

    def test_helpers_take_blocks_below_the_blas_route_only(self, workers):
        workers(2)

        def who(rows):
            time.sleep(0.002)  # long enough for a helper to claim blocks
            return threading.get_ident()

        assert len(set(map_blocks(who, 40, ONE_ROW, 2))) == 2
        assert set(map_blocks(who, 40, ONE_ROW, BLAS_DISTANCE_MIN_D)) == {
            threading.get_ident()}

    def test_tasks_run_in_the_callers_errstate(self, workers):
        workers(2)

        def over(rows):
            time.sleep(0.001)
            return threading.get_ident(), np.geterr()["over"]

        with np.errstate(over="ignore"):
            got = map_blocks(over, 40, ONE_ROW)
        assert len({ident for ident, _ in got}) == 2
        assert {state for _, state in got} == {"ignore"}

    @pytest.mark.parametrize("error", [InputError, NumericalError])
    def test_error_surfaces_unchanged_and_stops_the_rest(self, workers, error):
        workers(4)
        raised = error("block 0 failed")
        calls = []

        def fn(rows):
            calls.append(rows.start)
            if rows.start == 0:
                raise raised
            time.sleep(0.005)

        with pytest.raises(error) as info:
            map_blocks(fn, 64, ONE_ROW)
        assert info.value is raised
        # each thread had claimed at most one block when block 0 failed
        assert len(calls) <= 4

    def test_a_cancelled_helper_task_does_not_keep_fn_alive(self, workers):
        # with the pool's threads busy, the helper task is still queued when
        # the caller has run every block, and is cancelled; it stays queued
        # until a pool thread takes it, and must not keep fn (and so the
        # arrays fn writes, a tuning sweep's buffers) alive until then
        workers(2)
        pool, threads = kernels._executor(1), kernels._pool_size
        busy, release = threading.Semaphore(0), threading.Event()
        for _ in range(threads):
            pool.submit(lambda: busy.release() or release.wait(TIMEOUT_S))
        try:
            for _ in range(threads):
                assert busy.acquire(timeout=TIMEOUT_S)

            def fn(rows):
                return rows.start

            alive = weakref.ref(fn)
            assert map_blocks(fn, 3, ONE_ROW) == [0, 1, 2]
            del fn
            assert alive() is None
        finally:
            release.set()

    def test_nested_and_concurrent_calls_do_not_deadlock(self):
        # more threads than cores and a short switch interval, so that helper
        # tasks queue behind busy ones; every block must still run once. In a
        # subprocess, so that a deadlock fails the test instead of hanging it
        script = (
            "import sys, threading\n"
            "from spectral_series import kernels\n"
            "kernels.READ_WORKERS = 3\n"
            "sys.setswitchinterval(1e-6)\n"
            "one = kernels.READ_BLOCK_BYTES // 8\n"
            "def inner(rows):\n"
            "    return rows.start\n"
            "def outer(rows):\n"
            "    return sum(kernels.map_blocks(inner, 16, one)) + rows.start\n"
            "results = {}\n"
            "def caller(k):\n"
            "    results[k] = kernels.map_blocks(outer, 24, one)\n"
            "threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join()\n"
            "want = [sum(range(16)) + i for i in range(24)]\n"
            "print(results == {k: want for k in range(4)})\n"
        )
        assert run_script(script, 4) == ["True"]


def run_script(script, threads):
    """Lines that script prints in a fresh interpreter with SPECTRAL_SERIES_THREADS set."""
    env = dict(os.environ, SPECTRAL_SERIES_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(kernels.__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def pool_state(threads):
    """(pool made, threads started) after a one-block and a multi-block predict.

    The fit's 300 x 300 Gram is one block too, so it makes no pool either.
    """
    script = (
        "import threading\n"
        "import spectral_series as ss\n"
        "from spectral_series import kernels\n"
        "base = threading.active_count()\n"
        "data = ss.gen_spiral(300, noise_sd=0.1, seed=0)\n"
        "model = ss.fit(data.features, data.responses, ss.KernelSpec.gaussian(0.5), 8)\n"
        "Q = ss.gen_spiral(5000, noise_sd=0.1, seed=1).features\n"
        "ss.predict(model, Q[:100])\n"
        "print(kernels._pool is not None, threading.active_count() - base)\n"
        "ss.predict(model, Q)\n"
        "print(kernels._pool is not None, threading.active_count() - base)\n"
    )
    return [line.split() for line in run_script(script, threads)]


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("value, count", [
    ("3", 3),
    # each used to reach the BLAS variables as written, with 1 worker for 0
    # and -2 and the CPU count for the others
    ("0", None), ("-2", None), ("2.5", None), ("abc", None),
])
def test_thread_count_is_one_parse(value, count):
    # a positive integer sets the BLAS thread variables and the worker count;
    # any other value sets neither, and the pool takes the usable CPUs
    script = (
        "import os\n"
        f"for var in {THREAD_VARS!r}:\n"
        "    os.environ.pop(var, None)\n"
        "from spectral_series import kernels\n"
        "cpus = (len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity')\n"
        "        else os.cpu_count())\n"
        f"print([os.environ.get(var) for var in {THREAD_VARS!r}], kernels.READ_WORKERS, cpus)\n"
    )
    line = run_script(script, value)[-1]
    variables, workers, cpus = line.rsplit(" ", 2)
    assert variables == repr([None if count is None else str(count)] * len(THREAD_VARS))
    assert int(workers) == (int(cpus) if count is None else count)


def test_pool_made_on_the_first_multi_block_call():
    assert pool_state(2) == [["False", "0"], ["True", "1"]]


def test_one_worker_starts_no_thread():
    assert pool_state(1) == [["False", "0"], ["False", "0"]]


def test_saved_model_predicts_the_same_bytes_at_every_thread_count(tmp_path):
    # the README's thread-count contract: below BLAS_DISTANCE_MIN_D columns a
    # saved model's predictions are bit-identical at every thread count, the
    # block pool's worker count and the BLAS threads alike. 4000 queries on
    # 1000 training points are several blocks, and some fall back to their
    # nearest training point
    data = gen_spiral(1000, noise_sd=0.1, seed=8)
    model = fit(data.features, data.responses, KernelSpec.gaussian(0.3), 30)
    path = tmp_path / "model.npz"
    save_model(path, model)
    script = (
        "import hashlib\n"
        "import spectral_series as ss\n"
        f"model, _ = ss.load_model({str(path)!r})\n"
        "Q = ss.gen_spiral(4000, noise_sd=0.1, seed=9).features\n"
        "Q[1000:1003] += 500.0\n"
        "print(hashlib.sha256(ss.predict(model, Q).tobytes()).hexdigest())\n"
    )
    assert run_script(script, 1) == run_script(script, 2)


def spiral_case(mode):
    data = gen_spiral(1000, noise_sd=0.1, seed=3)
    model = fit(data.features, data.responses, KernelSpec.gaussian(0.5), 10, mode)
    Q = gen_spiral(2000, noise_sd=0.1, seed=4).features
    Q[700:703] += 500.0  # fallback rows inside a middle block
    assert len(list(row_blocks(Q.shape[0], model.basis.n, READ_BLOCK_BYTES))) >= 5
    return model, Q


def circle_case(mode):
    data = gen_circle(700 + 700, d=64, noise_var=0.1, seed=3, rotate=True)
    model = fit(data.features[:700], data.responses[:700], KernelSpec.gaussian(0.2), 10,
                mode)
    Q = data.features[700:].copy()
    Q[300:303] += 500.0
    return model, Q


@pytest.mark.parametrize("case", [spiral_case, circle_case], ids=["cdist", "blas"])
@pytest.mark.parametrize("mode", list(Mode))
def test_outputs_do_not_depend_on_the_worker_count(case, mode, workers):
    # the read paths, and the passes that walk K on the pool: the fit's
    # scaling (all modes but Uniform) and gram_matrix's cross form (on the
    # pool below BLAS_DISTANCE_MIN_D columns, in order from it)
    model, Q = case(mode)
    X, spec = model.basis.training_points, model.basis.kernel
    calls = (lambda: extend(model.basis, Q, model.J), lambda: predict(model, Q),
             lambda: fit_basis(X, spec, model.J, mode).eigenvectors,
             lambda: gram_matrix(spec, Q, X))
    workers(1)
    serial = [call() for call in calls]
    for count in (2, 3, 4, 2):
        workers(count)
        for call, want in zip(calls, serial):
            assert np.array_equal(call(), want)


def test_baselines_do_not_depend_on_the_worker_count(workers):
    # besides the read paths, a polynomial krr_fit's finiteness and row-bound
    # scans, and a caller's matrix through the normalizations and
    # eigendecompose's symmetry scan and mirror, all on the pool
    data = gen_spiral(800, noise_sd=0.1, seed=6)
    X, y = data.features, data.responses
    krr = krr_fit(X, y, KernelSpec.gaussian(0.05), 1e-3)
    Q = gen_spiral(2000, noise_sd=0.1, seed=7).features
    Q[500:503] += 500.0
    C = gram_matrix(KernelSpec.gaussian(0.05), X)
    C += 1e-14 * np.random.default_rng(6).standard_normal(C.shape)
    calls = (lambda: nw_predict(X, y, 0.05, Q), lambda: knn_predict(X, y, 7, Q),
             lambda: krr.predict(Q),
             lambda: krr_fit(X, y, KernelSpec.polynomial(2), 1e-1).dual_coefficients,
             lambda: symmetric_normalize(C), lambda: bias_correct(C),
             lambda: eigendecompose(C, 5)[1])
    workers(1)
    serial = [call() for call in calls]
    for count in (2, 3):
        workers(count)
        for call, want in zip(calls, serial):
            assert np.array_equal(call(), want)


def test_polynomial_overflow_stays_silent_under_the_callers_errstate(workers):
    data = gen_spiral(300, noise_sd=0.1, seed=3)
    model = fit(data.features, data.responses, KernelSpec.polynomial(3), 6, Mode.UNIFORM)
    Q = gen_spiral(4000, noise_sd=0.1, seed=4).features
    # rows that overflow, in every block, so that helpers meet them too
    Q[::97] = data.features[0] * 1e120
    assert len(list(row_blocks(Q.shape[0], model.basis.n, READ_BLOCK_BYTES))) >= 3
    workers(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore", invalid="ignore"):
            pred = predict(model, Q)
    assert np.isfinite(pred).all()


@pytest.mark.parametrize("m, n", [(300, 600), (5000, 50)])
def test_cross_distances_keep_their_bits_at_every_query_count(m, n):
    # a query row's distances do not depend on the rows beside it: with
    # 50 training rows the 5000 queries are centered in three blocks
    data = gen_circle(m + n, d=64, noise_var=0.1, seed=5, rotate=True).features
    A, B = data[:m] + 1e3, data[m:] + 1e3
    first = kernels._cross_distances(B, A)
    assert np.array_equal(kernels._cross_distances(B, A), first)
    assert np.array_equal(kernels._cross_distances(B, A[:37]), first[:37])
    assert np.array_equal(kernels._cross_distances(B, A[-2100:]), first[-2100:])
    assert np.array_equal(sq_distances(A, B), first)


class TestCliExitCodes:
    @pytest.fixture()
    def archive(self, tmp_path, capsys):
        train, queries = tmp_path / "train.csv", tmp_path / "queries.csv"
        for path, n, seed in ((train, 300, 3), (queries, 6000, 4)):
            assert main(["gen", "spiral", "--n", str(n), "--noise-sd", "0.1",
                         "--seed", str(seed), "--out", str(path)]) == 0
        assert main(["tune", "--data", str(train), "--seed", "0", "--jmax", "6",
                     "--grid-size", "2", "--out", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        return tmp_path / "m.model", queries

    @pytest.mark.parametrize("error, code", [(InputError, 2), (NumericalError, 3)])
    def test_block_error_keeps_its_exit_code(self, archive, tmp_path, capsys,
                                             monkeypatch, workers, error, code):
        workers(2)
        real = nystrom._extend_block
        counter = itertools.count()

        def second_block_fails(*args):
            if next(counter) == 1:
                raise error("second block failed")
            return real(*args)

        monkeypatch.setattr(nystrom, "_extend_block", second_block_fails)
        path, queries = archive
        out = tmp_path / "p.csv"
        rc = main(["predict", "--model", str(path), "--data", str(queries),
                   "--out", str(out)])
        assert rc == code
        assert "second block failed" in capsys.readouterr().err
        assert not out.exists()
