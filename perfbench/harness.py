"""Measurement loops for run.py: set-up, reference, timed sweeps, tracing.

Imported only after bootstrap.import_package() has put the checkout's
package on the path.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import spectral_series as ss

import bootstrap
import envinfo
import spans
import threads1
import workloads

SETUP_REPEATS = 3
MIN_SWEEPS = 3
# never start another sweep after this many times --seconds, so a badly
# regressed program still finishes within the runner's time limit
MAX_LOOP_FACTOR = 4
CHILD_TIMEOUT_S = 90


class Ledger:
    """Operations attempted and failed, with the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label, ops) -> None:
        for problems in ops:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{label}: {p}" for p in problems)

    def crash(self, label) -> None:
        if not self.failed:
            traceback.print_exc(file=sys.stderr)
        self.record(label, [[traceback.format_exc(limit=1).strip().splitlines()[-1]]])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(wl, st, seconds, ledger, tracer, traced):
    """Run sweeps until --seconds have passed (at least MIN_SWEEPS).

    With ``traced`` the sweeps alternate traced / untraced, starting traced.
    Returns per-sweep records: (index, is_traced, wall seconds, output).
    """
    records = []
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if len(records) >= MIN_SWEEPS and elapsed >= seconds:
            break
        if records and elapsed >= MAX_LOOP_FACTOR * max(seconds, 1.0):
            break
        i = len(records)
        is_traced = traced and i % 2 == 0
        tracer.phase = i
        t0 = time.perf_counter()
        out = None
        try:
            if is_traced:
                root = len(tracer.spans)
                with tracer.installed(ss), tracer.span(spans.ROOT_SPAN):
                    out = wl.sweep(st)
                wall = tracer.spans[root][2] - tracer.spans[root][1]
            else:
                out = wl.sweep(st)
                wall = time.perf_counter() - t0
            ledger.record(f"sweep {i}", wl.check(st, out))
        except Exception:  # counted as a failed operation; the run goes on
            ledger.crash(f"sweep {i}")
            out = None
            wall = time.perf_counter() - t0
        records.append((i, is_traced, wall, out))
    return records


PREDICT_KEYS = ("bulk_qps", "stream_qps", "stream_p50_ms", "stream_p95_ms")


def predict_stats(records) -> dict:
    """Bulk and closed-loop figures over the untraced predict rounds."""
    rounds = [out for _, traced, _, out in records if not traced and out is not None]
    if not rounds:
        return {}
    latencies = sorted(lat for r in rounds for lat in r.latencies_s)
    queries = len(rounds[0].bulk)
    return {
        "bulk_qps": queries / statistics.median(r.bulk_s for r in rounds),
        "stream_qps": queries / statistics.median(r.stream_s for r in rounds),
        "stream_p50_ms": 1e3 * statistics.median(latencies),
        # the highest percentile with at least 10 batches beyond it in one
        # round of 200; more rounds only add samples
        "stream_p95_ms": 1e3 * statistics.quantiles(latencies, n=100,
                                                    method="inclusive")[94],
        "stream_batches": len(latencies),
    }


def log_counts(tracer) -> dict:
    """spectral_series log records counted during the timed sweeps, by kind."""
    totals = {}
    for (phase, key), value in tracer.counts.items():
        if isinstance(phase, int) and key in spans.LOG_KEYS:
            totals[key] = totals.get(key, 0) + value
    return totals


def run_threads1_child(seed) -> dict:
    """One traced tune-spiral sweep in a subprocess with SPECTRAL_SERIES_THREADS=1."""
    env = {k: v for k, v in os.environ.items() if k not in envinfo.THREAD_VARS}
    env["SPECTRAL_SERIES_THREADS"] = "1"
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "threads1.py")
    proc = subprocess.run([sys.executable, script, "--seed", str(seed)], env=env,
                          cwd=bootstrap.ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"single-thread run exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced_run(wl, args, import_s, ledger):
    tracer = spans.Tracer()
    with spans.counting_logs(tracer):
        setup_walls = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            st = wl.setup(args.seed, tracer)
            setup_walls.append(time.perf_counter() - t0)
        tracer.phase = "reference"
        t0 = time.perf_counter()
        ref_mse, problems = wl.reference(wl.setup(workloads.REFERENCE_SEED, tracer), tracer)
        reference_s = time.perf_counter() - t0
        ledger.record("reference", [problems + workloads.mse_problem(wl.name, ref_mse)])
        records = timed_loop(wl, st, args.seconds, ledger, tracer, traced=False)

    walls = [wall for _, _, wall, _ in records]
    metrics = {
        "setup_s": import_s + statistics.median(setup_walls) + reference_s,
        "sweep_s": statistics.median(walls),
        "test_mse": ref_mse,
        "peak_rss_mb": peak_rss_mb(),
    }
    info = {
        "setup_import_s": import_s,
        "setup_median_s": statistics.median(setup_walls),
        "setup_reference_s": reference_s,
        "sweeps": len(records),
        "sweep_min_s": min(walls), "sweep_max_s": max(walls),
        "seed_test_mse": st.extra.get("seed_test_mse", float("nan")),
        "log_counts": log_counts(tracer),
    }
    if args.workload == "predict-spiral":
        info.update({f"predict_{k}": v for k, v in predict_stats(records).items()})
    return metrics, info


def traced_run(wl, args, ledger):
    tracer = spans.Tracer()
    with spans.counting_logs(tracer):
        with tracer.installed(ss):
            st = wl.setup(args.seed, tracer)
            tracer.phase = "reference"
            ref_mse, problems = wl.reference(wl.setup(workloads.REFERENCE_SEED, tracer),
                                             tracer)
        ledger.record("reference", [problems + workloads.mse_problem(wl.name, ref_mse)])
        records = timed_loop(wl, st, args.seconds, ledger, tracer, traced=True)

    traced_walls = [wall for _, t, wall, out in records if t and out is not None]
    plain_walls = [wall for _, t, wall, out in records if not t and out is not None]
    metrics = spans.sweep_metrics(tracer, [i for i, t, _, out in records
                                           if t and out is not None])
    metrics.update(spans.setup_metrics(tracer))
    traced_s = statistics.fmean(traced_walls) if traced_walls else 0.0
    plain_s = statistics.fmean(plain_walls) if plain_walls else 0.0
    metrics.update({
        "trace.sweep_s": traced_s,
        "trace.untraced_sweep_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.sweeps": len(traced_walls),
    })
    stats = predict_stats(records) if args.workload == "predict-spiral" else {}
    metrics.update({f"predict.{k}": stats.get(k, 0.0) for k in PREDICT_KEYS})

    child = dict.fromkeys(threads1.LAYER_KEYS + ("sweep_s",), 0.0)
    extra = {}
    if args.workload == "tune-spiral":
        try:
            child.update(run_threads1_child(args.seed))
            extra["threads1_blas_threads"] = child.pop("blas_threads")
            ledger.record("single-thread sweep", [child.pop("problems")])
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError):
            ledger.crash("single-thread sweep")
    metrics.update({f"threads1.{k}": v for k, v in child.items()})

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"environment": envinfo.environment(vars(args)),
                   "reference_test_mse": ref_mse, "unwrapped": tracer.unwrapped,
                   "spans": tracer.spans,
                   "counts": [[p, k, v] for (p, k), v in tracer.counts.items()],
                   "metrics": metrics}, fh)
    extra.update({"layer_sum_s": sum(metrics[f"{layer}_s"] for layer in spans.SWEEP_LAYERS)
                  + metrics["harness.residual_s"],
                  "trace_file": os.path.relpath(path, bootstrap.ROOT),
                  "unwrapped": tracer.unwrapped})
    return metrics, extra
