"""Benchmark runner for spectral-series.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it measures the per-layer metrics from traced sweeps. The
metric names and units come from BENCHMARK.json; README.md in this directory
describes the workloads and metrics. Human-readable lines (environment,
every metric with its unit, any failed check) come first; the last line of
standard output is the JSON result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import bootstrap  # noqa: E402
import envinfo  # noqa: E402

WORKLOAD_NAMES = ("tune-spiral", "tune-circle-hd", "predict-spiral", "krr-grid")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.import_package()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import harness
    import_s = time.perf_counter() - _START

    with open(os.path.join(bootstrap.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("# env " + json.dumps(envinfo.environment(vars(args)), sort_keys=True), flush=True)
    wl = harness.workloads.WORKLOADS[args.workload]
    ledger = harness.Ledger()
    if args.trace:
        measured, info = harness.traced_run(wl, args, ledger)
    else:
        measured, info = harness.untraced_run(wl, args, import_s, ledger)

    names = [m["name"] for m in wanted]
    if sorted(measured) != sorted(names):
        raise RuntimeError(f"metric set mismatch: measured-only "
                           f"{sorted(set(measured) - set(names))}, missing "
                           f"{sorted(set(names) - set(measured))}")
    for key, value in info.items():
        print(f"# {args.workload} {key} = {value}")
    for m in wanted:
        print(f"{args.workload} {m['name']} = {measured[m['name']]:.6g} {m['unit']}")
    rate = ledger.failed / max(ledger.attempted, 1)
    print(f"{args.workload} error_rate = {rate:.6g} ({ledger.failed} failed of "
          f"{ledger.attempted} operations)")
    for problem in ledger.problems[:20]:
        print(f"# FAILED {problem}")
    result = {
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
