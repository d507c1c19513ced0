"""Record each workload's held-out loss on the reference inputs.

    python3 perfbench/record_reference.py

Writes reference.json, which every benchmark run compares its reference
test_mse against (relative tolerance workloads.MSE_RTOL). Re-record only in a
change that means to alter the estimator's results, and say so.
"""

import json
import sys

import bootstrap


def main() -> int:
    ss = bootstrap.import_package()
    import envinfo
    import spans
    import workloads

    recorded = {}
    tracer = spans.Tracer()
    with spans.counting_logs(tracer):
        for name, wl in workloads.WORKLOADS.items():
            mse, problems = wl.reference(wl.setup(workloads.REFERENCE_SEED, tracer), tracer)
            if problems:
                print(f"{name}: {problems}", file=sys.stderr)
                return 1
            recorded[name] = {"seed": workloads.REFERENCE_SEED, "test_mse": mse}
            print(f"{name} test_mse = {mse!r}")
    recorded["environment"] = envinfo.environment({"package": ss.__version__})
    with open(workloads.REFERENCE_FILE, "w") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
