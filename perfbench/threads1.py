"""One traced tune-spiral sweep, for the single-thread comparison.

run.py starts this in a subprocess with SPECTRAL_SERIES_THREADS=1 during the
traced tune-spiral run. The last line of standard output is a JSON object of
per-layer self times for the sweep, its wall time, the BLAS thread counts
seen, and the problems its checks found.
"""

import argparse
import json
import sys

import bootstrap

# the layers tune-spiral exercises, reported as threads1.<name>
LAYER_KEYS = (
    "model_selection.tune_s", "kernels.gram_self_s", "kernels.gram_cross_s",
    "diffusion.fit_basis_s", "diffusion.system_s", "diffusion.normalize_s",
    "diffusion.eigensolve_s", "diffusion.eigh_s", "diffusion.rescale_s",
    "series.coef_s", "nystrom.extend_s", "harness.observe_s", "harness.residual_s",
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", required=True, type=int)
    args = p.parse_args(argv)
    ss = bootstrap.import_package()
    import envinfo
    import spans
    import workloads

    wl = workloads.WORKLOADS["tune-spiral"]
    tracer = spans.Tracer()
    with spans.counting_logs(tracer):
        st = wl.setup(args.seed, tracer)
        tracer.phase = 0
        root = len(tracer.spans)
        with tracer.installed(ss), tracer.span(spans.ROOT_SPAN):
            out = wl.sweep(st)
        problems = wl.check(st, out)[0]
    layers = spans.sweep_metrics(tracer, [0])
    result = {key: layers[key] for key in LAYER_KEYS}
    result["sweep_s"] = tracer.spans[root][2] - tracer.spans[root][1]
    result["problems"] = problems
    result["blas_threads"] = {name: lib.get("threads")
                              for name, lib in envinfo.blas_libraries().items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
