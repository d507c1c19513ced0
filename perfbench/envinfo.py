"""The environment a run measured in: CPUs, BLAS threads and library versions."""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARS = ("SPECTRAL_SERIES_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")


def blas_libraries() -> dict:
    """Thread count and build string of every OpenBLAS loaded in this process.

    numpy and scipy each bundle their own OpenBLAS; scipy's runs the
    eigensolver, numpy's the matrix products.
    """
    found = {}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(p for p in paths if p.startswith("/")):
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and "threads" not in info:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None and "config" not in info:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
        found[os.path.basename(path)] = info
    return found


def environment(run: dict) -> dict:
    import numpy
    import scipy

    return dict(
        run,
        nproc=os.cpu_count(),
        affinity_cpus=len(os.sched_getaffinity(0)),
        thread_env={v: os.environ.get(v, "default") for v in THREAD_VARS},
        blas=blas_libraries(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        machine=platform.machine(),
    )
