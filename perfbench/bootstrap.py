"""Locate and import the spectral_series package from the checkout's source tree.

The benchmark always measures the source next to it, never an installed copy.
``import_package`` must run before anything imports numpy, because the package
applies ``SPECTRAL_SERIES_THREADS`` to the BLAS thread variables at import time.
"""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class MissingSource(RuntimeError):
    """The checkout holds no spectral_series source to benchmark."""


def import_package():
    init = os.path.join(SRC, "spectral_series", "__init__.py")
    if not os.path.isfile(init):
        raise MissingSource(f"no package source at {init}")
    sys.path.insert(0, SRC)
    package = importlib.import_module("spectral_series")
    loaded = os.path.realpath(package.__file__)
    if not loaded.startswith(os.path.realpath(SRC) + os.sep):
        raise MissingSource(f"spectral_series resolved to {loaded}, outside {SRC}")
    return package
