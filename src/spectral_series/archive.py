"""Model persistence: a single-file container with bit-exact round-trips.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header (format
version, kernel, mode, truncation, preprocessing record, block list), then
one length-prefixed block per array: two uint64 for (rows, cols) followed by
row-major float64 little-endian payload. Raw float64 bytes round-trip without
any decimal conversion, which is what makes reloaded predictions
bit-identical.
"""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import dataclass

import numpy as np

from .dataset import Standardizer
from .diffusion import EigenBasis, EigenMethod, Mode
from .errors import ArchiveError, InputError
from .kernels import KernelSpec
from .series import SeriesModel

__all__ = ["FORMAT_VERSION", "Preprocessing", "save_model", "load_model"]

FORMAT_VERSION = 1
_LEN = struct.Struct("<Q")
_SHAPE = struct.Struct("<QQ")


@dataclass(frozen=True)
class Preprocessing:
    """Input transforms applied before the kernel, recorded with the model."""

    standardizer: Standardizer | None = None
    unit_norm: bool = False

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.standardizer is not None:
            X = self.standardizer.transform(X)
        if self.unit_norm:
            norms = np.linalg.norm(X, axis=1)
            if np.any(norms == 0.0):
                raise InputError("query row has zero norm; cannot unit-normalize")
            X = X / norms[:, None]
        return X


def _write_block(fh, name: str, arr: np.ndarray, blocks: list) -> None:
    arr = np.ascontiguousarray(np.atleast_2d(np.asarray(arr, dtype="<f8")))
    blocks.append(name)
    fh.write(_SHAPE.pack(arr.shape[0], arr.shape[1]))
    fh.write(arr.tobytes(order="C"))


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ArchiveError(f"truncated archive: wanted {size} bytes, got {len(data)}")
    return data


def _read_block(fh) -> np.ndarray:
    rows, cols = _SHAPE.unpack(_read_exact(fh, _SHAPE.size))
    if rows * cols > 10**9:
        raise ArchiveError(f"implausible block shape {rows}x{cols}")
    payload = _read_exact(fh, rows * cols * 8)
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def save_model(path, model: SeriesModel, preprocessing: Preprocessing | None = None) -> None:
    """Write the fitted model atomically (temp file, then rename)."""
    if preprocessing is None:
        preprocessing = Preprocessing()
    basis = model.basis
    kernel = basis.kernel
    header = {
        "format_version": FORMAT_VERSION,
        "kernel": {
            "family": kernel.family,
            "bandwidth": kernel.bandwidth,
            "degree": kernel.degree,
        },
        "mode": basis.mode.value,
        "method": {
            "name": basis.method.name,
            "oversample": basis.method.oversample,
            "power_iters": basis.method.power_iters,
            "seed": basis.method.seed,
        },
        "J": int(model.J),
        "ssl": bool(model.ssl),
        "n": int(basis.n),
        "d": int(basis.training_points.shape[1]),
        "n_components": int(basis.n_components),
        "preprocessing": {
            "unit_norm": bool(preprocessing.unit_norm),
            "standardize": preprocessing.standardizer is not None,
        },
        "blocks": [],
    }

    body = io.BytesIO()
    blocks = header["blocks"]
    _write_block(body, "training_points", basis.training_points, blocks)
    _write_block(body, "eigenvalues", basis.eigenvalues, blocks)
    _write_block(body, "eigenvectors", basis.eigenvectors, blocks)
    _write_block(body, "stationary", basis.stationary, blocks)
    _write_block(body, "degrees", basis.degrees, blocks)
    _write_block(body, "coefficients", model.coefficients, blocks)
    std = preprocessing.standardizer
    if std is not None:
        _write_block(body, "std_means", std.means, blocks)
        _write_block(body, "std_sds", std.sds, blocks)
        _write_block(body, "std_constant", std.constant.astype(float), blocks)

    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_LEN.pack(len(header_bytes)))
            fh.write(header_bytes)
            fh.write(body.getvalue())
        os.replace(tmp, path)
    except OSError as exc:
        raise ArchiveError(f"cannot write model archive {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _check_shapes(arrays: dict, n: int, d: int, k: int) -> None:
    """Blocks must agree with each other and with the header's n, d, k."""
    expected = {
        "training_points": (n, d),
        "eigenvectors": (n, k),
        "eigenvalues": (k,),
        "stationary": (n,),
        "degrees": (n,),
        "coefficients": (k,),
    }
    for name, want in expected.items():
        got = arrays[name].shape if len(want) == 2 else (arrays[name].size,)
        if got != want:
            raise ArchiveError(
                f"inconsistent archive: block {name} has shape {got}, expected "
                f"{want} from header n={n}, d={d}, n_components={k}"
            )


def load_model(path) -> tuple[SeriesModel, Preprocessing]:
    """Read a model archive; rejects unknown format versions."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ArchiveError(f"cannot open model archive {path}: {exc}") from exc
    with fh:
        try:
            (header_len,) = _LEN.unpack(_read_exact(fh, _LEN.size))
            if header_len > 10**7:
                raise ArchiveError(f"implausible header length {header_len}")
            header = json.loads(_read_exact(fh, header_len).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, struct.error) as exc:
            raise ArchiveError(f"corrupt archive header in {path}: {exc}") from exc

        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise ArchiveError(
                f"archive format version {version!r} is not supported "
                f"(this build reads version {FORMAT_VERSION})"
            )
        arrays = {}
        for name in header["blocks"]:
            arrays[name] = _read_block(fh)

    try:
        _check_shapes(arrays, header["n"], header["d"], header["n_components"])
        kern = header["kernel"]
        spec = KernelSpec(kern["family"], kern.get("bandwidth"), kern.get("degree"))
        meth = header["method"]
        method = EigenMethod(meth["name"], meth["oversample"],
                             meth["power_iters"], meth["seed"])
        basis = EigenBasis(
            kernel=spec,
            training_points=arrays["training_points"],
            eigenvalues=arrays["eigenvalues"].ravel(),
            eigenvectors=arrays["eigenvectors"],
            stationary=arrays["stationary"].ravel(),
            degrees=arrays["degrees"].ravel(),
            mode=Mode.parse(header["mode"]),
            method=method,
        )
        model = SeriesModel(basis, arrays["coefficients"].ravel(),
                            int(header["J"]), ssl=bool(header.get("ssl", False)))
        std = None
        if header["preprocessing"]["standardize"]:
            std = Standardizer(
                arrays["std_means"].ravel(),
                arrays["std_sds"].ravel(),
                arrays["std_constant"].ravel() != 0.0,
            )
        prep = Preprocessing(std, bool(header["preprocessing"]["unit_norm"]))
    except KeyError as exc:
        raise ArchiveError(f"archive {path} is missing field {exc}") from exc
    return model, prep
