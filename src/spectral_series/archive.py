"""Model persistence: a single-file container with bit-exact round-trips.

Layout: an 8-byte little-endian header length, a UTF-8 JSON header (format
version, kernel, mode, truncation, preprocessing record, block list,
checksum), then one length-prefixed block per array: two uint64 for
(rows, cols) followed by row-major float64 little-endian payload. Raw float64
bytes round-trip without any decimal conversion, which is what makes
reloaded predictions bit-identical. The basis blocks, their order and the
header fields each one's shape must equal are declared once, in
``_BASIS_BLOCKS``, which the writer, the reader's shape check and the
basis rebuild all read; the standardizer's three blocks follow them. The
kernel and eigensolver headers are their dataclasses' fields, and the header
is written with sorted keys, so one model and preprocessing give one file,
byte for byte.

The checksum is the SHA-256 of the header's other fields (as canonical JSON)
followed by every byte after the header, so an edit anywhere in the file is
rejected instead of loading as a different model. Version 1 archives, which
predate the checksum, are refused: a version field is as easy to edit as any
other, so reading them would let any edit through.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Standardizer, _unit_rows
from .diffusion import EigenBasis, EigenMethod, Mode
from .errors import ArchiveError
from .kernels import KernelSpec
from .series import SeriesModel

__all__ = ["FORMAT_VERSION", "Preprocessing", "save_model", "load_model"]

FORMAT_VERSION = 2
_LEN = struct.Struct("<Q")
_SHAPE = struct.Struct("<QQ")
# The basis blocks in file order, each with the header fields its shape must
# equal; a block of one field is written as one row and read back raveled.
# The standardizer's blocks, if any, follow them.
_BASIS_BLOCKS = {
    "training_points": ("n", "d"),
    "eigenvalues": ("n_components",),
    "eigenvectors": ("n", "n_components"),
    "stationary": ("n",),
    "degrees": ("n",),
    "coefficients": ("n_components",),
}


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
            X = _unit_rows(X)
        return X


def write_atomic(path, data: bytes) -> None:
    """Write data to path atomically: a temp file, then os.replace.

    A reader sees the old file or the whole new one, and the temp file never
    outlives the call.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_exact(fh, size: int) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise ArchiveError(f"truncated archive: wanted {size} bytes, got {len(data)}")
    return data


def _read_block(fh, digest) -> np.ndarray:
    """Read one block, feeding its bytes to digest."""
    shape = _read_exact(fh, _SHAPE.size)
    rows, cols = _SHAPE.unpack(shape)
    size = rows * cols * 8
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        # checked before reading, so a corrupt shape cannot size a huge buffer
        raise ArchiveError(
            f"truncated archive: block of {rows}x{cols} needs {size} bytes, {left} remain")
    payload = _read_exact(fh, size)
    digest.update(shape)
    digest.update(payload)
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def _header_digest(header: dict):
    """SHA-256 seeded with the header's fields other than the checksum."""
    fields = {k: v for k, v in header.items() if k != "checksum"}
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8"))


def save_model(path, model: SeriesModel, preprocessing: Preprocessing | None = None) -> None:
    """Write the fitted model atomically (write_atomic)."""
    if preprocessing is None:
        preprocessing = Preprocessing()
    basis = model.basis
    arrays = {name: getattr(model if name == "coefficients" else basis, name)
              for name in _BASIS_BLOCKS}
    std = preprocessing.standardizer
    if std is not None:
        arrays.update(std_means=std.means, std_sds=std.sds,
                      std_constant=std.constant.astype(float))
    header = {
        "format_version": FORMAT_VERSION,
        "kernel": asdict(basis.kernel),
        "mode": basis.mode.value,
        "method": asdict(basis.method),
        "J": int(model.J),
        "ssl": bool(model.ssl),
        "n": int(basis.n),
        "d": int(basis.training_points.shape[1]),
        "n_components": int(basis.n_components),
        "preprocessing": {
            "unit_norm": bool(preprocessing.unit_norm),
            "standardize": std is not None,
        },
        "blocks": list(arrays),
    }
    chunks = []
    for arr in arrays.values():
        arr = np.atleast_2d(np.asarray(arr, dtype="<f8"))
        chunks += [_SHAPE.pack(*arr.shape), arr.tobytes()]
    body = b"".join(chunks)
    digest = _header_digest(header)
    digest.update(body)
    header["checksum"] = digest.hexdigest()
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    try:
        write_atomic(path, _LEN.pack(len(header_bytes)) + header_bytes + body)
    except OSError as exc:
        raise ArchiveError(f"cannot write model archive {path}: {exc}") from exc


def load_model(path) -> tuple[SeriesModel, Preprocessing]:
    """Read a model archive; rejects unknown format versions and any edit.

    Block shapes are checked before the checksum, so a structural edit is
    reported by the block it breaks.
    """
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ArchiveError(f"cannot open model archive {path}: {exc}") from exc
    try:
        with fh:
            try:
                (header_len,) = _LEN.unpack(_read_exact(fh, _LEN.size))
                if header_len > 10**7:
                    raise ArchiveError(f"implausible header length {header_len}")
                header = json.loads(_read_exact(fh, header_len).decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError, struct.error) as exc:
                raise ArchiveError(f"corrupt archive header in {path}: {exc}") from exc
            if not isinstance(header, dict):
                raise ArchiveError(f"corrupt archive header in {path}: not a JSON object")

            version = header.get("format_version")
            if version != FORMAT_VERSION:
                raise ArchiveError(
                    f"archive format version {version!r} is not supported "
                    f"(this build reads version {FORMAT_VERSION})"
                )
            digest = _header_digest(header)
            arrays = {name: _read_block(fh, digest) for name in header["blocks"]}
            digest.update(fh.read())  # trailing bytes count too

        # each basis block against its header fields, a one-field block by its size
        fields = {}
        for name, dims in _BASIS_BLOCKS.items():
            want = tuple(header[dim] for dim in dims)
            got = arrays[name].shape if len(dims) == 2 else (arrays[name].size,)
            if got != want:
                fields_shown = ", ".join(f"{dim}={header[dim]}" for dim in dims)
                raise ArchiveError(f"inconsistent archive: block {name} has shape {got}, "
                                   f"expected {want} from header {fields_shown}")
            fields[name] = arrays[name] if len(dims) == 2 else arrays[name].ravel()
        if header["checksum"] != digest.hexdigest():
            raise ArchiveError(f"archive {path} fails its checksum; the file is corrupt")
        coefficients = fields.pop("coefficients")
        basis = EigenBasis(kernel=KernelSpec(**header["kernel"]), mode=Mode.parse(header["mode"]),
                           method=EigenMethod(**header["method"]), **fields)
        model = SeriesModel(basis, coefficients, int(header["J"]),
                            ssl=bool(header.get("ssl", False)))
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
    except TypeError as exc:
        raise ArchiveError(f"corrupt archive header in {path}: {exc}") from exc
    return model, prep
