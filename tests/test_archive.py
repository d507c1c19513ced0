"""Model persistence: bit-exact round-trips and corruption rejection."""

import json
import struct

import numpy as np
import pytest

from spectral_series import (
    ArchiveError,
    Dataset,
    KernelSpec,
    Mode,
    Preprocessing,
    fit,
    gen_spiral,
    load_model,
    predict,
    save_model,
    standardize,
)
from spectral_series.archive import FORMAT_VERSION


@pytest.fixture()
def fitted():
    data = gen_spiral(60, noise_sd=0.1, seed=5)
    return fit(data.features, data.responses, KernelSpec.gaussian(1.0),
               j_max=8, mode=Mode.STOCHASTIC, J=6)


def test_round_trip_is_bit_exact(fitted, tmp_path):
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    loaded, prep = load_model(path)

    assert np.array_equal(loaded.basis.training_points,
                          fitted.basis.training_points)
    assert np.array_equal(loaded.basis.eigenvalues, fitted.basis.eigenvalues)
    assert np.array_equal(loaded.basis.eigenvectors, fitted.basis.eigenvectors)
    assert np.array_equal(loaded.basis.stationary, fitted.basis.stationary)
    assert np.array_equal(loaded.basis.degrees, fitted.basis.degrees)
    assert np.array_equal(loaded.coefficients, fitted.coefficients)
    assert loaded.J == fitted.J
    assert loaded.basis.kernel == fitted.basis.kernel
    assert loaded.basis.mode is fitted.basis.mode
    assert prep.standardizer is None and not prep.unit_norm

    queries = gen_spiral(25, noise_sd=0.1, seed=6).features
    assert np.array_equal(predict(loaded, queries), predict(fitted, queries))


def test_round_trip_preserves_preprocessing(fitted, tmp_path):
    _, std = standardize(Dataset(fitted.basis.training_points, None, None))
    prep = Preprocessing(standardizer=std, unit_norm=True)
    path = tmp_path / "model.ssm"
    save_model(path, fitted, prep)
    _, loaded = load_model(path)
    assert np.array_equal(loaded.standardizer.means, std.means)
    assert np.array_equal(loaded.standardizer.sds, std.sds)
    assert np.array_equal(loaded.standardizer.constant, std.constant)
    assert loaded.unit_norm
    queries = gen_spiral(10, noise_sd=0.1, seed=7).features + 5.0
    assert np.array_equal(loaded.apply(queries), prep.apply(queries))


def test_unknown_version_rejected(fitted, tmp_path):
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + hlen])
    header["format_version"] = FORMAT_VERSION + 98
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<Q", len(new_header)) + new_header
                     + raw[8 + hlen:])
    with pytest.raises(ArchiveError, match="version"):
        load_model(path)


def test_truncated_archive_rejected(fitted, tmp_path):
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(ArchiveError, match="truncated"):
        load_model(path)


def test_missing_block_rejected(fitted, tmp_path):
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + hlen])
    header["blocks"].remove("coefficients")
    new_header = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(struct.pack("<Q", len(new_header)) + new_header
                     + raw[8 + hlen:])
    with pytest.raises(ArchiveError, match="coefficients"):
        load_model(path)


def _rewrite_block(path, name, transform):
    raw = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", raw)
    header = json.loads(raw[8:8 + hlen])
    pos = 8 + hlen
    out = raw[:pos]
    for block in header["blocks"]:
        rows, cols = struct.unpack_from("<QQ", raw, pos)
        arr = np.frombuffer(raw, "<f8", rows * cols, pos + 16).reshape(rows, cols)
        pos += 16 + 8 * rows * cols
        if block == name:
            arr = np.ascontiguousarray(transform(arr))
        out += struct.pack("<QQ", *arr.shape) + arr.tobytes()
    path.write_bytes(out)


@pytest.mark.parametrize("name, transform", [
    ("training_points", lambda a: a[:-1]),
    ("training_points", lambda a: a[:, :1]),
    ("eigenvectors", lambda a: a[:-1]),
    ("eigenvectors", lambda a: a[:, :-1]),
    ("eigenvalues", lambda a: a[:, :-1]),
    ("stationary", lambda a: a[:, 1:]),
    ("degrees", lambda a: a[:, 1:]),
    ("coefficients", lambda a: a[:, :-1]),
], ids=["points-row", "points-col", "vectors-row", "vectors-col", "values",
        "stationary", "degrees", "coefficients"])
def test_inconsistent_block_shapes_rejected(fitted, tmp_path, name, transform):
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    _rewrite_block(path, name, transform)
    with pytest.raises(ArchiveError, match=f"block {name} has shape"):
        load_model(path)


def test_garbage_header_rejected(tmp_path):
    path = tmp_path / "model.ssm"
    path.write_bytes(struct.pack("<Q", 12) + b"not-a-header")
    with pytest.raises(ArchiveError):
        load_model(path)


def test_unwritable_destination(fitted, tmp_path):
    with pytest.raises(ArchiveError, match="cannot write"):
        save_model(tmp_path / "no" / "such" / "dir" / "m.ssm", fitted)


def test_missing_file(tmp_path):
    with pytest.raises(ArchiveError, match="cannot open"):
        load_model(tmp_path / "absent.ssm")


def test_preprocessing_applies_standardize_before_unit_norm():
    X = np.array([[1.0, 40.0], [3.0, 10.0], [5.0, 50.0], [2.0, 20.0]])
    _, std = standardize(Dataset(X, None, None))
    prep = Preprocessing(standardizer=std, unit_norm=True)
    out = prep.apply(X)
    expected = std.transform(X)
    expected = expected / np.linalg.norm(expected, axis=1)[:, None]
    assert np.allclose(out, expected, atol=1e-15)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-15)


def test_unit_norm_rejects_zero_rows():
    prep = Preprocessing(unit_norm=True)
    with pytest.raises(Exception, match="zero norm"):
        prep.apply(np.zeros((2, 3)))
