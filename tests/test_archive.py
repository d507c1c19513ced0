"""Model persistence: bit-exact round-trips and corruption rejection."""

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_series import (
    ArchiveError,
    Dataset,
    EigenBasis,
    EigenMethod,
    InputError,
    KernelSpec,
    Mode,
    Preprocessing,
    SeriesModel,
    Standardizer,
    fit,
    gen_spiral,
    load_model,
    predict,
    save_model,
    standardize,
)
from spectral_series import archive
from spectral_series.archive import FORMAT_VERSION
from spectral_series.diffusion import LANCZOS_MIN_N


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


def test_failed_write_leaves_no_temp_file(fitted, tmp_path):
    path = tmp_path / "taken"
    path.mkdir()  # the rename onto a directory fails
    with pytest.raises(ArchiveError, match="cannot write"):
        save_model(path, fitted)
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


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
    # the message names the row, as unit_normalize_rows' does
    with pytest.raises(InputError, match="row 2 has zero norm"):
        prep.apply(np.eye(3)[[0, 1, 2, 2]] * [1.0, 1.0, 0.0])


def _split_header(raw):
    (hlen,) = struct.unpack_from("<Q", raw)
    return json.loads(raw[8:8 + hlen]), raw[8 + hlen:]


def _join_header(header, body):
    encoded = json.dumps(header, sort_keys=True).encode()
    return struct.pack("<Q", len(encoded)) + encoded + body


def test_flipped_payload_bit_fails_checksum(fitted, tmp_path):
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    raw = bytearray(path.read_bytes())
    raw[-3] ^= 0x10  # inside the coefficients payload
    path.write_bytes(bytes(raw))
    with pytest.raises(ArchiveError, match="checksum"):
        load_model(path)


def test_edited_header_field_fails_checksum(fitted, tmp_path):
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    header, body = _split_header(path.read_bytes())
    header["J"] -= 1
    path.write_bytes(_join_header(header, body))
    with pytest.raises(ArchiveError, match="checksum"):
        load_model(path)


def test_header_that_is_not_an_object_rejected(tmp_path):
    path = tmp_path / "model.ssm"
    path.write_bytes(_join_header([1, 2], b""))
    with pytest.raises(ArchiveError, match="not a JSON object"):
        load_model(path)


def test_header_field_of_the_wrong_type_rejected(fitted, tmp_path):
    # under a valid checksum, so only the rebuild can refuse it
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    header, body = _split_header(path.read_bytes())
    header["kernel"] = 5
    digest = archive._header_digest(header)
    digest.update(body)
    header["checksum"] = digest.hexdigest()
    path.write_bytes(_join_header(header, body))
    with pytest.raises(ArchiveError, match="corrupt archive header"):
        load_model(path)


def test_missing_checksum_rejected(fitted, tmp_path):
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    header, body = _split_header(path.read_bytes())
    del header["checksum"]
    path.write_bytes(_join_header(header, body))
    with pytest.raises(ArchiveError, match="checksum"):
        load_model(path)


def test_downgraded_and_edited_archive_rejected(fitted, tmp_path):
    # version 1 had no checksum; reading it let an edited file through by
    # also editing the version and dropping the checksum
    path = tmp_path / "model.ssm"
    save_model(path, fitted)
    header, body = _split_header(path.read_bytes())
    body = bytearray(body)
    body[-3] ^= 0x10  # inside the coefficients payload
    del header["checksum"]
    header["format_version"] = 1
    path.write_bytes(_join_header(header, bytes(body)))
    with pytest.raises(ArchiveError, match="format version 1 is not supported"):
        load_model(path)


def test_lanczos_fitted_model_round_trip_is_bit_exact(tmp_path):
    # large enough that the default solver runs ARPACK, not LAPACK
    data = gen_spiral(LANCZOS_MIN_N + 100, noise_sd=0.1, seed=9)
    model = fit(data.features, data.responses, KernelSpec.gaussian(0.5), j_max=30, J=25)
    assert model.basis.method == EigenMethod("lanczos")
    path = tmp_path / "model.ssm"
    save_model(path, model)
    loaded, _ = load_model(path)
    assert _same_model(loaded, model)
    queries = gen_spiral(200, noise_sd=0.1, seed=10).features
    assert np.array_equal(predict(loaded, queries), predict(model, queries))


@pytest.mark.parametrize("version", [FORMAT_VERSION])
def test_full_solver_archive_still_read(tmp_path, version):
    # archives written before "lanczos" became the default name "full"
    data = gen_spiral(60, noise_sd=0.1, seed=5)
    model = fit(data.features, data.responses, KernelSpec.gaussian(1.0), j_max=8,
                J=6, method=EigenMethod("full"))
    path = tmp_path / "model.ssm"
    save_model(path, model)
    header, _ = _split_header(path.read_bytes())
    assert header["method"]["name"] == "full"
    assert header["format_version"] == version
    loaded, _ = load_model(path)
    assert loaded.basis.method == EigenMethod("full")
    assert _same_model(loaded, model)


def _same_model(a, b):
    arrays = ("training_points", "eigenvalues", "eigenvectors", "stationary", "degrees")
    return (all(np.array_equal(getattr(a.basis, f), getattr(b.basis, f)) for f in arrays)
            and np.array_equal(a.coefficients, b.coefficients)
            and (a.J, a.ssl, a.basis.kernel, a.basis.mode, a.basis.method)
            == (b.J, b.ssl, b.basis.kernel, b.basis.mode, b.basis.method))


@pytest.fixture(scope="module")
def archived(tmp_path_factory):
    """A standardized model's archive bytes, the model, and a scratch path."""
    data = gen_spiral(40, noise_sd=0.1, seed=8)
    model = fit(data.features, data.responses, KernelSpec.gaussian(1.0),
                j_max=6, mode=Mode.STOCHASTIC, J=4)
    _, std = standardize(Dataset(data.features, None, None))
    path = tmp_path_factory.mktemp("fuzz") / "model.ssm"
    save_model(path, model, Preprocessing(standardizer=std))
    return path.read_bytes(), model, std, path


def _truncated(raw):
    return st.integers(0, len(raw) - 1).map(lambda k: raw[:k])


def _bit_flipped(raw):
    def flip(bit):
        out = bytearray(raw)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    return st.integers(0, 8 * len(raw) - 1).map(flip)


def _shape_edited(raw):
    # rewrite one block's (rows, cols) prefix, leaving its payload in place
    header, _ = _split_header(raw)
    offsets, pos = [], 8 + struct.unpack_from("<Q", raw)[0]
    for _ in header["blocks"]:
        offsets.append(pos)
        rows, cols = struct.unpack_from("<QQ", raw, pos)
        pos += 16 + 8 * rows * cols

    def edit(args):
        where, rows, cols = args
        out = bytearray(raw)
        struct.pack_into("<QQ", out, offsets[where], rows, cols)
        return bytes(out)
    return st.tuples(st.integers(0, len(offsets) - 1), st.integers(0, 200),
                     st.integers(0, 200)).map(edit)


@pytest.mark.parametrize("corrupt", [_truncated, _bit_flipped, _shape_edited],
                         ids=["truncated", "bit-flipped", "shape-edited"])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_archive_is_rejected_or_bit_exact(archived, corrupt, data):
    raw, model, std, path = archived
    path.write_bytes(data.draw(corrupt(raw)))
    try:
        loaded, prep = load_model(path)
    except ArchiveError:
        return
    assert _same_model(loaded, model)
    assert not prep.unit_norm
    assert np.array_equal(prep.standardizer.means, std.means)
    assert np.array_equal(prep.standardizer.sds, std.sds)
    assert np.array_equal(prep.standardizer.constant, std.constant)


def _fixed_model(kernel, mode):
    """A SeriesModel from fixed arrays, with no fit, so no BLAS thread count enters."""
    n, d, k = 5, 3, 4
    basis = EigenBasis(
        kernel=kernel,
        training_points=np.arange(n * d, dtype=float).reshape(n, d) / 7.0 - 1.0,
        eigenvalues=1.0 / np.arange(1.0, k + 1.0),
        eigenvectors=np.arange(n * k, dtype=float).reshape(n, k) / 3.0 - 2.5,
        stationary=np.arange(1.0, n + 1.0) / 3.0,
        degrees=np.arange(2.0, n + 2.0) / 11.0,
        mode=mode,
        method=EigenMethod("randomized", oversample=7, power_iters=3, seed=11),
    )
    return SeriesModel(basis, np.array([0.75, -1.0 / 3.0, 1e-300, 2.5e10]), 2, ssl=True)


# SHA-256 of the archive file; a layout change, a reordered header key or a
# new field moves them
PINNED_ARCHIVES = {
    "plain": (lambda: _fixed_model(KernelSpec.gaussian(0.37), Mode.BIAS_CORRECTED), None,
              "8a264606bdf39b2c8e9aadd1bc0a8721349eccdcadc2090dd281b241211f5ee5"),
    "standardized-unit-norm": (
        lambda: _fixed_model(KernelSpec.polynomial(3), Mode.SYMMETRIC),
        Preprocessing(Standardizer(np.array([0.5, -1.25, 2.0]), np.array([1.5, 0.0, 0.25]),
                                   np.array([False, True, False])), unit_norm=True),
        "68823d955d6a22da2aca6c8e5a0e9b56ac87d621c72dfd0aefcd772bca4d30be"),
}


@pytest.mark.parametrize("case", list(PINNED_ARCHIVES))
def test_archive_bytes_are_pinned(case, tmp_path):
    build, prep, digest = PINNED_ARCHIVES[case]
    model, path = build(), tmp_path / "model.ssm"
    save_model(path, model, prep)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    loaded, _ = load_model(path)
    assert _same_model(loaded, model)
