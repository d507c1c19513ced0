"""End-to-end command-line behavior: artifacts, exit codes, reproducibility."""

import argparse
import dataclasses
import enum
import functools
import importlib
import inspect
import itertools
import json
import re
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectral_series
from spectral_series import EigenMethod, archive, benchmarks, load_csv, load_model, predict
from spectral_series import cli
from spectral_series.cli import build_parser, main


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def spiral_csv(tmp_path, capsys):
    path = tmp_path / "spiral.csv"
    code, _, _ = run(capsys, "gen", "spiral", "--n", 120, "--noise-sd", 0.1,
                     "--seed", 3, "--out", path)
    assert code == 0
    return path


class TestGen:
    def test_circle_shape_and_seed_comment(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run(capsys, "gen", "circle", "--n", 100, "--d", 10,
                         "--seed", 1, "--out", out)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# seed=1"
        assert len(lines) == 102  # comment + header + 100 rows
        assert len(lines[1].split(",")) == 11  # 10 features + response

    def test_deterministic_given_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen", "spiral", "--n", 50, "--seed", 9, "--out", a)
        run(capsys, "gen", "spiral", "--n", 50, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_drawn_seed_is_echoed(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen", "uniform", "--n", 10,
                           "--out", tmp_path / "u.csv")
        assert code == 0
        assert "pass --seed" in out

    def test_floats_round_trip_exactly(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        run(capsys, "gen", "spiral", "--n", 40, "--seed", 2, "--out", out)
        from spectral_series import gen_spiral
        direct = gen_spiral(40, noise_sd=0.1, seed=2)
        reloaded = load_csv(out, response_column="y")
        assert np.array_equal(reloaded.features, direct.features)
        assert np.array_equal(reloaded.responses, direct.responses)

    def test_unwritable_output_exits_4_and_leaves_no_temp_file(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.mkdir()  # the rename onto a directory fails
        code, _, err = run(capsys, "gen", "spiral", "--n", 10, "--seed", 1, "--out", out)
        assert code == 4
        assert "taken" in err
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]


class TestTune:
    def test_writes_three_artifacts(self, tmp_path, spiral_csv, capsys):
        prefix = tmp_path / "run"
        code, out, _ = run(capsys, "tune", "--data", spiral_csv, "--seed", 0,
                           "--jmax", 10, "--grid-size", 3, "--out", prefix)
        assert code == 0
        assert (tmp_path / "run.model").exists()
        assert (tmp_path / "run_loss_surface.csv").exists()
        assert (tmp_path / "run_summary.txt").exists()
        summary = (tmp_path / "run_summary.txt").read_text()
        assert "chosen kernel" in summary and "test loss" in summary
        surface = (tmp_path / "run_loss_surface.csv").read_text().splitlines()
        assert surface[0] == "kernel,param,J,loss"
        assert len(surface) == 1 + 3 * 11

    def test_summary_names_grid_edges(self, tmp_path, spiral_csv, capsys):
        # j_max=1 leaves the truncation no room: the choice sits on the cap
        prefix = tmp_path / "run"
        code, out, _ = run(capsys, "tune", "--data", spiral_csv, "--seed", 0,
                           "--jmax", 1, "--bandwidth", "0.5", "--out", prefix)
        assert code == 0
        assert "grid edge: J at the cap (1)\n" in out
        assert "grid edge: J at the cap (1)\n" in (tmp_path / "run_summary.txt").read_text()

    def test_missing_response_column_exits_2(self, tmp_path, spiral_csv, capsys):
        # load_csv refuses the column by name before anything is fitted or written
        code, _, err = run(capsys, "tune", "--data", spiral_csv,
                           "--response", "zzz", "--seed", 0,
                           "--out", tmp_path / "r")
        assert code == 2
        assert "response column 'zzz' not found" in err
        assert sorted(tmp_path.iterdir()) == [spiral_csv]

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        code, _, err = run(capsys, "tune", "--data", tmp_path / "absent.csv",
                           "--seed", 0, "--out", tmp_path / "r")
        assert code == 2
        assert "absent.csv" in err

    def test_randomized_solver_reproducible(self, tmp_path, spiral_csv, capsys):
        for name in ("p1", "p2"):
            code, _, _ = run(capsys, "tune", "--data", spiral_csv,
                             "--method", "randomized", "--seed", 11,
                             "--jmax", 8, "--grid-size", 2,
                             "--out", tmp_path / name)
            assert code == 0
        assert ((tmp_path / "p1_loss_surface.csv").read_bytes()
                == (tmp_path / "p2_loss_surface.csv").read_bytes())


class TestPredict:
    def test_round_trip_matches_library(self, tmp_path, spiral_csv, capsys):
        prefix = tmp_path / "m"
        run(capsys, "tune", "--data", spiral_csv, "--seed", 0, "--jmax", 10,
            "--grid-size", 3, "--out", prefix)
        out = tmp_path / "preds.csv"
        code, _, _ = run(capsys, "predict", "--model", tmp_path / "m.model",
                         "--data", spiral_csv, "--out", out)
        assert code == 0
        model, prep = load_model(tmp_path / "m.model")
        queries = load_csv(spiral_csv, response_column="y")
        expected = predict(model, prep.apply(queries.features))
        written = load_csv(out).features.ravel()
        assert np.array_equal(written, expected)  # 17-digit decimals round-trip

    def test_empty_query_file_succeeds(self, tmp_path, spiral_csv, capsys):
        run(capsys, "tune", "--data", spiral_csv, "--seed", 0, "--jmax", 6,
            "--grid-size", 2, "--out", tmp_path / "m")
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2\n")
        out = tmp_path / "preds.csv"
        code, msg, _ = run(capsys, "predict", "--model", tmp_path / "m.model",
                           "--data", empty, "--out", out)
        assert code == 0
        assert "0 predictions" in msg
        assert out.read_text().strip() == "prediction"

    def test_non_finite_query_exits_2(self, tmp_path, spiral_csv, capsys):
        run(capsys, "tune", "--data", spiral_csv, "--seed", 0, "--jmax", 6,
            "--grid-size", 2, "--out", tmp_path / "m")
        queries = tmp_path / "bad.csv"
        queries.write_text("x1,x2\nnan,0\ninf,1\n")
        out = tmp_path / "preds.csv"
        code, _, err = run(capsys, "predict", "--model", tmp_path / "m.model",
                           "--data", queries, "--out", out)
        assert code == 2
        assert "NaN or Inf" in err
        assert not out.exists()

    @pytest.mark.parametrize("header, row", [("x1", "0"), ("x1,x2,x3", "0,1,2")])
    def test_query_column_mismatch_exits_2(self, tmp_path, spiral_csv, capsys,
                                           header, row):
        run(capsys, "tune", "--data", spiral_csv, "--seed", 0, "--jmax", 6,
            "--grid-size", 2, "--out", tmp_path / "m")
        queries = tmp_path / "wide.csv"
        queries.write_text(f"{header}\n{row}\n")
        out = tmp_path / "preds.csv"
        code, _, err = run(capsys, "predict", "--model", tmp_path / "m.model",
                           "--data", queries, "--out", out)
        assert code == 2
        assert "does not match training dimension 2" in err
        assert not out.exists()

    def test_unsupported_archive_version_exits_4(self, tmp_path, spiral_csv, capsys):
        run(capsys, "tune", "--data", spiral_csv, "--seed", 0, "--jmax", 6,
            "--grid-size", 2, "--out", tmp_path / "m")
        path = tmp_path / "m.model"
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw)
        header = json.loads(raw[8:8 + hlen])
        header["format_version"] = 99
        blob = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + raw[8 + hlen:])
        code, _, err = run(capsys, "predict", "--model", path,
                           "--data", spiral_csv, "--out", tmp_path / "p.csv")
        assert code == 4
        assert "99" in err

    def test_nan_eigenvalue_in_checksummed_archive_exits_3(self, tmp_path, spiral_csv,
                                                           capsys):
        # an archive written with a NaN eigenvalue, under a valid checksum,
        # still loads; the extension floor must reject it rather than print
        # NaN predictions
        run(capsys, "tune", "--data", spiral_csv, "--seed", 0, "--jmax", 6,
            "--grid-size", 2, "--out", tmp_path / "m")
        path = tmp_path / "m.model"
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw)
        header = json.loads(raw[8:8 + hlen])
        body = bytearray(raw[8 + hlen:])
        pos = 0
        for name in header["blocks"]:
            if name == "eigenvalues":
                struct.pack_into("<d", body, pos + 16, float("nan"))  # lambda_0
                break
            rows, cols = struct.unpack_from("<QQ", body, pos)
            pos += 16 + 8 * rows * cols
        digest = archive._header_digest(header)
        digest.update(body)
        header["checksum"] = digest.hexdigest()
        blob = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(struct.pack("<Q", len(blob)) + blob + bytes(body))
        assert np.isnan(load_model(path)[0].basis.eigenvalues[0])
        out = tmp_path / "p.csv"
        code, _, err = run(capsys, "predict", "--model", path,
                           "--data", spiral_csv, "--out", out)
        assert code == 3
        assert "index 0" in err
        assert not out.exists()

    def test_inconsistent_archive_exits_4(self, tmp_path, spiral_csv, capsys):
        run(capsys, "tune", "--data", spiral_csv, "--seed", 0, "--jmax", 6,
            "--grid-size", 2, "--out", tmp_path / "m")
        path = tmp_path / "m.model"
        raw = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", raw)
        assert json.loads(raw[8:8 + hlen])["blocks"][0] == "training_points"
        # drop the last row of the first block, training_points
        pos = 8 + hlen
        rows, cols = struct.unpack_from("<QQ", raw, pos)
        end = pos + 16 + 8 * rows * cols
        path.write_bytes(raw[:pos] + struct.pack("<QQ", rows - 1, cols)
                         + raw[pos + 16:end - 8 * cols] + raw[end:])
        code, _, err = run(capsys, "predict", "--model", path,
                           "--data", spiral_csv, "--out", tmp_path / "p.csv")
        assert code == 4
        assert "training_points" in err


class TestEmbed:
    def test_fresh_basis_embedding(self, tmp_path, spiral_csv, capsys):
        out = tmp_path / "emb.csv"
        code, _, _ = run(capsys, "embed", "--data", spiral_csv, "--jdim", 2,
                         "--out", out)
        assert code == 0
        emb = load_csv(out)
        assert tuple(emb.column_names) == ("psi1", "psi2", "y")
        assert emb.n == 120

    def test_archived_basis_reused(self, tmp_path, spiral_csv, capsys):
        run(capsys, "tune", "--data", spiral_csv, "--seed", 0, "--jmax", 8,
            "--grid-size", 2, "--out", tmp_path / "m")
        out = tmp_path / "emb.csv"
        code, _, _ = run(capsys, "embed", "--data", spiral_csv,
                         "--model", tmp_path / "m.model", "--jdim", 3,
                         "--out", out)
        assert code == 0
        assert tuple(load_csv(out).column_names) == ("psi1", "psi2", "psi3", "y")

    def test_too_many_components_exits_3(self, tmp_path, spiral_csv, capsys):
        run(capsys, "tune", "--data", spiral_csv, "--seed", 0, "--jmax", 8,
            "--grid-size", 2, "--out", tmp_path / "m")
        code, _, err = run(capsys, "embed", "--data", spiral_csv,
                           "--model", tmp_path / "m.model", "--jdim", 25,
                           "--out", tmp_path / "e.csv")
        assert code == 3
        assert "J=25 exceeds the 8 available" in err

    def test_overflowing_poly_kernel_exits_3(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        rows = np.random.default_rng(0).normal(size=(30, 2)) * 1e110
        data.write_text("x1,x2\n" + "\n".join(f"{a:.17g},{b:.17g}" for a, b in rows) + "\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run(capsys, "embed", "--data", data, "--kernel", "poly",
                               "--degree", 3, "--mode", "uniform",
                               "--out", tmp_path / "e.csv")
        assert code == 3
        assert "NaN or Inf" in err


class TestVerify:
    def test_spiral_identity_passes_on_noiseless_data(self, tmp_path, capsys):
        path = tmp_path / "clean.csv"
        run(capsys, "gen", "spiral", "--n", 80, "--noise-sd", 0, "--seed", 4,
            "--out", path)
        code, out, _ = run(capsys, "verify", "spiral-identity", "--data", path)
        assert code == 0
        assert "PASS" in out

    def test_spiral_identity_fails_on_noisy_data(self, tmp_path, spiral_csv, capsys):
        code, out, _ = run(capsys, "verify", "spiral-identity",
                           "--data", spiral_csv)
        assert code == 3
        assert "FAIL" in out

    def test_embedding_tracks_spiral_parameter(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        run(capsys, "gen", "spiral", "--n", 300, "--noise-sd", 0.05,
            "--seed", 0, "--out", path)
        code, out, _ = run(capsys, "verify", "embedding", "--data", path)
        assert code == 0
        assert "PASS" in out


class TestBenchmark:
    def test_d_flag_only_on_gen(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["gen", "circle", "--n", "5", "--d", "7",
                                  "--out", "c.csv"]).d == 7
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["benchmark", "--suite", "circle-dims", "--d", "5"])
        assert exc.value.code == 2
        assert "--d" in capsys.readouterr().err

    def test_spiral_compare_smoke(self, tmp_path, capsys):
        prefix = tmp_path / "bench"
        code, _, _ = run(capsys, "benchmark", "--suite", "spiral-compare",
                         "--n", 48, "--seeds", 1, "--grid-size", 2,
                         "--jmax", 5, "--out", prefix)
        assert code == 0
        rows = (tmp_path / "bench_loss.csv").read_text().splitlines()
        assert rows[0] == "suite,estimator,sweep_value,seed,loss,se"
        estimators = {line.split(",")[1] for line in rows[1:]}
        assert estimators == {"series-radial", "series-poly", "series-poly1",
                              "krr-radial", "nw", "knn"}
        assert (tmp_path / "bench_time.csv").exists()

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Swap every suite for a recorder with the same signature."""
        recorded = []

        def recorder(suite):
            @functools.wraps(suite)
            def record(**kwargs):
                recorded.append(kwargs)
                return [], []
            return record

        monkeypatch.setattr("spectral_series.cli.SUITES", {
            name: recorder(fn) for name, fn in benchmarks.SUITES.items()})
        return recorded

    @pytest.mark.parametrize("suite, flag, value", [
        ("growing-n", "--method", "randomized"),
        ("growing-n", "--oversample", "5"),
        ("growing-n", "--n", "50"),
        ("spiral-compare", "--seed", "1"),
        ("circle-dims", "--ns", "3"),
    ])
    def test_flag_the_suite_does_not_take_exits_2(self, tmp_path, capsys, calls,
                                                  suite, flag, value):
        code, _, err = run(capsys, "benchmark", "--suite", suite, flag, value,
                           "--out", tmp_path / "b")
        assert code == 2
        assert flag in err
        assert calls == []

    def test_jmax_zero_reaches_suite(self, tmp_path, capsys, calls):
        code, _, _ = run(capsys, "benchmark", "--suite", "growing-n", "--jmax", 0,
                         "--ns", "30,60", "--out", tmp_path / "b")
        assert code == 0
        assert calls == [{"j_max": 0, "ns": (30, 60)}]

    def test_no_flags_means_suite_defaults(self, tmp_path, capsys, calls):
        code, _, _ = run(capsys, "benchmark", "--suite", "spiral-compare",
                         "--out", tmp_path / "b")
        assert code == 0
        assert calls == [{}]
        assert (tmp_path / "b_loss.csv").read_text().splitlines() == [
            ",".join(benchmarks.LOSS_FIELDS)]

    def test_solver_flags_fold_into_one_method(self, tmp_path, capsys, calls):
        code, _, _ = run(capsys, "benchmark", "--suite", "circle-dims",
                         "--method", "randomized", "--oversample", 4, "--seed", 7,
                         "--out", tmp_path / "b")
        assert code == 0
        assert calls == [{"method": EigenMethod("randomized", 4, 2, 7)}]

    def test_every_flag_reaches_some_suite(self, tmp_path, capsys, calls):
        with pytest.raises(SystemExit):
            main(["benchmark", "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        flags -= {"--help", "--suite", "--out"}
        assert len(flags) == 12
        values = {"--method": "full", "--dims": "3", "--ns": "3"}
        for flag in sorted(flags):
            # only the randomized solver reads these three
            method = (["--method", "randomized"]
                      if flag in ("--oversample", "--power-iters", "--seed") else [])
            codes = [run(capsys, "benchmark", "--suite", suite, *method, flag,
                         values.get(flag, "1"), "--out", tmp_path / "b")[0]
                     for suite in benchmarks.SUITES]
            assert 0 in codes, f"{flag} is taken by no suite"


def run_any(capsys, *argv):
    """run(), with argparse's own usage-error exit returned as a code too."""
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Two noisy and two noiseless spirals, a 3-column circle, and an archive
    tuned on each noisy spiral."""
    root = tmp_path_factory.mktemp("flags")
    paths = {"tmp": root}
    for name, noise_sd, seed in (("data", 0.1, 1), ("data2", 0.1, 2),
                                 ("clean", 0, 3), ("clean2", 0, 4)):
        paths[name] = root / f"{name}.csv"
        assert main(["gen", "spiral", "--n", "60", "--noise-sd", str(noise_sd),
                     "--seed", str(seed), "--out", str(paths[name])]) == 0
    paths["wide"] = root / "wide.csv"
    assert main(["gen", "circle", "--n", "30", "--d", "3", "--seed", "5",
                 "--out", str(paths["wide"])]) == 0
    for name, data in (("model", "data"), ("model2", "data2")):
        assert main(["tune", "--data", str(paths[data]), "--seed", "0", "--jmax", "6",
                     "--grid-size", "2", "--out", str(root / name)]) == 0
        paths[name] = root / f"{name}.model"
    return paths


# What each subcommand needs besides the flags under test.
_REQUIRED = {"gen": "--n 20 --seed 0 --out {out}",
             "tune": "--data {data} --seed 0 --out {out}",
             "embed": "--data {data} --out {out}",
             "verify": "--data {clean}",
             "benchmark": "--out {out}"}

# The 50 (variant, flag) pairs that the variant parsed and then ignored before
# each subcommand took only the flags it reads.
_UNREAD = [
    *[("gen spiral", f) for f in ("--d 3", "--noise-var 0.2", "--rotate", "--lo 0",
                                  "--hi 2")],
    *[("gen circle", f) for f in ("--noise-sd 0.2", "--u-max 5", "--lo 0", "--hi 2")],
    *[("gen uniform", f) for f in ("--noise-sd 0.2", "--u-max 5", "--d 3",
                                   "--noise-var 0.2", "--rotate")],
    ("tune", "--degree 2"),
    ("tune --bandwidth 1", "--degree 2"),
    ("tune --bandwidth 1", "--grid-size 3"),
    ("tune --kernel poly", "--bandwidth 1"),
    ("tune --kernel poly", "--grid-size 3"),
    ("tune --kernel poly", "--mode stochastic"),
    *[("embed --model {model}", f) for f in (
        "--jmax 5", "--kernel gaussian", "--degree 2", "--bandwidth 1", "--grid-size 3",
        "--mode symmetric", "--method randomized", "--oversample 3", "--power-iters 1",
        "--seed 1")],
    ("embed", "--degree 2"),
    ("embed", "--grid-size 3"),
    ("embed --kernel poly", "--bandwidth 1"),
    ("embed --kernel poly", "--grid-size 3"),
    ("embed --kernel poly", "--mode stochastic"),
    *[("verify spiral-identity", f) for f in (
        "--threshold 0.5", "--jdim 2", "--kernel poly", "--degree 2", "--bandwidth 1",
        "--grid-size 3", "--mode uniform", "--method full", "--oversample 3",
        "--power-iters 1", "--seed 1")],
    *[("verify embedding", f) for f in ("--tol 0.1", "--kernel poly", "--degree 2",
                                        "--grid-size 3")],
]

# Flags that only the randomized eigensolver reads, given with another method.
# tune keeps --seed, which also seeds its split.
_NOT_RANDOMIZED = [
    ("tune --method full", "--oversample 5"),
    ("tune", "--oversample 5"),
    ("tune --method lanczos", "--power-iters 1"),
    ("embed --method full", "--oversample 5"),
    ("embed", "--seed 1"),
    ("embed", "--power-iters 1"),
    ("verify embedding", "--seed 1"),
    ("verify embedding --method full", "--oversample 5"),
    ("benchmark --suite circle-dims", "--seed 1"),
    ("benchmark --suite circle-dims --method full", "--oversample 5"),
]

# Flags that take a comma list in tune, given a list where one kernel is fitted.
_ONE_VALUE = [
    ("embed", "--bandwidth 0.5,9"),
    ("embed --kernel poly", "--degree 2,3"),
    ("verify embedding", "--bandwidth 0.5,9"),
]

# Flag values and data that a command refuses once it reads them: the
# invocation, its exit code and the message it prints.
_REFUSED = [
    ("tune --data {data} --seed 0 --bandwidth 0.5,abc --out {out}", 2,
     "cannot parse float list '0.5,abc'"),
    ("tune --data {data} --seed 0 --kernel poly --degree 2.5 --out {out}", 2,
     "cannot parse integer list '2.5'"),
    ("tune --data {data} --seed 0 --split 0.5,0.5 --out {out}", 2,
     "--split needs three fractions"),
    ("verify spiral-identity --data {wide}", 2,
     "spiral identity check needs 2 feature columns"),
    ("verify embedding --data {data} --threshold 1.5", 3, "below threshold 1.5"),
]

# Accepted invocations, each deterministic, that the reach test varies.
_BASES = {
    "gen spiral": "gen spiral --n 30 --seed 0 --out {tmp}/g.csv",
    "gen circle": "gen circle --n 30 --seed 0 --out {tmp}/g.csv",
    "gen uniform": "gen uniform --n 30 --seed 0 --out {tmp}/g.csv",
    "tune": "tune --data {data} --seed 0 --jmax 4 --out {tmp}/t",
    "tune poly": "tune --data {data} --seed 0 --jmax 4 --kernel poly --out {tmp}/t",
    "tune randomized": "tune --data {data} --seed 0 --jmax 4 --method randomized "
                       "--out {tmp}/t",
    "predict": "predict --model {model} --data {data} --out {tmp}/p.csv",
    "embed": "embed --data {data} --out {tmp}/e.csv",
    "embed randomized": "embed --data {data} --method randomized --seed 0 "
                        "--out {tmp}/e.csv",
    "embed poly": "embed --data {data} --kernel poly --out {tmp}/e.csv",
    "embed --model": "embed --data {data} --model {model} --out {tmp}/e.csv",
    "benchmark circle-dims": "benchmark --suite circle-dims --out {tmp}/b",
    "benchmark randomized": "benchmark --suite circle-dims --method randomized "
                            "--out {tmp}/b",
    "benchmark growing-n": "benchmark --suite growing-n --out {tmp}/b",
    "verify spiral-identity": "verify spiral-identity --data {clean}",
    "verify embedding": "verify embedding --data {data} --threshold 0",
    "verify randomized": "verify embedding --data {data} --method randomized "
                         "--seed 0 --threshold 0",
}

# For each base, the flags set on it and the value each is set to (None for
# a switch). Together they cover every flag that every parser declares.
# the randomized solver's flags are probed on a base that chose it
_RANDOMIZED_PROBES = {"--oversample": "3", "--power-iters": "1", "--seed": "1"}
_GEN_PROBES = {"--n": "31", "--seed": "1", "--out": "{tmp}/g2.csv"}
_PROBES = {
    "gen spiral": {**_GEN_PROBES, "--noise-sd": "0.2", "--u-max": "10"},
    "gen circle": {**_GEN_PROBES, "--d": "3", "--noise-var": "0.1", "--rotate": None},
    "gen uniform": {**_GEN_PROBES, "--lo": "-1", "--hi": "2"},
    "tune": {"--data": "{data2}", "--response": "x2", "--split": "0.6,0.2,0.2",
             "--jmax": "3", "--unlabeled": "{clean}", "--standardize": None,
             "--unit-norm": None, "--kernel": "poly", "--bandwidth": "1.0",
             "--grid-size": "2", "--mode": "symmetric", "--method": "randomized",
             "--seed": "1", "--out": "{tmp}/t2"},
    "tune poly": {"--degree": "2"},
    "tune randomized": _RANDOMIZED_PROBES,
    "predict": {"--model": "{model2}", "--data": "{data2}", "--out": "{tmp}/p2.csv"},
    "embed": {"--data": "{data2}", "--jdim": "3", "--jmax": "5", "--kernel": "poly",
              "--bandwidth": "1.0", "--mode": "symmetric", "--method": "full",
              "--out": "{tmp}/e2.csv"},
    "embed randomized": _RANDOMIZED_PROBES,
    "embed poly": {"--degree": "3"},
    "embed --model": {"--model": "{model2}"},
    "benchmark circle-dims": {"--suite": "spiral-compare", "--n": "50", "--dims": "3",
                              "--seeds": "2", "--noise-var": "0.1", "--grid-size": "2",
                              "--jmax": "3", "--method": "full", "--out": "{tmp}/b2"},
    "benchmark randomized": _RANDOMIZED_PROBES,
    "benchmark growing-n": {"--ns": "30", "--noise-sd": "0.2"},
    "verify spiral-identity": {"--data": "{clean2}", "--tol": "0.001"},
    "verify embedding": {"--data": "{data2}", "--threshold": "0.001", "--jdim": "2",
                         "--bandwidth": "1.0", "--mode": "symmetric",
                         "--method": "full"},
    "verify randomized": _RANDOMIZED_PROBES,
}


def _declared_flags(parser, path=()):
    """(parser path, flag) for every option each parser and sub-parser declares."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _declared_flags(child, path + (name,))
        for flag in action.option_strings:
            if flag.startswith("--") and flag != "--help":
                yield " ".join(path), flag


def _fingerprint(obj):
    """A comparable rendering of a call argument: arrays by their bytes."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__, *(_fingerprint(getattr(obj, f.name))
                                      for f in dataclasses.fields(obj)))
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return tuple(_fingerprint(v) for v in obj)
    if isinstance(obj, dict):
        return tuple((k, _fingerprint(v)) for k, v in obj.items())
    if callable(obj):
        return "callable"
    return repr(obj)


def _with_flag(argv, flag, value):
    """argv with flag set to value: replaced where present, else appended."""
    if flag in argv:
        i = argv.index(flag)
        return argv[:i + 1] + [value] + argv[i + 2:]
    return argv + [flag] + ([] if value is None else [value])


class TestFlagRule:
    @pytest.mark.parametrize("variant, flag", _UNREAD,
                             ids=[f"{v}|{f.split()[0]}" for v, f in _UNREAD])
    def test_flag_the_variant_does_not_read_exits_2(self, tmp_path, capsys, files,
                                                    variant, flag):
        command = variant.split()[0]
        argv = " ".join([variant, _REQUIRED[command], flag]).format(
            **files, out=tmp_path / "out").split()
        code, _, err = run_any(capsys, *argv)
        assert code == 2
        assert flag.split()[0] in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("variant, flag", _NOT_RANDOMIZED,
                             ids=[f"{v}|{f.split()[0]}" for v, f in _NOT_RANDOMIZED])
    def test_randomized_solver_flag_with_another_method_exits_2(
            self, tmp_path, capsys, files, variant, flag):
        command = variant.split()[0]
        argv = " ".join([variant, _REQUIRED[command], flag]).format(
            **files, out=tmp_path / "out").split()
        code, _, err = run_any(capsys, *argv)
        assert code == 2
        assert f"{flag.split()[0]} is not read with --method" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("variant, flag", _ONE_VALUE,
                             ids=[f"{v}|{f.split()[0]}" for v, f in _ONE_VALUE])
    def test_comma_list_where_one_value_is_read_exits_2(self, tmp_path, capsys, files,
                                                        variant, flag):
        command = variant.split()[0]
        argv = " ".join([variant, _REQUIRED[command], flag]).format(
            **files, out=tmp_path / "out").split()
        code, _, err = run_any(capsys, *argv)
        assert code == 2
        assert f"{flag.split()[0]} takes one value" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, flag", [
        ("embed --data {missing} --method full --oversample 3 --out {out}", "--oversample"),
        ("verify embedding --data {missing} --seed 1", "--seed"),
    ], ids=["embed", "verify embedding"])
    def test_flag_fault_is_reported_before_any_file_is_read(self, tmp_path, capsys,
                                                            argv, flag):
        # both used to report the missing data file instead
        argv = argv.format(missing=tmp_path / "missing.csv", out=tmp_path / "out").split()
        code, _, err = run_any(capsys, *argv)
        assert code == 2
        assert f"{flag} is not read with --method" in err

    @pytest.mark.parametrize("argv, message", [
        ("tune --data {missing} --bandwidth abc --out {out}",
         "--bandwidth: cannot parse float list 'abc'"),
        ("tune --data {missing} --kernel poly --degree 2.5 --out {out}",
         "--degree: cannot parse integer list '2.5'"),
        ("tune --data {missing} --split 0.5,x,0.25 --out {out}",
         "--split: cannot parse float list '0.5,x,0.25'"),
        ("tune --data {missing} --split 0.5,0.5 --out {out}", "--split needs three fractions"),
        ("embed --data {missing} --method randomized --bandwidth 0.5,9 --out {out}",
         "--bandwidth takes one value"),
        ("embed --data {missing} --kernel poly --degree two --out {out}",
         "--degree: cannot parse integer list 'two'"),
        ("verify embedding --data {missing} --method randomized --bandwidth abc",
         "--bandwidth: cannot parse float list 'abc'"),
    ], ids=["tune-bandwidth", "tune-degree", "tune-split-value", "tune-split-count",
            "embed-one-value", "embed-degree", "verify-embedding-bandwidth"])
    def test_list_value_is_refused_before_a_file_is_read_or_a_seed_drawn(
            self, tmp_path, capsys, argv, message):
        # each used to draw and print a seed, then report the missing data file
        argv = argv.format(missing=tmp_path / "missing.csv", out=tmp_path / "out").split()
        code, out, err = run_any(capsys, *argv)
        assert code == 2
        assert message in err
        assert "seed:" not in out

    @pytest.mark.parametrize("argv, code, message", _REFUSED,
                             ids=[m for _, _, m in _REFUSED])
    def test_refused_value_exits_with_its_code(self, tmp_path, capsys, files,
                                               argv, code, message):
        argv = argv.format(**files, out=tmp_path / "out").split()
        got, _, err = run_any(capsys, *argv)
        assert got == code
        assert message in err
        assert not any(tmp_path.iterdir())

    @pytest.fixture()
    def trace(self, monkeypatch):
        """Record every library call the CLI makes and every CSV it writes.

        The experiment suites are stubbed, as they take minutes.
        """
        calls = []

        def recorder(name, fn, stub=False):
            @functools.wraps(fn)
            def record(*args, **kwargs):
                calls.append((name, _fingerprint(args), _fingerprint(kwargs)))
                return ([], []) if stub else fn(*args, **kwargs)
            return record

        for name, obj in list(vars(cli).items()):
            if (inspect.isfunction(obj) and obj.__module__ != cli.__name__
                    and obj.__module__.startswith("spectral_series.")):
                monkeypatch.setattr(cli, name, recorder(name, obj))
        monkeypatch.setattr(cli, "_write_csv", recorder("_write_csv", cli._write_csv))
        monkeypatch.setattr(cli, "GENERATORS", {
            kind: recorder(kind, fn) for kind, fn in cli.GENERATORS.items()})
        monkeypatch.setattr(cli, "SUITES", {
            name: recorder(name, fn, stub=True) for name, fn in benchmarks.SUITES.items()})
        return calls

    def test_every_flag_reaches_a_library_call_or_the_output(self, capsys, files, trace):
        def observe(argv):
            trace.clear()
            code, out, err = run_any(capsys, *argv)
            assert code == 0, f"{' '.join(argv)} exited {code}: {err}"
            # wall-clock stage timings differ between any two runs
            return list(trace), [line for line in out.splitlines()
                                 if not line.startswith("stage seconds:")]

        probed = set()
        for base, probes in _PROBES.items():
            argv = _BASES[base].format(**files).split()
            parser_path = " ".join(
                itertools.takewhile(lambda t: not t.startswith("-"), argv))
            reference = observe(argv)
            assert observe(argv) == reference, f"{base!r} is not deterministic"
            for flag, value in probes.items():
                probed.add((parser_path, flag))
                changed = _with_flag(argv, flag, value and value.format(**files))
                assert observe(changed) != reference, (
                    f"{flag} on {base!r} reaches no library call or output")
        assert probed == set(_declared_flags(build_parser()))

    def test_gen_left_out_flags_keep_the_generator_defaults(self, tmp_path, capsys):
        for kind, generator in cli.GENERATORS.items():
            out = tmp_path / f"{kind}.csv"
            assert run(capsys, "gen", kind, "--n", 30, "--seed", 5, "--out", out)[0] == 0
            data = generator(30, seed=5)
            expected = (data.features if data.responses is None
                        else np.column_stack([data.features, data.responses]))
            assert np.array_equal(load_csv(out).features, expected)

    def test_repeated_tune_degree_exits_2(self, tmp_path, capsys, files):
        code, _, err = run(capsys, "tune", "--data", files["data"], "--seed", 0,
                           "--kernel", "poly", "--degree", "3,3",
                           "--out", tmp_path / "t")
        assert code == 2
        assert "degree candidates must not repeat" in err

    def test_only_a_randomized_fresh_embedding_draws_a_seed(self, tmp_path, capsys, files):
        out = tmp_path / "e.csv"
        _, printed, _ = run(capsys, "embed", "--data", files["data"],
                            "--method", "randomized", "--out", out)
        assert "pass --seed" in printed
        for extra in ([], ["--model", files["model"]]):
            code, printed, _ = run(capsys, "embed", "--data", files["data"], *extra,
                                   "--out", out)
            assert code == 0
            assert "seed" not in printed


class TestLoadTable:
    @pytest.mark.parametrize("text", ["x1,x2,y\n1,2,3\n4,5,6\n",
                                      "y,x1\n3,1\n6,4\n",
                                      "x1,x2\n1,2\n4,5\n"])
    def test_parses_the_csv_once(self, tmp_path, monkeypatch, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        parses = []

        def counting_load_csv(*args, **kwargs):
            parses.append(args)
            return load_csv(*args, **kwargs)

        monkeypatch.setattr(cli, "load_csv", counting_load_csv)
        table = cli._load_table(path)
        assert len(parses) == 1
        expected = load_csv(path, response_column="y" if "y" in text else None)
        assert table.column_names == expected.column_names
        assert np.array_equal(table.features, expected.features)
        assert (table.responses is None) == (expected.responses is None)
        if expected.responses is not None:
            assert np.array_equal(table.responses, expected.responses)


@pytest.mark.skipif(shutil.which("spectral-series") is None,
                    reason="spectral-series executable not on PATH (package not installed)")
def test_console_script_installed():
    proc = subprocess.run(["spectral-series", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "benchmark" in proc.stdout


def test_console_script_entry_point():
    # what the installed script would run, checked without installing
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["spectral-series"]
    assert target == "spectral_series.cli:main"
    module, attr = target.split(":")
    assert getattr(importlib.import_module(module), attr) is main

    package_parent = str(Path(spectral_series.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "spectral_series.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "benchmark" in proc.stdout
