"""End-to-end command-line behavior: artifacts, exit codes, reproducibility."""

import functools
import importlib
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
from spectral_series import EigenMethod, benchmarks, load_csv, load_model, predict
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

    def test_missing_response_column_exits_2(self, tmp_path, spiral_csv, capsys):
        code, _, err = run(capsys, "tune", "--data", spiral_csv,
                           "--response", "target", "--seed", 0,
                           "--out", tmp_path / "r")
        assert code == 2
        assert "target" in err

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
                         "--oversample", 4, "--seed", 7, "--out", tmp_path / "b")
        assert code == 0
        assert calls == [{"method": EigenMethod("full", 4, 2, 7)}]

    def test_every_flag_reaches_some_suite(self, tmp_path, capsys, calls):
        with pytest.raises(SystemExit):
            main(["benchmark", "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        flags -= {"--help", "--suite", "--out"}
        assert len(flags) == 12
        values = {"--method": "full", "--dims": "3", "--ns": "3"}
        for flag in sorted(flags):
            codes = [run(capsys, "benchmark", "--suite", suite, flag,
                         values.get(flag, "1"), "--out", tmp_path / "b")[0]
                     for suite in benchmarks.SUITES]
            assert 0 in codes, f"{flag} is taken by no suite"


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
