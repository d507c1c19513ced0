"""Loading, preprocessing, splitting, and the synthetic generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from spectral_series import (
    Dataset,
    InputError,
    SplitSpec,
    gen_circle,
    gen_spiral,
    gen_uniform_interval,
    load_csv,
    split,
    standardize,
    unit_normalize_rows,
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestDataset:
    def test_basic_shape(self):
        d = Dataset(np.zeros((3, 2)), None, None)
        assert d.n == 3 and d.d == 2 and d.responses is None

    def test_nonfinite_rejected(self):
        with pytest.raises(InputError):
            Dataset(np.array([[1.0, np.nan]]), None, None)
        with pytest.raises(InputError):
            Dataset(np.ones((2, 1)), np.array([1.0, np.inf]), None)

    def test_response_length_must_match(self):
        with pytest.raises(InputError):
            Dataset(np.ones((3, 1)), np.ones(2), None)

    def test_take_subset(self):
        d = Dataset(np.arange(6.0).reshape(3, 2), np.arange(3.0), ["a", "b"])
        sub = d.take(np.array([2, 0]))
        assert np.array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(sub.responses, [2.0, 0.0])


class TestLoadCsv:
    def test_no_response(self, tmp_path):
        p = write(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        d = load_csv(p)
        assert d.n == 3 and d.d == 2 and d.responses is None

    def test_response_by_name(self, tmp_path):
        p = write(tmp_path, "x1,x2,y\n1,2,9\n3,4,8\n")
        d = load_csv(p, response_column="y")
        assert d.d == 2
        assert np.array_equal(d.responses, [9.0, 8.0])
        assert d.column_names == ["x1", "x2"]

    def test_response_by_index(self, tmp_path):
        p = write(tmp_path, "1,2,9\n3,4,8\n", name="raw.csv")
        d = load_csv(p, has_header=False, response_column=2)
        assert d.d == 2 and np.array_equal(d.responses, [9.0, 8.0])

    def test_response_index_out_of_range(self, tmp_path):
        p = write(tmp_path, "1,2,9\n3,4,8\n", name="raw.csv")
        with pytest.raises(InputError, match=r"response column index 3 out of range \(0\.\.2\)"):
            load_csv(p, has_header=False, response_column=3)

    def test_comment_lines_skipped(self, tmp_path):
        p = write(tmp_path, "# seed=3\nx1,y\n1,2\n")
        d = load_csv(p, response_column="y")
        assert d.n == 1

    def test_ragged_row_names_line(self, tmp_path):
        p = write(tmp_path, "x1,x2\n1,2\n3\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(p)

    def test_non_numeric_cell(self, tmp_path):
        p = write(tmp_path, "x1\n1\nfoo\n")
        with pytest.raises(InputError, match="line 3"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "x1,x2\n")
        with pytest.raises(InputError, match="no data rows"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_csv(tmp_path / "nope.csv")


class TestStandardize:
    def test_two_point_column(self):
        # column (1, 3): mean 2, sd (n-1 convention) sqrt(2)
        d = Dataset(np.array([[1.0], [3.0]]), None, None)
        out, std = standardize(d)
        assert np.allclose(out.features.ravel(), [-0.7071067811865475, 0.7071067811865475])
        assert np.allclose(std.means, [2.0]) and np.allclose(std.sds, [np.sqrt(2.0)])

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(40, 3)), None, None)
        once, _ = standardize(d)
        twice, _ = standardize(once)
        assert np.allclose(once.features, twice.features, atol=1e-10)

    def test_constant_column_flagged_and_zeroed(self):
        d = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), None, None)
        out, std = standardize(d)
        assert std.constant[0] and not std.constant[1]
        assert np.all(out.features[:, 0] == 0.0)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 4)) * 3.0 + 5.0
        out, std = standardize(Dataset(X, None, None))
        assert np.allclose(std.inverse(out.features), X, atol=1e-10)

    def test_needs_two_rows(self):
        with pytest.raises(InputError):
            standardize(Dataset(np.ones((1, 2)), None, None))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_columns_centered_and_scaled(self, seed):
        X = np.random.default_rng(seed).normal(size=(12, 3))
        out, _ = standardize(Dataset(X, None, None))
        assert np.allclose(out.features.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(out.features.std(axis=0, ddof=1), 1.0, atol=1e-10)


class TestUnitNormalize:
    def test_three_four_five(self):
        d = Dataset(np.array([[3.0, 4.0]]), None, None)
        assert np.allclose(unit_normalize_rows(d).features, [[0.6, 0.8]])

    def test_unit_row_unchanged(self):
        d = Dataset(np.array([[1.0, 0.0]]), None, None)
        assert np.allclose(unit_normalize_rows(d).features, [[1.0, 0.0]])

    def test_zero_row_rejected(self):
        d = Dataset(np.array([[0.0, 0.0]]), None, None)
        with pytest.raises(InputError, match="row 0"):
            unit_normalize_rows(d)


class TestSplit:
    def test_remainder_goes_to_train(self):
        # n=11 at (0.5, 0.25, 0.25): floors (5,2,2), remainder 2 -> (7,2,2)
        d = Dataset(np.arange(11.0)[:, None], None, None)
        tr, va, te = split(d, SplitSpec())
        assert (tr.n, va.n, te.n) == (7, 2, 2)

    def test_deterministic_and_disjoint(self):
        d = Dataset(np.arange(10.0)[:, None], np.arange(10.0), None)
        a = split(d, SplitSpec(seed=5))
        b = split(d, SplitSpec(seed=5))
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
        seen = np.concatenate([part.features.ravel() for part in a])
        assert sorted(seen) == list(np.arange(10.0))

    def test_bad_fractions(self):
        with pytest.raises(InputError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(InputError):
            SplitSpec(1.0, 0.0, 0.0)
        with pytest.raises(InputError):
            SplitSpec(seed=-1)

    def test_empty_block_rejected_clearly(self):
        d = Dataset(np.arange(3.0)[:, None], None, None)
        with pytest.raises(InputError, match="empty block"):
            split(d, SplitSpec())

    @given(st.integers(4, 60), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_partition_covers_everything(self, n, seed):
        d = Dataset(np.arange(float(n))[:, None], None, None)
        tr, va, te = split(d, SplitSpec(seed=seed))
        parts = np.concatenate([tr.features, va.features, te.features]).ravel()
        assert sorted(parts) == list(np.arange(float(n)))
        assert tr.n >= va.n and tr.n >= te.n


class TestGenerators:
    def test_spiral_identity_noiseless(self):
        data = gen_spiral(1000, noise_sd=0.0, seed=3)
        t = data.responses
        assert np.allclose(data.features[:, 0], t * np.cos(t), atol=1e-12)
        assert np.allclose(data.features[:, 1], t * np.sin(t), atol=1e-12)
        # radius identity: x^2 + y^2 = u = t^2
        r2 = (data.features ** 2).sum(axis=1)
        assert np.max(np.abs(r2 - t ** 2)) <= 1e-10

    def test_spiral_angle_matches_response(self):
        data = gen_spiral(500, noise_sd=0.0, seed=1)
        ang = np.arctan2(data.features[:, 1], data.features[:, 0])
        diff = (ang - data.responses) % (2.0 * np.pi)
        diff = np.minimum(diff, 2.0 * np.pi - diff)
        assert np.max(diff) <= 1e-10

    def test_spiral_deterministic(self):
        a = gen_spiral(50, seed=7)
        b = gen_spiral(50, seed=7)
        assert np.array_equal(a.features, b.features)

    def test_circle_noiseless(self):
        data = gen_circle(200, d=5, noise_var=0.0, seed=0)
        norms = np.hypot(data.features[:, 0], data.features[:, 1])
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert np.all(data.features[:, 2:] == 0.0)
        theta = np.arctan2(data.features[:, 1], data.features[:, 0]) % (2 * np.pi)
        assert np.allclose(theta, data.responses, atol=1e-10)

    def test_circle_rotation_preserves_norm(self):
        data = gen_circle(100, d=20, noise_var=0.0, seed=2, rotate=True)
        norms = np.linalg.norm(data.features, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 10, 500])
    def test_circle_rotation_matches_full_orthogonal_matrix(self, d):
        # the rotated circle keeps only two orthonormal columns; it must agree
        # with rotating by the whole seeded d x d orthogonal matrix
        n, noise_var, seed = 150, 0.5, 4
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        plane = np.zeros((n, d))
        plane[:, 0], plane[:, 1] = np.cos(theta), np.sin(theta)
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        q *= np.sign(np.diag(r))
        ref_feats = plane @ q.T
        ref_y = theta + rng.normal(0.0, np.sqrt(noise_var), size=n)

        data = gen_circle(n, d, noise_var, seed=seed, rotate=True)
        assert np.abs(data.features - ref_feats).max() <= 1e-12
        assert np.array_equal(data.responses, ref_y)
        flat = gen_circle(n, d, noise_var, seed=seed).features
        assert np.abs(pdist(data.features) - pdist(flat)).max() <= 1e-12

    def test_uniform_interval_range_and_mean(self):
        data = gen_uniform_interval(10_000, -1.0, 1.0, seed=0)
        x = data.features.ravel()
        assert np.all((x > -1.0) & (x < 1.0))
        assert abs(x.mean()) <= 3.0 / np.sqrt(12 * 10_000)

    def test_generator_argument_validation(self):
        with pytest.raises(InputError):
            gen_spiral(0)
        with pytest.raises(InputError):
            gen_spiral(5, noise_sd=-1.0)
        with pytest.raises(InputError):
            gen_circle(5, d=1)
        with pytest.raises(InputError):
            gen_uniform_interval(5, 2.0, 1.0)
