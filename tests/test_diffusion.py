"""Diffusion normalizations, eigendecomposition, and the fitted basis."""

import hashlib
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_series import (
    EigenMethod,
    InputError,
    KernelSpec,
    Mode,
    NumericalError,
    SplitSpec,
    TuneGrid,
    bandwidth_grid,
    bias_correct,
    eigendecompose,
    fit_basis,
    gen_spiral,
    gram_matrix,
    rescale,
    row_stochastic,
    smoothness_spectrum,
    split,
    stationary_weights,
    symmetric_normalize,
    tune_series,
)
from spectral_series import diffusion
from spectral_series.cli import main
from spectral_series.diffusion import EIGENVALUE_TIE_GAP, LANCZOS_MIN_N
from spectral_series.kernels import READ_BLOCK_BYTES, _gram_into
from spectral_series.nystrom import EIGENVALUE_FLOOR_REL

E1 = np.exp(-1.0)
# two 1-D points at distance 2, bandwidth 1: off-diagonal kernel e^-1
K2 = np.array([[1.0, E1], [E1, 1.0]])


def random_gram(n, seed, bw=1.0, d=3):
    X = np.random.default_rng(seed).normal(size=(n, d))
    return gram_matrix(KernelSpec.gaussian(bw), X)


def random_symmetric_positive(n, seed):
    """Symmetric positive matrix that does not come from gram_matrix."""
    R = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, n))
    return R + R.T


SYMMETRIC_INPUTS = [
    pytest.param(lambda: random_gram(300, 1, bw=0.2), id="gram300"),
    pytest.param(lambda: random_symmetric_positive(300, 2), id="uniform300"),
]


class TestModeAndMethod:
    def test_parse_aliases(self):
        assert Mode.parse("stochastic") is Mode.STOCHASTIC
        assert Mode.parse("bias-corrected") is Mode.BIAS_CORRECTED
        assert Mode.parse(" Uniform ") is Mode.UNIFORM
        with pytest.raises(InputError):
            Mode.parse("markov")

    def test_method_validation(self):
        for kwargs, match in [
            ({"name": "dense"}, "method must be one of"),
            ({"oversample": -1}, r"oversample must be an integer >= 0, got -1"),
            # these used to end in a TypeError inside the solve, or in a
            # ValueError from default_rng
            ({"oversample": 2.5}, r"oversample must be an integer >= 0, got 2.5"),
            ({"power_iters": 1.5}, r"power_iters must be an integer >= 0, got 1.5"),
            ({"seed": -1}, r"seed must be an integer >= 0, got -1"),
            ({"seed": "7"}, "seed must be an integer"),
        ]:
            with pytest.raises(InputError, match=match):
                EigenMethod(**{"name": "randomized", **kwargs})
        assert EigenMethod().name == "lanczos"

    def test_integral_method_fields_become_ints(self):
        method = EigenMethod("randomized", oversample=2.0, power_iters=np.int64(1),
                             seed=np.uint32(3))
        assert method == EigenMethod("randomized", 2, 1, 3)
        assert all(type(v) is int for v in (method.oversample, method.power_iters,
                                             method.seed))


class TestRowStochastic:
    def test_rows_sum_to_one(self):
        A = row_stochastic(random_gram(20, 0))
        assert np.allclose(A.sum(axis=1), 1.0, atol=1e-12)

    def test_two_point_closed_form(self):
        # 1/(1+e^-1) = 0.7311, e^-1/(1+e^-1) = 0.2689 to 4 dp
        A = row_stochastic(K2)
        assert np.allclose(A, [[0.7311, 0.2689], [0.2689, 0.7311]], atol=5e-5)

    def test_isolated_points_give_identity(self):
        A = row_stochastic(np.eye(4))
        assert np.allclose(A, np.eye(4), atol=1e-15)

    def test_zero_row_rejected(self):
        K = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NumericalError):
            row_stochastic(K)


class TestSymmetricNormalize:
    def test_equal_row_sums_reduce_to_stochastic(self):
        assert np.allclose(symmetric_normalize(K2), row_stochastic(K2), atol=1e-15)

    def test_exactly_symmetric(self):
        A = symmetric_normalize(random_gram(25, 1))
        assert np.array_equal(A, A.T)

    @pytest.mark.parametrize("make", SYMMETRIC_INPUTS)
    def test_exactly_symmetric_for_symmetric_input(self, make):
        A = symmetric_normalize(make())
        assert np.array_equal(A, A.T)

    def test_same_spectrum_as_stochastic(self):
        K = random_gram(20, 2)
        ev_sym = np.sort(np.linalg.eigvalsh(symmetric_normalize(K)))
        ev_sto = np.sort(np.linalg.eigvals(row_stochastic(K)).real)
        assert np.allclose(ev_sym, ev_sto, atol=1e-10)


class TestStationaryWeights:
    def test_two_symmetric_points(self):
        assert np.allclose(stationary_weights(K2), [0.5, 0.5], atol=1e-15)

    def test_identical_points_uniform(self):
        s = stationary_weights(np.ones((6, 6)))
        assert np.allclose(s, 1.0 / 6.0, atol=1e-15)

    def test_left_eigenvector_identity(self):
        K = random_gram(30, 3)
        s = stationary_weights(K)
        A = row_stochastic(K)
        assert np.max(np.abs(s @ A - s)) <= 1e-10
        assert np.isclose(s.sum(), 1.0, atol=1e-12)


class TestBiasCorrect:
    def test_uniform_degrees_rescale(self):
        K = np.full((4, 4), 0.5)
        out = bias_correct(K)
        assert np.allclose(out, K / 0.25, atol=1e-14)

    def test_symmetric_exactly(self):
        out = bias_correct(random_gram(15, 4))
        assert np.array_equal(out, out.T)

    @pytest.mark.parametrize("make", SYMMETRIC_INPUTS)
    def test_symmetric_exactly_for_symmetric_input(self, make):
        out = bias_correct(make())
        assert np.array_equal(out, out.T)

    def test_two_point_closed_form(self):
        # degrees (1+e^-1)/2 each; corrected off-diagonal e^-1 / degree^2
        out = bias_correct(K2)
        expected = E1 / (((1.0 + E1) / 2.0) ** 2)
        assert np.isclose(out[0, 1], expected, atol=1e-12)
        assert np.isclose(expected, 0.7864, atol=5e-5)


class TestEigendecompose:
    def test_two_point_eigenvalues(self):
        vals, _ = eigendecompose(symmetric_normalize(K2), 1)
        expected = np.array([1.0, (1.0 - E1) / (1.0 + E1)])
        assert np.allclose(vals, expected, atol=1e-12)
        assert np.isclose(vals[1], 0.46212, atol=5e-6)

    def test_scaling_convention(self):
        # columns have (1/n) sum v^2 = 1
        A = symmetric_normalize(random_gram(20, 6))
        _, vecs = eigendecompose(A, 5)
        norms = (vecs ** 2).mean(axis=0)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_sign_convention(self):
        A = symmetric_normalize(random_gram(20, 7))
        _, vecs = eigendecompose(A, 5)
        for col in vecs.T:
            assert col[np.argmax(np.abs(col))] > 0.0

    @pytest.mark.parametrize("j_max", [0, 4, 39])  # 39: k == n
    def test_full_matches_all_eigenpairs(self, j_max):
        # well-separated spectrum, so every eigenvector is unique up to sign
        n, k = 40, j_max + 1
        rng = np.random.default_rng(12)
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        A = Q @ np.diag(np.linspace(0.1, 4.0, n)) @ Q.T
        A = 0.5 * (A + A.T)
        vals, vecs = eigendecompose(A, j_max, EigenMethod("full"))
        assert vals.shape == (k,) and vecs.shape == (n, k)
        assert np.allclose(vals, np.linalg.eigvalsh(A)[::-1][:k], rtol=0, atol=1e-12)
        ref = np.linalg.eigh(A)[1][:, ::-1][:, :k] * np.sqrt(n)
        signs = np.sign(np.sum(vecs * ref, axis=0))
        assert np.allclose(vecs, ref * signs, atol=1e-8)

    def test_asymmetric_rejected(self):
        M = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(NumericalError):
            eigendecompose(M, 1)

    # (3, 590): a far off-diagonal tile; (255, 256): either side of a tile
    # edge; (598, 599): inside the last, partial diagonal tile
    @pytest.mark.parametrize("i, j", [(3, 590), (590, 3), (255, 256), (598, 599)])
    def test_asymmetry_gate_per_tile(self, i, j):
        A = random_symmetric_positive(600, 13)
        scale = np.abs(A).max()
        over, under = A.copy(), A.copy()
        over[i, j] += 2e-10 * scale
        under[i, j] += 0.5e-10 * scale
        with pytest.raises(NumericalError, match="asymmetry"):
            eigendecompose(over, 2)
        eigendecompose(under, 2)

    @pytest.mark.parametrize("method", ["full", "lanczos", "randomized"])
    def test_every_method_solves_the_upper_triangle(self, method):
        # an upper triangle perturbed within the tolerance passes the scan;
        # LAPACK reads A's upper triangle, the Lanczos dsymv its lower one and
        # the range finder both, so each must see the upper one mirrored
        A = spiral_operator(600, 2)
        noise = np.random.default_rng(17).uniform(-0.9e-10, 0.9e-10, A.shape)
        perturbed = A + np.triu(noise, 1) * np.abs(A).max()
        mirrored = np.triu(perturbed) + np.triu(perturbed, 1).T
        assert not np.array_equal(perturbed, mirrored)
        vals, vecs = eigendecompose(perturbed, 10, EigenMethod(method))
        ref_vals, ref_vecs = eigendecompose(mirrored, 10, EigenMethod(method))
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)

    def test_non_finite_entry_rejected(self):
        A = np.eye(5)
        A[1, 3] = A[3, 1] = np.nan
        with pytest.raises(NumericalError, match="NaN or Inf"):
            eigendecompose(A, 2)

    def test_asymmetry_overflow_is_the_documented_error(self):
        # |1e308 - (-1e308)| overflows; numpy's RuntimeWarning used to escape
        # before the NumericalError, and tier-1 turns it into the error
        A = np.array([[0.0, 1e308], [-1e308, 0.0]])
        with pytest.raises(NumericalError, match="asymmetry inf"):
            eigendecompose(A, 0)

    def test_j_max_bounds(self):
        with pytest.raises(InputError):
            eigendecompose(K2, 2)

    def test_randomized_projection_overflow_raises(self):
        # A is finite, so it passes the input gate, but A @ G overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="overflowed"):
                eigendecompose(np.full((10, 10), 1e308), 3, EigenMethod("randomized", seed=0))

    def test_rescaled_top_vector_constant(self):
        K = random_gram(15, 8)
        s = stationary_weights(K)
        _, vecs = eigendecompose(symmetric_normalize(K), 3)
        psi = rescale(vecs, s)
        assert np.allclose(psi[:, 0], psi[0, 0], atol=1e-8)

    def test_randomized_matches_full_on_low_rank(self):
        # exact-rank target: randomized range finding recovers it exactly
        rng = np.random.default_rng(9)
        V = np.linalg.qr(rng.normal(size=(40, 5)))[0]
        A = V @ np.diag([5.0, 4.0, 3.0, 2.0, 1.0]) @ V.T
        A = 0.5 * (A + A.T)
        full_vals, _ = eigendecompose(A, 4, EigenMethod("full"))
        rnd_vals, _ = eigendecompose(A, 4, EigenMethod("randomized", seed=0))
        assert np.allclose(full_vals, rnd_vals, atol=1e-6)

    def test_randomized_deterministic_given_seed(self):
        A = symmetric_normalize(random_gram(30, 10))
        va, Va = eigendecompose(A, 6, EigenMethod("randomized", seed=3))
        vb, Vb = eigendecompose(A, 6, EigenMethod("randomized", seed=3))
        assert np.array_equal(va, vb) and np.array_equal(Va, Vb)

    @pytest.mark.parametrize("method", [EigenMethod("full"),
                                        EigenMethod("randomized", seed=1)],
                             ids=["full", "randomized"])
    def test_input_left_unchanged(self, method):
        A = symmetric_normalize(random_gram(300, 14, bw=0.5))
        before = A.copy()
        eigendecompose(A, 10, method)
        assert np.array_equal(A, before)
        eigendecompose(A, 10, method)  # a second call sees the same matrix
        assert np.array_equal(A, before)

    def test_short_subset_solve_rejected(self):
        # LAPACK's subset solve returns no pairs for this nearly diagonal
        # operator, and reports no error
        with pytest.raises(NumericalError, match="returned 0 of the 6 eigenpairs"):
            eigendecompose(np.eye(1000) + 1e-217, 5, EigenMethod("full"))

    def test_short_randomized_solve_rejected(self, monkeypatch):
        # with no oversampling the small problem has exactly k pairs; a
        # solver that drops one must not pass unnoticed
        eigh = scipy.linalg.eigh
        monkeypatch.setattr(scipy.linalg, "eigh",
                            lambda *a, **kw: tuple(r[..., 1:] for r in eigh(*a, **kw)))
        A = symmetric_normalize(random_gram(30, 10))
        with pytest.raises(NumericalError, match="returned 4 of the 5 eigenpairs"):
            eigendecompose(A, 4, EigenMethod("randomized", oversample=0))

    def test_tie_warning_logged(self, caplog):
        A = np.eye(5)  # all eigenvalues identical
        with caplog.at_level(logging.WARNING, logger="spectral_series.diffusion"):
            eigendecompose(A, 2)
        assert any("tie" in rec.message for rec in caplog.records)

    def test_ties_logged_once_per_eigensolve(self, caplog):
        with caplog.at_level(logging.WARNING, logger="spectral_series.diffusion"):
            eigendecompose(np.eye(5), 2)
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert "2 eigenvalue tie" in message and "indices 0/1" in message

    @pytest.mark.parametrize("spectrum, logged", [
        # ties only below the extension floor: no prediction can use them
        ([1.0, 0.5, 0.25, 1e-13, 1e-13, 1e-14, 1e-14], []),
        # one tie above the floor, among others below it
        ([1.0, 0.5, 0.5, 0.25, 1e-13, 1e-13], ["1 eigenvalue tie", "indices 1/2"]),
    ], ids=["below-floor", "above-floor"])
    def test_ties_judged_above_the_floor_relative_to_lambda0(self, caplog, spectrum,
                                                             logged):
        n = 40
        Q = np.linalg.qr(np.random.default_rng(15).normal(size=(n, n)))[0]
        lam = np.zeros(n)
        lam[:len(spectrum)] = spectrum
        # scaled so an absolute gap rule would see a different picture
        A = Q @ np.diag(1e3 * lam) @ Q.T
        A = 0.5 * (A + A.T)
        with caplog.at_level(logging.WARNING, logger="spectral_series.diffusion"):
            vals, _ = eigendecompose(A, len(spectrum) - 1, EigenMethod("full"))
        assert np.allclose(vals, 1e3 * np.array(spectrum), rtol=0, atol=1e-11)
        messages = [rec.getMessage() for rec in caplog.records]
        if not logged:
            assert messages == []
        else:
            assert len(messages) == 1
            assert all(part in messages[0] for part in logged)


def spiral_operator(n, bandwidth_index, seed=1):
    """A spiral's symmetric operator at one of its 5 grid bandwidths."""
    X = gen_spiral(n, noise_sd=0.1, seed=seed).features
    bw = bandwidth_grid(X, 5)[bandwidth_index]
    return symmetric_normalize(gram_matrix(KernelSpec.gaussian(bw), X))


def three_blobs(n=800):
    """Three Gaussian blobs 100 apart: a kernel graph with three components."""
    rng = np.random.default_rng(16)
    centers = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    return np.concatenate([rng.normal(size=(m, 2)) + c for m, c in
                           zip((n - 2 * (n // 3), n // 3, n // 3), centers)])


def three_blobs_operator():
    return symmetric_normalize(gram_matrix(KernelSpec.gaussian(1.0), three_blobs()))


def _top_pairs(A):
    return eigendecompose(A, 5)


def _fits_in_every_mode(X):
    """Each mode's default-method fit: the values and vectors, mode by mode."""
    arrays = []
    for mode in Mode:
        basis = fit_basis(X, KernelSpec.gaussian(1.0), 5, mode)
        arrays += [basis.eigenvalues, basis.eigenvectors]
    return arrays


def _digest(solve, x):
    """SHA-256 of the arrays solve(x) returns, or its NumericalError message."""
    try:
        arrays = solve(x)
    except NumericalError as exc:
        return f"NumericalError: {exc}"
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


# name -> (make the input, solve it with the default method): the cases of
# the determinism test, also run in a fresh process
_DETERMINISM_CASES = {
    # tied throughout: the first product breaks the Krylov space down, and
    # ARPACK restarts from a random vector
    "near-diagonal": (lambda: np.eye(1000) + 1e-217, _top_pairs),
    # a threefold lambda = 1, which the fit's start vector, the square-rooted
    # row sums, lies in
    "three-blobs": (three_blobs_operator, _top_pairs),
    "three-blobs-fit": (three_blobs, _fits_in_every_mode),
    "spiral": (lambda: spiral_operator(1000, 1), _top_pairs),
}


def _print_digests():
    for name, (make, solve) in _DETERMINISM_CASES.items():
        print(name, _digest(solve, make()), sep="\t")


class TestLanczos:
    def test_default_is_lanczos(self):
        assert EigenMethod() == EigenMethod("lanczos")

    @pytest.mark.parametrize("bandwidth_index", [0, 2, 4])
    def test_matches_full_above_the_crossover(self, bandwidth_index):
        A = spiral_operator(800, bandwidth_index)
        j_max = 40
        full_vals, full_vecs = eigendecompose(A, j_max, EigenMethod("full"))
        vals, vecs = eigendecompose(A, j_max, EigenMethod("lanczos"))
        lam0 = full_vals[0]
        assert np.max(np.abs(vals - full_vals)) <= 1e-12 * lam0
        # a vector is pinned down only above the floor and outside a tie
        gaps = np.abs(np.diff(full_vals))
        tied = np.zeros(j_max + 1, dtype=bool)
        tied[:-1] |= gaps < EIGENVALUE_TIE_GAP * lam0
        tied[1:] |= gaps < EIGENVALUE_TIE_GAP * lam0
        keep = ~tied & (full_vals > EIGENVALUE_FLOOR_REL * lam0)
        assert keep.sum() >= 20
        n = A.shape[0]
        cos = np.abs(np.sum(vecs * full_vecs, axis=0)) / n
        assert np.all(cos[keep] >= 1.0 - 1e-10)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_below_the_crossover_is_lapack_bit_for_bit(self, mode):
        X = gen_spiral(LANCZOS_MIN_N - 1, noise_sd=0.1, seed=2).features
        spec = KernelSpec.gaussian(0.5)
        default = fit_basis(X, spec, 30, mode)
        full = fit_basis(X, spec, 30, mode, EigenMethod("full"))
        assert np.array_equal(default.eigenvalues, full.eigenvalues)
        assert np.array_equal(default.eigenvectors, full.eigenvectors)

    def test_too_many_pairs_for_lanczos_is_lapack_bit_for_bit(self):
        # 2k + 1 >= n: ARPACK's Krylov space would fill the whole matrix
        A = spiral_operator(LANCZOS_MIN_N, 1)
        j_max = (LANCZOS_MIN_N - 1) // 2
        vals, vecs = eigendecompose(A, j_max)
        ref_vals, ref_vecs = eigendecompose(A, j_max, EigenMethod("full"))
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)

    def test_input_with_subnormal_entries_left_unchanged(self):
        # the Gram holds no subnormal, but at the narrowest bandwidth the
        # symmetric normalization scales a few entries below 2**-1022
        A = spiral_operator(LANCZOS_MIN_N, 0)
        tiny = np.finfo(float).tiny
        assert np.any((A != 0.0) & (np.abs(A) < tiny))
        before = A.copy()
        eigendecompose(A, 10)
        assert np.array_equal(A, before)

    def test_fit_matches_full_in_every_mode(self):
        X = gen_spiral(600, noise_sd=0.1, seed=3).features
        spec = KernelSpec.gaussian(0.3)
        for mode in Mode:
            lz = fit_basis(X, spec, 30, mode)
            full = fit_basis(X, spec, 30, mode, EigenMethod("full"))
            lam0 = full.eigenvalues[0]
            assert lz.method.name == "lanczos"
            assert np.max(np.abs(lz.eigenvalues - full.eigenvalues)) <= 1e-12 * lam0
            W = np.diag(lz.ortho_weights)
            G = lz.eigenvectors.T @ W @ lz.eigenvectors
            assert np.max(np.abs(G - np.eye(31))) <= 1e-8

    def test_tied_spectrum_makes_no_lapack_call(self, monkeypatch):
        def eigh(*args, **kwargs):
            raise AssertionError("LAPACK eigh called")
        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        A = three_blobs_operator()
        assert A.shape[0] >= LANCZOS_MIN_N
        vals, _ = eigendecompose(A, 5)
        assert np.allclose(vals[:3], 1.0, rtol=0, atol=1e-12)

    def test_eigenvalue_one_cluster_spans_the_full_subspace(self):
        # the three lambda = 1 vectors are pinned down only as a subspace
        A = three_blobs_operator()
        vals, vecs = eigendecompose(A, 5)
        full_vals, full_vecs = eigendecompose(A, 5, EigenMethod("full"))
        assert np.allclose(full_vals[:3], 1.0, rtol=0, atol=1e-12)
        assert full_vals[3] < 1.0 - 1e-3
        angles = scipy.linalg.subspace_angles(vecs[:, :3], full_vecs[:, :3])
        assert np.max(angles) <= 1e-10

    def test_three_components_give_eigenvalue_one_three_times(self):
        basis = fit_basis(three_blobs(800), KernelSpec.gaussian(1.0), 10)
        vals = basis.eigenvalues
        assert np.allclose(vals[:3], 1.0, rtol=0, atol=1e-12)
        assert vals[3] < 1.0 - 1e-3

    def test_deterministic_within_and_across_processes(self):
        digests = {}
        for name, (make, solve) in _DETERMINISM_CASES.items():
            x = make()
            runs = {_digest(solve, x) for _ in range(3)}
            assert len(runs) == 1, f"{name}: {len(runs)} different results"
            digests[name] = runs.pop()
        # 1 + 1000 * 1e-217 rounds to 1, so every pair has eigenvalue 1
        make, solve = _DETERMINISM_CASES["near-diagonal"]
        vals, _ = solve(make())
        assert np.array_equal(vals, np.ones(6))
        script = ("import sys; sys.path.insert(0, sys.argv[1]); "
                  "import test_diffusion; test_diffusion._print_digests()")
        src = str(Path(diffusion.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                              capture_output=True, text=True, env=env, check=True)
        fresh = dict(line.split("\t") for line in proc.stdout.splitlines())
        assert fresh == digests

    @pytest.fixture()
    def arpack_fails(self, monkeypatch):
        def fail(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence(
                "ARPACK error -1: No convergence", np.zeros(0), np.zeros((0, 0)))
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", fail)

    def test_arpack_failure_raises_numerical_error(self, arpack_fails):
        A = spiral_operator(LANCZOS_MIN_N, 1)
        with pytest.raises(NumericalError, match="Lanczos eigensolver failed"):
            eigendecompose(A, 5)
        # the full solver does not go near ARPACK
        eigendecompose(A, 5, EigenMethod("full"))

    def test_arpack_failure_exits_3(self, arpack_fails, tmp_path, capsys):
        data = tmp_path / "s.csv"
        assert main(["gen", "spiral", "--n", str(LANCZOS_MIN_N), "--seed", "0",
                     "--out", str(data)]) == 0
        capsys.readouterr()
        code = main(["embed", "--data", str(data), "--out", str(tmp_path / "e.csv")])
        assert code == 3
        assert "Lanczos eigensolver failed" in capsys.readouterr().err


class TestRescale:
    def test_uniform_weights_scale_by_sqrt_n(self):
        vecs = np.random.default_rng(11).normal(size=(8, 3))
        out = rescale(vecs, np.full(8, 1.0 / 8.0))
        assert np.allclose(out, vecs * np.sqrt(8.0), atol=1e-12)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NumericalError):
            rescale(np.ones((2, 1)), np.array([1.0, 0.0]))
        with pytest.raises(NumericalError):
            rescale(np.ones((2, 1)), np.array([1.0, np.nan]))


def basis_system_matrix(basis, X):
    """The matrix whose eigenvectors the basis stores, rebuilt from scratch."""
    K = gram_matrix(basis.kernel, X)
    if basis.mode is Mode.STOCHASTIC:
        return row_stochastic(K)
    if basis.mode is Mode.BIAS_CORRECTED:
        return row_stochastic(bias_correct(K))
    if basis.mode is Mode.SYMMETRIC:
        return symmetric_normalize(K)
    return K / K.shape[0]


class TestFitBasis:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_orthonormal_and_eigen_identity(self, mode):
        X = gen_spiral(60, noise_sd=0.05, seed=0).features
        basis = fit_basis(X, KernelSpec.gaussian(1.0), 10, mode)
        assert np.isclose(basis.stationary.sum(), 1.0, rtol=0, atol=1e-12)
        W = np.diag(basis.ortho_weights)
        G = basis.eigenvectors.T @ W @ basis.eigenvectors
        assert np.max(np.abs(G - np.eye(11))) <= 1e-8
        A = basis_system_matrix(basis, X)
        resid = A @ basis.eigenvectors - basis.eigenvalues * basis.eigenvectors
        assert np.max(np.abs(resid)) <= 1e-8

    @pytest.mark.parametrize("spec, mode, method", [
        *[pytest.param(KernelSpec.gaussian(0.5), m, EigenMethod("full"),
                       id=f"gaussian-{m.value}") for m in Mode],
        pytest.param(KernelSpec.polynomial(2), Mode.UNIFORM, EigenMethod("full"),
                     id="poly-uniform"),
        *[pytest.param(KernelSpec.gaussian(0.5), m, EigenMethod("randomized", seed=6),
                       id=f"gaussian-{m.value}-randomized") for m in Mode],
    ])
    def test_solve_in_place_matches_solve_on_a_copy(self, spec, mode, method):
        # fit_basis normalizes and solves inside the K it builds; the public
        # helpers and eigendecompose work on copies of a caller's K. Both
        # must give the same bits.
        X = gen_spiral(300, noise_sd=0.1, seed=5).features
        K = gram_matrix(spec, X)
        if mode is Mode.UNIFORM:
            target, stationary = K / 300, None
        else:
            system = bias_correct(K) if mode is Mode.BIAS_CORRECTED else K
            target, stationary = symmetric_normalize(system), stationary_weights(system)
        vals, vecs = eigendecompose(target, 20, method)
        if mode in (Mode.STOCHASTIC, Mode.BIAS_CORRECTED):
            vecs = rescale(vecs, stationary)
        basis = fit_basis(X, spec, 20, mode, method)
        assert np.array_equal(basis.eigenvalues, vals)
        assert np.array_equal(basis.eigenvectors, vecs)
        if stationary is not None:
            assert np.array_equal(basis.stationary, stationary)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_heap_beyond_gram_is_one_block(self, mode):
        # the fit normalizes and solves inside the K it is handed; what it
        # allocates besides is one 1 MiB row block and a few n x (j_max+1)
        # arrays (the Lanczos basis alone holds 2 (j_max+1) + 1 columns). The
        # default solver peaked at 5.2-6.1 MB here; the bound, 6.9 MB, stays
        # below the 8.4 MB of a single 8 MiB temporary.
        n, j_max = 2000, 60
        X = gen_spiral(n, noise_sd=0.1, seed=0).features
        spec = KernelSpec.gaussian(0.05)
        sums = np.empty(n)
        K = _gram_into(spec, X, sums=sums)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            diffusion._fit(X, spec, j_max, mode, None, K, sums)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        bound = READ_BLOCK_BYTES + 6 * n * (j_max + 1) * 8
        assert bound < 8 * 2**20
        assert peak <= bound

    @pytest.mark.parametrize("mode", list(Mode))
    def test_every_normalization_walks_the_grams_blocks(self, mode, monkeypatch):
        # no mode passes over K outside the block walker; Uniform's division
        # by n used to be one whole-array pass of its own
        X = gen_spiral(300, noise_sd=0.1, seed=5).features
        spec, sums = KernelSpec.gaussian(0.5), np.empty(300)
        K = gram_matrix(spec, X, sums=sums)
        walked, real = [], diffusion._blocks_with_sums
        monkeypatch.setattr(diffusion, "_blocks_with_sums",
                            lambda form, out, *rest: walked.append(out) or real(form, out, *rest))
        diffusion._fit(X, spec, 20, mode, EigenMethod("full"), K, sums)
        assert walked and all(out is K for out in walked)

    def test_symmetry_scanned_once_on_a_callers_gram_only(self, monkeypatch):
        # a Gram the package builds is symmetric by construction; only a
        # caller's matrix handed to eigendecompose is scanned
        calls = []
        scan = diffusion._check_symmetric
        monkeypatch.setattr(diffusion, "_check_symmetric",
                            lambda A: calls.append(A.shape) or scan(A))
        X = gen_spiral(80, noise_sd=0.1, seed=2).features
        for spec in (KernelSpec.gaussian(0.5), KernelSpec.polynomial(2)):
            fit_basis(X, spec, 6, Mode.UNIFORM)
        train, val, _ = split(gen_spiral(120, noise_sd=0.1, seed=2), SplitSpec(seed=2))
        tune_series(train, val, TuneGrid(bandwidths=(0.5, 1.0), degrees=(2,), j_max=6))
        assert calls == []
        eigendecompose(K2, 1)
        assert calls == [(2, 2)]

    @pytest.mark.parametrize("mode", [Mode.STOCHASTIC, Mode.SYMMETRIC,
                                      Mode.BIAS_CORRECTED])
    def test_underflowing_row_sums_rejected(self, mode):
        # finite, symmetric and positive, but 1/sqrt(s_i s_j) overflows (in
        # bias-corrected mode the degree products already underflow to 0):
        # the scaled operator would hold Inf and NaN
        X, K = np.zeros((3, 1)), np.eye(3) * 1e-310
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="row sums (underflowed|overflowed)"):
                diffusion._fit(X, KernelSpec.gaussian(1.0), 1, mode, None, K, K.sum(axis=1))

    def test_stochastic_top_pair(self):
        X = np.random.default_rng(1).normal(size=(25, 3))
        basis = fit_basis(X, KernelSpec.gaussian(2.0), 5, Mode.STOCHASTIC)
        assert np.isclose(basis.eigenvalues[0], 1.0, atol=1e-10)
        assert np.allclose(basis.eigenvectors[:, 0], np.sqrt(25.0), atol=1e-8)

    def test_uniform_mode_for_polynomial(self):
        X = np.random.default_rng(2).normal(size=(30, 4))
        basis = fit_basis(X, KernelSpec.polynomial(2), 8, Mode.UNIFORM)
        G = basis.eigenvectors.T @ basis.eigenvectors / 30.0
        assert np.max(np.abs(G - np.eye(9))) <= 1e-8

    def test_nonnegative_polynomial_allowed_in_stochastic_mode(self):
        # even degrees square the inner product, so the Gram stays >= 0
        X = np.random.default_rng(3).normal(size=(20, 3))
        basis = fit_basis(X, KernelSpec.polynomial(2), 5, Mode.STOCHASTIC)
        G = basis.eigenvectors.T @ np.diag(basis.ortho_weights) @ basis.eigenvectors
        assert np.max(np.abs(G - np.eye(6))) <= 1e-8

    def test_nonpositive_degree_rejected(self):
        K = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0]])
        X = np.zeros((3, 1))
        for mode in (Mode.STOCHASTIC, Mode.SYMMETRIC, Mode.BIAS_CORRECTED):
            with pytest.raises(NumericalError, match="nonpositive"):
                diffusion._fit(X, KernelSpec.gaussian(1.0), 1, mode, None, K.copy(),
                               K.sum(axis=1))

    @pytest.mark.parametrize("mode", [Mode.STOCHASTIC, Mode.SYMMETRIC,
                                      Mode.BIAS_CORRECTED])
    def test_overflowing_row_sums_rejected(self, mode):
        # every Gram entry is finite (up to 1.6e307), but the row sums are not
        X = gen_spiral(60, seed=0).features
        X = X / np.abs(X).max() * 6.31e76
        spec = KernelSpec.polynomial(2)
        assert np.isfinite(gram_matrix(spec, X)).all()
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError, match="overflowed"):
                fit_basis(X, spec, 5, mode)

    def test_sign_indefinite_polynomial_fails_loudly(self):
        # odd degree with opposing points: a kernel row sums to zero
        X = np.array([[1.0], [-3.0]])
        with pytest.raises(NumericalError):
            fit_basis(X, KernelSpec.polynomial(3), 1, Mode.STOCHASTIC)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_overflowing_polynomial_gram_rejected(self, mode):
        # the Gram overflows to Inf, and its row sums with it
        X = gen_spiral(60, seed=0).features * 1e110
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="NaN or Inf"):
                fit_basis(X, KernelSpec.polynomial(3), 5, mode)

    def test_short_subset_solve_rejected(self):
        # d = 1000 standard-normal points at bandwidth 1: every off-diagonal
        # kernel value is near 1e-217, and the subset solve returns no pairs
        X = np.random.default_rng(0).normal(size=(1000, 1000))
        with pytest.raises(NumericalError, match="eigenpairs"):
            fit_basis(X, KernelSpec.gaussian(1.0), 4, method=EigenMethod("full"))

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.3, 5.0),
           st.sampled_from([Mode.STOCHASTIC, Mode.BIAS_CORRECTED,
                            Mode.SYMMETRIC, Mode.UNIFORM]))
    @settings(max_examples=20, deadline=None)
    def test_invariants_hold_over_random_instances(self, seed, bw, mode):
        X = np.random.default_rng(seed).normal(size=(25, 3))
        basis = fit_basis(X, KernelSpec.gaussian(bw), 6, mode)
        G = basis.eigenvectors.T @ np.diag(basis.ortho_weights) @ basis.eigenvectors
        assert np.max(np.abs(G - np.eye(7))) <= 1e-8
        assert np.all(np.diff(basis.eigenvalues) <= 1e-12)


class TestOrthonormalBasis:
    """The randomized range finder's QR (LAPACK dgeqrt + dgemqrt)."""

    @pytest.mark.parametrize("shape", [(800, 41), (2000, 71), (64, 64), (5, 1)])
    def test_orthonormal_spans_y_and_deterministic(self, shape):
        Y = np.random.default_rng(shape[1]).normal(size=shape)
        Q = diffusion._orthonormal_basis(Y.copy())
        assert Q.shape == shape
        assert np.abs(Q.T @ Q - np.eye(shape[1])).max() <= 1e-14
        # Y lies in Q's span: projecting it onto Q leaves it unchanged
        assert np.abs(Q @ (Q.T @ Y) - Y).max() <= 1e-12 * np.abs(Y).max()
        for _ in range(3):
            assert np.array_equal(diffusion._orthonormal_basis(Y.copy()), Q)

    def test_c_and_fortran_inputs_give_the_same_bits(self):
        Y = np.random.default_rng(3).normal(size=(300, 20))
        assert np.array_equal(diffusion._orthonormal_basis(Y.copy()),
                              diffusion._orthonormal_basis(np.asfortranarray(Y)))


class TestSmoothnessSpectrum:
    def test_leading_value_zero(self):
        X = np.random.default_rng(5).normal(size=(20, 2))
        basis = fit_basis(X, KernelSpec.gaussian(1.5), 5, Mode.STOCHASTIC)
        nu2 = smoothness_spectrum(basis)
        assert np.isclose(nu2[0], 0.0, atol=1e-10)
        assert np.all(np.diff(nu2) >= -1e-12)
        assert np.all(nu2 >= 0.0)

    def test_arithmetic(self):
        # (1 - 0.9) / 0.05 = 2
        X = np.random.default_rng(6).normal(size=(10, 2))
        basis = fit_basis(X, KernelSpec.gaussian(0.05), 3, Mode.STOCHASTIC)
        object.__setattr__(basis, "eigenvalues", np.array([1.0, 0.9, 0.8, 0.5]))
        nu2 = smoothness_spectrum(basis)
        assert np.isclose(nu2[1], 2.0, atol=1e-12)

    def test_polynomial_basis_rejected(self):
        X = np.random.default_rng(7).normal(size=(15, 2))
        basis = fit_basis(X, KernelSpec.polynomial(2), 3, Mode.UNIFORM)
        with pytest.raises(InputError):
            smoothness_spectrum(basis)
