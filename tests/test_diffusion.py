"""Diffusion normalizations, eigendecomposition, and the fitted basis."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectral_series import (
    DiffusionSystem,
    EigenMethod,
    InputError,
    KernelSpec,
    Mode,
    NumericalError,
    bias_correct,
    diffusion_system,
    eigendecompose,
    fit_basis,
    gen_spiral,
    gram_matrix,
    rescale,
    row_stochastic,
    smoothness_spectrum,
    stationary_weights,
    symmetric_normalize,
)

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
        with pytest.raises(InputError):
            EigenMethod("dense")
        with pytest.raises(InputError):
            EigenMethod("randomized", oversample=-1)
        assert EigenMethod().name == "full"


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


class TestDiffusionSystem:
    def test_stationary_must_sum_to_one(self):
        with pytest.raises(NumericalError):
            DiffusionSystem(K2, np.array([0.5, 0.5]), np.array([0.4, 0.4]),
                            Mode.STOCHASTIC)

    def test_nonpositive_degree_rejected(self):
        with pytest.raises(NumericalError):
            DiffusionSystem(K2, np.array([0.5, 0.0]), np.array([0.5, 0.5]),
                            Mode.STOCHASTIC)

    def test_constructor_modes(self):
        for mode in Mode:
            sys = diffusion_system(random_gram(10, 5), mode)
            assert sys.mode is mode
            assert np.isclose(sys.stationary.sum(), 1.0, atol=1e-12)


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

    def test_j_max_bounds(self):
        with pytest.raises(InputError):
            eigendecompose(K2, 2)

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


class TestRescale:
    def test_uniform_weights_scale_by_sqrt_n(self):
        vecs = np.random.default_rng(11).normal(size=(8, 3))
        out = rescale(vecs, np.full(8, 1.0 / 8.0))
        assert np.allclose(out, vecs * np.sqrt(8.0), atol=1e-12)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(NumericalError):
            rescale(np.ones((2, 1)), np.array([1.0, 0.0]))


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
        W = np.diag(basis.ortho_weights)
        G = basis.eigenvectors.T @ W @ basis.eigenvectors
        assert np.max(np.abs(G - np.eye(11))) <= 1e-8
        A = basis_system_matrix(basis, X)
        resid = A @ basis.eigenvectors - basis.eigenvalues * basis.eigenvectors
        assert np.max(np.abs(resid)) <= 1e-8

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

    def test_sign_indefinite_polynomial_fails_loudly(self):
        # odd degree with opposing points: a kernel row sums to zero
        X = np.array([[1.0], [-3.0]])
        with pytest.raises(NumericalError):
            fit_basis(X, KernelSpec.polynomial(3), 1, Mode.STOCHASTIC)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_asymmetric_gram_rejected(self, mode):
        X = np.random.default_rng(8).normal(size=(20, 2))
        K = gram_matrix(KernelSpec.gaussian(1.0), X)
        K[2, 7] *= 1.0 + 1e-6
        with pytest.raises(NumericalError, match="asymmetry"):
            fit_basis(X, KernelSpec.gaussian(1.0), 4, mode, gram=K)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_overflowing_polynomial_gram_rejected(self, mode):
        # inf - inf in the symmetry scan is NaN, which no tolerance rejects
        X = gen_spiral(60, seed=0).features * 1e110
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="NaN or Inf"):
                fit_basis(X, KernelSpec.polynomial(3), 5, mode)

    def test_truncate_view(self):
        X = np.random.default_rng(4).normal(size=(20, 2))
        basis = fit_basis(X, KernelSpec.gaussian(1.0), 8, Mode.STOCHASTIC)
        small = basis.truncate(4)
        assert small.n_components == 4
        assert np.array_equal(small.eigenvalues, basis.eigenvalues[:4])
        with pytest.raises(InputError):
            basis.truncate(0)

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
