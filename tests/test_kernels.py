"""Kernel evaluation, Gram construction, and the bandwidth grid."""

import errno
import mmap
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.blas import dsyrk
from scipy.spatial.distance import cdist, pdist, squareform

from spectral_series import (
    InputError, KernelSpec, bandwidth_grid, gen_circle, gram_matrix, kernel_value,
)
from spectral_series import kernels
from spectral_series.kernels import (
    BLAS_DISTANCE_MIN_D, BLOCK_GRAM_MAX_D, EXP_SLOW_BELOW, READ_BLOCK_BYTES,
    _exp, _gram_into, _sweep_distances, gaussian_from_sqdist, matmul,
    sq_distances,
)


class TestKernelSpec:
    def test_gaussian_requires_positive_bandwidth(self):
        with pytest.raises(InputError):
            KernelSpec.gaussian(0.0)
        with pytest.raises(InputError):
            KernelSpec.gaussian(-1.0)

    def test_poly_requires_positive_integer_degree(self):
        with pytest.raises(InputError):
            KernelSpec.polynomial(0)

    def test_labels(self):
        assert "gaussian" in KernelSpec.gaussian(2.0).label()
        assert "poly" in KernelSpec.polynomial(3).label()

    def test_with_bandwidth_only_for_gaussian(self):
        assert KernelSpec.gaussian(1.0).with_bandwidth(2.0).bandwidth == 2.0
        with pytest.raises(InputError):
            KernelSpec.polynomial(2).with_bandwidth(1.0)


class TestKernelValue:
    def test_gaussian_zero_distance(self):
        assert kernel_value(KernelSpec.gaussian(0.7), np.array([1.0, 2.0]),
                            np.array([1.0, 2.0])) == 1.0

    def test_gaussian_unit_exponent(self):
        # squared distance 4 at bandwidth 1 -> exp(-4/4) = e^-1
        v = kernel_value(KernelSpec.gaussian(1.0), np.array([0.0]), np.array([2.0]))
        assert np.isclose(v, np.exp(-1.0), atol=1e-15)

    def test_poly_inner_product_one(self):
        # (<x,y> + 1)^q with <x,y>=1, q=2 -> 4
        v = kernel_value(KernelSpec.polynomial(2), np.array([1.0, 0.0]),
                         np.array([1.0, 5.0]))
        assert v == 4.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            kernel_value(KernelSpec.gaussian(1.0), np.array([1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("d", [1, 2, BLOCK_GRAM_MAX_D + 1, BLAS_DISTANCE_MIN_D - 1])
    @pytest.mark.parametrize("bw", [1e-3, 0.3, 50.0])
    def test_equals_the_gram_entry_bitwise(self, d, bw):
        # kernel_value is the 1 x 1 Gram: below BLAS_DISTANCE_MIN_D columns it
        # has the bits of the entry of any Gram holding the pair, floor included
        rng = np.random.default_rng(d)
        A, B = rng.normal(size=(7, d)), rng.normal(size=(5, d))
        spec = KernelSpec.gaussian(bw)
        K = gram_matrix(spec, A, B)
        got = np.array([[kernel_value(spec, a, b) for b in B] for a in A])
        assert np.array_equal(_bits(got), _bits(K))


class TestGramMatrix:
    def test_self_gram_diagonal_and_symmetry(self):
        X = np.random.default_rng(0).normal(size=(30, 4))
        K = gram_matrix(KernelSpec.gaussian(0.5), X)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)

    def test_gaussian_self_gram_matches_direct_formula_bitwise(self):
        X = np.random.default_rng(5).normal(size=(300, 3))
        bw = 0.7
        direct = np.exp(squareform(pdist(X, "sqeuclidean")) * (-0.25 / bw))
        np.fill_diagonal(direct, 1.0)
        assert np.array_equal(gram_matrix(KernelSpec.gaussian(bw), X), direct)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_poly_self_gram_exactly_symmetric(self, degree):
        X = np.random.default_rng(6).normal(size=(300, 4))
        K = gram_matrix(KernelSpec.polynomial(degree), X)
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("n, d", [(2000, 2), (1000, 10), (777, 1000)])
    @pytest.mark.parametrize("layout", ["C", "F", "row-sliced", "column-sliced",
                                        "reversed"])
    def test_poly_self_gram_symmetric_without_a_symmetrizing_pass(self, n, d, layout):
        # the Gram is one BLAS syrk triangle mirrored; pin that, for every
        # layout of X, at degree 1 where K is A @ A.T + 1 itself
        X = np.random.default_rng(n + d).normal(size=(2 * n, 2 * d))
        C = np.ascontiguousarray(X[:n, :d])
        A = {"C": C, "F": np.asfortranarray(C), "row-sliced": X[::2, :d],
             "column-sliced": X[:n, ::2], "reversed": X[::-2, :d]}[layout]
        K = gram_matrix(KernelSpec.polynomial(1), A)
        assert np.array_equal(K, K.T)
        assert np.array_equal(K, gram_matrix(KernelSpec.polynomial(1),
                                             np.ascontiguousarray(A)))

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.3), KernelSpec.polynomial(1),
                                      KernelSpec.polynomial(3), KernelSpec.gaussian(1e-3)],
                             ids=["gaussian", "poly1", "poly3", "gaussian-narrow"])
    @pytest.mark.parametrize("n, d", [(1, 3), (2, 3), (63, 3), (64, 3), (65, 3),
                                      (300, 3), (129, BLAS_DISTANCE_MIN_D),
                                      *[(n, d) for d in (1, 2, BLOCK_GRAM_MAX_D,
                                                         BLOCK_GRAM_MAX_D + 1,
                                                         BLAS_DISTANCE_MIN_D - 1, 1000)
                                        for n in (1, 2, 63, 65, 130)]])
    def test_build_in_a_used_buffer(self, spec, n, d, monkeypatch):
        # one buffer serves a whole tuning sweep, so whatever it held (NaN
        # here) must not reach the Gram; the row sums come with the build.
        # Up to BLOCK_GRAM_MAX_D columns a Gaussian Gram is built from the
        # points in row blocks on the read pool, and above it from distances
        # stored in K, each with the bits of the condensed distances'
        # formula, on one worker and on two, with 17-row blocks (d = 1000
        # spans eight column chunks), with a third of the rows repeated, and
        # at a bandwidth narrow enough that the floor zeroes entries
        X = np.random.default_rng(n + d).normal(size=(n, d))
        X[n - n // 3:] = X[:n // 3]
        monkeypatch.setattr(kernels, "READ_BLOCK_BYTES", 8 * 17 * n)
        if spec.family == "gaussian":
            cond = pdist(X, "sqeuclidean") if d < BLAS_DISTANCE_MIN_D else sq_distances(X)
            arg = squareform(cond) * (-0.25 / spec.bandwidth)
            want = np.exp(arg)
            want[arg < EXP_SLOW_BELOW] = 0.0
            np.fill_diagonal(want, 1.0)
        else:
            # a zeroed syrk triangle, mirrored whole, then the power
            G = dsyrk(1.0, X.T, c=np.zeros((n, n), order="F"), trans=1, lower=1).T
            want = np.triu(G) + np.triu(G, 1).T + 1.0
            base = want.copy()
            for _ in range(spec.degree - 1):
                want *= base
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "READ_WORKERS", workers)
            K, sums = np.full((n, n), np.nan), np.full(n, np.nan)
            assert _gram_into(spec, X, None, K, sums=sums) is K
            assert np.array_equal(K, want)
            assert np.array_equal(sums, want.sum(axis=1))

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.3), KernelSpec.polynomial(3)],
                             ids=["gaussian", "poly3"])
    @pytest.mark.parametrize("d", [2, BLOCK_GRAM_MAX_D + 1])
    def test_self_gram_row_sums_from_the_build(self, spec, d):
        # the self form writes K's row sums, with the bits of K.sum(axis=1);
        # a cross Gram takes none
        X = np.random.default_rng(d).normal(size=(70, d))
        sums = np.full(70, np.nan)
        K = gram_matrix(spec, X, sums=sums)
        assert np.array_equal(K, gram_matrix(spec, X))
        assert np.array_equal(sums, K.sum(axis=1))
        with pytest.raises(InputError, match="only for a self Gram"):
            gram_matrix(spec, X[:2], X, sums=np.empty(2))

    @pytest.mark.parametrize("spec, A", [
        (KernelSpec.gaussian(1.0), np.empty((0, 2))),
        (KernelSpec.polynomial(2), np.empty((0, 2))),
        (KernelSpec.gaussian(1.0), np.empty((3, 0))),
        (KernelSpec.gaussian(1.0), np.ones((3, 2, 2))),
        (KernelSpec.gaussian(1.0), np.array([[0.0, 1.0], [np.nan, 2.0]])),
        (KernelSpec.polynomial(2), np.array([[0.0, 1.0], [np.inf, 2.0]])),
    ], ids=["no-rows", "poly-no-rows", "no-columns", "3-d", "nan-row", "poly-inf-row"])
    def test_self_form_checks_its_points(self, spec, A):
        # each used to end in ZeroDivisionError, a BLAS or scipy ValueError,
        # a NaN Gram or an all-ones Gram of zero columns
        with pytest.raises(InputError):
            gram_matrix(spec, A)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_own_gram_stays_private_after_fork(self):
        # a Gram the build allocates, and the condensed self distances of
        # either route, lie in a memory map of their own; like a heap array
        # each must be private, so that a forked child's write does not
        # reach the parent's array
        X = np.arange(6.0).reshape(3, 2)
        outputs = [gram_matrix(KernelSpec.gaussian(0.5), X), sq_distances(X),
                   sq_distances(np.repeat(X, BLAS_DISTANCE_MIN_D // 2, axis=1))]
        before = [out.copy() for out in outputs]
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                for out in outputs:
                    out[:] = -1.0
                code = 0
            finally:
                os._exit(code)
        assert os.waitpid(pid, 0)[1] == 0
        for out, want in zip(outputs, before):
            assert np.array_equal(out, want)

    @pytest.mark.parametrize("d", [2, BLOCK_GRAM_MAX_D])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bw", [0.5, 1e-4], ids=["wide", "narrow"])
    def test_block_build_holds_one_block_per_worker(self, d, workers, bw, monkeypatch):
        # up to BLOCK_GRAM_MAX_D columns a Gaussian self Gram stores no
        # distances (16 MB of condensed ones here): beyond K and its row
        # sums it allocates at most one READ_BLOCK_BYTES block per worker,
        # also where the floor's masks are made (the narrow bandwidth)
        n = 2000
        X = gen_circle(n, d=d, noise_var=0.5, seed=3).features
        monkeypatch.setattr(kernels, "READ_WORKERS", workers)
        K, sums = np.empty((n, n)), np.empty(n)
        tracemalloc.start()
        try:
            _gram_into(KernelSpec.gaussian(bw), X, None, K, sums=sums)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= workers * READ_BLOCK_BYTES

    def test_two_point_closed_form(self):
        # distance 2 at bandwidth 1: off-diagonal is exactly e^-1
        X = np.array([[0.0], [2.0]])
        K = gram_matrix(KernelSpec.gaussian(1.0), X)
        assert np.allclose(K, [[1.0, np.exp(-1)], [np.exp(-1), 1.0]], atol=1e-15)

    def test_cross_gram_shape_and_values(self):
        rng = np.random.default_rng(1)
        A, B = rng.normal(size=(3, 2)), rng.normal(size=(5, 2))
        spec = KernelSpec.gaussian(0.8)
        K = gram_matrix(spec, A, B)
        assert K.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                assert np.isclose(K[i, j], kernel_value(spec, A[i], B[j]), atol=1e-12)

    def test_poly_gram_matches_direct(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(10, 3))
        K = gram_matrix(KernelSpec.polynomial(3), X)
        direct = (X @ X.T + 1.0) ** 3
        assert np.allclose(K, (direct + direct.T) / 2.0, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.floats(0.05, 20.0))
    @settings(max_examples=25, deadline=None)
    def test_gaussian_gram_is_psd(self, seed, bw):
        X = np.random.default_rng(seed).normal(size=(15, 3))
        K = gram_matrix(KernelSpec.gaussian(bw), X)
        assert np.linalg.eigvalsh(K).min() >= -1e-10

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_poly_gram_is_psd(self, seed, q):
        X = np.random.default_rng(seed).normal(size=(12, 3))
        K = gram_matrix(KernelSpec.polynomial(q), X)
        bound = 1e-10 * max(1.0, np.abs(K).max())
        assert np.linalg.eigvalsh(K).min() >= -bound


class TestSquaredDistances:
    """pdist/cdist bits below BLAS_DISTANCE_MIN_D, tiled BLAS products above."""

    @pytest.mark.parametrize("d", [1, 2, 5, BLAS_DISTANCE_MIN_D - 1])
    def test_bit_equal_to_scipy_below_the_constant(self, d):
        rng = np.random.default_rng(d)
        A, B = rng.normal(size=(300, d)), rng.normal(size=(70, d))
        assert np.array_equal(sq_distances(A), pdist(A, "sqeuclidean"))
        assert np.array_equal(sq_distances(B, A), cdist(B, A, "sqeuclidean"))
        spec = KernelSpec.gaussian(0.9)
        direct = np.exp(squareform(pdist(A, "sqeuclidean")) * (-0.25 / 0.9))
        np.fill_diagonal(direct, 1.0)
        assert np.array_equal(gram_matrix(spec, A), direct)
        assert np.array_equal(gram_matrix(spec, B, A),
                              np.exp(cdist(B, A, "sqeuclidean") * (-0.25 / 0.9)))

    @pytest.mark.parametrize("n", [1, 2, 3, 256, 257, 517])
    def test_condensed_layout_at_ragged_tile_counts(self, n):
        rng = np.random.default_rng(n)
        A = rng.normal(size=(n, BLAS_DISTANCE_MIN_D))
        B = rng.normal(size=(259, BLAS_DISTANCE_MIN_D))
        ref = pdist(A, "sqeuclidean")
        got = sq_distances(A)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max(initial=0.0) <= 1e-12 * ref.max(initial=1.0)
        ref = cdist(B, A, "sqeuclidean")
        assert np.abs(sq_distances(B, A) - ref).max() <= 1e-12 * ref.max()

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_high_d_grams_match_scipy(self, shift):
        data = gen_circle(600, d=1000, noise_var=0.5, seed=3, rotate=True)
        X, Q = data.features[:520] + shift, data.features[520:] + shift
        sq_self, sq_cross = sq_distances(X), sq_distances(Q, X)
        assert sq_self.min() >= 0.0 and sq_cross.min() >= 0.0
        ref_self = squareform(pdist(X, "sqeuclidean"))
        ref_cross = cdist(Q, X, "sqeuclidean")
        for bw in bandwidth_grid(X, 5):
            spec = KernelSpec.gaussian(bw)
            K = gram_matrix(spec, X)
            assert np.array_equal(K, K.T)
            assert np.all(np.diag(K) == 1.0)
            ref = np.exp(-ref_self / (4.0 * bw))
            np.fill_diagonal(ref, 1.0)
            assert np.abs(K - ref).max() <= 1e-11
            Kx = gram_matrix(spec, Q, X)
            assert np.abs(Kx - np.exp(-ref_cross / (4.0 * bw))).max() <= 1e-11

    def test_high_d_self_heap_is_output_plus_a_few_tiles(self, monkeypatch):
        # the output lies in a memory map of its own, which tracemalloc does
        # not see: the full matrix, compacted into its upper triangle in
        # place, so the one map asked for holds n^2 entries and no second
        # n^2-scale array is made. Beyond it the heap holds one centered
        # column chunk and one finishing block per worker; an n x d centered
        # copy (9.6 MB), an n x n temporary (32 MB) or the output itself
        # from the heap (16 MB) would each exceed that allowance
        n, d = 2000, 600
        X = np.random.default_rng(0).normal(size=(n, d))
        maps = []
        monkeypatch.setattr(kernels, "_own_array",
                            lambda *shape, real=kernels._own_array:
                            maps.append(shape) or real(*shape))
        tracemalloc.start()
        try:
            out = sq_distances(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert maps == [(n, n)] and out.shape == (n * (n - 1) // 2,)
        chunk = n * kernels._MIN_CHUNK_COLUMNS * 8
        assert peak <= chunk + (1 + kernels.READ_WORKERS) * READ_BLOCK_BYTES

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
    def test_high_d_self_map_peaks_at_one_full_matrix(self):
        # the mapped peak, which tracemalloc does not see: the process's
        # high-water mark grows by the one n x n map (32 MB) plus the chunk
        # and a few blocks, not by a second, condensed array (16 MB more),
        # and once the pages past the triangle are returned the condensed
        # output (16 MB) stays resident, not the whole map. A fresh
        # interpreter, so that the high-water mark starts near the resident
        # size, warmed on 500 rows, so that BLAS's buffers are in place
        script = (
            "import numpy as np\n"
            "from spectral_series.kernels import sq_distances\n"
            "def status(key):\n"
            "    with open('/proc/self/status') as fh:\n"
            "        line = next(l for l in fh if l.startswith(key + ':'))\n"
            "    return int(line.split()[1]) * 1024\n"
            "X = np.random.default_rng(0).normal(size=(2000, 600))\n"
            "sq_distances(X[:500])\n"
            "before = status('VmRSS')\n"
            "out = sq_distances(X)\n"
            "print(status('VmHWM') - before, status('VmRSS') - before)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(kernels.__file__)),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        peak, kept = (int(v) for v in proc.stdout.split())
        n = 2000
        chunk = n * kernels._MIN_CHUNK_COLUMNS * 8
        assert peak <= 8 * n * n + chunk + 8 * 2**20
        assert kept <= 8 * n * (n - 1) // 2 + chunk + 4 * 2**20

    @pytest.mark.skipif(kernels._MADV_HUGEPAGE is None, reason="no MADV_HUGEPAGE on this platform")
    def test_private_map_works_when_the_huge_page_hint_is_refused(self, monkeypatch):
        # a kernel without transparent huge pages refuses the hint with an
        # OSError; the map keeps its small pages and works as before
        hints = []

        class Refusing(mmap.mmap):
            def madvise(self, option, *args):
                hints.append(option)
                raise OSError(errno.EINVAL, "no transparent huge pages")

        monkeypatch.setattr(kernels.mmap, "mmap", Refusing)
        n = 1024  # 8 MiB, above HUGE_PAGE_MIN_BYTES
        assert 8 * n * n >= kernels.HUGE_PAGE_MIN_BYTES
        big, small = kernels._own_array(n, n), kernels._own_array(4, 4)
        assert hints == [kernels._MADV_HUGEPAGE]
        big[:] = 2.0
        small[:] = 3.0
        assert big.shape == (n, n) and big.sum() == 2.0 * n * n and small.sum() == 48.0
        assert isinstance(big.base, Refusing)

    @pytest.mark.parametrize("n, d, shift", [
        (300, BLAS_DISTANCE_MIN_D, 0.0), (300, BLAS_DISTANCE_MIN_D, 1e3),
        (2000, 300, 0.0), (2000, 300, 1e3), (600, 1000, 0.0), (600, 1000, 1e3),
    ])
    def test_within_the_stated_error_bound(self, n, d, shift):
        # the module notes bound an entry's absolute error by
        # d * eps * (||a - mu||^2 + ||b - mu||^2), mu the reference rows'
        # column mean; from 1024 rows on a chunk is 128 columns, so d = 300
        # is two whole chunks and part of a third, and 600 rows split
        # d = 1000 into 192-column chunks with a ragged last one
        data = gen_circle(n + 150, d=d, noise_var=0.5, seed=d, rotate=True)
        X, Q = data.features[:n] + shift, data.features[n:] + shift
        centered = X - X.mean(axis=0)
        norms = np.einsum("ij,ij->i", centered, centered)
        qnorms = np.einsum("ij,ij->i", Q - X.mean(axis=0), Q - X.mean(axis=0))
        eps = np.finfo(float).eps
        i, j = np.triu_indices(n, 1)
        err = np.abs(sq_distances(X) - pdist(X, "sqeuclidean"))
        assert np.all(err <= d * eps * (norms[i] + norms[j]))
        err = np.abs(sq_distances(Q, X) - cdist(Q, X, "sqeuclidean"))
        assert np.all(err <= d * eps * (qnorms[:, None] + norms))

    @pytest.mark.parametrize("d", [BLOCK_GRAM_MAX_D + 1, BLAS_DISTANCE_MIN_D - 1,
                                   BLAS_DISTANCE_MIN_D, 100, 1000])
    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_stored_self_distances_are_symmetric_with_a_zero_diagonal(self, d, shift):
        # the n x n self distances a sweep stores, and fit_basis writes into
        # its Gram, whatever the buffer held (NaN here); their strict upper
        # triangle is the condensed form, bit for bit
        X = gen_circle(333, d=d, noise_var=0.5, seed=d, rotate=True).features + shift
        full = np.full((333, 333), np.nan)
        kernels._distances_into(X, full)
        assert np.array_equal(full, full.T)
        assert np.all(np.diag(full) == 0.0) and full.min() >= 0.0
        assert np.array_equal(full[np.triu_indices(333, 1)], sq_distances(X))
        stored, _ = _sweep_distances(X, X[:5])
        assert np.array_equal(stored, full)

    @pytest.mark.parametrize("d", [BLOCK_GRAM_MAX_D + 1, BLAS_DISTANCE_MIN_D, 1000])
    def test_grams_from_stored_distances_keep_their_bits_on_every_worker_count(
            self, d, monkeypatch):
        # a sweep's self and validation Grams exponentiate stored distances
        # in row blocks on the read pool: on one worker and on two, with
        # 17-row blocks, they have the bits of gram_matrix's
        data = gen_circle(400, d=d, noise_var=0.5, seed=d, rotate=True).features
        X, Q = data[:300], data[300:]
        spec = KernelSpec.gaussian(float(np.median(sq_distances(X))) / 4.0)
        want, want_cross = gram_matrix(spec, X), gram_matrix(spec, Q, X)
        full, cross = _sweep_distances(X, Q)
        monkeypatch.setattr(kernels, "READ_BLOCK_BYTES", 8 * 17 * 300)
        for workers in (1, 2):
            monkeypatch.setattr(kernels, "READ_WORKERS", workers)
            K, Kv, sums = np.full((300, 300), np.nan), np.full((100, 300), np.nan), np.empty(300)
            assert _gram_into(spec, X, None, K, full, sums) is K
            assert _gram_into(spec, Q, X, Kv, cross) is Kv
            assert np.array_equal(K, want) and np.array_equal(sums, want.sum(axis=1))
            assert np.array_equal(Kv, want_cross)


class TestBandwidthGrid:
    def test_single_value_is_quarter_median(self):
        # two points at distance 2: lone squared distance 4 -> 4/4 = 1
        X = np.array([[0.0], [2.0]])
        grid = bandwidth_grid(X, 1)
        assert grid.shape == (1,) and np.isclose(grid[0], 1.0, atol=1e-12)

    def test_sorted_positive(self):
        X = np.random.default_rng(0).normal(size=(40, 3))
        grid = bandwidth_grid(X, 7)
        assert grid.shape == (7,)
        assert np.all(grid > 0.0)
        assert np.all(np.diff(grid) > 0.0)

    def test_identical_points_rejected(self):
        with pytest.raises(InputError):
            bandwidth_grid(np.ones((5, 2)), 3)

    def test_near_degenerate_spread_collapses(self):
        # all pairwise distances equal: percentile spread is zero
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        grid = bandwidth_grid(X, 4)
        assert grid.shape[0] >= 1
        assert np.all(grid > 0.0)

    def test_one_distinct_distance_gives_one_bandwidth(self):
        # two points: the 1st and 99th percentiles coincide, so no grid spans them
        assert np.array_equal(bandwidth_grid(np.array([[0.0], [2.0]]), 3), [1.0])

    def test_one_call_equals_the_two_call_formula(self):
        # duplicate rows give zero distances, which both formulas drop
        rng = np.random.default_rng(11)
        for X in (rng.normal(size=(300, 3)),
                  np.vstack([rng.normal(size=(200, 40))] * 2),
                  np.repeat(rng.normal(size=(50, 2)), 3, axis=0)):
            sq = pdist(X, "sqeuclidean") if X.shape[1] < BLAS_DISTANCE_MIN_D \
                else sq_distances(X)
            sq = sq[sq > 0.0]
            assert np.array_equal(bandwidth_grid(X, 1), [float(np.median(sq)) / 4.0])
            lo = float(np.percentile(sq, 1.0)) / 4.0
            hi = float(np.percentile(sq, 99.0)) / 4.0
            assert np.array_equal(bandwidth_grid(X, 5), np.geomspace(lo, hi, 5))

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
    def test_grids_leave_no_distances_resident(self):
        # the condensed distances (16 MB here) lie in a memory map of their
        # own: from the heap, a second grid's would stay resident in a hole
        # that the arrays made after them pin. A fresh interpreter, so that
        # no hole left by an earlier test can take them in
        script = (
            "import os\n"
            "from spectral_series import bandwidth_grid, gen_spiral\n"
            "def resident():\n"
            "    with open('/proc/self/statm') as fh:\n"
            "        return int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE')\n"
            "X = gen_spiral(2000, noise_sd=0.1, seed=1).features\n"
            "before = resident()\n"
            "grids = [bandwidth_grid(X, 5) for _ in range(2)]\n"
            "print(resident() - before)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.dirname(os.path.dirname(kernels.__file__)),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        assert int(proc.stdout) < 4 * 2**20


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


class TestExpFastPath:
    """_exp has one floor: np.exp's bits from EXP_SLOW_BELOW up, exactly 0 below.

    So no Gaussian entry is subnormal, and none takes np.exp's slow path.
    NaN stays NaN and -inf gives 0.
    """

    EDGES = [
        -745.1332191019411, -745.1332191019412, float(np.log(np.finfo(float).tiny)),
        EXP_SLOW_BELOW, -745.2, -1021 * np.log(2.0), -1074 * np.log(2.0),
        -744.44, -708.4, -0.0, 0.0, -1e300, -1e308,
    ]

    @staticmethod
    def _floored(x):
        want = np.exp(x)
        want[x < EXP_SLOW_BELOW] = 0.0
        return want

    def _check(self, x):
        want = self._floored(x)
        got = _exp(x.copy())
        assert np.array_equal(_bits(got), _bits(want))

    def test_dense_sweep_of_the_negative_range(self):
        x = np.linspace(-800.0, 0.0, 400_001)
        x = np.concatenate([x, self.EDGES,
                            np.nextafter(self.EDGES, 0.0), np.nextafter(self.EDGES, -np.inf)])
        self._check(x)
        self._check(np.linspace(-746.0, -700.0, 200_001))

    @pytest.mark.parametrize("special", [np.nan, -np.inf])
    def test_nan_and_minus_inf_keep_np_exp(self, special):
        # a NaN minimum must not let the band (-745.13, -707.7) keep np.exp's values
        x = np.linspace(-800.0, 0.0, 1001)
        x[[3, 500]] = special
        self._check(x)
        got = _exp(np.full(5, special))
        assert np.array_equal(_bits(got), _bits(np.exp(np.full(5, special))))

    def test_adversarial_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            size = int(rng.integers(1, 3000))
            x = np.concatenate([rng.uniform(-760.0, -700.0, size),
                                rng.uniform(-2000.0, 0.0, size),
                                rng.choice(self.EDGES, size)])
            rng.shuffle(x)
            self._check(x.reshape(3, size))
            # a strided view is written in place, as a contiguous array is
            wide = np.repeat(x.reshape(3, size), 2, axis=1)
            view = wide[:, ::2]
            assert _exp(view) is view
            assert np.array_equal(_bits(wide[:, ::2]), _bits(self._floored(x.reshape(3, size))))

    @pytest.mark.parametrize("bw", [0.0002, 0.0005, 0.0185, 58.9])
    def test_gaussian_grams_keep_the_plain_formula_bits(self, bw):
        # the two narrow bandwidths send 75 % and 59 % of the self Gram below
        # EXP_SLOW_BELOW, with 0.7 % and 1.3 % above -745.2, where np.exp is
        # not 0; the cross Gram spans several of _exp's READ_BLOCK_BYTES blocks
        X = gen_circle(700, d=2, noise_var=0.5, seed=4).features
        Q = X[:READ_BLOCK_BYTES // (8 * 700) + 200]
        cond = pdist(X, "sqeuclidean")
        direct = self._floored(squareform(cond) * (-0.25 / bw))
        np.fill_diagonal(direct, 1.0)
        K = _gram_into(KernelSpec.gaussian(bw), X, None, np.empty((700, 700)),
                       squareform(cond))
        assert np.array_equal(_bits(K), _bits(direct))
        sq = cdist(Q, X, "sqeuclidean")
        want = self._floored(sq * (-0.25 / bw))
        assert np.array_equal(_bits(gaussian_from_sqdist(sq.copy(), bw)), _bits(want))
        assert np.array_equal(_bits(gaussian_from_sqdist(sq[:, ::2], bw,
                                                         out=np.empty((Q.shape[0], 350)))),
                              _bits(want[:, ::2]))

    @pytest.mark.parametrize("d", [2, BLOCK_GRAM_MAX_D + 1])
    def test_subnormal_bandwidth_keeps_the_unit_diagonal(self, d):
        # -0.25 / 1e-310 is -inf, and a zero distance times -inf is NaN; the
        # clamped scale gives exp(-0) = 1 there, as sq / (-4 bw) did, and 0
        # at every positive distance. A squared distance above 1 overflows
        # the product to -inf; the package silences that overflow on the
        # clamped scale alone, so no warning reaches the caller
        X = np.zeros((3, d))
        X[1:, 0] = 1.0
        X[0, 0] = -0.5
        X[2, 1] = 1.0
        want = np.eye(3)
        spec = KernelSpec.gaussian(1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(gram_matrix(spec, X), want)
            assert np.array_equal(gram_matrix(spec, X[:2], X), want[:2])
            assert kernel_value(spec, X[1], X[1]) == 1.0

    @pytest.mark.parametrize("d", [2, BLOCK_GRAM_MAX_D + 1, BLAS_DISTANCE_MIN_D])
    def test_within_a_few_ulp_of_the_divided_formula(self, d):
        # each exponent is sq * (-0.25 / bw), rounded twice, where the
        # definition's sq / (-4 bw) is rounded once: every argument stays
        # within 2 ulp of it, and every entry within about |arg| * 2^-52
        # relative (plus np.exp's own rounding at two nearby arguments). An
        # entry may change sides of the floor only within 2 ulp of it
        X = gen_circle(400, d=d, noise_var=0.5, seed=d).features
        Q = X[:150] + 0.05
        cond = sq_distances(X)
        scale = float(np.median(cond)) / 4.0
        eps = np.finfo(float).eps
        for bw in scale * np.geomspace(1e-3, 1e3, 9):
            for K, sq in ((gram_matrix(KernelSpec.gaussian(bw), X), squareform(cond)),
                          (gram_matrix(KernelSpec.gaussian(bw), Q, X), sq_distances(Q, X))):
                arg = sq / (-4.0 * bw)
                new = sq * (-0.25 / bw)
                assert np.all(np.abs(new - arg) <= 2.0 * np.spacing(np.abs(arg)))
                old = self._floored(arg)
                if K.shape[0] == K.shape[1]:
                    np.fill_diagonal(old, 1.0)
                both = (K > 0.0) & (old > 0.0)
                bound = (2.0 * np.abs(arg[both]) + 4.0) * eps * old[both]
                assert np.all(np.abs(K[both] - old[both]) <= bound)
                flipped = (K > 0.0) != (old > 0.0)
                assert np.all(np.abs(arg[flipped] - EXP_SLOW_BELOW)
                              <= 2.0 * np.spacing(-EXP_SLOW_BELOW))

    @pytest.mark.parametrize("d", [2, BLAS_DISTANCE_MIN_D])
    def test_no_gram_entry_below_the_floor(self, d):
        X = gen_circle(300, d=d, noise_var=0.5, seed=6).features
        Q = X[:97] + 0.01
        bw = float(np.median(sq_distances(X))) / 2400.0
        floor = 2.0 ** -1021
        spec = KernelSpec.gaussian(bw)
        for K, sq in ((gram_matrix(spec, X), squareform(sq_distances(X))),
                      (gram_matrix(spec, Q, X), sq_distances(Q, X))):
            # at this bandwidth np.exp leaves entries in (0, 2**-1021)
            plain = np.exp(sq / (-4.0 * bw))
            assert np.any((plain > 0.0) & (plain < floor))
            assert not np.any((K > 0.0) & (K < floor))

    @pytest.mark.parametrize("n", [1, 2, 3, 129, 1030])
    def test_self_gram_sizes(self, n):
        X = np.random.default_rng(n).normal(size=(n, 3))
        cond = pdist(X, "sqeuclidean")
        want = np.exp(squareform(cond) * (-0.25 / 0.3))
        np.fill_diagonal(want, 1.0)
        assert np.array_equal(gram_matrix(KernelSpec.gaussian(0.3), X), want)


class TestMatmul:
    """The package's one product helper runs on scipy's BLAS, in place."""

    rng = np.random.default_rng(8)
    A = rng.normal(size=(300, 70))
    LAYOUTS = {
        "C": lambda M: M,
        "F": np.asfortranarray,
        "T-of-C": lambda M: np.ascontiguousarray(M.T).T,
        "column-sliced": lambda M: np.repeat(M, 2, axis=1)[:, ::2],
    }

    @pytest.mark.parametrize("la", list(LAYOUTS))
    @pytest.mark.parametrize("lb", list(LAYOUTS))
    def test_matrix_products_match_numpy(self, la, lb):
        B = self.rng.normal(size=(70, 40))
        got = matmul(self.LAYOUTS[la](self.A), self.LAYOUTS[lb](B))
        assert got.flags.c_contiguous
        assert np.allclose(got, self.A @ B, rtol=1e-13, atol=1e-12)

    @pytest.mark.parametrize("la", list(LAYOUTS))
    def test_matrix_vector_products_match_numpy(self, la):
        x = self.rng.normal(size=70)
        assert np.allclose(matmul(self.LAYOUTS[la](self.A), x), self.A @ x,
                           rtol=1e-13, atol=1e-12)
        z = self.rng.normal(size=300)
        assert np.allclose(matmul(self.LAYOUTS[la](self.A).T, z), self.A.T @ z,
                           rtol=1e-13, atol=1e-12)

    def test_output_is_written_in_place(self):
        B = self.rng.normal(size=(70, 5))
        big = np.full((400, 5), np.nan)
        block = big[50:350]
        assert matmul(self.A, B, out=block) is block
        assert np.allclose(big[50:350], self.A @ B, rtol=1e-13, atol=1e-12)
        assert np.isnan(big[:50]).all() and np.isnan(big[350:]).all()
        y = np.full(400, np.nan)
        assert matmul(self.A, B[:, 0], out=y[100:400]).base is y
        assert np.allclose(y[100:400], self.A @ B[:, 0], rtol=1e-13, atol=1e-12)
        assert np.isnan(y[:100]).all()
