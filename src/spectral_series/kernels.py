"""Mercer kernels and Gram-matrix construction.

Two families are supported: the Gaussian kernel
``exp(-||x - y||^2 / (4 * bandwidth))`` and the polynomial kernel
``(<x, y> + 1)^degree``. Self Gram matrices are exactly symmetric by
construction, which the symmetry contract (diffusion module notes) rests on.

Squared distances (``sq_distances``) take one of two routes, chosen by the
column count d:

- Below ``BLAS_DISTANCE_MIN_D`` they come from scipy's ``pdist``/``cdist``
  loops, bit for bit.
- At or above it they come from BLAS products, in ``DISTANCE_TILE_ROWS``-row
  tiles: ||a||^2 + ||b||^2 - 2<a, b>, clamped at 0 and written straight into
  the output. The self form fills only the upper triangle (condensed
  ``pdist`` order), so a self Gram built from it is exactly symmetric.
  Measured on a 2-core box with 800 reference rows, over
  repeated runs, the BLAS route broke even with ``pdist`` between d = 25 and
  d = 50 and with ``cdist`` between d = 10 and d = 20, and a tuning sweep's
  self plus cross pass gained from d = 32 on; at d = 1000 it is about 6x
  faster.

Both operands of the product are first centered on the reference rows'
column mean (the rows themselves for the self form, the training rows for the
cross form), which leaves distances unchanged but keeps the norms, and so the
cancellation, at the data's spread instead of its offset from the origin.
The absolute error of an entry is then a small multiple of
d * eps * (||a - mu||^2 + ||b - mu||^2); on 800 points in d = 1000 with
squared distances up to 4 it stayed within 1.6e-14, also with every coordinate
shifted by 1e3. A read path prepares the training side once per call
(``cross_gram``): the mean and centered norms up front, the centered rows
from the second block on, so each later block centers only its own rows.

One BLAS thread pool. numpy and scipy load separate OpenBLAS builds, each
with its own thread pool, and a process that alternates between the two
stalls on every hand-over. So every dense product and factorization on the
fit, tune, predict and baseline paths runs on scipy's build: the distances,
the eigensolvers (``eigh``, the Lanczos ``dsymv``), the randomized range
finder, the extension, the coefficients, the polynomial Grams and the KRR
solves. Products go through ``matmul``, which hands C-ordered operands to
``scipy.linalg.blas`` as their Fortran views and writes into the caller's
output, so no operand is copied. A tier-1 test fails on any ``@``,
``np.matmul``, ``np.dot``, ``np.inner``, ``np.tensordot`` or ``np.linalg``
call in the package outside its allowlist:

- ``dataset.gen_circle``'s QR, whose bits fix the benchmark data;
- row norms from ``np.linalg.norm``, a reduction, no BLAS call.

One worker pool for the read paths and the narrow Gaussian Grams. Below
``BLAS_DISTANCE_MIN_D`` a query block's cross Gram comes from ``cdist`` and
``np.exp``, both single-threaded loops, and BLAS runs only the final
matrix-vector product (about 4 % of a block on predict-spiral); a Gaussian
self Gram of at most ``BLOCK_GRAM_MAX_D`` columns is the same two loops (see
below). So ``map_blocks`` spreads the blocks over ``READ_WORKERS`` threads
(``SPECTRAL_SERIES_THREADS`` if it is a positive integer, else the CPUs the
process may run on), one whole block per task, the calling thread
included; the pool is made on the first call with more than one
block, and at one worker there is none. A block is ``READ_BLOCK_BYTES``
= 1 MiB so that it stays in its core's L2 through the distance, exponential,
row-sum and product passes; it is the one block size of every other pass
over an n^2-scale array too (``_exp``'s floor, the fit's scaling). On a
2-core Xeon with 2 MiB of L2 per core, a 20 000-row predict on 2000
training points (medians of 9) took 0.144 s on one worker and 0.156 s on
two with 8 MiB blocks (4 MiB: 0.142 and 0.157 s), but 0.138 and 0.076 s
with 1 MiB blocks (2 MiB: 0.073 s on two, 0.5 MiB: 0.089 s). At or above
``BLAS_DISTANCE_MIN_D`` the distances are already a multi-threaded BLAS
product, and the blocks run in order on the caller in ``BLOCK_BYTES``
blocks: on the pool, 8000 queries at d = 1000 against 800
training points took 0.28 s against 0.22 s in order. Which thread runs a
block changes no bit of it: ``row_blocks`` keeps blocks whole groups of 64
rows. So below ``BLAS_DISTANCE_MIN_D`` a saved model predicts the same bits
at every thread count (README); fits, tunes and wider predictions do not
promise that, as their BLAS products may round differently at another BLAS
thread count.

Every Gaussian entry, self and cross Grams and ``kernel_value`` alike, is
formed in one function, ``gaussian_from_sqdist``: the squared distance
times -0.25 / bandwidth, the scale computed once per call, then ``_exp``.
A multiply costs less than a divide: over one 1 MiB block of 64 queries by
2000 training points (one thread, medians of 300 on a 2-core Xeon) it took
50-53 us against 88-97 us, where ``cdist`` took about 145 us and
``np.exp`` about 105 us. The scale and then each product are rounded, so
an argument may sit about one ulp from -sq / (4 bandwidth), and an entry
within about |arg| * 2^-52 relative of that formula's value. The product
is formed under ``np.errstate(over="ignore")`` on every call, as a product
that overflows to -inf gives the intended 0; that costs about 1 us a call.

Gaussian entries have one floor, self and cross Grams alike: an argument
below ``EXP_SLOW_BELOW`` = -707.7 gives exactly 0, and every other entry
keeps ``np.exp``'s bits. So an entry is 0 or at least 2^-1021, and no Gram
holds a subnormal, whose products run outside the floating-point fast path.
``np.exp``'s vectorized loop leaves for a slow path on arguments below
-1021 ln 2 = -707.70, where a 0 or a tiny normal result costs about 13x a
normal entry and a subnormal one about 100x; at a narrow bandwidth over half
of a Gram lands there. ``_exp`` takes the plain call when no argument is
that low, and otherwise raises the low ones into the vectorized range and
multiplies their results by 0.

A self Gram is built in an n x n array (``_self_gram_into``), a new one or a
buffer the caller reuses, with no n x n temporary; the array's old contents
are never read, so ``tune_series`` builds every candidate in one buffer, and
``fit_basis`` takes its row sums from the build instead of from a pass of its
own. The build depends on the width of the rows:

- A Gaussian Gram of at most ``BLOCK_GRAM_MAX_D`` (8) columns is built
  from its points, one ``READ_BLOCK_BYTES`` block of rows at a time on the
  read pool (``_gram_into``), by the function ``cross_gram`` gives every
  read path: ``cdist`` writes the block's squared distances into its rows
  of K, which are scaled by -0.25 / bandwidth and exponentiated in place
  (``gaussian_from_sqdist``), and the block's row sums are taken while it
  is in L2. ``cdist(X, X)`` is exactly symmetric, has a zero diagonal (so
  a diagonal of 1) and equals ``pdist``'s condensed entries bit for bit.
  At that width its loop costs no more than the exponentials it feeds, so
  no distances are stored, not even for a tuning sweep. On 2000 spiral points
  (medians of 15 on a 2-core box) a build took 14-19 ms on one worker and
  7.5-10 ms on two, against 21-24 ms for ``pdist`` and the two-pass build
  below. Wider rows make the distances the larger cost, and a sweep then
  gains more from computing them once than from the pool (see the
  constant's comment).
- Otherwise it takes two passes. The first fills the upper triangle: the
  Gaussian exponentials of the condensed distances, run by run, or one
  BLAS ``syrk``. The second (``_complete_rows``) walks 64-row tiles in
  order. It copies each tile's lower part from the rows above it, sets the
  Gaussian diagonal to 1 or raises the polynomial tile to its degree, and
  takes the tile's row sums while the tile is still in L2. A tuning sweep
  computes the condensed distances once for all its bandwidths.

Either way the row sums have the bits of ``K.sum(axis=1)``. Which route
builds a Gram is decided here alone: a tuning sweep asks
``_sweep_distances`` for the distances it may share, which are None up to
``BLOCK_GRAM_MAX_D`` columns, and hands whatever it got to
``_self_gram_into`` and, for its validation Gram, to ``_gram_into``.

The package's two n^2-scale outputs, a Gram the build allocates itself and
the condensed self distances (``sq_distances``, which ``bandwidth_grid``
and a tuning sweep read), each lie in a private anonymous memory map of
their own (``_own_array``), so freeing one returns its pages whatever the
heap holds around it. From the heap they would stay resident: glibc raises
its map threshold to the size of each map it frees, so the second array of
a size comes from the heap, and the arrays made after it pin it there,
since the heap shrinks only from its top. Three 2000-point fits in one
process peaked 10 MB higher that way, and a second bandwidth grid on 2000
points left its 16 MB of freed distances resident under the fits after it.
"""

from __future__ import annotations

import contextvars
import mmap
import os
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.blas import dgemm, dgemv, dsyrk
from scipy.spatial.distance import cdist, pdist

from . import _THREADS  # SPECTRAL_SERIES_THREADS, parsed once in the package's __init__
from .errors import InputError, NumericalError

__all__ = ["KernelSpec", "kernel_value", "gram_matrix", "bandwidth_grid", "sq_distances"]

# Read paths whose blocks run in order (see map_blocks) build their
# temporaries this many bytes at a time, so their heap beyond the output is
# one block.
BLOCK_BYTES = 8 * 2**20
# Read paths on the worker pool build their query-by-training matrices this
# many bytes at a time, so their heap is bounded by one block per worker, not
# by the query count. 1 MiB keeps a block in its core's L2 (see the module
# notes), so the package's other passes over n^2-scale arrays (_exp's floor,
# _gaussian_upper's runs, the fit's scaling) take blocks of this size too.
READ_BLOCK_BYTES = 2**20


def _usable_cpus() -> int:
    """The number of CPUs the process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Threads that run a read path's query blocks, the calling thread included:
# SPECTRAL_SERIES_THREADS if it is a positive integer, else the usable CPUs.
READ_WORKERS = _THREADS or _usable_cpus()

# Squared distances of rows with at least this many columns come from BLAS
# products; narrower rows keep the exact pdist/cdist loops.
BLAS_DISTANCE_MIN_D = 32
# Gaussian self Grams of rows with at most this many columns are built from
# the points one READ_BLOCK_BYTES (1 MiB) block of rows at a time
# (_gram_into), and a tuning sweep stores no distances for them
# (_sweep_distances); wider rows keep condensed distances, which a sweep
# computes once. A block build computes all n^2 distances, twice the pairs
# pdist does, and a sweep repeats them per bandwidth, so the split follows
# the sweep's cost on one worker. The Gram work of a 5-bandwidth sweep on
# 2000 points and 1000 validation rows (2-core Xeon, medians of 15) took
# 196 ms built from the points against 220 ms from stored distances at
# d = 8, and 211 against 205 ms at d = 9 (d = 12: 340 against 249 ms). On
# two workers the block route still won at d = 16 and lost at 31.
BLOCK_GRAM_MAX_D = 8
# Rows per tile of the BLAS route, whose heap beyond the output is a few
# tiles.
DISTANCE_TILE_ROWS = 256
# Rows per tile of a self Gram's completing pass (_complete_rows): at
# n = 2000 a tile is 1 MiB, so it is still in L2 when its row sums are taken.
# It stays a row count, not a byte size: a 1 MiB tile is 13 rows at
# n = 10 000, and the lower triangle's column-tile copies would grow from
# about 12 000 to about 296 000.
_ROW_TILE = 64
_STRICT_LOWER = np.tri(_ROW_TILE, k=-1, dtype=bool)

# The Gaussian floor (see the module notes): an argument below EXP_SLOW_BELOW
# gives exactly 0. exp(-707.7) is 2**-1020.995, and np.exp's vectorized loop
# takes arguments down to -1021 ln 2 = -707.7033; below that each entry takes
# a slow path, about 20 ns for a small normal result or a 0 and 120-200 ns
# for a subnormal one, against 1.5 ns.
EXP_SLOW_BELOW = -707.7
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its single hyperparameter.

    family is "gaussian" (needs a finite bandwidth > 0) or "poly" (needs
    integer degree >= 1). Distances are Euclidean.
    """

    family: str
    bandwidth: float | None = None
    degree: int | None = None

    def __post_init__(self):
        if self.family == "gaussian":
            object.__setattr__(self, "bandwidth",
                               _checked_positive(self.bandwidth, "gaussian kernel bandwidth"))
        elif self.family == "poly":
            object.__setattr__(self, "degree",
                               _checked_int(self.degree, "poly kernel degree", 1))
        else:
            raise InputError(f"unknown kernel family {self.family!r}")

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        return cls("gaussian", bandwidth=bandwidth)

    @classmethod
    def polynomial(cls, degree: int) -> "KernelSpec":
        return cls("poly", degree=degree)

    def with_bandwidth(self, bandwidth: float) -> "KernelSpec":
        if self.family != "gaussian":
            raise InputError("with_bandwidth only applies to the gaussian family")
        return replace(self, bandwidth=bandwidth)

    def label(self) -> str:
        if self.family == "gaussian":
            return f"gaussian(eps={self.bandwidth:.6g})"
        return f"poly(q={self.degree})"


def _checked_training(X, y=None, min_rows: int = 1) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Training points X as a 2-D float array and responses y as a 1-D one.

    The input contract of every fit and baseline (README, "Input contract"):
    X holds n >= min_rows finite points, one per row, in d >= 1 columns; a
    1-D X is refused, not read as one point or one feature. y, if given,
    ravels to n finite values; with X None, y is checked alone. A float64 X
    is returned as passed, with no copy and its memory order kept, so no
    output bit depends on the check. Every fault raises InputError.
    """
    if X is not None:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise InputError(f"training points must be 2-D, one point per row; got shape "
                             f"{X.shape} (pass a single feature as X.reshape(-1, 1))")
        if X.shape[1] < 1:
            raise InputError(f"training points have no columns (shape {X.shape})")
        if X.shape[0] < min_rows:
            raise InputError(f"got {X.shape[0]} training points; need at least {min_rows}")
        _checked_queries(X, X.shape[1], "training")
    if y is None:
        return X, None
    y = np.asarray(y, dtype=float).ravel()
    if X is not None and y.shape[0] != X.shape[0]:
        raise InputError(f"got {y.shape[0]} responses for {X.shape[0]} training points")
    _checked_queries(y[:, None], 1, "response")
    return X, y


def _checked_queries(Q, d: int, what: str = "query") -> np.ndarray:
    """Query rows Q as a 2-D float array of d finite columns; a 1-D Q is one row.

    More than two dimensions, another column count, or a row holding NaN or
    Inf (it has no distance to any training point) raises InputError naming
    the rows by what. A float64 Q is returned as passed, after one pass over
    it.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.ndim > 2:
        raise InputError(f"{what} rows must be 1-D or 2-D, got shape {Q.shape}")
    if Q.shape[1] != d:
        raise InputError(f"{what} dimension {Q.shape[1]} does not match training dimension {d}")
    # a sum of finite entries is finite unless it overflows; only then are the rows scanned
    with np.errstate(over="ignore", invalid="ignore"):
        total = Q.sum()
    if not np.isfinite(total):
        finite = np.isfinite(Q).all(axis=1)
        if not finite.all():
            raise InputError(f"{what} row {int(np.argmin(finite))} contains NaN or Inf")
    return Q


# a bool is an int to Python, but as a count or a scale it is a mistake
_BOOLS = (bool, np.bool_)


def _shown(value) -> str:
    """A refused value as a message shows it: a str quoted, so that "3" does not
    read as the number 3, and a number as str() prints it, not as np.float64(3.0)."""
    return repr(value) if isinstance(value, str) else str(value)


def _checked_int(value, what: str, low: int, high: float = np.inf) -> int:
    """value as an int in low..high, else InputError: 2.0 passes as 2; 2.5, True and "2" fail."""
    try:
        ok = not isinstance(value, _BOOLS) and low <= value <= high and value == int(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        bounds = f">= {low}" if high == np.inf else f"in {low}..{high}"
        raise InputError(f"{what} must be an integer {bounds}, got {_shown(value)}")
    return int(value)


def _checked_real(value, what: str, low: float = -np.inf, strict: bool = False) -> float:
    """value as a finite float >= low (> low if strict), else InputError; True and "1.0" fail."""
    try:
        # np.isfinite raises TypeError for a str and for an int too large for a float
        ok = (not isinstance(value, _BOOLS) and np.isfinite(value)
              and (value > low if strict else value >= low))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        bound = "" if low == -np.inf else f"{'>' if strict else '>='} {low:g} and "
        raise InputError(f"{what} must be {bound}finite, got {_shown(value)}")
    return float(value)


def _checked_positive(value, what: str) -> float:
    """value as a float that is finite and > 0, else InputError; True and "1.0" fail."""
    return _checked_real(value, what, 0.0, strict=True)


def row_blocks(m: int, n: int, nbytes: int = BLOCK_BYTES) -> Iterator[slice]:
    """Slices of m rows whose m_block x n float64 block fits nbytes.

    Where the budget allows, a block is a multiple of 64 rows. OpenBLAS splits
    a matrix-vector product's rows evenly over its threads and runs each share
    in groups of 4, and a row in a share's ragged tail rounds differently. With
    64-row multiples every share on up to 16 threads is whole groups, so the
    blocked product has the bits of one whole-array call whose shares are
    whole groups too (20 000 rows on 2 threads, say).
    """
    step = nbytes // (8 * n)
    if step >= 64:
        step -= step % 64
    step = max(1, step)
    for start in range(0, m, step):
        yield slice(start, min(start + step, m))


_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_lock = threading.Lock()


def _executor(count: int) -> ThreadPoolExecutor:
    """The shared pool, made on first use and remade if READ_WORKERS grew.

    A replaced pool is not shut down, so a caller still holding it can
    submit; its threads end once the last such caller drops it.
    """
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None or _pool_size < count:
            _pool = ThreadPoolExecutor(count, thread_name_prefix="spectral_series-read")
            _pool_size = count
        return _pool


def map_blocks(fn: Callable[[slice], object], m: int, n: int,
               d: int | None = None) -> list:
    """[fn(rows) for rows in the row blocks of m x n] on READ_WORKERS threads.

    d is the column count of the cross Gram that fn builds, if it builds one.
    At or above BLAS_DISTANCE_MIN_D its distances are already a multi-threaded
    BLAS product, so the blocks run in order on the calling thread, in
    BLOCK_BYTES blocks: a smaller block made 8000 queries at d = 1000 against
    800 training points no faster (0.228 s at 1 MiB, 0.224 s at 8 MiB) and
    would cut the distance products into shallower tiles, whose rounding
    OpenBLAS may change. Otherwise the blocks are READ_BLOCK_BYTES and the
    calling thread and the pool's helpers each take whole blocks, so fn must
    write only its own rows; with READ_WORKERS at 1 or a single block there
    is no pool. Each helper task runs in a copy of the caller's contextvars
    context, so np.errstate applies inside it. The first exception a block
    raises is re-raised unchanged once every started task has ended, and no
    block starts after it. The caller never waits on a task that has not
    started (it cancels those), so nested and concurrent calls cannot
    deadlock on a busy pool.
    """
    if d is not None and d >= BLAS_DISTANCE_MIN_D:
        return [fn(rows) for rows in row_blocks(m, n)]
    blocks = list(row_blocks(m, n, READ_BLOCK_BYTES))
    helpers = min(READ_WORKERS, len(blocks)) - 1
    if helpers < 1:
        return [fn(rows) for rows in blocks]
    results: list = [None] * len(blocks)
    errors: list[BaseException] = []
    claim_lock = threading.Lock()
    claimed = 0

    def drain():
        nonlocal claimed
        while True:
            with claim_lock:
                i = claimed
                claimed += 1
            if i >= len(blocks):
                return
            try:
                results[i] = fn(blocks[i])
            except BaseException as exc:  # re-raised by the caller below
                with claim_lock:
                    claimed = len(blocks)
                    errors.append(exc)
                return

    pool = _executor(helpers)
    tasks = [pool.submit(contextvars.copy_context().run, drain) for _ in range(helpers)]
    drain()
    for task in tasks:
        if not task.cancel():
            task.result()
    if errors:
        raise errors[0]
    return results


def _fortran(M: np.ndarray) -> tuple[np.ndarray, int]:
    """(F, t) with F Fortran-ordered and F (t = 0) or F.T (t = 1) equal to M.

    A C-ordered M is passed as its transpose view, so f2py copies nothing;
    only an M that is neither C- nor F-contiguous is copied.
    """
    if M.flags.f_contiguous:
        return M, 0
    return np.ascontiguousarray(M).T, 1


def matmul(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ B for a 2-D A and a 1-D or 2-D B, on scipy's BLAS (dgemv / dgemm).

    Every product of the package goes through here (see the module notes).
    With out given, which must be C-contiguous, the product is written into
    it and out is returned; a C-ordered out is the Fortran view out.T of the
    transposed product, so BLAS writes it in place.
    """
    if B.ndim == 1:
        a, ta = _fortran(A)
        if out is None:
            return dgemv(1.0, a, B, trans=ta)
        dgemv(1.0, a, B, trans=ta, y=out, overwrite_y=1)
        return out
    # A @ B = (B^T A^T)^T, and B^T, A^T are the Fortran views of C-ordered B, A
    bt, tb = _fortran(B.T)
    at, ta = _fortran(A.T)
    if out is None:
        return dgemm(1.0, bt, at, trans_a=tb, trans_b=ta).T
    dgemm(1.0, bt, at, trans_a=tb, trans_b=ta, c=out.T, overwrite_c=1)
    return out


def _tiles(n: int) -> list[slice]:
    return [slice(i, min(i + DISTANCE_TILE_ROWS, n))
            for i in range(0, n, DISTANCE_TILE_ROWS)]


def _centered_norms(X: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of X - mu, one tile at a time."""
    out = np.empty(X.shape[0])
    for t in _tiles(X.shape[0]):
        c = X[t] - mu
        out[t] = np.einsum("ij,ij->i", c, c)
    return out


def _tile_distances(Ac: np.ndarray, Bc: np.ndarray, na: np.ndarray, nb: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """max(-2 <a, b> + na + nb, 0) for the rows a of Ac and b of Bc, into out.

    Ac and Bc are centered tiles and na, nb their rows' squared norms; out
    defaults to the product's own C-ordered block. dgemm takes the
    transposed tiles as Fortran arrays without a copy and returns the
    transposed product in Fortran order, whose .T is C-ordered.
    """
    product = dgemm(-2.0, Bc.T, Ac.T, trans_a=1).T
    out = np.add(product, na[:, None], out=product if out is None else out)
    out += nb
    return np.maximum(out, 0.0, out=out)


def _own_array(*shape: int) -> np.ndarray:
    """A new float64 array of this shape in a private anonymous memory map of its own.

    Every n^2-scale output the package allocates lies in one (see the module
    notes), so freeing it unmaps its pages whatever the heap holds around it.
    The map is private, as the allocator's own large blocks are: after a
    fork, a write on either side copies the page, not shares it. tracemalloc
    does not see it.
    """
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(8 * count, 8), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype=float, count=count).reshape(shape)


def sq_distances(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B.

    With B omitted, the condensed upper triangle of A's self distances in
    ``pdist`` order; otherwise the m x n matrix ``cdist`` returns. Below
    BLAS_DISTANCE_MIN_D columns these are ``pdist``/``cdist`` themselves; at
    or above it they come from tiled BLAS products (see the module notes),
    every entry >= 0. A 1-D A or B is one row. With B given, A and B are
    checked as query rows are (_checked_queries). The condensed self form
    lies in a memory map of its own (_own_array).
    """
    if B is None:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n = A.shape[0]
        out = _own_array(n * (n - 1) // 2)
        if A.shape[1] < BLAS_DISTANCE_MIN_D:
            return pdist(A, "sqeuclidean", out=out)
        return _self_sq_distances(A, out)
    B = _checked_queries(B, np.shape(B)[-1], "reference")
    return _cross_sq_distances(B)(_checked_queries(A, B.shape[1]))


def _cross_sq_distances(B: np.ndarray) -> Callable[..., np.ndarray]:
    """Squared distances from query rows to the rows of B, as a function of the queries.

    The function takes the query rows A and an optional C-ordered out of
    A's row count by B's, which it fills and returns. B's column mean and
    centered norms are computed here, once, and B's centered rows are kept
    from the second call on: a read path calls this once per block of query
    rows, while a one-shot distance pays no n x d copy. Each call forms the
    same tile-pair products whether or not B's centered rows are kept, so
    its bits do not depend on the call count.
    """
    if B.shape[1] < BLAS_DISTANCE_MIN_D:
        return lambda A, out=None: cdist(A, B, "sqeuclidean", out=out)
    mu = B.mean(axis=0)
    nb = _centered_norms(B, mu)
    tiles = _tiles(B.shape[0])
    centered: list[np.ndarray] = []
    calls = 0

    def distances(A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        nonlocal calls
        calls += 1
        if calls == 2:
            centered.append(B - mu)
        out = np.empty((A.shape[0], B.shape[0])) if out is None else out
        for ta in _tiles(A.shape[0]):
            Ac = A[ta] - mu
            na = np.einsum("ij,ij->i", Ac, Ac)
            for tb in tiles:
                Bc = centered[0][tb] if centered else B[tb] - mu
                _tile_distances(Ac, Bc, na, nb[tb], out[ta, tb])
        return out

    return distances


def _self_sq_distances(A: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The condensed self distances of the BLAS route, written into out and returned.

    Formed tile pair by tile pair, only on or above the diagonal. Row i of a
    block holds distances to the columns j > i from j0 = max(i + 1, the
    tile's first column) on, which are one contiguous run of the condensed
    output starting at n*i - i*(i+1)/2 + j0 - i - 1.
    """
    n = A.shape[0]
    mu = A.mean(axis=0)
    norms = _centered_norms(A, mu)
    tiles = _tiles(n)
    for k, ti in enumerate(tiles):
        for tj in tiles[k:]:
            block = _tile_distances(A[ti] - mu, A[tj] - mu, norms[ti], norms[tj])
            for r, i in enumerate(range(ti.start, ti.stop)):
                j0 = max(i + 1, tj.start)
                start = n * i - i * (i + 1) // 2 + j0 - i - 1
                out[start:start + tj.stop - j0] = block[r, j0 - tj.start:]
    return out


def kernel_value(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """k(x, y) for one pair of d-vectors: the 1 x 1 Gram, with its bits.

    Each vector is raveled, and gram_matrix checks both as query rows, so a
    length mismatch or a NaN or Inf coordinate raises InputError. The value
    is ``gram_matrix(spec, x, y)[0, 0]``, so below BLAS_DISTANCE_MIN_D
    columns a Gaussian value has the bits of the matching entry of any Gram
    holding the pair.
    """
    return float(gram_matrix(spec, np.ravel(x), np.ravel(y))[0, 0])


def _exp(x: np.ndarray) -> np.ndarray:
    """np.exp(x, out=x) for a 1-D or 2-D x, except that x < EXP_SLOW_BELOW gives 0.

    Every other entry keeps np.exp's bits, NaN stays NaN and -inf gives 0.
    When x's minimum is at least EXP_SLOW_BELOW this is the plain call. Else,
    including when the minimum is NaN, each READ_BLOCK_BYTES block of rows,
    whose masks stay in cache, is raised to EXP_SLOW_BELOW, exponentiated
    and multiplied by the mask of the entries that were not below it; NaN
    fails that test, and NaN * 0 is NaN. So no entry ever takes np.exp's
    slow path. Its one caller is gaussian_from_sqdist, so x holds Gaussian
    exponents, sq * (-0.25 / bandwidth).
    """
    if not x.size or x.min() >= EXP_SLOW_BELOW:
        return np.exp(x, out=x)
    for rows in row_blocks(x.shape[0], x.size // x.shape[0], READ_BLOCK_BYTES):
        chunk = x[rows]
        keep = chunk >= EXP_SLOW_BELOW
        np.maximum(chunk, EXP_SLOW_BELOW, out=chunk)
        np.exp(chunk, out=chunk)
        np.multiply(chunk, keep, out=chunk)
    return x


def gaussian_from_sqdist(
    sq: np.ndarray, bandwidth: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Gaussian kernel values exp(sq * (-0.25 / bandwidth)), floored by _exp, from sq.

    The one place a Gaussian exponent is formed (see the module notes).
    Written into ``out``, which defaults to ``sq`` itself, so no temporary of
    the input's size is made. The scale is clamped at the most negative
    finite float: below a bandwidth of about 1.4e-309 it would be -inf, and
    a zero distance times -inf is NaN, not the 0 exponent of exp(0) = 1. A
    product that overflows to -inf, at a tiny bandwidth or a huge distance,
    gives exp's intended 0, so that overflow is not reported.
    """
    out = sq if out is None else out
    with np.errstate(over="ignore"):
        return _exp(np.multiply(sq, max(-0.25 / bandwidth, -_FLOAT_MAX), out=out))


def _gaussian_upper(condensed: np.ndarray, bandwidth: float, K: np.ndarray) -> None:
    """Write the Gaussian values of condensed into K's strict upper triangle.

    Each run of rows of the condensed vector goes through
    gaussian_from_sqdist once, in one READ_BLOCK_BYTES buffer, and is
    copied into its rows. The rest of K is not written.
    """
    n = K.shape[0]
    m = condensed.shape[0]
    # rows per run, so that a run fits one READ_BLOCK_BYTES buffer
    step = max(1, READ_BLOCK_BYTES // (8 * n))
    buf = np.empty(min(m, step * n))
    for i0 in range(0, n - 1, step):
        i1 = min(i0 + step, n - 1)
        first = n * i0 - i0 * (i0 + 1) // 2
        stop = n * i1 - i1 * (i1 + 1) // 2
        run = gaussian_from_sqdist(condensed[first:stop], bandwidth, out=buf[:stop - first])
        for i in range(i0, i1):
            start = n * i - i * (i + 1) // 2 - first
            K[i, i + 1:] = run[start:start + n - i - 1]


def _complete_rows(K: np.ndarray, degree: int | None, sums: np.ndarray | None) -> None:
    """Complete a self Gram from its upper triangle, _ROW_TILE rows at a time.

    Entries below the diagonal are ignored on entry. With degree None the
    upper triangle holds Gaussian values and the diagonal becomes 1; with a
    degree it holds inner products, diagonal included, and each tile's rows
    from the diagonal on become (G + 1) ** degree. Tiles are walked in
    order, and each tile's lower part is copied from the rows above it (and,
    inside the diagonal tile, from that tile's upper part), so K comes out
    exactly symmetric. With sums given, each tile's row sums are written
    into it while the tile is in cache; they have the bits of
    ``K.sum(axis=1)``.
    """
    n = K.shape[0]
    for r in range(0, n, _ROW_TILE):
        rows = slice(r, min(r + _ROW_TILE, n))
        h = rows.stop - r
        d = K[rows, rows]
        np.copyto(d, d.T, where=_STRICT_LOWER[:h, :h])
        if degree is None:
            np.fill_diagonal(d, 1.0)
        else:
            _polynomial_from_inner(K[rows, r:], degree)
        # column tiles keep the transposed copy's temporary small
        for c in range(0, r, _ROW_TILE):
            K[rows, c:c + _ROW_TILE] = K[c:c + _ROW_TILE, rows].T
        if sums is not None:
            K[rows].sum(axis=1, out=sums[rows])


def _gram_into(spec: KernelSpec, A: np.ndarray, B: np.ndarray, out: np.ndarray,
               sq: np.ndarray | None = None, sums: np.ndarray | None = None) -> np.ndarray:
    """out = k(A, B), with the bits of ``gram_matrix(spec, A, B)``; returns out.

    out is a C-ordered m x n array whose old contents are not read. A
    Gaussian Gram whose squared distances sq are stored (_sweep_distances)
    only exponentiates them into out. Otherwise cross_gram's function runs
    over out's rows one READ_BLOCK_BYTES block at a time on the read pool
    (map_blocks): it writes the block's squared distances into its rows and
    exponentiates them in place while they are in L2, and the block's row
    sums, with the bits of out.sum(axis=1), go into sums if given. A
    polynomial Gram, which ignores sq and sums, is one whole product.
    """
    if spec.family == "gaussian" and sq is not None:
        return gaussian_from_sqdist(sq, spec.bandwidth, out=out)
    gram = cross_gram(spec, B)
    if spec.family == "poly":
        return gram(A, out=out)

    def block(rows: slice) -> None:
        gram(A[rows], out=out[rows])
        if sums is not None:
            out[rows].sum(axis=1, out=sums[rows])

    map_blocks(block, *out.shape)
    return out


def _sweep_distances(A: np.ndarray, Q: np.ndarray | None = None) -> np.ndarray | None:
    """Squared distances a tuning sweep computes once for all its Gaussian candidates.

    A's condensed self distances (sq_distances(A)), or with Q given the
    distances from Q's rows to A's, as _self_gram_into and _gram_into take
    them. None at or below BLOCK_GRAM_MAX_D columns, where each Gram is
    built from the points instead.
    """
    if A.shape[1] <= BLOCK_GRAM_MAX_D:
        return None
    return sq_distances(A) if Q is None else _cross_sq_distances(A)(Q)


def _self_gram_into(spec: KernelSpec, A: np.ndarray, K: np.ndarray | None = None,
                    condensed: np.ndarray | None = None,
                    sums: np.ndarray | None = None) -> np.ndarray:
    """Build the self Gram of the rows of A in the n x n C-ordered K; returns K.

    K's old contents are ignored, so one buffer serves a whole tuning sweep;
    with K None a new one is made (_own_array). The row sums go into sums
    if given. A Gaussian Gram of at most BLOCK_GRAM_MAX_D columns is built
    from the points, one READ_BLOCK_BYTES (1 MiB) block of rows at a time on
    the read pool (_gram_into). A wider one is built from A's condensed
    squared distances, upper triangle first, then _complete_rows; condensed
    passes them in (a tuning sweep shares them, _sweep_distances), else they
    are computed here. A polynomial Gram, which ignores condensed, is one
    BLAS syrk triangle, then _complete_rows. Whichever route builds it, the
    bits are those of ``gram_matrix(spec, A)`` and of its ``sum(axis=1)``.
    """
    n = A.shape[0]
    K = _own_array(n, n) if K is None else K
    if spec.family == "poly":
        # BLAS syrk writes one triangle of A A^T, the lower one of the
        # Fortran-ordered product and so the upper one of K, without reading K
        dsyrk(1.0, np.ascontiguousarray(A).T, c=K.T, trans=1, lower=1, overwrite_c=1)
    elif A.shape[1] <= BLOCK_GRAM_MAX_D:
        return _gram_into(spec, A, A, K, sums=sums)
    else:
        _gaussian_upper(sq_distances(A) if condensed is None else condensed,
                        spec.bandwidth, K)
    # a Gaussian spec's degree is None, which _complete_rows reads as Gaussian
    _complete_rows(K, spec.degree, sums)
    return K


def gram_matrix(spec: KernelSpec, A: np.ndarray, B: np.ndarray | None = None, *,
                sums: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix K with K[i, j] = k(A_i, B_j).

    With B omitted (or identical to A) the self Gram matrix is computed. It is
    exactly symmetric, and for the Gaussian family its diagonal is exactly 1.
    A self Gram's row sums, with the bits of ``K.sum(axis=1)``, are written
    into sums if given, from the build and with no pass of their own; a cross
    Gram takes no sums. A 1-D A or B is one row. A and B are checked as
    query rows are (_checked_queries), as in sq_distances: more than two
    dimensions, a row holding NaN or Inf or, with B given, a column count
    other than B's raises InputError, and so does a self Gram of no rows or
    no columns. A polynomial entry that overflows raises NumericalError.
    """
    if B is None or B is A:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        A = _checked_queries(A, A.shape[-1], "point")
        if not A.size:
            raise InputError(f"a self Gram needs at least one point and one column, "
                             f"got shape {A.shape}")
        K = _self_gram_into(spec, A, sums=sums)
    elif sums is not None:
        raise InputError("row sums are taken only for a self Gram")
    else:
        B = _checked_queries(B, np.shape(B)[-1], "reference")
        K = cross_gram(spec, B)(_checked_queries(A, B.shape[1]))
    # a Gaussian entry lies in [0, 1]; a polynomial one may overflow
    if spec.family == "poly" and not np.isfinite(K).all():
        raise NumericalError(f"{spec.label()} Gram overflowed: an entry is not finite")
    return K


def cross_gram(spec: KernelSpec, B: np.ndarray) -> Callable[..., np.ndarray]:
    """k(A, B) as a function of the query rows A, with B's side prepared once.

    A read path makes one per call and applies it to each block of query
    rows; each block's Gram has the bits of ``gram_matrix(spec, A, B)``. A
    block is a 2-D float array of B's column count, as _checked_queries
    returns it. The Gram is written into out if given, a C-ordered array of
    the block's row count by B's, and returned.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if spec.family == "gaussian":
        distances = _cross_sq_distances(B)
        return lambda A, out=None: gaussian_from_sqdist(distances(A, out), spec.bandwidth)
    return lambda A, out=None: _polynomial_from_inner(matmul(A, B.T, out=out), spec.degree)


def _polynomial_from_inner(G: np.ndarray, degree: int) -> np.ndarray:
    """(G + 1) ** degree, written into G by repeated in-place products.

    ``**`` goes through ``pow``, which is about 7x slower at degree 3 once
    some bases are negative. Degree 2 gives the same bits as ``**``; higher
    degrees can differ from it in the last bit. The base is copied one
    READ_BLOCK_BYTES block of rows at a time. An entry that overflows
    becomes +-inf without a warning; gram_matrix and krr_predict refuse it,
    and the Nystrom extension sends its row to the nearest-row fallback.
    """
    with np.errstate(over="ignore"):
        for rows in row_blocks(*G.shape, READ_BLOCK_BYTES):
            g = G[rows]
            g += 1.0
            base = g.copy() if degree > 1 else None
            for _ in range(degree - 1):
                g *= base
    return G


def _positive_sq_distances(X: np.ndarray) -> np.ndarray:
    """X's condensed squared distances with the zeros (duplicate points) dropped.

    The array is the caller's own, so a quantile may reorder it, and like
    sq_distances' it lies in a memory map of its own (_own_array), the copy
    without zeros too. No positive distance raises InputError.
    """
    sq = sq_distances(X)
    if sq.size and not sq.min() > 0.0:
        keep = sq > 0.0
        sq = np.compress(keep, sq, out=_own_array(int(np.count_nonzero(keep))))
    if sq.size == 0:
        raise InputError("all points identical; no distance scale")
    return sq


def bandwidth_grid(X: np.ndarray, n_grid: int = 1) -> np.ndarray:
    """Candidate Gaussian bandwidths from the pairwise-distance distribution.

    Values are squared-distance quantiles divided by 4: the median alone for
    n_grid=1, otherwise a log-spaced grid spanning the 1st to 99th percentile.
    Zero distances (duplicate points) are dropped before taking quantiles.
    X holds at least 2 training points (see _checked_training).
    """
    X, _ = _checked_training(X, min_rows=2)
    n_grid = _checked_int(n_grid, "n_grid", 1)
    sq = _positive_sq_distances(X)
    if n_grid == 1:
        return np.array([float(np.median(sq, overwrite_input=True)) / 4.0])
    lo, hi = np.percentile(sq, [1.0, 99.0], overwrite_input=True) / 4.0
    lo, hi = float(lo), float(hi)
    # degenerate spread (e.g. one distinct distance) collapses to one value
    if not hi > lo:
        return np.array([lo])
    return np.geomspace(lo, hi, n_grid)
