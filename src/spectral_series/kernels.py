"""Mercer kernels and Gram-matrix construction.

Two families are supported: the Gaussian kernel
``exp(-||x - y||^2 / (4 * bandwidth))`` and the polynomial kernel
``(<x, y> + 1)^degree``. Self Gram matrices are exactly symmetric by
construction, which the symmetry contract (diffusion module notes) rests on.

Squared distances (``sq_distances``) take one of two routes, chosen by the
column count d:

- Below ``BLAS_DISTANCE_MIN_D`` they come from scipy's ``pdist``/``cdist``
  loops, bit for bit.
- At or above it they come from BLAS-3 products (``_distances_into``):
  ||a||^2 + ||b||^2 - 2<a, b>, clamped at 0. Measured on a 2-core box with
  800 reference rows, over repeated runs, the BLAS route broke even with
  ``pdist`` between d = 25 and d = 50 and with ``cdist`` between d = 10 and
  d = 20, and a tuning sweep's self plus cross pass gained from d = 32 on.

Every distance of the BLAS route comes from one routine, ``_distances_into``,
so each has one set of bits: the n x n self distances a Gram is exponentiated
from, the condensed ``sq_distances(A)`` (the full matrix's upper triangle,
moved to the front of its own map), and the cross distances of
``sq_distances(A, B)`` and of every read path (``cross_gram``). The self form
is one ``syrk`` triangle per column chunk, mirrored, then completed by whole
contiguous rows, so it is exactly symmetric with a zero diagonal; the cross
form is one ``gemm`` per chunk. A chunk is as wide as fits n rows in one
``READ_BLOCK_BYTES`` buffer, but at least ``_MIN_CHUNK_COLUMNS`` (128, see
its comment), so no n x d centered copy is made and each BLAS call keeps a
depth that does not shrink as n grows.

Both operands of the product are first centered on the reference rows'
column mean (the rows themselves for the self form, the training rows for the
cross form), which leaves distances unchanged but keeps the norms, and so the
cancellation, at the data's spread instead of its offset from the origin.
The absolute error of an entry then stays below
d * eps * (||a - mu||^2 + ||b - mu||^2): at most 0.22 of it at d = 32 and
0.03 at d = 1000 on circle data of 300-2000 points, also with every
coordinate shifted by 1e3; on 800 points in d = 1000 with squared distances
up to 4 an entry stayed within 1.4e-14.

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

``map_blocks`` is the package's one walker over the rows of an n^2-scale
array; no other module slices one into blocks itself. On it run:

- every read path's query blocks (the Nystrom extension, ``krr_predict``,
  ``knn_predict``);
- every Gram build (``_gram_into``), through ``_blocks_with_sums``, which
  forms a block and takes its row sums;
- the fit's scaling (``diffusion._scale_pairs``) and Uniform mode's division
  by n (``diffusion._fit``), through the same ``_blocks_with_sums``;
- the one mirror, ``_mirror_upper``: of the self distances, of the
  polynomial self Gram and of a caller's matrix after its symmetry scan
  (``diffusion._check_symmetric``), which is a walk of its own;
- the self distances' finishing pass, and the polynomial Grams' finiteness
  scan (``gram_matrix``) and row-bound scan (``baselines``), so neither
  makes an n x n temporary.

Left in loops of their own are ``_exp``'s floor and ``_polynomial_from_inner``
(they also serve the in-order ``BLOCK_BYTES`` blocks from
``BLAS_DISTANCE_MIN_D``), the BLAS route's column chunks and cross finishing
pass (``_distances_into``) and ``sq_distances``' compaction, which must run
in row order.

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

Every Gram, self or cross, is built by one function, ``_gram_into``, and it
alone chooses the route; ``gram_matrix`` (both forms), ``fit_basis`` and
``tune_series`` (each candidate's Gram and its validation Gram) call it. It
writes into an array whose old contents it never reads, a new one or a
buffer the caller reuses, so a tuning sweep builds every candidate in one
buffer and makes no n x n temporary. Every build ends in one blocked pass
over whole rows, one ``READ_BLOCK_BYTES`` block at a time on the read pool
(``_blocks_with_sums``), which forms the block's entries and takes its row
sums, with the bits of ``K.sum(axis=1)``, while it is in L2, so ``fit_basis``
takes its degrees from the build. The routes:

- A Gaussian Gram of at most ``BLOCK_GRAM_MAX_D`` columns is built from its
  points by the function ``cross_gram`` gives every read path: ``cdist``
  writes the block's squared distances into its rows, which are
  exponentiated in place (``gaussian_from_sqdist``). ``cdist(X, X)`` is
  exactly symmetric, has a zero diagonal (so a diagonal of 1) and equals
  ``pdist``'s condensed entries bit for bit. At that width its loop costs no
  more than the exponentials it feeds, so no distances are stored, not even
  for a tuning sweep (see the constant's comment).
- A wider Gaussian Gram exponentiates stored squared distances: a tuning
  sweep computes its training and validation distances once for all its
  bandwidths (``_sweep_distances``), and a self Gram given none writes its
  n x n distances (``_distances_into``: ``pdist``'s, mirrored, below
  ``BLAS_DISTANCE_MIN_D`` columns) into its own output first. Exactly
  symmetric with a zero diagonal, they give a Gram that is too, with a
  diagonal of 1.
- A Gaussian cross Gram without stored distances, ``gram_matrix(spec, A,
  B)``'s, is built from the points by blocks of A's rows, and hands the
  walker its column count, so from ``BLAS_DISTANCE_MIN_D`` its blocks run in
  order.
- A polynomial self Gram is one BLAS ``syrk`` triangle of inner products,
  mirrored (``_mirror_upper``, the self distances' mirror), then raised to
  its degree by blocks; a polynomial cross Gram is one whole product.

Each route gives the Gram the same bits at every ``READ_WORKERS``.

The package's n^2-scale outputs, a Gram the build allocates itself, the
self distances a sweep stores, the condensed self distances
(``sq_distances``, which ``bandwidth_grid`` reads) and the ``pdist`` output
that narrower self distances are filled from, each lie in a private
anonymous memory map of their own (``_own_array``), so freeing one returns
its pages whatever the heap holds around it. From the heap they would stay
resident: glibc raises its
map threshold to the size of each map it frees, so the second array of a
size comes from the heap, and the arrays made after it pin it there, since
the heap shrinks only from its top. Three 2000-point fits in one process
peaked 10 MB higher that way, and a second bandwidth grid on 2000 points
left its 16 MB of freed distances resident under the fits after it. A
sweep's validation distances stay on the heap, where a later sweep finds
their pages already faulted in: in a map of their own they cost an
in-process d = 1000 sweep 1-4 ms of its kernel build (800 points, 400
validation rows, medians of 30 sweeps in each of three processes a side).

A fresh map is faulted in one page at a time by its first writes, so a map
of at least ``HUGE_PAGE_MIN_BYTES`` (4 MiB, an 800 x 800 Gram's 5 MB
included) asks for transparent huge pages (``MADV_HUGEPAGE``), as numpy
does for its own arrays of that size: a 2 MiB page takes one fault where
4 KiB pages take 512. Filling a fresh 2000 x 2000 map took 18-22 ms in
4 KiB pages and 5-12 ms with the hint, an 800 x 800 one 2.4-2.5 against
1.5-1.7 ms (2-core Xeon, medians of 31 in each of three processes). The
hint changes no arithmetic, and ``sq_distances`` still returns the pages
past its triangle. A kernel without transparent huge pages refuses it, and
the map keeps its small pages.
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
# the self Grams' and self distances' passes, the fit's scaling) take blocks
# of this size too, and the BLAS route's column chunks fit it.
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
# The least width of the BLAS route's column chunks (_distances_into), which
# are otherwise as wide as fits n rows in READ_BLOCK_BYTES. Each chunk's
# syrk or gemm reads and writes the whole n^2 output, so a width that shrank
# as 1 / n made large inputs memory bound: at 8000 points in d = 1000
# (2-core Xeon) a self Gram took 2.28 s with 16-column chunks, 1.24 s with
# 128 and 1.16 s with 256 (5000 points: 0.51 s with 128, 0.46-0.49 s with
# 256). 128 leaves every n up to 1024 with the chunks it had (128 columns
# at the benchmark's 800 points, where 256-column chunks made sweeps faster
# still, but perfbench, which keeps every sweep's output, then read a peak
# RSS 10.7 % above its baseline's) and a chunk buffer of n KiB.
_MIN_CHUNK_COLUMNS = 128
# Gaussian self Grams of rows with at most this many columns are built from
# the points one READ_BLOCK_BYTES (1 MiB) block of rows at a time
# (_gram_into), and a tuning sweep stores no distances for them
# (_sweep_distances); wider rows' Grams come from stored distances, which a
# sweep computes once. A block build computes all n^2 distances, twice the pairs
# pdist does, and a sweep repeats them per bandwidth, so the split follows
# the sweep's cost on one worker. The Gram work of a 5-bandwidth sweep on
# 2000 points and 1000 validation rows (2-core Xeon, medians of 15) took
# 196 ms built from the points against 220 ms from stored distances at
# d = 8, and 211 against 205 ms at d = 9 (d = 12: 340 against 249 ms). On
# two workers the block route still won at d = 16 and lost at 31.
BLOCK_GRAM_MAX_D = 8
# The Gaussian floor (see the module notes): an argument below EXP_SLOW_BELOW
# gives exactly 0. exp(-707.7) is 2**-1020.995, and np.exp's vectorized loop
# takes arguments down to -1021 ln 2 = -707.7033; below that each entry takes
# a slow path, about 20 ns for a small normal result or a 0 and 120-200 ns
# for a subnormal one, against 1.5 ns.
EXP_SLOW_BELOW = -707.7
_FLOAT_MAX = float(np.finfo(float).max)
# A private map (_own_array) of at least this many bytes asks for transparent
# huge pages (see the module notes): numpy's own threshold for the hint.
HUGE_PAGE_MIN_BYTES = 4 * 2**20
_MADV_HUGEPAGE = getattr(mmap, "MADV_HUGEPAGE", None)  # Linux only


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
    step = nbytes // (8 * max(n, 1))
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
    BLOCK_BYTES blocks: in 1 MiB blocks a predict of 8000 queries at
    d = 1000 against 800 training points took 0.42-0.48 s against
    0.23-0.29 s (2-core Xeon, medians of 15 in each of three processes),
    and its bits differed from the 8 MiB blocks'. Otherwise the blocks are
    READ_BLOCK_BYTES and the
    calling thread and the pool's helpers each take whole blocks, so fn must
    write only its own rows; with READ_WORKERS at 1 or a single block there
    is no pool. Each helper task runs in a copy of the caller's contextvars
    context, so np.errstate applies inside it. The first exception a block
    raises is re-raised unchanged once every started task has ended, and no
    block starts after it. The caller never waits on a task that has not
    started (it cancels those), so nested and concurrent calls cannot
    deadlock on a busy pool, and no cancelled task keeps fn alive once this
    returns.
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
    # a cancelled task stays queued, holding drain and so fn and the arrays
    # it writes, until a pool thread takes it; the caller's next buffers
    # would then come from fresh memory
    fn = None
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


def _own_array(*shape: int) -> np.ndarray:
    """A new float64 array of this shape in a private anonymous memory map of its own.

    Every n^2-scale output the package allocates lies in one (see the module
    notes), so freeing it unmaps its pages whatever the heap holds around it.
    The map is private, as the allocator's own large blocks are: after a
    fork, a write on either side copies the page, not shares it. A map of at
    least HUGE_PAGE_MIN_BYTES asks for transparent huge pages, as numpy does
    for its own arrays of that size; a kernel without them refuses the hint
    (OSError), and the map keeps its small pages. tracemalloc does not see
    the map. The array's base is the map.
    """
    size = max(8 * int(np.prod(shape)), 8)
    buf = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    if size >= HUGE_PAGE_MIN_BYTES and _MADV_HUGEPAGE is not None:
        try:
            buf.madvise(_MADV_HUGEPAGE)
        except OSError:
            pass
    return np.ndarray(shape, dtype=float, buffer=buf)


def _upper_runs(n: int) -> Iterator[tuple[int, slice]]:
    """(i, run) for each row i < n - 1 of an n x n matrix: the slice of its
    condensed (``pdist``-order) form that holds row i's entries right of the diagonal."""
    return ((i, slice(i * (2 * n - i - 1) // 2, (i + 1) * (2 * n - i - 2) // 2))
            for i in range(n - 1))


def sq_distances(A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
    """Squared Euclidean distances between the rows of A and of B.

    With B omitted, the condensed upper triangle of A's self distances in
    ``pdist`` order; otherwise the m x n matrix ``cdist`` returns. Below
    BLAS_DISTANCE_MIN_D columns these are ``pdist``/``cdist`` themselves; at
    or above it they are the entries of _distances_into (see the module
    notes), every entry >= 0. A 1-D A or B is one row. With B given, A and B
    are checked as query rows are (_checked_queries). The condensed self form
    lies in a memory map of its own (_own_array). On the BLAS route that map
    first holds the full n x n matrix, whose upper triangle is then moved,
    row by row, to the front, and the pages past it are returned to the
    system: the one n^2-scale array is the map, which peaks at n^2 entries.
    """
    if B is None:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        n = A.shape[0]
        size = n * (n - 1) // 2
        if A.shape[1] < BLAS_DISTANCE_MIN_D or n < 2:
            return pdist(A, "sqeuclidean", out=_own_array(size))
        full = _own_array(n, n)
        _distances_into(A, full)
        flat = full.reshape(-1)
        # row i moves to lower addresses, over its own entries at most
        for i, run in _upper_runs(n):
            flat[run] = full[i, i + 1:]
        kept = -(-8 * size // mmap.PAGESIZE) * mmap.PAGESIZE
        if kept < 8 * n * n:
            full.base.madvise(mmap.MADV_DONTNEED, kept, 8 * n * n - kept)
        return flat[:size]
    B = _checked_queries(B, np.shape(B)[-1], "reference")
    return _cross_distances(B, _checked_queries(A, B.shape[1]))


def _cross_distances(B: np.ndarray, A: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The squared distances from A's rows to B's (_distances_into), into out if given."""
    out = np.empty((A.shape[0], B.shape[0])) if out is None else out
    _distances_into(B, Q=A, cross=out)
    return out


def _centered(X: np.ndarray, rows: slice, cols: slice, mu: np.ndarray, buf: np.ndarray,
              norms: np.ndarray, height: int = 0) -> np.ndarray:
    """X[rows, cols] - mu[cols] in buf, C-ordered, with zero rows below it up to height rows.

    The squared norms of its rows are added to norms[rows].
    """
    h, w = rows.stop - rows.start, cols.stop - cols.start
    c = buf[:max(h, height) * w].reshape(-1, w)
    c[h:] = 0.0
    np.subtract(X[rows, cols], mu[cols], out=c[:h])
    norms[rows] += np.einsum("ij,ij->i", c[:h], c[:h])
    return c


def _distances_into(B: np.ndarray, full: np.ndarray | None = None,
                    Q: np.ndarray | None = None, cross: np.ndarray | None = None) -> None:
    """B's squared self distances into the n x n full, and Q's rows' to B's into the m x n cross.

    Either output may be None. Each is C-ordered, and its old contents are
    not read. Below BLAS_DISTANCE_MIN_D columns they are scipy's loops:
    cross is cdist's, and full's upper triangle is pdist's condensed
    distances (in a map of their own, freed on return), mirrored
    (_mirror_upper) and given a zero diagonal, so it is exactly symmetric
    and holds cdist(B, B)'s bits at half its pairs. At or above it,
    both operands are centered on B's column mean mu, one column chunk at a
    time, and -2 <a - mu, b - mu> accumulates over the chunks in one BLAS-3
    call per chunk and output: syrk's upper triangle for full, gemm for
    cross. A chunk is as wide as row_blocks makes a block of n-wide rows in
    READ_BLOCK_BYTES, but at least _MIN_CHUNK_COLUMNS: each chunk's call
    reads and writes the whole output, so its depth must not shrink as n
    grows. Each operand's chunk is centered into one buffer of n (or a query
    block's) rows by the chunk's width, and B's serves both products.
    Then the squared norms of the centered rows are added, by whole
    contiguous rows, and the sums clamped at 0. full's triangle is mirrored
    first (_mirror_upper) and each entry gets g + (||a - mu||^2 +
    ||b - mu||^2), whose norm sum is the same either way round, so full is
    exactly symmetric; its diagonal is set to 0. For cross, B's chunk is
    padded with zero rows to a multiple of 32: OpenBLAS splits gemm's rows
    over its threads, and an entry's bits change when a split falls off a
    multiple of 8 rows, which it then does not on up to 4 threads. A query
    block is padded with zero rows too, to 32 rows (64 against at most 32
    training rows), into a product of its own: OpenBLAS takes a product of
    few entries through its small-matrix kernel, which rounds otherwise
    (on a 2-core Xeon, up to 1184 entries at a chunk depth of 128 and 992
    at 1000, so a batch below 16 rows against 64 training rows at d = 1000,
    and below 4 against 300). Every query block but the last is at least
    that long. So a query row's entries do not depend on the rows beside
    it or on its batch's size.
    """
    n, d = B.shape
    if d < BLAS_DISTANCE_MIN_D or not n:
        if full is not None:
            condensed = pdist(B, "sqeuclidean", out=_own_array(n * (n - 1) // 2))
            for i, run in _upper_runs(n):
                full[i, i + 1:] = condensed[run]
            _mirror_upper(full)
            np.fill_diagonal(full, 0.0)
        if cross is not None:
            cdist(Q, B, "sqeuclidean", out=cross)
        return
    height = n if cross is None else -(-n // 32) * 32
    width = min(max(next(row_blocks(d, n, READ_BLOCK_BYTES)).stop, _MIN_CHUNK_COLUMNS), d)
    chunks = [slice(c, min(c + width, d)) for c in range(0, d, width)]
    buf, nb, mu = np.empty(height * width), np.zeros(n), B.mean(axis=0)
    # every product has height x pad >= 2048 entries, past the small-matrix
    # kernel: blocks hold at least pad rows, and a shorter last one is padded
    pad = max(32, 2048 // height)
    queries = [] if cross is None else list(
        row_blocks(Q.shape[0], min(width, READ_BLOCK_BYTES // (8 * pad)), READ_BLOCK_BYTES))
    short = None
    if queries:
        qbuf, nq = np.empty(max(queries[0].stop, pad) * width), np.zeros(Q.shape[0])
        product = cross if height == n else np.empty((Q.shape[0], height))
        if queries[-1].stop - queries[-1].start < pad:
            short = np.empty((pad, height))  # the padded last block's product
    for k, cols in enumerate(chunks):
        Bc = _centered(B, slice(0, n), cols, mu, buf, nb, height)
        # C-ordered operands are the Fortran transposes BLAS reads without a copy
        if full is not None:
            dsyrk(-2.0, Bc[:n].T, beta=float(k > 0), c=full.T, trans=1, lower=1, overwrite_c=1)
        for rows in queries:
            Qc = _centered(Q, rows, cols, mu, qbuf, nq, pad)
            c = short if Qc.shape[0] > rows.stop - rows.start else product[rows]
            dgemm(-2.0, Bc.T, Qc.T, beta=float(k > 0), c=c.T, trans_a=1, overwrite_c=1)
    if short is not None:
        product[queries[-1]] = short[:queries[-1].stop - queries[-1].start]
    if full is not None:
        _mirror_upper(full)

        def finish(rows: slice) -> None:
            block = full[rows]
            block += np.add(nb[rows, None], nb)
            np.maximum(block, 0.0, out=block)

        map_blocks(finish, n, n)
        np.fill_diagonal(full, 0.0)
    for rows in row_blocks(*cross.shape, READ_BLOCK_BYTES) if queries else ():
        block = np.add(product[rows, :n], nq[rows, None], out=cross[rows])
        block += nb
        np.maximum(block, 0.0, out=block)


def _mirror_upper(K: np.ndarray) -> None:
    """Copy K's upper triangle onto its strict lower one, block by block on the read pool.

    Each READ_BLOCK_BYTES block of rows takes its part below the diagonal
    from the transposed columns above it, which no block writes, and
    completes its diagonal square under a mask of its own size.
    """
    def block(rows: slice) -> None:
        square = K[rows, rows]
        np.copyto(square, square.T, where=np.tri(rows.stop - rows.start, k=-1, dtype=bool))
        K[rows, :rows.start] = K[:rows.start, rows].T

    map_blocks(block, *K.shape)


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


def _blocks_with_sums(form: Callable[[slice], object], out: np.ndarray,
                      sums: np.ndarray | None, d: int | None = None) -> np.ndarray:
    """Run form over out's row blocks (map_blocks, with d as given); returns out.

    form(rows) writes out[rows]; the block's row sums, with the bits of
    ``out.sum(axis=1)``, go into sums if given while the block is in L2.
    """
    def block(rows: slice) -> None:
        form(rows)
        if sums is not None:
            out[rows].sum(axis=1, out=sums[rows])

    map_blocks(block, *out.shape, d)
    return out


def _gram_into(spec: KernelSpec, A: np.ndarray, B: np.ndarray | None = None,
               out: np.ndarray | None = None, sq: np.ndarray | None = None,
               sums: np.ndarray | None = None) -> np.ndarray:
    """out = k(A, B), with the bits of ``gram_matrix(spec, A, B)``; returns out.

    The package's one Gram builder: every route is chosen here (see the
    module notes). B None means A's self Gram. out is a C-ordered array of
    A's row count by B's (by A's for a self Gram) whose old contents are not
    read, so one buffer serves a whole tuning sweep; None makes a new one, a
    self Gram's in a map of its own (_own_array), a cross Gram's on the heap.
    sq, a Gaussian Gram's squared distances, is what _sweep_distances
    stored; a wider self Gram given none writes its own into out. The row
    sums go into sums if given; a polynomial cross Gram, one whole product,
    takes none.
    """
    if out is None:
        shape = (A.shape[0], (A if B is None else B).shape[0])
        out = _own_array(*shape) if B is None else np.empty(shape)
    if spec.family == "poly":
        if B is not None:
            return cross_gram(spec, B)(A, out=out)
        # BLAS syrk writes one triangle of A A^T, the lower one of the
        # Fortran-ordered product and so the upper one of out, without reading out
        dsyrk(1.0, np.ascontiguousarray(A).T, c=out.T, trans=1, lower=1, overwrite_c=1)
        _mirror_upper(out)
        return _blocks_with_sums(lambda rows: _polynomial_from_inner(out[rows], spec.degree),
                                 out, sums)
    if B is None and sq is None and A.shape[1] > BLOCK_GRAM_MAX_D:
        _distances_into(A, out)
        sq = out
    if sq is not None:
        return _blocks_with_sums(
            lambda rows: gaussian_from_sqdist(sq[rows], spec.bandwidth, out=out[rows]), out, sums)
    gram = cross_gram(spec, A if B is None else B)
    return _blocks_with_sums(lambda rows: gram(A[rows], out=out[rows]), out, sums, A.shape[1])


def _sweep_distances(A: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Squared distances a tuning sweep computes once for all its Gaussian candidates.

    (A's n x n self distances, the m x n distances from Q's rows to A's), as
    _gram_into takes them as sq, from one call of
    _distances_into, so each chunk of A's columns is centered once for both.
    The self distances lie in a memory map of their own (_own_array), the
    cross ones on the heap. (None, None) at or below BLOCK_GRAM_MAX_D
    columns, where each Gram is built from the points instead.
    """
    if A.shape[1] <= BLOCK_GRAM_MAX_D:
        return None, None
    full, cross = _own_array(A.shape[0], A.shape[0]), np.empty((Q.shape[0], A.shape[0]))
    _distances_into(A, full, Q, cross)
    return full, cross


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
    no columns. Both forms are built by _gram_into (see the module notes),
    and a cross Gram's row has the same bits whatever rows A holds beside
    it (_distances_into). A polynomial entry that overflows raises
    NumericalError; that check walks K by blocks of rows.
    """
    if B is None or B is A:
        A = np.atleast_2d(np.asarray(A, dtype=float))
        A = _checked_queries(A, A.shape[-1], "point")
        if not A.size:
            raise InputError(f"a self Gram needs at least one point and one column, "
                             f"got shape {A.shape}")
        K = _gram_into(spec, A, sums=sums)
    elif sums is not None:
        raise InputError("row sums are taken only for a self Gram")
    else:
        B = _checked_queries(B, np.shape(B)[-1], "reference")
        A = _checked_queries(A, B.shape[1])
        K = _gram_into(spec, A, B)
    # a Gaussian entry lies in [0, 1]; a polynomial one may overflow
    if spec.family == "poly" and not all(map_blocks(lambda rows: np.isfinite(K[rows]).all(),
                                                    *K.shape)):
        raise NumericalError(f"{spec.label()} Gram overflowed: an entry is not finite")
    return K


def cross_gram(spec: KernelSpec, B: np.ndarray) -> Callable[..., np.ndarray]:
    """k(A, B) as a function of the query rows A.

    A read path makes one per call and applies it to each block of query
    rows; each block's Gram has the bits of ``gram_matrix(spec, A, B)``.
    Only B's conversion to a 2-D float array is done once: from
    BLAS_DISTANCE_MIN_D columns each call centres B's column chunks and
    recomputes their norms (_distances_into), once per query block, about
    2-2.5 ms a call for 800 training rows at d = 1000 (2-core Xeon). A
    block is a 2-D float array of B's column count, as _checked_queries
    returns it. The Gram is written into out if given, a C-ordered array of
    the block's row count by B's, and returned.
    """
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if spec.family == "gaussian":
        return lambda A, out=None: gaussian_from_sqdist(_cross_distances(B, A, out),
                                                        spec.bandwidth)
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
