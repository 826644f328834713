"""The compiled edge step: normalise windows and reduce areas in one call.

A tracking step evaluates Eq. 3 over normalised windows for every
(compiled slice, query) *pair* of the step — one pair per tracked
candidate per stepping session.  The windows are never materialised:
a :class:`CompiledSlice` holds the slice's raw samples plus the
frame-invariant per-offset statistics of
:func:`~repro.signals.metrics.sliding_window_stats` (``mean``,
``scale = reference_rms / safe_rms`` and ``flat``), and the kernel
forms each window value on the fly as

    ``|(x[o·stride + i] − μ_o)·s_o − q_i|``

inside the pairwise summation.  That is ~30× fewer compiled bytes than
a stacked ``(offsets × frame)`` window matrix per slice, and a whole
step — every session, every candidate — is **one** kernel call.

Bit-identity with the scalar oracle
(:func:`~repro.signals.metrics.sliding_area_normalized`, or
:func:`~repro.signals.metrics.sliding_area` in raw mode) rests on three
facts.  The window value gets exactly the two elementwise roundings
``normalized_sliding_windows`` applies — subtract the mean, then
multiply by the scale — followed by the subtraction of the query, each
a correctly rounded IEEE operation; the library is built with
``-ffp-contract=off`` so no multiply–subtract is fused into an FMA.
The sum replays numpy's pairwise algorithm (8 partial accumulators per
≤128-element block, recursive halving above), so the order of the
additions matches ``np.sum(axis=1)`` exactly.  Raw mode is the same
arithmetic with ``μ = 0`` and ``s = 1``, both exact no-ops.  Flat
(zero-variance) offsets take the query's worst-case area, and the
per-pair argmin keeps ``np.argmin``'s first-index tie-break and NaN
rule.  Every pair is independent, so results do not depend on how
pairs are spread over threads.

When only the argmin and minimum are asked for, an offset's sum stops
once one pairwise half already reaches the running minimum: the terms
are non-negative and rounding is monotone, so the full sum could not
beat it, and every sum below the minimum is still computed in full.
That holds only when no term can be NaN, so it is enabled per pair
only for an all-finite slice table and query.

Backends:

* ``"c"`` — the kernel compiled once and cached **across processes**,
  keyed by a hash of its own source under a per-user cache directory,
  and loaded via :mod:`ctypes`.  ctypes releases the GIL for the call,
  and the kernel spreads its pairs over a pthread pool, balanced by
  offsets.  Selected only after a bitwise self-check against the numpy
  oracle on this exact interpreter/numpy build (run per process even
  when the ``.so`` came from the cache).
* ``"numpy"`` — a fallback that normalises each slice's windows per
  L2-sized block of offsets into a reused per-thread scratch block and
  reduces every query tracking that slice against it.  The same
  elementwise operations and the same pairwise sum, so it is
  bit-identical by construction; used when no compiler is available or
  the self-check fails.

Selection is lazy, happens once per process, and is exposed via
:func:`kernel_backend` so benchmarks can report what they measured.
``EMAP_KERNEL=c|numpy`` forces a backend (``c`` raises
:class:`~repro.errors.KernelError` when the compiled kernel cannot be
used — a forced backend must never silently degrade), and
``EMAP_KERNEL_THREADS`` pins the kernel's thread count.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import KernelError
from repro.signals.metrics import (
    normalized_query,
    sliding_area,
    sliding_area_normalized,
    sliding_window_stats,
)

#: Fallback scratch-block size: large enough to amortise per-call numpy
#: overhead, small enough to stay resident in L2 while the ufunc passes
#: run over it.
_BLOCK_BYTES = 1 << 18

#: Hard ceiling on kernel threads (also the C-side span array bound —
#: keep in sync with ``MAX_THREADS`` in the source).
_MAX_THREADS = 64

#: The step kernel.  Pair ``p`` reads the packed table ``tables[p]``
#: (``[means | scales | flat | samples]``, ``n_offsets[p]`` offsets)
#: and query ``pair_query[p]``; it writes the argmin offset and its
#: area, plus every offset's area when ``areas`` is non-NULL.
_C_SOURCE = """
#include <math.h>
#include <stddef.h>
#include <string.h>
#include <pthread.h>

#define MAX_THREADS 64

typedef double v2d __attribute__((vector_size(16)));
typedef long long v2i __attribute__((vector_size(16)));

static inline v2d load2(const double *p) {
    v2d v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline v2d term2(const double *x, const double *q, v2d mu, v2d s) {
    const v2i magnitude = {0x7fffffffffffffffLL, 0x7fffffffffffffffLL};
    v2d d = (load2(x) - mu) * s - load2(q);
    return (v2d)((v2i)d & magnitude);
}

static inline double term(const double *x, const double *q, double mu, double s) {
    return fabs((*x - mu) * s - *q);
}

/* numpy's pairwise_sum block: r[0..7] live in four 2-wide vectors. */
static double block(const double *x, const double *q, ptrdiff_t n,
                    double mu, double s) {
    ptrdiff_t i;
    double res;
    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++) res += term(x + i, q + i, mu, s);
        return res;
    }
    {
        const v2d vmu = {mu, mu}, vs = {s, s};
        v2d r0 = term2(x, q, vmu, vs), r1 = term2(x + 2, q + 2, vmu, vs);
        v2d r2 = term2(x + 4, q + 4, vmu, vs), r3 = term2(x + 6, q + 6, vmu, vs);
        for (i = 8; i + 8 <= n; i += 8) {
            r0 += term2(x + i, q + i, vmu, vs);
            r1 += term2(x + i + 2, q + i + 2, vmu, vs);
            r2 += term2(x + i + 4, q + i + 4, vmu, vs);
            r3 += term2(x + i + 6, q + i + 6, vmu, vs);
        }
        res = ((r0[0] + r0[1]) + (r1[0] + r1[1]))
            + ((r2[0] + r2[1]) + (r3[0] + r3[1]));
    }
    for (; i < n; i++) res += term(x + i, q + i, mu, s);
    return res;
}

static double pairwise(const double *x, const double *q, ptrdiff_t n,
                       double mu, double s) {
    ptrdiff_t n2;
    if (n <= 128) return block(x, q, n, mu, s);
    n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(x, q, n2, mu, s) + pairwise(x + n2, q + n2, n - n2, mu, s);
}

/* pairwise(), except that a half whose own sum already reaches
   ``bound`` is returned as is: every term is >= 0 and rounding is
   monotone, so the full sum reaches ``bound`` too.  A result below
   ``bound`` is therefore exact.  Sound only when no term can be NaN. */
static double pairwise_capped(const double *x, const double *q, ptrdiff_t n,
                              double mu, double s, double bound) {
    ptrdiff_t n2;
    double head, tail;
    if (n <= 128) return block(x, q, n, mu, s);
    n2 = n / 2;
    n2 -= n2 % 8;
    head = pairwise_capped(x, q, n2, mu, s, bound);
    if (head >= bound) return head;
    tail = pairwise_capped(x + n2, q + n2, n - n2, mu, s, bound);
    if (tail >= bound) return tail;
    return head + tail;
}

typedef struct {
    const double *const *tables;
    const ptrdiff_t *n_offsets;
    const ptrdiff_t *pair_query;
    const double *queries;
    const double *worsts;
    ptrdiff_t m, stride;
    ptrdiff_t *best;
    double *best_area;
    double *areas;          /* NULL: argmin only */
    const unsigned char *finite;  /* per pair: no term can be NaN */
    ptrdiff_t begin, end;   /* pair range */
    ptrdiff_t area_begin;   /* first offset slot of pair ``begin`` */
} pair_span;

static void run_pairs(const pair_span *sp) {
    ptrdiff_t p, o, at = sp->area_begin;
    for (p = sp->begin; p < sp->end; p++) {
        const ptrdiff_t k = sp->n_offsets[p];
        const double *means = sp->tables[p];
        const double *scales = means + k, *flat = scales + k, *x = flat + k;
        const double *q = sp->queries + sp->pair_query[p] * sp->m;
        const double worst = sp->worsts[sp->pair_query[p]];
        ptrdiff_t best = 0;
        double best_area = 0.0;
        for (o = 0; o < k; o++) {
            const double *w = x + o * sp->stride;
            double area;
            if (flat[o] != 0.0)
                area = worst;
            else if (!sp->areas && sp->finite[p] && o > 0)
                /* Only whether it beats best_area matters (argmin only). */
                area = pairwise_capped(w, q, sp->m, means[o], scales[o], best_area);
            else
                area = pairwise(w, q, sp->m, means[o], scales[o]);
            if (sp->areas) sp->areas[at + o] = area;
            /* np.argmin: first minimum, and the first NaN wins. */
            if (o == 0) {
                best_area = area;
            } else if (!isnan(best_area) && !(area >= best_area)) {
                best_area = area;
                best = o;
            }
        }
        at += k;
        sp->best[p] = best;
        sp->best_area[p] = best_area;
    }
}

static void *pair_entry(void *arg) {
    run_pairs((const pair_span *)arg);
    return NULL;
}

void evaluate_pairs(const double *const *tables, const ptrdiff_t *n_offsets,
                    const ptrdiff_t *pair_query, ptrdiff_t n_pairs,
                    const double *queries, const double *worsts,
                    ptrdiff_t m, ptrdiff_t stride,
                    ptrdiff_t *best, double *best_area, double *areas,
                    const unsigned char *finite, ptrdiff_t n_threads) {
    pthread_t workers[MAX_THREADS];
    pair_span spans[MAX_THREADS];
    pair_span all = {tables, n_offsets, pair_query, queries, worsts, m, stride,
                     best, best_area, areas, finite, 0, n_pairs, 0};
    ptrdiff_t total = 0, acc = 0, p = 0, started = 0, t;
    if (n_pairs <= 0) return;
    if (n_threads > n_pairs) n_threads = n_pairs;
    if (n_threads > MAX_THREADS) n_threads = MAX_THREADS;
    if (n_threads < 2) {
        run_pairs(&all);
        return;
    }
    for (p = 0; p < n_pairs; p++) total += n_offsets[p];
    /* Contiguous pair ranges holding about equal numbers of offsets. */
    p = 0;
    for (t = 0; t < n_threads; t++) {
        ptrdiff_t target = total / n_threads * (t + 1)
                         + total % n_threads * (t + 1) / n_threads;
        spans[t] = all;
        spans[t].begin = p;
        spans[t].area_begin = acc;
        while (p < n_pairs && acc < target) acc += n_offsets[p++];
        spans[t].end = p;
    }
    for (t = 1; t < n_threads; t++) {
        if (pthread_create(&workers[t], NULL, pair_entry, &spans[t]) != 0)
            break;
        started = t;
    }
    run_pairs(&spans[0]);
    /* Spans whose worker failed to start run inline: every pair is
       evaluated exactly once regardless of thread availability. */
    for (t = started + 1; t < n_threads; t++)
        run_pairs(&spans[t]);
    for (t = 1; t <= started; t++)
        pthread_join(workers[t], NULL);
}
"""


@dataclass(frozen=True)
class CompiledSlice:
    """One slice in the kernel's stats-only format, frame-invariant.

    ``table`` packs ``[means | scales | flat | samples]`` as float64:
    per offset the window mean, the scale ``reference_rms / safe_rms``
    and a 1.0/0.0 flat marker (zero-variance offsets take the query's
    worst-case area), then the slice's raw samples.  Raw mode
    (``reference_rms=None``) stores mean 0, scale 1 and no flat offset.
    ``address`` is the table's data pointer, cached for the step's
    pair table; the table is never resized, so it stays valid.
    ``n_samples`` bounds what the kernel may read; ``finite`` says the
    whole table is finite, so no window term can be NaN.
    """

    table: np.ndarray
    n_offsets: int
    n_samples: int
    address: int
    finite: bool

    @property
    def means(self) -> np.ndarray:
        return self.table[: self.n_offsets]

    @property
    def scales(self) -> np.ndarray:
        return self.table[self.n_offsets : 2 * self.n_offsets]

    @property
    def flat(self) -> np.ndarray:
        return self.table[2 * self.n_offsets : 3 * self.n_offsets].astype(bool)

    @property
    def samples(self) -> np.ndarray:
        return self.table[3 * self.n_offsets :]

    @property
    def nbytes(self) -> int:
        return int(self.table.nbytes)


def compile_slice(
    data: np.ndarray,
    frame_samples: int,
    stride: int,
    reference_rms: float | None,
) -> CompiledSlice | None:
    """Compile one slice's window statistics; ``None`` when it is short.

    The per-offset statistics are exactly those
    :func:`~repro.signals.metrics.normalized_sliding_windows` derives
    from :func:`~repro.signals.metrics.sliding_window_stats`, so the
    kernel reproduces the scalar path's window values bit for bit.
    """
    samples = np.asarray(data, dtype=np.float64)
    if samples.size < frame_samples:
        return None
    stats = sliding_window_stats(samples, frame_samples, stride)
    k = stats.n_offsets
    table = np.empty(3 * k + samples.size)
    if reference_rms is not None:
        table[:k] = stats.means
        table[k : 2 * k] = reference_rms / np.where(stats.flat, 1.0, stats.rms)
        table[2 * k : 3 * k] = stats.flat
    else:
        table[:k] = 0.0
        table[k : 2 * k] = 1.0
        table[2 * k : 3 * k] = 0.0
    table[3 * k :] = samples
    return CompiledSlice(
        table=table,
        n_offsets=k,
        n_samples=samples.size,
        address=table.ctypes.data,
        finite=bool(np.isfinite(table).all()),
    )


_Evaluate = Callable[..., None]

_backend: str | None = None
_c_kernel: _Evaluate | None = None

#: Per-thread scratch blocks for the numpy fallback, keyed by shape.
#: Thread-local because the gateway's edge driver steps its fleet on a
#: worker thread while other trackers may step on the main thread — a
#: shared buffer would race.
_scratch_local = threading.local()


def _source_digest() -> str:
    return hashlib.blake2b(_C_SOURCE.encode("utf-8"), digest_size=16).hexdigest()


def _cache_dir() -> str:
    """Per-user directory the compiled kernel ``.so`` persists under.

    ``EMAP_KERNEL_CACHE`` overrides; otherwise the XDG cache home (or
    ``~/.cache``).  Keyed by a hash of the C source, so a source change
    compiles a fresh library and stale entries are simply never loaded.
    """
    override = os.environ.get("EMAP_KERNEL_CACHE")
    if override:
        return override
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return os.path.join(base, "emap-kernels")


def _compile_library(workdir: str) -> str | None:
    """Compile the C source inside ``workdir``; the ``.so`` path or None.

    ``-ffp-contract=off`` keeps ``(x − μ)·s − q`` two separately
    rounded operations: a target that contracts to FMA by default
    would otherwise break bit-identity with numpy.
    """
    compilers = [
        path
        for name in ("cc", "gcc", "clang")
        if (path := shutil.which(name)) is not None
    ]
    if not compilers:
        return None
    source = os.path.join(workdir, "area_kernel.c")
    library = os.path.join(workdir, "area_kernel.so")
    with open(source, "w", encoding="utf-8") as handle:
        handle.write(_C_SOURCE)
    for compiler in compilers:
        result = subprocess.run(
            [
                compiler,
                "-O3",
                "-ffp-contract=off",
                "-fPIC",
                "-shared",
                "-pthread",
                "-o",
                library,
                source,
            ],
            capture_output=True,
            timeout=60,
            check=False,
        )
        if result.returncode == 0 and os.path.exists(library):
            return library
    return None


def _publish_to_cache(library: str, cached: str) -> str:
    """Move a freshly built ``.so`` into the cross-process cache.

    Copies into the cache directory under a temporary name and
    ``os.replace``s it into place, so a racing process only ever sees
    a complete library.  On any cache failure (read-only home, quota)
    the build-dir path is returned and the library is simply loaded
    per-process, exactly as before.
    """
    try:
        cache_dir = os.path.dirname(cached)
        os.makedirs(cache_dir, exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=cache_dir, suffix=".so.partial")
        os.close(fd)
        shutil.copy2(library, partial)
        os.replace(partial, cached)
        return cached
    except OSError:
        return library


def _bind_kernel(handle: ctypes.CDLL) -> _Evaluate:
    raw = handle.evaluate_pairs
    pointer, size = ctypes.c_void_p, ctypes.c_ssize_t
    raw.argtypes = [
        pointer,  # tables
        pointer,  # n_offsets
        pointer,  # pair_query
        size,  # n_pairs
        pointer,  # queries
        pointer,  # worsts
        size,  # m
        size,  # stride
        pointer,  # best
        pointer,  # best_area
        pointer,  # areas (NULL: argmin only)
        pointer,  # finite
        size,  # n_threads
    ]
    raw.restype = None

    def call(*args: int | None) -> None:
        raw(*args)

    return call


def _load_c_kernel() -> _Evaluate | None:
    """Load (cache) or build + bind the C kernel; None on any failure.

    The cached library is keyed by the source hash, so a hit skips the
    compiler entirely; a miss builds in a temporary directory that is
    always removed afterwards, publishing the result to the cache for
    the next process.
    """
    cached = os.path.join(_cache_dir(), f"area-kernel-{_source_digest()}.so")
    if os.path.exists(cached):
        try:
            return _bind_kernel(ctypes.CDLL(cached))
        except (OSError, AttributeError):
            # Corrupt or stale cache entry: fall through and rebuild.
            pass
    workdir = tempfile.mkdtemp(prefix="repro-area-kernel-")
    try:
        try:
            library = _compile_library(workdir)
        except (OSError, subprocess.SubprocessError):
            return None
        if library is None:
            return None
        path = _publish_to_cache(library, cached)
        try:
            # Loading from the build dir is safe even though the dir is
            # removed below: the pages stay mapped once dlopen'd.
            return _bind_kernel(ctypes.CDLL(path))
        except (OSError, AttributeError):
            return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _self_check_cases(
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray, int, int, float | None]]:
    """``(slice, frames, m, stride, reference_rms)`` covering every path.

    Frame lengths hit the short sequential path (< 8), the unrolled
    block with and without a remainder (≤ 128) and the recursive
    halving above 128; a ±1e3 offset and a 1e6 magnitude make any
    reordering or contraction surface in the last bits.  The last case
    has a window whose first half matches the query exactly and whose
    second half does not, so only the early exit's second-half branch
    decides it.
    """
    cases: list[tuple[np.ndarray, np.ndarray, int, int, float | None]] = []
    for m, stride, rms, scale, shift in [
        (5, 1, 7.0, 1.0, 0.0),
        (37, 3, 7.0, 1e6, 1e3),
        (256, 4, 7.0, 1.0, 0.0),
        (131, 2, None, 1e3, -1e3),
        (300, 5, 7.0, 1e-3, 1e3),
    ]:
        data = rng.standard_normal(2 * m + 3 * stride + 1) * scale + shift
        if not shift:
            data[: m + stride] = 2.5  # leading flat windows (exact zero RMS)
        cases.append((data, rng.standard_normal((2, m)) * scale, m, stride, rms))
    query = rng.standard_normal(256)
    near = query + rng.standard_normal(256) * 0.1
    far = np.concatenate([query[:128], query[128:] + 50.0])
    frames = np.stack([query, query[::-1]])
    cases.append((np.concatenate([near, far]), frames, 256, 256, None))
    return cases


def _passes_self_check(kernel: _Evaluate) -> bool:
    """Bitwise-compare the C kernel against the numpy oracle.

    Each case's every-offset areas, argmin and minimum must equal
    :func:`~repro.signals.metrics.sliding_area_normalized` (or
    :func:`~repro.signals.metrics.sliding_area` in raw mode) exactly,
    with two queries per slice, and so must the argmin and minimum of
    the argmin-only mode, which may stop summing an offset early.  Every
    case runs single-threaded; the thread partition, which does not
    depend on the case, is checked once per mode on a multi-threaded
    call for the longest frame.  Small enough to run inside every
    process start.
    """
    rng = np.random.default_rng(0xE3A7)
    cases = _self_check_cases(rng)
    largest = max(range(len(cases)), key=lambda index: cases[index][2])
    for index, (data, frames, m, stride, rms) in enumerate(cases):
        compiled = compile_slice(data, m, stride, rms)
        if compiled is None:
            return False
        if rms is None:
            expected = [sliding_area(f, data, stride=stride) for f in frames]
            queries, worsts = frames, np.full(2, np.inf)
        else:
            expected = [
                sliding_area_normalized(f, data, rms, stride=stride) for f in frames
            ]
            queries = np.stack([normalized_query(f, rms) for f in frames])
            worsts = np.abs(queries).sum(axis=1)
        runs = [(1, True), (1, False)]
        if index == largest:
            runs += [(3, True), (3, False)]
        for threads, keep in runs:
            areas = np.empty(2 * compiled.n_offsets) if keep else None
            best, best_area = _evaluate(
                kernel,
                [compiled, compiled],
                np.array([0, 1], dtype=np.intp),
                np.ascontiguousarray(queries),
                np.ascontiguousarray(worsts),
                stride,
                areas,
                threads,
            )
            for pair, reference in enumerate(expected):
                if not (
                    best[pair] == np.argmin(reference)
                    and np.array_equal(best_area[pair], reference.min())
                ):
                    return False
                if areas is not None and not np.array_equal(
                    areas.reshape(2, -1)[pair], reference
                ):
                    return False
    return True


def _scratch(shape: tuple[int, int], slot: int = 0) -> np.ndarray:
    """A reusable per-thread scratch block for the numpy fallback."""
    buffers = getattr(_scratch_local, "buffers", None)
    if buffers is None:
        buffers = {}
        _scratch_local.buffers = buffers
    block = buffers.get((shape, slot))
    if block is None:
        block = np.empty(shape)
        buffers[(shape, slot)] = block
    return block


def _numpy_evaluate(
    slices: Sequence[CompiledSlice],
    pair_query: np.ndarray,
    queries: np.ndarray,
    stride: int,
    areas: Sequence[np.ndarray],
) -> None:
    """Fallback: per slice, normalise one L2-sized block of windows at a
    time and reduce every query tracking that slice against it."""
    m = queries.shape[1]
    groups: dict[int, list[int]] = {}
    for pair, compiled in enumerate(slices):
        groups.setdefault(id(compiled), []).append(pair)
    block = max(1, _BLOCK_BYTES // (m * 8))
    for pairs in groups.values():
        compiled = slices[pairs[0]]
        samples, k = compiled.samples, compiled.n_offsets
        means, scales = compiled.means[:, None], compiled.scales[:, None]
        step = samples.strides[0]
        windows = np.lib.stride_tricks.as_strided(
            samples, shape=(k, m), strides=(step * stride, step)
        )
        rows = min(block, k)
        scratch, spare = _scratch((rows, m)), _scratch((rows, m), slot=1)
        for start in range(0, k, block):
            stop = min(start + block, k)
            normalized = scratch[: stop - start]
            np.subtract(windows[start:stop], means[start:stop], out=normalized)
            np.multiply(normalized, scales[start:stop], out=normalized)
            buffer = spare[: stop - start]
            for pair in pairs:
                np.subtract(normalized, queries[pair_query[pair]], out=buffer)
                np.abs(buffer, out=buffer)
                np.sum(buffer, axis=1, out=areas[pair][start:stop])


def _evaluate(
    kernel: _Evaluate | None,
    slices: Sequence[CompiledSlice],
    pair_query: np.ndarray,
    queries: np.ndarray,
    worsts: np.ndarray,
    stride: int,
    areas: np.ndarray | None,
    threads: int,
) -> tuple[np.ndarray, np.ndarray]:
    n_pairs = len(slices)
    best = np.zeros(n_pairs, dtype=np.intp)
    best_area = np.zeros(n_pairs)
    if n_pairs == 0:
        return best, best_area
    counts = np.fromiter(
        (compiled.n_offsets for compiled in slices), dtype=np.intp, count=n_pairs
    )
    lengths = np.fromiter(
        (compiled.n_samples for compiled in slices), dtype=np.intp, count=n_pairs
    )
    if ((counts - 1) * stride + queries.shape[1] > lengths).any():
        # A slice compiled for another frame length or stride: its last
        # window would read past the samples.
        raise ValueError("a slice's windows overrun its samples at this stride")
    if kernel is not None:
        tables = np.fromiter(
            (compiled.address for compiled in slices), dtype=np.uintp, count=n_pairs
        )
        # Pairs whose terms cannot be NaN may stop summing an offset
        # early once it cannot beat the running minimum.
        finite = np.fromiter(
            (compiled.finite for compiled in slices), dtype=np.uint8, count=n_pairs
        )
        finite &= np.isfinite(queries).all(axis=1)[pair_query]
        kernel(
            tables.ctypes.data,
            counts.ctypes.data,
            pair_query.ctypes.data,
            n_pairs,
            queries.ctypes.data,
            worsts.ctypes.data,
            queries.shape[1],
            stride,
            best.ctypes.data,
            best_area.ctypes.data,
            None if areas is None else areas.ctypes.data,
            finite.ctypes.data,
            threads,
        )
        return best, best_area
    flat_areas = np.empty(int(counts.sum())) if areas is None else areas
    bounds = np.concatenate(([0], np.cumsum(counts)))
    per_pair = [flat_areas[bounds[p] : bounds[p + 1]] for p in range(n_pairs)]
    _numpy_evaluate(slices, pair_query, queries, stride, per_pair)
    for pair, compiled in enumerate(slices):
        row = per_pair[pair]
        row[compiled.flat] = worsts[pair_query[pair]]
        best[pair] = np.argmin(row)
        best_area[pair] = row[best[pair]]
    return best, best_area


def _forced_backend() -> str | None:
    """The ``EMAP_KERNEL`` override, validated; None when unset."""
    value = os.environ.get("EMAP_KERNEL", "").strip().lower()
    if not value:
        return None
    if value not in ("c", "numpy"):
        raise KernelError(
            f"EMAP_KERNEL must be 'c' or 'numpy', got {value!r}"
        )
    return value


def kernel_backend() -> str:
    """The selected backend: ``"c"`` (compiled) or ``"numpy"`` (blocked).

    Selection is lazy and cached for the life of the process: the C
    kernel is used only when a compiled library was available (from
    the cross-process cache or a fresh build) *and* it reproduced the
    numpy oracle bit for bit in :func:`_passes_self_check`.
    ``EMAP_KERNEL`` forces the choice; forcing ``c`` on a host where
    the compiled kernel cannot pass raises instead of degrading.
    """
    global _backend, _c_kernel
    if _backend is None:
        forced = _forced_backend()
        if forced == "numpy":
            _backend = "numpy"
            return _backend
        kernel = _load_c_kernel()
        if kernel is not None and _passes_self_check(kernel):
            _c_kernel = kernel
            _backend = "c"
        elif forced == "c":
            raise KernelError(
                "EMAP_KERNEL=c but the compiled kernel is unavailable "
                "(no working compiler, or the bitwise self-check failed)"
            )
        else:
            _backend = "numpy"
    return _backend


def kernel_threads() -> int:
    """Threads the kernel spreads its pairs over.

    ``EMAP_KERNEL_THREADS`` pins the count; the default is the number
    of CPUs this process may run on (its affinity mask, so ``taskset``
    or a cpuset does not oversubscribe), else the host's CPU count
    where the platform has no affinity call.  Clamped to [1, 64].  Thread count never changes
    results — every pair is independent — only wall time, so this is
    a performance dial, not a correctness one.
    """
    value = os.environ.get("EMAP_KERNEL_THREADS", "").strip()
    if value:
        try:
            threads = int(value)
        except ValueError:
            raise KernelError(
                f"EMAP_KERNEL_THREADS must be an integer, got {value!r}"
            ) from None
    else:
        affinity = getattr(os, "sched_getaffinity", None)
        threads = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return max(1, min(threads, _MAX_THREADS))


def _reset_backend_selection() -> None:
    """Forget the cached selection (tests flip ``EMAP_KERNEL`` mid-run)."""
    global _backend, _c_kernel
    _backend = None
    _c_kernel = None


def evaluate_pairs(
    slices: Sequence[CompiledSlice],
    pair_query: np.ndarray,
    queries: np.ndarray,
    worsts: np.ndarray,
    stride: int,
    *,
    areas: np.ndarray | None = None,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every (compiled slice, query) pair of a step in one call.

    Pair ``p`` compares ``slices[p]``'s windows (offsets
    ``0, stride, 2·stride, …``) against row ``pair_query[p]`` of
    ``queries`` — the normalised frame, or the raw frame in raw mode —
    with ``worsts[pair_query[p]]`` as the area of flat offsets.
    Returns each pair's argmin offset index and its area, bit-identical
    to ``np.argmin``/``min`` over the scalar oracle's area vector on
    every backend and at every thread count.  ``areas``, when given, is
    a contiguous float64 vector of ``Σ n_offsets`` slots that receives
    every offset's area, pair after pair.  ``slices`` must have been
    compiled with this ``stride`` and the queries' length.
    """
    if queries.ndim != 2:
        raise ValueError(f"queries must be 2-D, got shape {queries.shape}")
    if worsts.shape != (queries.shape[0],):
        raise ValueError(
            f"worsts of shape {worsts.shape} do not match "
            f"{queries.shape[0]} queries"
        )
    if pair_query.shape != (len(slices),):
        raise ValueError(
            f"pair_query of shape {pair_query.shape} does not match "
            f"{len(slices)} slices"
        )
    arrays = [queries, worsts, pair_query] + ([] if areas is None else [areas])
    if not all(array.flags.c_contiguous for array in arrays):
        raise ValueError("kernel inputs must be C-contiguous")
    floats = [queries, worsts] + ([] if areas is None else [areas])
    if any(a.dtype != np.float64 for a in floats) or pair_query.dtype != np.intp:
        raise ValueError("kernel inputs must be float64 (pair_query: intp)")
    if len(slices) and (
        pair_query.min() < 0 or pair_query.max() >= queries.shape[0]
    ):
        raise ValueError("pair_query indexes past the queries")
    if areas is not None and areas.shape != (
        sum(compiled.n_offsets for compiled in slices),
    ):
        raise ValueError(f"areas of shape {areas.shape} do not match the pairs")
    kernel = _c_kernel if kernel_backend() == "c" else None
    return _evaluate(
        kernel,
        slices,
        pair_query,
        queries,
        worsts,
        stride,
        areas,
        kernel_threads() if threads is None else threads,
    )
