"""Tests for the compiled edge step kernel.

Covers the kernel's bit-identity contract (every area equal to the
numpy oracle on every backend and at every thread count — both as the
multi-query *rectangle* over materialised rows and, property-tested,
against :func:`~repro.signals.metrics.sliding_area_normalized` /
:func:`~repro.signals.metrics.sliding_area` over raw slices), input
validation, the numpy fallback's per-shape scratch reuse, the
``EMAP_KERNEL`` / ``EMAP_KERNEL_THREADS`` overrides (including the
forced-``c``-must-not-degrade error path), and the cross-process
``.so`` cache keyed by the C source hash.

A rectangle ``out[q, r] = Σ|rows[r] − queries[q]|`` is the kernel in
raw mode over one slice whose windows *are* the rows: the rows
concatenated, stride ``m``, one pair per query.

Backend selection is process-global state; every test here runs under
a fixture that snapshots and restores it, so forcing backends or
pointing the cache at a tmpdir cannot leak into other tests.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import _kernels
from repro.edge._kernels import (
    _evaluate,
    _reset_backend_selection,
    _scratch,
    _source_digest,
    compile_slice,
    evaluate_pairs,
    kernel_backend,
    kernel_threads,
)
from repro.errors import KernelError
from repro.signals.metrics import (
    normalized_query,
    sliding_area,
    sliding_area_normalized,
)

HAS_COMPILER = any(shutil.which(name) for name in ("cc", "gcc", "clang"))


@pytest.fixture(autouse=True)
def restore_backend_selection():
    """Snapshot the lazily-selected backend and restore it afterwards."""
    saved = (_kernels._backend, _kernels._c_kernel)
    yield
    _kernels._backend, _kernels._c_kernel = saved


def _rect_reference(rows: np.ndarray, queries: np.ndarray) -> np.ndarray:
    return np.stack([np.abs(rows - q).sum(axis=1) for q in queries])


def _rect_pairs(rows: np.ndarray, queries: np.ndarray):
    """The kernel arguments of a rows × queries rectangle."""
    n_rows, m = rows.shape
    compiled = compile_slice(rows.ravel(), m, m, None)
    assert compiled is not None and compiled.n_offsets == n_rows
    n_queries = queries.shape[0]
    return (
        [compiled] * n_queries,
        np.arange(n_queries, dtype=np.intp),
        np.ascontiguousarray(queries),
        np.full(n_queries, np.inf),
        m,
    )


def abs_diff_rect_sums(
    rows: np.ndarray, queries: np.ndarray, threads: int | None = None
) -> np.ndarray:
    """``out[q, r] = Σ|rows[r] − queries[q]|`` through the step kernel."""
    out = np.empty((queries.shape[0], rows.shape[0]))
    evaluate_pairs(*_rect_pairs(rows, queries), areas=out.ravel(), threads=threads)
    return out


class TestRectKernel:
    @pytest.mark.parametrize("m", [1, 7, 64, 131, 256, 1000])
    @pytest.mark.parametrize("threads", [1, 2, 3, 7])
    def test_bitwise_equals_numpy_at_every_thread_count(self, m, threads):
        rng = np.random.default_rng(m * 31 + threads)
        rows = np.ascontiguousarray(rng.standard_normal((11, m)) * 1e3)
        queries = np.ascontiguousarray(rng.standard_normal((5, m)) * 1e2)
        produced = abs_diff_rect_sums(rows, queries, threads=threads)
        np.testing.assert_array_equal(produced, _rect_reference(rows, queries))

    def test_cells_match_single_query_kernel(self):
        """Each rectangle row is exactly the single-pair evaluation."""
        rng = np.random.default_rng(9)
        rows = np.ascontiguousarray(rng.standard_normal((13, 300)))
        queries = np.ascontiguousarray(rng.standard_normal((4, 300)))
        rect = abs_diff_rect_sums(rows, queries)
        for index in range(queries.shape[0]):
            np.testing.assert_array_equal(
                rect[index], abs_diff_rect_sums(rows, queries[index : index + 1])[0]
            )

    def test_more_threads_than_cells_is_safe(self):
        rng = np.random.default_rng(10)
        rows = np.ascontiguousarray(rng.standard_normal((2, 40)))
        queries = np.ascontiguousarray(rng.standard_normal((1, 40)))
        produced = abs_diff_rect_sums(rows, queries, threads=64)
        np.testing.assert_array_equal(produced, _rect_reference(rows, queries))

    def test_numpy_fallback_bitwise_equals_numpy(self):
        rng = np.random.default_rng(11)
        rows = np.ascontiguousarray(rng.standard_normal((700, 131)))
        queries = np.ascontiguousarray(rng.standard_normal((3, 131)))
        out = np.empty((3, 700))
        _evaluate(None, *_rect_pairs(rows, queries), out.ravel(), 1)
        np.testing.assert_array_equal(out, _rect_reference(rows, queries))

    def test_writes_into_out(self):
        rng = np.random.default_rng(12)
        rows = np.ascontiguousarray(rng.standard_normal((4, 32)))
        queries = np.ascontiguousarray(rng.standard_normal((2, 32)))
        out = np.full((2, 4), np.nan)
        best, best_area = evaluate_pairs(*_rect_pairs(rows, queries), areas=out.ravel())
        reference = _rect_reference(rows, queries)
        np.testing.assert_array_equal(out, reference)
        np.testing.assert_array_equal(best, reference.argmin(axis=1))
        np.testing.assert_array_equal(best_area, reference.min(axis=1))

    def test_empty_rows_and_queries_ok(self):
        best, best_area = evaluate_pairs(
            [], np.empty(0, dtype=np.intp), np.zeros((2, 16)), np.zeros(2), 4
        )
        assert best.shape == best_area.shape == (0,)
        assert compile_slice(np.empty(0), 16, 4, 7.0) is None  # no rows: no pair

    def test_rejects_bad_shapes(self):
        rows = np.zeros((2, 8))
        slices, pair_query, queries, worsts, stride = _rect_pairs(rows, np.zeros((1, 8)))
        with pytest.raises(ValueError, match="queries must be 2-D"):
            evaluate_pairs(slices, pair_query, np.zeros(8), worsts, stride)
        with pytest.raises(ValueError, match="worsts"):
            evaluate_pairs(slices, pair_query, queries, np.zeros(3), stride)
        with pytest.raises(ValueError, match="pair_query of shape"):
            evaluate_pairs(slices, np.zeros(2, dtype=np.intp), queries, worsts, stride)
        with pytest.raises(ValueError, match="indexes past"):
            evaluate_pairs(slices, np.ones(1, dtype=np.intp), queries, worsts, stride)
        with pytest.raises(ValueError, match="areas of shape"):
            evaluate_pairs(
                slices, pair_query, queries, worsts, stride, areas=np.empty(3)
            )
        with pytest.raises(ValueError, match="contiguous"):
            evaluate_pairs(
                slices, pair_query, np.zeros((1, 16))[:, ::2], worsts, stride
            )
        with pytest.raises(ValueError, match="overrun"):
            evaluate_pairs(slices, pair_query, queries, worsts, stride + 1)
        with pytest.raises(ValueError, match="overrun"):
            evaluate_pairs(slices, pair_query, np.zeros((1, 9)), worsts, stride)
        with pytest.raises(ValueError, match="float64"):
            evaluate_pairs(
                slices, pair_query, queries.astype(np.float32), worsts, stride
            )


class TestKernelMatchesScalarOracle:
    """Property: every area, argmin and minimum of the kernel equals the
    scalar oracle's, bit for bit, on both backends at 1 and 3 threads —
    also in argmin-only mode, where the C kernel may stop summing an
    offset early, and with a NaN/inf in a slice or frame, where it must
    not."""

    @given(
        m=st.one_of(
            st.integers(1, 7), st.integers(8, 128), st.integers(129, 300)
        ),
        stride=st.integers(1, 5),
        extra=st.integers(-3, 40),
        flat=st.booleans(),
        normalized=st.booleans(),
        magnitude=st.sampled_from([1e-3, 1.0, 7.0, 1e3, 1e6]),
        shift=st.sampled_from([0.0, 1e3, -1e3]),
        poison=st.sampled_from([None, None, None, "slice", "frame"]),
        bad=st.sampled_from([np.nan, np.inf]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the poisoned cases
    def test_areas_bitwise_equal_the_scalar_oracle(
        self, m, stride, extra, flat, normalized, magnitude, shift, poison, bad, seed
    ):
        rng = np.random.default_rng(seed)
        rms = 7.0 if normalized else None
        # One slice of length m + extra (shorter than a frame, exactly a
        # frame, or leaving a stride remainder) and one longer slice.
        series = []
        for length in (m + extra, 3 * m + 2 * stride + 1):
            data = rng.standard_normal(max(length, 0)) * magnitude + shift
            if flat:
                data[: m + stride] = 2.5  # leading zero-variance windows
            series.append(data)
        if poison == "slice":
            series[1][int(rng.integers(series[1].size))] = bad
        compiled = [compile_slice(data, m, stride, rms) for data in series]
        assert (compiled[0] is None) == (m + extra < m)
        kept = [(d, c) for d, c in zip(series, compiled) if c is not None]
        frames = rng.standard_normal((2, m)) * magnitude
        if poison == "frame":
            frames[1, int(rng.integers(m))] = bad
        if rms is None:
            queries, worsts = frames, np.full(2, np.inf)
        else:
            queries = np.stack([normalized_query(f, rms) for f in frames])
            worsts = np.abs(queries).sum(axis=1)
        # Every (slice, query) pair, interleaved.
        pairs = [(d, c, q) for q in (0, 1) for d, c in kept]
        pair_query = np.array([q for _, _, q in pairs], dtype=np.intp)
        expected = [
            sliding_area(frames[q], d, stride=stride)
            if rms is None
            else sliding_area_normalized(frames[q], d, rms, stride=stride)
            for d, _, q in pairs
        ]
        kernel_backend()
        kernels = [None] + ([_kernels._c_kernel] if _kernels._c_kernel else [])
        for kernel in kernels:
            for threads, keep in ((1, True), (3, True), (1, False), (3, False)):
                areas = np.full(sum(len(e) for e in expected), np.nan) if keep else None
                best, best_area = _evaluate(
                    kernel,
                    [c for _, c, _ in pairs],
                    pair_query,
                    np.ascontiguousarray(queries),
                    worsts,
                    stride,
                    areas,
                    threads,
                )
                start = 0
                for index, reference in enumerate(expected):
                    if areas is not None:
                        produced = areas[start : start + reference.size]
                        np.testing.assert_array_equal(produced, reference)
                    start += reference.size
                    assert best[index] == np.argmin(reference)
                    np.testing.assert_array_equal(
                        best_area[index], reference[np.argmin(reference)]
                    )


class TestFallbackScratchReuse:
    def test_same_shape_reuses_the_buffer(self):
        first = _scratch((37, 129))
        second = _scratch((37, 129))
        assert first is second  # no per-call allocation (the old leak)
        assert _scratch((37, 130)) is not first

    def test_scratch_is_thread_local(self):
        import threading

        main_buffer = _scratch((5, 5))
        seen: list[np.ndarray] = []
        worker = threading.Thread(target=lambda: seen.append(_scratch((5, 5))))
        worker.start()
        worker.join()
        assert seen[0] is not main_buffer


class TestBackendOverride:
    def test_forced_numpy_wins_even_with_a_compiler(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL", "numpy")
        _reset_backend_selection()
        assert kernel_backend() == "numpy"
        rng = np.random.default_rng(13)
        rows = np.ascontiguousarray(rng.standard_normal((6, 200)))
        queries = np.ascontiguousarray(rng.standard_normal((2, 200)))
        np.testing.assert_array_equal(
            abs_diff_rect_sums(rows, queries), _rect_reference(rows, queries)
        )
        assert _kernels._c_kernel is None  # the fallback really ran

    def test_invalid_override_rejected(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL", "cuda")
        _reset_backend_selection()
        with pytest.raises(KernelError, match="EMAP_KERNEL must be"):
            kernel_backend()

    def test_forced_c_raises_when_kernel_unavailable(self, monkeypatch):
        """A forced backend must never silently degrade to the fallback."""
        monkeypatch.setenv("EMAP_KERNEL", "c")
        monkeypatch.setattr(_kernels, "_load_c_kernel", lambda: None)
        _reset_backend_selection()
        with pytest.raises(KernelError, match="EMAP_KERNEL=c"):
            kernel_backend()

    def test_self_check_failure_falls_back_when_not_forced(self, monkeypatch):
        monkeypatch.delenv("EMAP_KERNEL", raising=False)
        monkeypatch.setattr(_kernels, "_passes_self_check", lambda kernel: False)
        _reset_backend_selection()
        assert kernel_backend() == "numpy"


class TestKernelThreads:
    def test_pinned_by_env(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL_THREADS", "3")
        assert kernel_threads() == 3

    def test_clamped_to_bounds(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL_THREADS", "0")
        assert kernel_threads() == 1
        monkeypatch.setenv("EMAP_KERNEL_THREADS", "4096")
        assert kernel_threads() == 64

    def test_default_is_cpu_count(self, monkeypatch):
        """Where the platform has no affinity call, the CPU count."""
        monkeypatch.delenv("EMAP_KERNEL_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        expected = max(1, min(os.cpu_count() or 1, 64))
        assert kernel_threads() == expected

    def test_default_follows_affinity_mask(self, monkeypatch):
        """Pinned to one CPU of eight, the pool must not oversubscribe."""
        monkeypatch.delenv("EMAP_KERNEL_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert kernel_threads() == 1

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("EMAP_KERNEL_THREADS", "many")
        with pytest.raises(KernelError, match="EMAP_KERNEL_THREADS"):
            kernel_threads()


@pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler on this host")
class TestSharedLibraryCache:
    def test_build_publishes_keyed_so_and_leaves_no_workdir(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("EMAP_KERNEL", raising=False)
        monkeypatch.setenv("EMAP_KERNEL_CACHE", str(tmp_path / "cache"))
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmp))
        import tempfile

        tempfile.tempdir = None  # re-read TMPDIR
        try:
            _reset_backend_selection()
            assert kernel_backend() == "c"
        finally:
            tempfile.tempdir = None
        cached = tmp_path / "cache" / f"area-kernel-{_source_digest()}.so"
        assert cached.exists()
        # The mkdtemp build directory is removed (the historical leak).
        assert not any(
            entry.name.startswith("repro-area-kernel-")
            for entry in tmp.iterdir()
        )

    def test_cache_hit_skips_the_compiler_entirely(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EMAP_KERNEL", raising=False)
        monkeypatch.setenv("EMAP_KERNEL_CACHE", str(tmp_path))
        _reset_backend_selection()
        assert kernel_backend() == "c"  # first selection populates the cache

        def boom(workdir: str) -> str | None:
            raise AssertionError("cache hit must not invoke the compiler")

        monkeypatch.setattr(_kernels, "_compile_library", boom)
        _reset_backend_selection()
        assert kernel_backend() == "c"  # loaded from the cached .so
        rng = np.random.default_rng(14)
        rows = np.ascontiguousarray(rng.standard_normal((5, 300)))
        queries = np.ascontiguousarray(rng.standard_normal((3, 300)))
        np.testing.assert_array_equal(
            abs_diff_rect_sums(rows, queries, threads=2),
            _rect_reference(rows, queries),
        )

    def test_corrupt_cache_entry_triggers_rebuild(self, tmp_path, monkeypatch):
        monkeypatch.delenv("EMAP_KERNEL", raising=False)
        monkeypatch.setenv("EMAP_KERNEL_CACHE", str(tmp_path))
        cached = tmp_path / f"area-kernel-{_source_digest()}.so"
        cached.write_bytes(b"not a shared library")
        _reset_backend_selection()
        assert kernel_backend() == "c"  # rebuilt past the corrupt entry
