"""Partitioned / parallel cloud search over the compiled plane.

The paper slices each signal "to enable the search algorithm to quickly
search through the complete database in parallel" (§V-B).  This module
provides that execution strategy: the compiled plane's shards are
partitioned into chunks balanced by **total sample count**
(variable-length slices would skew workers under round-robin), each
chunk is searched independently (serially or on a process pool), and
the per-chunk top-K sets are merged into the global signal correlation
set.

The pool is **persistent**: workers attach to the shards'
shared-memory segments in their initializer and keep their own window
norm caches alive across requests, so a search request ships only the
256-sample frame and the chunk's shard ids — never pickled slice data.
The pool is rebuilt automatically when the plane's generation moves
(an MDB insert recompiled shards); ``close()`` or the context-manager
protocol releases workers and shared memory.

Merging is exact: each chunk returns its own top-K, and the global
top-K is a subset of the union of chunk top-Ks, so the result is
bit-identical to a single-engine search over the whole database (the
test suite asserts this).
"""

from __future__ import annotations

import atexit
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import TracebackType
from typing import Iterable, Sequence

import numpy as np

from repro import obs
from repro.cloud.plane import PlaneCore
from repro.cloud.results import SearchMatch, SearchResult
from repro.cloud.search import (
    CorrelationSearch,
    ExponentialSkipPolicy,
    SearchConfig,
    SkipPolicy,
    TopK,
    walk_cores,
)
from repro.cloud.shards import ShardedSearchPlane, ShardedShareSpec
from repro.errors import SearchError
from repro.signals.types import SignalSlice


def partition_indices(
    lengths: Sequence[int], n_chunks: int
) -> list[list[int]]:
    """Split slice indices into chunks balanced by total sample count.

    Greedy LPT: indices are assigned longest-first to the least-loaded
    chunk, so variable-length slices spread evenly (for equal-length
    slices this degenerates to a round-robin with chunk sizes within
    one of each other).  Each chunk's indices come back sorted so the
    per-chunk scan preserves storage order.
    """
    if n_chunks < 1:
        raise SearchError(f"chunk count must be >= 1, got {n_chunks}")
    if not lengths:
        raise SearchError("cannot partition an empty signal-set list")
    n_chunks = min(n_chunks, len(lengths))
    order = sorted(range(len(lengths)), key=lambda i: (-lengths[i], i))
    loads = [0] * n_chunks
    chunks: list[list[int]] = [[] for _ in range(n_chunks)]
    for index in order:
        target = loads.index(min(loads))
        chunks[target].append(index)
        loads[target] += lengths[index]
    for chunk in chunks:
        chunk.sort()
    return chunks


def merge_results(
    partials: Iterable[SearchResult], top_k: int
) -> SearchResult:
    """Merge per-chunk results into the global top-K correlation set.

    Each chunk's own wall time is preserved in ``chunk_elapsed_s``;
    the merge itself is timed by a ``cloud.merge`` span, and
    ``elapsed_s`` is the critical-path estimate (slowest chunk plus the
    merge) — :meth:`ParallelSearch.search` overwrites it with the true
    end-to-end wall time it measures around dispatch + merge.
    """
    if top_k < 1:
        raise SearchError(f"top_k must be >= 1, got {top_k}")
    merged = SearchResult()
    top = TopK(top_k)
    with obs.trace.span("cloud.merge") as span:
        for partial in partials:
            merged.correlations_evaluated += partial.correlations_evaluated
            merged.slices_searched += partial.slices_searched
            merged.candidates_above_threshold += partial.candidates_above_threshold
            merged.heap_admissions += partial.heap_admissions
            merged.slices_pruned += partial.slices_pruned
            merged.coarse_elapsed_s += partial.coarse_elapsed_s
            merged.chunk_elapsed_s.append(partial.elapsed_s)
            for match in partial.matches:
                top.offer(match.omega, match)
    slowest_chunk = max(merged.chunk_elapsed_s, default=0.0)
    merged.elapsed_s = slowest_chunk + span.elapsed_s
    merged.matches = top.sorted_items()
    return merged


@dataclass(frozen=True)
class _ChunkOutcome:
    """A worker's compact return value: statistics plus index-keyed hits.

    ``result`` carries the chunk's statistics (no matches); matches
    travel as ``(slice_index, omega, offset)`` tuples — the parent
    rebinds them to its own :class:`SignalSlice` objects, so no slice
    data or metadata crosses the process boundary.
    """

    result: SearchResult
    hits: list[tuple[int, float, int]]


class _WorkerShards:
    """Per-worker-process search state over the attached shard cores.

    Attaches every shard's segment once at pool construction and lives
    for the worker's whole lifetime: the cores (and their
    per-frame-length norm caches) persist across requests, which is
    where the pool amortises the query-independent work.  A chunk
    request names the **shard ids** to walk; screening stays global
    (all shard cores) inside :func:`~repro.cloud.search.walk_cores`,
    so per-slice verdicts match the in-process path exactly.
    """

    def __init__(
        self,
        spec: ShardedShareSpec,
        config: SearchConfig,
        policy: SkipPolicy,
    ) -> None:
        attached = [shard_spec.attach() for shard_spec in spec.specs]
        self.cores: list[PlaneCore] | None = [core for core, _ in attached]
        self._segments = [segment for _, segment in attached]
        self.bases = spec.bases
        self.config = config
        self.policy = policy

    def search_chunk(
        self, frame: np.ndarray, chunk_ids: Sequence[int]
    ) -> _ChunkOutcome:
        if self.cores is None:
            raise SearchError("worker plane already released")
        started = time.perf_counter()
        query = np.asarray(frame, dtype=np.float64)
        centered = query - query.mean()
        norm = float(np.linalg.norm(centered))
        ((result, hits),) = walk_cores(
            self.cores,
            self.bases,
            [(centered, norm)],
            self.config,
            self.policy,
            scan=chunk_ids,
        )
        top: TopK[tuple[int, float, int]] = TopK(self.config.top_k)
        for hit in hits:
            top.offer(hit[1], hit)
        result.heap_admissions = top.admissions
        result.elapsed_s = time.perf_counter() - started
        return _ChunkOutcome(result=result, hits=top.sorted_items())

    def release(self) -> None:
        """Drop array views, then close the shared-memory mappings."""
        self.cores = None
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exports still alive
                pass


#: The attached plane state of this worker process (set by the pool
#: initializer; ``None`` in the parent).
_WORKER_STATE: _WorkerShards | None = None


def _worker_cleanup() -> None:  # pragma: no cover - runs in workers
    global _WORKER_STATE
    if _WORKER_STATE is not None:
        _WORKER_STATE.release()
        _WORKER_STATE = None


def _pool_initializer(
    spec: ShardedShareSpec,
    config: SearchConfig,
    policy: SkipPolicy,
) -> None:  # pragma: no cover - runs in workers
    global _WORKER_STATE
    _WORKER_STATE = _WorkerShards(spec, config, policy)
    atexit.register(_worker_cleanup)


def _pool_search_chunk(
    frame: np.ndarray, chunk_ids: Sequence[int]
) -> _ChunkOutcome:  # pragma: no cover - runs in workers
    if _WORKER_STATE is None:
        raise SearchError("worker pool used outside an initialized worker")
    return _WORKER_STATE.search_chunk(frame, chunk_ids)


class ParallelSearch:
    """Chunked Algorithm 1 over a compiled, sharded search plane.

    ``n_workers=1`` (the default) runs chunks serially in-process —
    useful to bound peak memory and to test the merge path.  With
    ``n_workers > 1`` chunks run on a **persistent** process pool:
    workers attach to the shards' shared-memory segments once, at pool
    construction, and repeated :meth:`search` calls reuse both the
    pool and the workers' cached window statistics.  The engine may be
    bound to a plane up front (``plane=``), fed one per call, or given
    a plain slice list — compiled into an owned plane with one shard
    per chunk.
    """

    def __init__(
        self,
        config: SearchConfig | None = None,
        n_chunks: int = 4,
        n_workers: int = 1,
        plane: ShardedSearchPlane | None = None,
        policy: SkipPolicy | None = None,
    ) -> None:
        if n_chunks < 1:
            raise SearchError(f"chunk count must be >= 1, got {n_chunks}")
        if n_workers < 1:
            raise SearchError(f"worker count must be >= 1, got {n_workers}")
        self.config = config or SearchConfig()
        self.n_chunks = n_chunks
        self.n_workers = n_workers
        self.policy = policy or ExponentialSkipPolicy(
            alpha=self.config.alpha,
            skip_scale=self.config.skip_scale,
            omega_floor=self.config.omega_floor,
            max_skip=self.config.max_skip,
        )
        self.plane = plane
        self.pool_builds = 0
        self.pool_reuses = 0
        self._engine = CorrelationSearch(self.config, self.policy)
        self._owns_plane = False
        self._adhoc_source_id: int | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._pool_key: tuple[int, int] | None = None
        self._closed = False

    # -- plane binding -----------------------------------------------

    def bind(
        self, source: ShardedSearchPlane | Sequence[SignalSlice]
    ) -> ShardedSearchPlane:
        """Make ``source`` the engine's current plane (compiling it if
        it is a plain slice list).

        Rebinding retires the previous binding deterministically: the
        worker pool (whose workers hold attachments to the previous
        plane's shared-memory segments) is shut down, and a previous
        plane the engine compiled itself is closed so its segments are
        released now rather than at interpreter exit.  Binding also
        revives a closed engine — the pool and shared segments are
        rebuilt lazily on the next pooled search.
        """
        previous = self.plane
        if previous is not None and previous is not source:
            self._shutdown_pool()
            if self._owns_plane:
                previous.close()
        if isinstance(source, ShardedSearchPlane):
            self.plane = source
            self._owns_plane = False
            self._adhoc_source_id = None
        else:
            self.plane = ShardedSearchPlane(
                source, shard_slices=max(1, -(-len(source) // self.n_chunks))
            )
            self._owns_plane = True
            self._adhoc_source_id = id(source)
        self._closed = False
        return self.plane

    def _resolve_plane(
        self, slices: ShardedSearchPlane | Sequence[SignalSlice] | None
    ) -> ShardedSearchPlane:
        plane = self.plane
        if slices is None:
            if plane is None:
                raise SearchError(
                    "no signal-set source: pass slices/a plane to search() "
                    "or bind() one up front"
                )
            return plane
        if isinstance(slices, ShardedSearchPlane):
            if slices is not plane:
                return self.bind(slices)
            return slices
        if (
            plane is None
            or self._adhoc_source_id != id(slices)
            or plane.n_slices != len(slices)
        ):
            return self.bind(slices)
        return plane

    # -- searching ---------------------------------------------------

    def search(
        self,
        frame: np.ndarray,
        slices: ShardedSearchPlane | Sequence[SignalSlice] | None = None,
    ) -> SearchResult:
        """Global top-K search, identical in output to a single engine.

        The plane is partitioned **by shard** (chunks balanced on
        per-shard sample counts), so workers walk whole independently
        compiled cores and reuse the shard-local caches.  One epoch is
        pinned for the whole scatter-gather, so a concurrent
        ``refresh`` cannot hand different chunks different generations;
        merging per-chunk top-Ks is exact because the global top-K is a
        subset of the union of chunk top-Ks.

        The whole partitioned search runs inside a
        ``cloud.parallel_search`` root span; the merged result's
        ``elapsed_s`` is that span's wall time (dispatch + chunk scans
        + merge), and ``chunk_elapsed_s`` keeps every chunk's own
        latency so skew between workers stays visible.
        """
        if self._closed:
            raise SearchError(
                "this ParallelSearch is closed; bind() a new signal-set "
                "source to revive it"
            )
        plane = self._resolve_plane(slices)
        plane.refresh()
        query = np.asarray(frame, dtype=np.float64)
        self._engine.prepare_query(query)
        epoch = plane.pin()
        with obs.trace.span(
            "cloud.parallel_search",
            n_chunks=self.n_chunks,
            n_workers=self.n_workers,
        ) as span:
            chunks = partition_indices(
                epoch.shard_sample_counts(), self.n_chunks
            )
            if self.n_workers == 1:
                partials = [
                    self._engine.search_shards(query, epoch, chunk)
                    for chunk in chunks
                ]
            else:
                pool = self._ensure_pool(plane)
                futures = [
                    pool.submit(_pool_search_chunk, query, chunk)
                    for chunk in chunks
                ]
                partials = [
                    self._outcome_to_result(future.result(), epoch.slices)
                    for future in futures
                ]
            merged = merge_results(partials, self.config.top_k)
        merged.elapsed_s = span.elapsed_s
        self._publish_parallel(merged)
        return merged

    @staticmethod
    def _publish_parallel(merged: SearchResult) -> None:
        registry = obs.metrics()
        if registry.enabled:
            for chunk_s in merged.chunk_elapsed_s:
                registry.observe("cloud.parallel.chunk_elapsed_s", chunk_s)

    @staticmethod
    def _outcome_to_result(
        outcome: _ChunkOutcome, slices: Sequence[SignalSlice]
    ) -> SearchResult:
        result = outcome.result
        result.matches = [
            SearchMatch(
                sig_slice=slices[index], omega=omega, offset=offset
            )
            for index, omega, offset in outcome.hits
        ]
        return result

    # -- pool lifecycle ----------------------------------------------

    def _ensure_pool(self, plane: ShardedSearchPlane) -> ProcessPoolExecutor:
        """The persistent worker pool for ``plane``'s current build.

        Reused across requests; torn down and rebuilt only when the
        plane object or its generation changes (shared memory holds
        the *compiled* arrays, so a recompile invalidates attachments).
        """
        key = (id(plane), plane.generation)
        registry = obs.metrics()
        if self._pool is not None and self._pool_key == key:
            self.pool_reuses += 1
            registry.inc("cloud.parallel.pool_reuse")
            return self._pool
        self._shutdown_pool()
        spec = plane.share()
        self._pool = ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_pool_initializer,
            initargs=(spec, self.config, self.policy),
        )
        self._pool_key = key
        self.pool_builds += 1
        registry.inc("cloud.parallel.pool_builds")
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_key = None

    def close(self) -> None:
        """Shut the worker pool down and release plane shared memory.

        Idempotent.  A closed engine refuses :meth:`search` with a
        clear :class:`SearchError`; :meth:`bind` revives it (the pool
        and shared segments rebuild lazily on the next pooled search).
        """
        if self._closed:
            return
        self._closed = True
        self._shutdown_pool()
        if self.plane is not None:
            # Releases only the shared-memory segments; the plane's
            # compiled arrays stay usable (for borrowed planes too).
            self.plane.close()

    def __enter__(self) -> "ParallelSearch":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
        except Exception:
            pass
