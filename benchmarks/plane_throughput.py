"""Shared measurement for the serving-plane throughput bench.

Compares two ways of serving the same stream of search requests over
the Fig. 7(b)-scale MDB:

* **legacy** — the pre-plane ``CloudServer`` behaviour: each request
  recomputes every slice's prefix sums, window norms and dot products
  from the raw slice list, then replays the skip walk over them.  The
  library no longer ships this path, so its arithmetic is frozen here
  (:func:`_legacy_search`) as a reference arm whose cost does not move
  with the plane, and its first answer is checked against the scalar
  oracle so the frozen copy cannot drift;
* **plane** — the same engine over a compiled one-shard
  :class:`~repro.cloud.shards.ShardedSearchPlane`: samples compiled
  once, window norms cached per frame length, the skip walk replayed
  over the batched correlation arrays.

Both arms run the identical Algorithm 1 walk, and the harness verifies
request-by-request that matches and ``correlations_evaluated`` are
bit-identical — the plane may only change *where* the arithmetic runs,
never what it computes.  Used by ``test_bench_plane_throughput.py``
and the ``check_regression.py`` CI gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cloud.results import SearchMatch, SearchResult
from repro.cloud.search import (
    CorrelationSearch,
    SearchConfig,
    SlidingWindowSearch,
    TopK,
    replay_skip_walk,
)
from repro.cloud.shards import ShardedSearchPlane
from repro.eval.experiments.common import ExperimentFixture, filtered_frame
from repro.signals.generator import EEGGenerator
from repro.signals.types import SignalSlice


@dataclass
class ThroughputResult:
    """Both arms' wall time over the same request stream."""

    n_slices: int
    n_queries: int
    legacy_s: float
    plane_s: float
    warmup_s: float
    identical: bool
    correlations_per_query: list[int] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        return self.legacy_s / self.plane_s if self.plane_s > 0 else float("inf")

    @property
    def legacy_qps(self) -> float:
        return self.n_queries / self.legacy_s if self.legacy_s > 0 else 0.0

    @property
    def plane_qps(self) -> float:
        return self.n_queries / self.plane_s if self.plane_s > 0 else 0.0

    def report(self) -> str:
        lines = [
            "Serving throughput: legacy per-request path vs compiled plane",
            f"  MDB: {self.n_slices} signal-sets, {self.n_queries} requests",
            f"  legacy: {self.legacy_s:.3f}s total, {self.legacy_qps:6.1f} req/s",
            f"  plane:  {self.plane_s:.3f}s total, {self.plane_qps:6.1f} req/s "
            f"(+ {self.warmup_s:.3f}s one-off compile/warm-up)",
            f"  speedup: {self.speedup:.2f}x, bit-identical: {self.identical}",
            "  correlations/query: "
            + " ".join(str(count) for count in self.correlations_per_query),
        ]
        return "\n".join(lines)


def _result_key(result) -> list[tuple[str, int, float]]:
    return [
        (match.sig_slice.slice_id, match.offset, match.omega)
        for match in result.matches
    ]


def _full_correlations(
    centered: np.ndarray, norm: float, series: np.ndarray
) -> np.ndarray:
    """Normalised correlation of a precentred query at every offset.

    Vectorised prefix-sum evaluation over one raw slice, recomputed on
    every request — the per-request cost the plane amortises.
    """
    m = centered.size
    n_offsets = series.size - m + 1
    if norm < 1e-12:
        return np.zeros(n_offsets)
    prefix = np.concatenate(([0.0], np.cumsum(series)))
    prefix_sq = np.concatenate(([0.0], np.cumsum(series * series)))
    sums = prefix[m:] - prefix[:-m]
    sq_sums = prefix_sq[m:] - prefix_sq[:-m]
    centered_norms = np.sqrt(np.maximum(sq_sums - sums * sums / m, 0.0))
    dots = np.correlate(series, centered, mode="valid")
    denominator = norm * centered_norms
    flat = denominator < 1e-12
    denominator[flat] = 1.0
    values = dots / denominator
    values[flat] = 0.0
    return np.clip(values, -1.0, 1.0)


def _legacy_search(
    engine: CorrelationSearch, frame: np.ndarray, slices: Sequence[SignalSlice]
) -> SearchResult:
    """The legacy per-request path: Algorithm 1 over raw slices.

    Each slice's full correlation array is evaluated vectorised, then
    the skip walk is replayed over it and the hits merged into a top-K
    heap in scan order.
    """
    config = engine.config
    centered, norm = engine.prepare_query(frame)
    result = SearchResult()
    top: TopK[SearchMatch] = TopK(config.top_k)
    started = time.perf_counter()
    for sig_slice in slices:
        result.slices_searched += 1
        if len(sig_slice) < config.frame_samples:
            continue
        correlations = _full_correlations(centered, norm, sig_slice.data)
        hits, evaluated, above = replay_skip_walk(
            correlations.__getitem__,
            len(sig_slice) - config.frame_samples,
            engine.policy,
            config.delta,
            config.dedupe_per_slice,
        )
        result.correlations_evaluated += evaluated
        result.candidates_above_threshold += above
        for omega, offset in hits:
            top.offer(
                omega, SearchMatch(sig_slice=sig_slice, omega=omega, offset=offset)
            )
    result.elapsed_s = time.perf_counter() - started
    result.heap_admissions = top.admissions
    result.matches = top.sorted_items()
    return result


def _same_answer(left: SearchResult, right: SearchResult) -> bool:
    return (
        _result_key(left) == _result_key(right)
        and left.correlations_evaluated == right.correlations_evaluated
        and left.candidates_above_threshold == right.candidates_above_threshold
    )


def run_throughput(
    fixture: ExperimentFixture,
    n_queries: int = 12,
    seed: int = 7,
    config: SearchConfig | None = None,
) -> ThroughputResult:
    """Serve ``n_queries`` frames through both arms and time them.

    The plane arm is warmed with one untimed request first (compiling
    the plane and building the norm cache — one-off costs a persistent
    server pays once, reported separately as ``warmup_s``), so the
    timed region measures steady-state serving throughput.

    ``identical`` also requires the legacy arm's first answer to equal
    the scalar oracle's (untimed), which pins the frozen legacy
    arithmetic to the library's reference search.
    """
    cfg = config or SearchConfig()
    recording = EEGGenerator(seed=seed).record(float(n_queries + 2))
    frames = [
        filtered_frame(recording, second) for second in range(1, n_queries + 1)
    ]
    engine = SlidingWindowSearch(cfg)

    started = time.perf_counter()
    legacy_results = [
        _legacy_search(engine, frame, fixture.slices) for frame in frames
    ]
    legacy_s = time.perf_counter() - started
    oracle = engine.search(frames[0], fixture.slices)

    started = time.perf_counter()
    plane = ShardedSearchPlane(fixture.mdb, shard_slices=len(fixture.mdb))
    engine.search(frames[0], plane)
    warmup_s = time.perf_counter() - started

    started = time.perf_counter()
    plane_results = [engine.search(frame, plane) for frame in frames]
    plane_s = time.perf_counter() - started

    identical = _same_answer(legacy_results[0], oracle) and all(
        _same_answer(legacy, planed)
        for legacy, planed in zip(legacy_results, plane_results)
    )
    return ThroughputResult(
        n_slices=fixture.n_slices,
        n_queries=n_queries,
        legacy_s=legacy_s,
        plane_s=plane_s,
        warmup_s=warmup_s,
        identical=identical,
        correlations_per_query=[
            result.correlations_evaluated for result in legacy_results
        ],
    )


def summarize(result: ThroughputResult, mdb_scale: float, seed: int) -> dict:
    """The JSON-able summary the regression baseline stores."""
    return {
        "config": {"mdb_scale": mdb_scale, "seed": seed},
        "n_slices": result.n_slices,
        "n_queries": result.n_queries,
        "correlations_per_query": result.correlations_per_query,
        "legacy_s": result.legacy_s,
        "plane_s": result.plane_s,
        "speedup": result.speedup,
        "identical": result.identical,
    }
