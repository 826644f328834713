"""The signal cross-correlation search (paper Algorithm 1).

One engine, :class:`CorrelationSearch`, scans every signal-set with a
pluggable **skip policy** deciding how far the window advances after
each correlation:

* :class:`FixedSkipPolicy` (β = 1) — the exhaustive baseline of
  Figs. 7(b) and 11;
* :class:`ExponentialSkipPolicy` — the paper's β = αω⁻¹ rule: low
  correlation → long jumps over dissimilar regions, high correlation →
  fine-grained steps so peaks are not skipped over.

Both share the identical inner loop, so their wall-clock ratio reflects
the *algorithmic* saving (number of correlations evaluated), which is
what the paper's ~6.8× claim is about.

Two interpretation notes (also in DESIGN.md):

* ω is the *normalised* cross-correlation — the raw dot product of
  Eq. 2 is unbounded and cannot be compared against δ = 0.8.
* Algorithm 1's pseudocode says ``AscendingSort`` then take the first
  100, which would return the *least* correlated entries; we sort
  descending, which is the evident intent ("maximum signal correlation
  set").
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Protocol, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.cloud.coarse import ScreenOutcome, assemble_fast
from repro.cloud.plane import PlaneCore, PlaneNorms
from repro.cloud.results import SearchMatch, SearchResult
from repro.cloud.shards import ShardEpoch, ShardedSearchPlane
from repro.errors import SearchError
from repro.obs.tracing import Span
from repro.signals.types import FRAME_SAMPLES, SignalSlice, real_samples
from repro.signals.windows import WindowedStats

T = TypeVar("T")

#: Paper's preset step-size (Section V-B: "we have preset α to 0.004").
DEFAULT_ALPHA = 0.004

#: Paper's cross-correlation threshold δ.
DEFAULT_DELTA = 0.8

#: Size of the signal correlation set T ("top-100").
DEFAULT_TOP_K = 100


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of the cloud search.

    ``skip_scale`` converts the dimensionless β = α/ω into samples
    (DESIGN.md: with the paper's literal formula β is sub-sample); the
    default is calibrated so Algorithm 1's average reduction in
    correlations evaluated lands near the paper's ~6.8×.
    ``omega_floor`` is the ε floor for clamped-to-zero correlations
    (Algorithm 1 lines 9–11 clamp ω < 0 to 0, which would otherwise
    divide by zero).  ``dedupe_per_slice`` keeps only the best offset
    per signal-set so the top-100 are 100 distinct *signals*, matching
    the paper's reading of T; set it to ``False`` for the literal
    every-offset pseudocode behaviour.

    ``two_stage`` engages the coarse screening pass on compiled-plane
    searches (``"off"`` | ``"fast"`` — see :mod:`repro.cloud.coarse`):
    ``"fast"`` keeps only the ``coarse_keep_fraction`` best-scoring
    slices (never fewer than ``top_k``), trading a Fig. 11-gated sliver
    of quality for throughput.  ``coarse_decimation`` is the block size
    ``D`` of the decimated grid.  Raw-iterable searches (no compiled
    plane) ignore the setting.
    """

    frame_samples: int = FRAME_SAMPLES
    delta: float = DEFAULT_DELTA
    alpha: float = DEFAULT_ALPHA
    skip_scale: float = 135.0
    omega_floor: float = 0.05
    max_skip: int = 250
    top_k: int = DEFAULT_TOP_K
    dedupe_per_slice: bool = True
    two_stage: str = "off"
    coarse_decimation: int = 8
    coarse_keep_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.frame_samples <= 0:
            raise SearchError(f"frame size must be positive, got {self.frame_samples}")
        if not (0.0 <= self.delta < 1.0):
            raise SearchError(f"delta must be in [0, 1), got {self.delta}")
        if self.alpha <= 0:
            raise SearchError(f"alpha must be positive, got {self.alpha}")
        if self.skip_scale <= 0:
            raise SearchError(f"skip scale must be positive, got {self.skip_scale}")
        if not (0.0 < self.omega_floor <= 1.0):
            raise SearchError(f"omega floor must be in (0, 1], got {self.omega_floor}")
        if self.max_skip < 1:
            raise SearchError(f"max skip must be >= 1, got {self.max_skip}")
        if self.top_k <= 0:
            raise SearchError(f"top_k must be positive, got {self.top_k}")
        if self.two_stage not in ("off", "fast"):
            raise SearchError(
                f"two_stage must be 'off' or 'fast', got {self.two_stage!r}"
            )
        if self.two_stage == "fast":
            if not (2 <= self.coarse_decimation <= self.frame_samples):
                raise SearchError(
                    "coarse decimation must be in [2, frame_samples], got "
                    f"{self.coarse_decimation}"
                )
            if not (0.0 < self.coarse_keep_fraction <= 1.0):
                raise SearchError(
                    "coarse keep fraction must be in (0, 1], got "
                    f"{self.coarse_keep_fraction}"
                )


class SkipPolicy(Protocol):
    """Decides the window advance after one correlation evaluation."""

    def skip(self, omega: float) -> int:
        """Samples to advance given the (clamped) correlation ω."""
        ...

    def skip_table(self, omegas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`skip`: ``skip(ω_i)`` for every element."""
        ...


class FixedSkipPolicy:
    """Constant advance; ``FixedSkipPolicy(1)`` is the exhaustive search."""

    def __init__(self, step: int = 1) -> None:
        if step < 1:
            raise SearchError(f"fixed skip must be >= 1, got {step}")
        self.step = step

    def skip(self, omega: float) -> int:
        return self.step

    def skip_table(self, omegas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`skip` for a whole correlation array."""
        return np.full(omegas.size, self.step, dtype=np.int64)


class ExponentialSkipPolicy:
    """The paper's β = αω⁻¹ sliding window, in samples.

    ``β = clamp(round(skip_scale · α / max(ω, ε)), 1, max_skip)`` —
    inversely proportional to the local correlation, so dissimilar
    regions are skipped quickly while near-matches are scanned finely.
    """

    def __init__(
        self,
        alpha: float = DEFAULT_ALPHA,
        skip_scale: float = 135.0,
        omega_floor: float = 0.05,
        max_skip: int = 250,
    ) -> None:
        if alpha <= 0:
            raise SearchError(f"alpha must be positive, got {alpha}")
        if skip_scale <= 0:
            raise SearchError(f"skip scale must be positive, got {skip_scale}")
        if not (0.0 < omega_floor <= 1.0):
            raise SearchError(f"omega floor must be in (0, 1], got {omega_floor}")
        if max_skip < 1:
            raise SearchError(f"max skip must be >= 1, got {max_skip}")
        self.alpha = alpha
        self.skip_scale = skip_scale
        self.omega_floor = omega_floor
        self.max_skip = max_skip

    def skip(self, omega: float) -> int:
        effective = max(omega, self.omega_floor)
        beta = int(round(self.skip_scale * self.alpha / effective))
        return max(1, min(beta, self.max_skip))

    def skip_table(self, omegas: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`skip` for a whole correlation array.

        ``np.rint`` and ``np.clip`` mirror ``int(round(...))`` and
        ``max(1, min(...))`` exactly (both round half to even on
        float64), so the table entry at any ω equals ``skip(ω)``.
        """
        effective = np.maximum(omegas, self.omega_floor)
        np.divide(self.skip_scale * self.alpha, effective, out=effective)
        np.rint(effective, out=effective)
        np.clip(effective, 1, self.max_skip, out=effective)
        return effective.astype(np.int64)


def screen_shard_cores(
    cores: Sequence[PlaneCore],
    config: SearchConfig,
    centered: np.ndarray,
    norm: float,
) -> ScreenOutcome | None:
    """One *global* coarse verdict over the shard cores of one epoch.

    Returns ``None`` when two-stage search is off.  Per-slice scores
    are pure per-slice functions, so each shard's coarse index produces
    exactly the values a one-shard index over the whole store would
    (:meth:`~repro.cloud.coarse.CoarseIndex.fast_scores`); concatenating
    them in shard order and assembling the verdict globally therefore
    reaches the identical keep set for any shard width — fast mode's
    keep *count* and lexsort tie-break see the whole plane, never one
    shard.
    """
    if config.two_stage == "off":
        return None
    indexes = [
        core.ensure_coarse(config.frame_samples, config.coarse_decimation)
        for core in cores
    ]
    started = time.perf_counter()
    scores = np.concatenate(
        [index.fast_scores(centered, norm) for index in indexes]
    )
    return assemble_fast(
        scores,
        config.coarse_keep_fraction,
        config.top_k,
        time.perf_counter() - started,
    )


class TopK(Generic[T]):
    """Min-heap keeping the ``k`` highest-scored items, no global sort.

    ``admissions`` counts pushes + replaces (the
    ``heap_admissions`` search statistic).
    """

    __slots__ = ("_heap", "_k", "_sequence", "admissions")

    def __init__(self, k: int) -> None:
        self._heap: list[tuple[float, int, T]] = []
        self._k = k
        self._sequence = 0
        self.admissions = 0

    def offer(self, score: float, item: T) -> None:
        """Admit ``item`` if ``score`` beats the current k-th best."""
        self._sequence += 1
        if len(self._heap) < self._k:
            heapq.heappush(self._heap, (score, self._sequence, item))
            self.admissions += 1
        elif score > self._heap[0][0]:
            heapq.heapreplace(self._heap, (score, self._sequence, item))
            self.admissions += 1

    def sorted_items(self) -> list[T]:
        """The retained items, highest score first."""
        return [
            entry[2]
            for entry in sorted(self._heap, key=lambda item: item[0], reverse=True)
        ]


def replay_skip_walk(
    evaluate: Callable[[int], float],
    last_offset: int,
    policy: SkipPolicy,
    delta: float,
    dedupe_per_slice: bool,
) -> tuple[list[tuple[float, int]], int, int]:
    """Algorithm 1's window walk over one slice.

    ``evaluate(offset)`` returns the normalised correlation at one
    offset (the scalar oracle passes a :class:`ScalarWindowEvaluator`).
    :class:`PlaneWalker` replays the same trajectory over a compiled
    plane, so the admitted ``(omega, offset)`` hits and the evaluation
    counts are the reference every compiled search is checked against.

    Returns ``(hits, evaluated, above_threshold)``.
    """
    hits: list[tuple[float, int]] = []
    best_omega = -np.inf
    best_offset = -1
    offset = 0
    evaluated = 0
    above_threshold = 0
    while offset <= last_offset:
        omega = float(evaluate(offset))
        evaluated += 1
        omega = max(omega, 0.0)  # Algorithm 1 lines 9-11
        if omega > delta:
            above_threshold += 1
            if dedupe_per_slice:
                if omega > best_omega:
                    best_omega = omega
                    best_offset = offset
            else:
                hits.append((omega, offset))
        offset += policy.skip(omega)
    if dedupe_per_slice and best_offset >= 0:
        hits.append((best_omega, best_offset))
    return hits, evaluated, above_threshold


class PlaneWalker:
    """One query's batched skip-policy replay over a compiled plane.

    Construction does all per-query vectorised work in bulk: the
    per-slice dot products, one normalisation pass over the
    concatenated correlation array, and (for non-fixed-step policies)
    a successor table ``nxt[o] = o + skip(ω_o)``.
    :meth:`walk_all` then runs every slice's walk level-synchronously —
    one vectorised gather advances all still-walking slices a hop per
    round — and classifies the visited offsets against the threshold
    in a single pass afterwards, so no per-offset Python loop remains.

    Hits and counters are bit-identical to :func:`replay_skip_walk`
    over the scalar evaluator: the trajectory through each slice is the
    same pure function of the correlation value at each visited offset,
    and every float op (dots, norms, rounding, clamps) is the same
    IEEE-754 operation, merely batched.

    ``indices`` restricts the bulk work to a subset of the core's
    slices — the survivors of a two-stage coarse screen.
    """

    __slots__ = (
        "_clamped",
        "_dedupe",
        "_delta",
        "_ids",
        "_nxt",
        "_policy",
        "_starts",
        "_step",
        "_stops",
    )

    #: Below this many still-walking slices the level-synchronous
    #: rounds stop paying for their fixed vector-op overhead; the few
    #: stragglers finish in a plain loop instead.
    _STRAGGLER_CUTOFF = 8

    def __init__(
        self,
        core: PlaneCore,
        centered: np.ndarray,
        norm: float,
        cache: PlaneNorms,
        policy: SkipPolicy,
        delta: float,
        dedupe_per_slice: bool,
        indices: Sequence[int] | None = None,
    ) -> None:
        self._policy = policy
        self._delta = delta
        self._dedupe = dedupe_per_slice
        self._step = getattr(policy, "step", None)
        offsets = cache.offsets
        if indices is None or len(indices) == core.n_slices:
            # The norm cache's concatenated layout IS the walk layout.
            ids = np.arange(core.n_slices, dtype=np.int64)
            starts = offsets[:-1]
            stops = offsets[1:]
            lengths = stops - starts
            norms = cache.norms
            min_norm = cache.min_norm
        else:
            ids = np.asarray(indices, dtype=np.int64)
            lengths = offsets[ids + 1] - offsets[ids]
            stops = np.cumsum(lengths)
            starts = stops - lengths
            parts = [
                cache.slice_norms(int(index))
                for index, length in zip(ids, lengths)
                if length > 0
            ]
            norms = np.concatenate(parts) if parts else np.zeros(0)
            min_norm = float(norms.min()) if norms.size else 0.0
        self._ids = ids
        self._starts = starts
        self._stops = stops
        total = int(norms.size)
        if norm < 1e-12 or total == 0:
            self._clamped = np.zeros(total)
        else:
            dots = np.concatenate(
                [
                    core.dots(int(index), centered)
                    for index, length in zip(ids, lengths)
                    if length > 0
                ]
            )
            denominator = norm * norms
            if norm * min_norm >= 1e-12:
                # No flat window anywhere (the cached minimum norm
                # proves it), so skip the per-offset flat masking.
                values = np.divide(dots, denominator, out=dots)
            else:
                flat = denominator < 1e-12
                denominator[flat] = 1.0
                values = np.divide(dots, denominator, out=dots)
                values[flat] = 0.0
            # clip(x, -1, 1) then max(·, 0) — Algorithm 1 lines 9-11 —
            # collapses to one clip into [0, 1].
            self._clamped = np.clip(values, 0.0, 1.0, out=values)
        self._nxt: np.ndarray | None = None

    @property
    def total_positions(self) -> int:
        """Size of this walker's concatenated correlation layout."""
        return int(self._clamped.size)

    def _ensure_successors(self) -> np.ndarray:
        """Build (once) ``nxt[o] = o + skip(ω_o)`` over the layout.

        Only the single-query walk materialises the table; the joint
        multi-query walk evaluates skips lazily per round instead, so
        batched queries never pay this full-layout pass.
        """
        if self._nxt is None:
            nxt = self._policy.skip_table(self._clamped)
            nxt += np.arange(self.total_positions, dtype=np.int64)
            self._nxt = nxt
        return self._nxt

    def walk_all(self) -> tuple[list[tuple[int, float, int]], int, int]:
        """Replay every slice's walk over the compiled layout.

        Returns ``(hits, evaluated, above_threshold)`` where ``hits``
        holds ``(slice_index, omega, relative_offset)`` tuples in
        exactly the order the sequential per-slice scan would admit
        them (slices in scan order, offsets ascending within a slice),
        so heap tie-breaking is unchanged.
        """
        if self._step is not None:
            return self._walk_all_strided()
        return self.classify_visited(self._visit_positions())

    def _visit_positions(self) -> np.ndarray:
        """Level-synchronous walk over all slices at once.

        Each round gathers the successor of every still-walking slice's
        position in one vectorised ``take``; finished slices drop out.
        The visited set is identical to running the scalar walk per
        slice because each hop depends only on the (precomputed)
        correlation at the current offset.  Positions are returned in
        round-major order; :meth:`classify_visited` does not depend on
        the order.
        """
        starts = self._starts
        live = starts < self._stops
        pos = starts[live]
        stop = self._stops[live]
        nxt = self._ensure_successors()
        buf: list[np.ndarray] = []
        while pos.size > self._STRAGGLER_CUTOFF:
            buf.append(pos)
            pos = nxt.take(pos)
            alive = pos < stop
            pos = pos[alive]
            stop = stop[alive]
        if pos.size:
            tail: list[int] = []
            for position, bound in zip(pos.tolist(), stop.tolist()):
                while position < bound:
                    tail.append(position)
                    position = int(nxt[position])
            buf.append(np.asarray(tail, dtype=np.int64))
        if not buf:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(buf)

    def classify_visited(
        self, visited: np.ndarray
    ) -> tuple[list[tuple[int, float, int]], int, int]:
        """Threshold + dedupe + scan-order restore over visited positions.

        Pure function of the visited set (order-insensitive): both the
        single-query walk and the multi-query joint walk feed it, which
        is what keeps gateway-batched results bit-identical to the
        per-request path.
        """
        evaluated = int(visited.size)
        if not evaluated:
            return [], 0, 0
        starts = self._starts
        values = self._clamped.take(visited)
        above_mask = values > self._delta
        above = int(np.count_nonzero(above_mask))
        if not above:
            return [], evaluated, 0
        above_pos = visited[above_mask]
        above_val = values[above_mask]
        # Visited order is round-major; restore the sequential scan's
        # admission order (slice by slice, offsets ascending).  An
        # empty slice shares its start with the following non-empty one
        # but precedes it, so "last row with start <= position" always
        # lands on the owner.
        rows = np.searchsorted(starts, above_pos, side="right") - 1
        order = np.lexsort((above_pos, rows))
        rows = rows[order]
        above_val = above_val[order]
        rel = above_pos[order] - starts[rows]
        ids = self._ids
        hits: list[tuple[int, float, int]] = []
        if self._dedupe:
            # np.argmax keeps the first maximum, matching the scalar
            # walk's strict-improvement best tracking.
            edges = [
                0,
                *(np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist(),
                rows.size,
            ]
            for begin, end in zip(edges[:-1], edges[1:]):
                best = begin + int(np.argmax(above_val[begin:end]))
                hits.append(
                    (
                        int(ids[rows[best]]),
                        float(above_val[best]),
                        int(rel[best]),
                    )
                )
        else:
            hits = [
                (int(ids[row]), float(omega), int(offset))
                for row, omega, offset in zip(
                    rows.tolist(), above_val.tolist(), rel.tolist()
                )
            ]
        return hits, evaluated, above

    def _walk_all_strided(self) -> tuple[list[tuple[int, float, int]], int, int]:
        """Fixed-skip walk: each slice is a pure stride of the layout."""
        step = self._step
        hits: list[tuple[int, float, int]] = []
        evaluated = 0
        above = 0
        for row in range(self._ids.size):
            start = int(self._starts[row])
            stop = int(self._stops[row])
            if stop <= start:
                continue
            segment = self._clamped[start:stop:step]
            mask = segment > self._delta
            n_above = int(np.count_nonzero(mask))
            evaluated += int(segment.size)
            above += n_above
            if not n_above:
                continue
            values = segment[mask]
            relative = np.flatnonzero(mask) * step
            index = int(self._ids[row])
            if self._dedupe:
                best = int(np.argmax(values))
                hits.append(
                    (index, float(values[best]), int(relative[best]))
                )
            else:
                hits.extend(
                    (index, float(omega), int(offset))
                    for omega, offset in zip(
                        values.tolist(), relative.tolist()
                    )
                )
        return hits, evaluated, above


#: Stacked-layout size (positions) beyond which the joint multi-query
#: walk loses its cache locality — each round's gather then touches a
#: working set far larger than L3 and DRAM latency eats the round
#: amortisation, so ``search_batch`` falls back to per-query walks
#: (still vectorised, each over an L2-resident layout).  8M positions
#: ≈ 64 MB of stacked float64 correlations.
_JOINT_POSITION_BUDGET = 1 << 23


def _joint_visit(walkers: Sequence[PlaneWalker]) -> list[np.ndarray]:
    """Run every walker's skip walk in ONE level-synchronous loop.

    The per-query correlation layouts are stacked into a single virtual
    layout (query ``q``'s position ``o`` becomes ``base_q + o``) and
    each round advances *every* still-walking slice of *every* query
    with one vectorised gather of the correlations at the current
    positions — this is the cross-request coalescing the serving
    gateway batches on.  Skips are evaluated **lazily** on each round's
    gathered ω values (``policy.skip_table`` on a round-sized array),
    so batched queries never build the full per-layout successor table
    the single-query walk materialises — the per-round vector ops are
    amortised across the whole batch instead.

    Returns each walker's visited positions (local coordinates).  The
    visited sets are identical to walking each query alone: a hop
    depends only on that query's precomputed correlation at the current
    offset, and ``skip_table`` applied to any subset of ω values is the
    same elementwise IEEE-754 computation.

    Every walker must share one policy (the caller routes fixed-step
    policies to the per-query strided walk instead).
    """
    policy = walkers[0]._policy
    table = policy.skip_table
    bases: list[int] = []
    starts_parts: list[np.ndarray] = []
    stops_parts: list[np.ndarray] = []
    base = 0
    for walker in walkers:
        bases.append(base)
        starts_parts.append(walker._starts + base)
        stops_parts.append(walker._stops + base)
        base += walker.total_positions
    values = np.concatenate([walker._clamped for walker in walkers])
    starts = np.concatenate(starts_parts)
    stops = np.concatenate(stops_parts)
    live = starts < stops
    pos = starts[live]
    stop = stops[live]
    buf: list[np.ndarray] = []
    while pos.size > PlaneWalker._STRAGGLER_CUTOFF:
        buf.append(pos)
        pos = pos + table(values.take(pos))
        alive = pos < stop
        pos = pos[alive]
        stop = stop[alive]
    tail_parts: list[list[int]] = [[] for _ in walkers]
    if pos.size:
        boundaries = np.asarray(bases[1:] + [base], dtype=np.int64)
        owners = np.searchsorted(boundaries, pos, side="right")
        skip = policy.skip
        for position, bound, owner in zip(
            pos.tolist(), stop.tolist(), owners.tolist()
        ):
            part = tail_parts[owner]
            while position < bound:
                part.append(position)
                position += skip(float(values[position]))
    # Attribute each round's positions back to their queries.  Within a
    # round the positions are strictly ascending (every slice stays
    # inside its own disjoint layout interval), so one ``searchsorted``
    # against the layout bases splits the whole round — no per-query
    # mask over the full visited set.
    cuts = np.asarray(bases + [base], dtype=np.int64)
    per_query: list[list[np.ndarray]] = [[] for _ in walkers]
    for round_pos in buf:
        edges = np.searchsorted(round_pos, cuts, side="left")
        for index in range(len(walkers)):
            begin, end = int(edges[index]), int(edges[index + 1])
            if end > begin:
                per_query[index].append(round_pos[begin:end])
    out: list[np.ndarray] = []
    for index, walker_base in enumerate(bases):
        parts = per_query[index]
        if tail_parts[index]:
            parts.append(np.asarray(tail_parts[index], dtype=np.int64))
        if not parts:
            out.append(np.zeros(0, dtype=np.int64))
        elif walker_base:
            out.append(np.concatenate(parts) - walker_base)
        else:
            out.append(np.concatenate(parts))
    return out


def walk_cores(
    cores: Sequence[PlaneCore],
    bases: Sequence[int],
    prepared: Sequence[tuple[np.ndarray, float]],
    config: SearchConfig,
    policy: SkipPolicy,
    scan: Sequence[int] | None = None,
    joint: bool = False,
) -> list[tuple[SearchResult, list[tuple[int, float, int]]]]:
    """Algorithm 1 for prepared queries over the shard cores of one epoch.

    The one compiled search path: the in-process engine (single and
    batched) and the pool workers all run it.  Each query is screened
    once over *all* cores (:func:`screen_shard_cores`), then walked
    with one :class:`PlaneWalker` per scanned shard.  ``scan`` names
    the shard ids to walk (default: every shard), which is how pooled
    workers split an epoch.  ``joint`` advances every (query, shard)
    walk together in one level-synchronous loop (:func:`_joint_visit`),
    amortising the per-round vector ops across a batch; otherwise each
    walker runs its own successor-table walk, which is faster for a
    single query.

    Returns, per query, a :class:`SearchResult` carrying the statistics
    (no matches or timing yet) and its hits as ``(global slice index,
    ω, offset)`` in admission order: shards ascending, each shard's
    hits in scan order.  That is exactly a one-shard plane's order, so
    heap tie-breaks — and with them every result — are the same for any
    shard width.
    """
    shard_ids = range(len(cores)) if scan is None else scan
    scanned = sum(cores[k].n_slices for k in shard_ids)
    norms = {k: cores[k].ensure_norms(config.frame_samples) for k in shard_ids}
    walkers: list[PlaneWalker] = []  # query-major, shard-minor
    results: list[SearchResult] = []
    for centered, norm in prepared:
        outcome = screen_shard_cores(cores, config, centered, norm)
        result = SearchResult(slices_searched=scanned)
        for k in shard_ids:
            walk_ids: np.ndarray | None = None
            if outcome is not None:
                base = bases[k]
                kept, pruned = outcome.apply(
                    range(base, base + cores[k].n_slices)
                )
                walk_ids = kept - base
                result.slices_pruned += pruned
            walkers.append(
                PlaneWalker(
                    cores[k],
                    centered,
                    norm,
                    norms[k],
                    policy,
                    config.delta,
                    config.dedupe_per_slice,
                    indices=walk_ids,
                )
            )
        if outcome is not None:
            result.coarse_elapsed_s = outcome.elapsed_s
            _publish_screen(outcome, scanned, result.slices_pruned)
        results.append(result)
    if (
        joint
        and len(walkers) > 1
        and sum(walker.total_positions for walker in walkers)
        <= _JOINT_POSITION_BUDGET
        and getattr(policy, "step", None) is None
    ):
        visited = _joint_visit(walkers)
        walked = [
            walker.classify_visited(positions)
            for walker, positions in zip(walkers, visited)
        ]
    else:
        walked = [walker.walk_all() for walker in walkers]
    out: list[tuple[SearchResult, list[tuple[int, float, int]]]] = []
    per_query = iter(walked)
    for result in results:
        hits_global: list[tuple[int, float, int]] = []
        for k in shard_ids:
            hits, evaluated, above = next(per_query)
            result.correlations_evaluated += evaluated
            result.candidates_above_threshold += above
            base = bases[k]
            hits_global.extend(
                (base + index, omega, offset)
                for index, omega, offset in hits
            )
        out.append((result, hits_global))
    return out


def _publish_screen(outcome: ScreenOutcome, scanned: int, pruned: int) -> None:
    """Record one coarse screen's prune rate and keep floor."""
    registry = obs.metrics()
    if not registry.enabled:
        return
    registry.inc("cloud.plane.coarse.screens")
    registry.inc("cloud.plane.coarse.slices_pruned", pruned)
    if scanned:
        registry.observe("cloud.plane.coarse.prune_rate", pruned / scanned)
    registry.observe("cloud.plane.coarse.keep_floor", outcome.margin)
    registry.observe("cloud.search.stage1_s", outcome.elapsed_s)


class ScalarWindowEvaluator:
    """Per-offset O(1) correlation evaluator over one slice.

    The scalar engine's inner loop: prefix-sum statistics are built
    once per slice, then each call is a single windowed dot product —
    the honest per-offset cost model behind the Fig. 7(b) wall-clock
    benches.
    """

    __slots__ = ("_stats", "_centered", "_norm")

    def __init__(
        self, data: np.ndarray, centered: np.ndarray, norm: float
    ) -> None:
        self._stats = WindowedStats(data)
        self._centered = centered
        self._norm = norm

    def __call__(self, offset: int) -> float:
        return self._stats.normalized_correlation_with(
            self._centered, self._norm, offset
        )


class CorrelationSearch:
    """Scans signal-sets for windows correlated with an input frame.

    Two modes, chosen by what :meth:`search` is given:

    * a plain iterable of signal-sets runs the **scalar oracle** — one
      O(1) windowed correlation per visited offset
      (:class:`ScalarWindowEvaluator` + :func:`replay_skip_walk`).  It
      is the reference every compiled search is checked against, and
      the Fig. 7(b) exploration-time benches use it because its
      wall-clock honestly tracks the number of correlations a device
      would evaluate;
    * a compiled :class:`~repro.cloud.shards.ShardedSearchPlane` (a
      one-shard plane is the monolithic case) reuses the plane's
      compiled arrays and cached window norms, amortising all
      query-independent work across requests while replaying the same
      walk.  Every production and experiment path searches a plane.

    The admitted matches and the ``correlations_evaluated`` statistic
    (the algorithmic cost that drives the timing model) are identical
    in both modes; only the host wall-clock differs.
    """

    def __init__(self, config: SearchConfig, policy: SkipPolicy) -> None:
        self.config = config
        self.policy = policy

    def prepare_query(self, frame: np.ndarray) -> tuple[np.ndarray, float]:
        """Validate and centre the query frame; returns (centred, norm).

        Raises :class:`~repro.errors.SearchError` for a non-real
        frame, one of the wrong shape or one holding NaN/inf samples.
        A flat frame is valid: its norm is 0 and it correlates with
        nothing.
        """
        query = real_samples(frame, SearchError, "input frame")
        if query.ndim != 1:
            raise SearchError(f"input frame must be 1-D, got shape {query.shape}")
        if query.size != self.config.frame_samples:
            raise SearchError(
                f"input frame must have {self.config.frame_samples} samples, "
                f"got {query.size}"
            )
        if not np.isfinite(query).all():
            raise SearchError("input frame holds NaN or infinite samples")
        centered = query - query.mean()
        return centered, float(np.linalg.norm(centered))

    def search(
        self,
        frame: np.ndarray,
        slices: Iterable[SignalSlice] | ShardedSearchPlane,
    ) -> SearchResult:
        """Return the top-K correlation set for ``frame`` over ``slices``.

        The frame must be the bandpass-filtered one-second input
        ``B_N`` (256 samples by default).  ``slices`` may be a plain
        iterable of signal-sets or a compiled
        :class:`~repro.cloud.shards.ShardedSearchPlane`.
        """
        if isinstance(slices, ShardedSearchPlane):
            return self.search_shards(frame, slices)
        centered, norm = self.prepare_query(frame)
        result = SearchResult()
        top: TopK[SearchMatch] = TopK(self.config.top_k)
        with obs.trace.span("cloud.search") as span:
            for sig_slice in slices:
                result.slices_searched += 1
                for match in self._scan_slice(sig_slice, centered, norm, result):
                    top.offer(match.omega, match)
        self._finish(result, top, span)
        return result

    def search_shards(
        self,
        frame: np.ndarray,
        source: ShardedSearchPlane | ShardEpoch,
        shard_ids: Sequence[int] | None = None,
    ) -> SearchResult:
        """Top-K search over (a subset of the shards of) a compiled plane.

        Pins one epoch up front, so a concurrent ``refresh`` cannot mix
        generations mid-search, then runs :func:`walk_cores`.  Matches
        and statistics are bit-identical to :meth:`search` over the
        same signal-sets, for any shard width.

        ``shard_ids`` restricts the walk to those shards — the
        partitioned execution path walks one chunk of shards per call
        (screening verdicts are global either way).
        """
        epoch = source.pin() if isinstance(source, ShardedSearchPlane) else source
        prepared = [self.prepare_query(frame)]
        with obs.trace.span("cloud.search") as span:
            ((result, top),) = self._walk(epoch, prepared, shard_ids, joint=False)
        self._finish(result, top, span)
        return result

    def search_batch(
        self,
        frames: Sequence[np.ndarray],
        plane: ShardedSearchPlane | ShardEpoch,
    ) -> list[SearchResult]:
        """Serve many queries over one compiled plane in a single walk.

        Pins one epoch for the *whole* batch — the per-batch
        generation-pinning contract the gateway relies on: a refresh
        landing mid-batch cannot swap cores under queries already
        prepared against the pinned epoch.  The per-query vectorised
        preparation (dots, normalisation) still runs once per frame,
        but the skip walks of *all* queries over all shards advance
        together in one level-synchronous loop (:func:`_joint_visit`),
        so the per-round vector-op overhead is paid once per batch
        instead of once per request.  Each returned
        :class:`SearchResult` is bit-identical to :meth:`search` over
        the same frame: identical matches, offsets, ω values and
        statistics.
        """
        if not frames:
            return []
        epoch = plane.pin() if isinstance(plane, ShardedSearchPlane) else plane
        prepared = [self.prepare_query(frame) for frame in frames]
        with obs.trace.span("cloud.search_batch", queries=len(frames)) as span:
            walked = self._walk(epoch, prepared, None, joint=True)
        for result, top in walked:
            self._finish(result, top, span)
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("cloud.search.batches")
            registry.observe("cloud.search.batch_size", float(len(frames)))
        return [result for result, _ in walked]

    def _walk(
        self,
        epoch: ShardEpoch,
        prepared: Sequence[tuple[np.ndarray, float]],
        shard_ids: Sequence[int] | None,
        joint: bool,
    ) -> list[tuple[SearchResult, TopK[SearchMatch]]]:
        """:func:`walk_cores` over ``epoch``, hits merged into top-K heaps."""
        walked = walk_cores(
            [shard.core for shard in epoch.shards],
            epoch.bases,
            prepared,
            self.config,
            self.policy,
            shard_ids,
            joint,
        )
        merge_started = time.perf_counter()
        slices = epoch.slices
        out: list[tuple[SearchResult, TopK[SearchMatch]]] = []
        for result, hits in walked:
            top: TopK[SearchMatch] = TopK(self.config.top_k)
            for index, omega, offset in hits:
                top.offer(
                    omega,
                    SearchMatch(
                        sig_slice=slices[index], omega=omega, offset=offset
                    ),
                )
            out.append((result, top))
        registry = obs.metrics()
        if registry.enabled:
            registry.observe(
                "cloud.plane.shard.merge_s", time.perf_counter() - merge_started
            )
        return out

    def _finish(
        self, result: SearchResult, top: TopK[SearchMatch], span: Span
    ) -> None:
        result.elapsed_s = span.elapsed_s
        result.heap_admissions = top.admissions
        result.matches = top.sorted_items()
        self._publish(result, span)

    def _publish(self, result: SearchResult, span: Span) -> None:
        """Record the search's aggregate statistics into the registry.

        Aggregated once per search (never in the per-offset loop) so
        instrumentation stays off the hot path.
        """
        registry = obs.metrics()
        if not registry.enabled:
            return
        span.annotate(
            slices=result.slices_searched,
            correlations=result.correlations_evaluated,
            matches=len(result.matches),
        )
        registry.inc("cloud.search.requests")
        registry.inc("cloud.search.slices_scanned", result.slices_searched)
        registry.inc(
            "cloud.search.correlations_evaluated", result.correlations_evaluated
        )
        registry.inc(
            "cloud.search.candidates_above_threshold",
            result.candidates_above_threshold,
        )
        registry.inc("cloud.search.heap_admissions", result.heap_admissions)
        registry.observe("cloud.search.elapsed_s", result.elapsed_s)
        if result.coarse_elapsed_s > 0.0:
            # Stage-1 (coarse screen) vs stage-2 (exact walk) split.
            registry.observe(
                "cloud.search.stage2_s",
                max(result.elapsed_s - result.coarse_elapsed_s, 0.0),
            )

    def _scan_slice(
        self,
        sig_slice: SignalSlice,
        centered: np.ndarray,
        norm: float,
        result: SearchResult,
    ) -> list[SearchMatch]:
        """Scan one signal-set; returns its admitted matches."""
        length = self.config.frame_samples
        if len(sig_slice) < length:
            return []
        hits, evaluated, above = replay_skip_walk(
            ScalarWindowEvaluator(sig_slice.data, centered, norm),
            len(sig_slice) - length,
            self.policy,
            self.config.delta,
            self.config.dedupe_per_slice,
        )
        result.correlations_evaluated += evaluated
        result.candidates_above_threshold += above
        return [
            SearchMatch(sig_slice=sig_slice, omega=omega, offset=offset)
            for omega, offset in hits
        ]


class SlidingWindowSearch(CorrelationSearch):
    """Algorithm 1: the exponential sliding-window search."""

    def __init__(self, config: SearchConfig | None = None) -> None:
        cfg = config or SearchConfig()
        super().__init__(
            cfg,
            ExponentialSkipPolicy(
                alpha=cfg.alpha,
                skip_scale=cfg.skip_scale,
                omega_floor=cfg.omega_floor,
                max_skip=cfg.max_skip,
            ),
        )


class ExhaustiveSearch(CorrelationSearch):
    """The exhaustive baseline: every offset of every signal-set."""

    def __init__(self, config: SearchConfig | None = None) -> None:
        super().__init__(config or SearchConfig(), FixedSkipPolicy(1))
