"""Fleet-scale edge tracking: many sessions, shared compiled slices.

A deployment tracking thousands of concurrent patients does not get
thousands of independent correlation sets: the cloud hands every
session matches drawn from the *same* mega-database, so the
frame-invariant compile work (per-offset means, scales and flat
markers — see :mod:`repro.edge.plane`) is massively duplicated across
sessions.  :class:`FleetTracker` hosts the sessions behind one object
over one :class:`~repro.edge.plane.SliceCache`: the first session to
adopt an MDB slice compiles it, every other session tracking the same
``slice_id`` shares the compiled entry, and entries are evicted as soon
as no session tracks them.

:meth:`FleetTracker.step` advances every session supplied in one
batched call.  The default **fused** path evaluates every (session,
candidate) pair of the step in a *single*
:func:`repro.edge._kernels.evaluate_pairs` call, which normalises the
windows on the fly and spreads the pairs over a pthread pool (ctypes
releases the GIL, so the step runs truly multi-core).  ``fused=False``
is the reference arm the fleet throughput gate measures against: the
same pairs, one kernel call each.  Results are committed back per
session in submission order, so per-session outcomes — areas, offsets,
removals, ``area_evaluations``, PA — are **bit-identical** on both
arms and to an independent :class:`~repro.edge.tracker.SignalTracker`
stepping the same frames (``tests/test_edge_fleet_fused.py`` asserts
it under churn).
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

import numpy as np

from repro import obs
from repro.cloud.results import SearchMatch, SearchResult
from repro.edge._kernels import kernel_backend, kernel_threads
from repro.edge.plane import CompiledSession, SliceCache, step_sessions
from repro.edge.tracker import TrackedSignal, TrackerConfig, TrackingStep, check_frame
from repro.errors import TrackingError


class FleetTracker:
    """Steps many concurrent tracking sessions in one batched call.

    All sessions share a single :class:`~repro.edge.tracker.TrackerConfig`
    — the fleet shape assumes one deployment-wide parameterisation, which
    is also what makes compiled slices shareable (their statistics depend
    on frame size, stride and reference RMS).
    """

    def __init__(
        self, config: TrackerConfig | None = None, *, fused: bool = True
    ) -> None:
        self.config = config or TrackerConfig()
        self.fused = fused
        self._sessions: dict[str, CompiledSession] = {}
        self._cache = SliceCache(self.config)
        # Introspection for benchmarks / `emap obs`: shape of the last
        # fused step (0s until a fused step has run).  A group is one
        # distinct compiled slice, a pair one (session, candidate).
        self.last_fused_groups = 0
        self.last_fused_pairs = 0
        self.last_fused_max_group = 0
        self.last_fused_step_s = 0.0

    # -- introspection -------------------------------------------------

    @property
    def session_ids(self) -> tuple[str, ...]:
        return tuple(self._sessions)

    @property
    def session_count(self) -> int:
        return len(self._sessions)

    @property
    def cache_hits(self) -> int:
        return self._cache.hits

    @property
    def cache_misses(self) -> int:
        return self._cache.misses

    @property
    def unique_slices(self) -> int:
        """Distinct compiled slices currently cached."""
        return self._cache.unique_slices

    @property
    def tracked_references(self) -> int:
        """Live candidate → compiled-slice references across sessions."""
        return self._cache.tracked_references

    @property
    def compiled_bytes(self) -> int:
        """Bytes of compiled slices held (shared entries counted once)."""
        return self._cache.compiled_bytes

    @property
    def dedup_ratio(self) -> float:
        """References per unique slice (1.0 = no cross-session sharing)."""
        if not self.unique_slices:
            return 1.0
        return self.tracked_references / self.unique_slices

    def tracked(self, session_id: str) -> tuple[TrackedSignal, ...]:
        """The session's live candidates, in tracking order."""
        return tuple(self._session(session_id).signals)

    def anomaly_probability(self, session_id: str) -> float:
        """Eq. 5 PA for one session (0 when nothing is tracked)."""
        return _probability(self._session(session_id).signals)

    def _session(self, session_id: str) -> CompiledSession:
        try:
            return self._sessions[session_id]
        except KeyError:
            raise TrackingError(f"unknown fleet session {session_id!r}") from None

    # -- session lifecycle ---------------------------------------------

    def open_session(
        self, session_id: str, matches: Sequence[SearchMatch] | SearchResult
    ) -> None:
        """Adopt a correlation set for ``session_id`` (replacing any).

        Reopening an existing session id is the fleet equivalent of
        :meth:`SignalTracker.load`: the old set's references are
        released and the iteration counter restarts.  The new set is
        acquired *before* the old one is released — a drop-then-re-add
        whose slice ids overlap the old set keeps those entries warm
        instead of evicting and immediately recompiling them.
        """
        entries_in = (
            matches.matches if isinstance(matches, SearchResult) else list(matches)
        )
        hits, misses = self._cache.hits, self._cache.misses
        session = self._cache.open(
            [
                TrackedSignal(
                    sig_slice=match.sig_slice, omega=match.omega, offset=match.offset
                )
                for match in entries_in
            ]
        )
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("edge.fleet.cache_hits", self._cache.hits - hits)
            registry.inc("edge.fleet.cache_misses", self._cache.misses - misses)
        if session_id in self._sessions:
            self.close_session(session_id)
        self._sessions[session_id] = session
        self._publish_gauges()

    def close_session(self, session_id: str) -> None:
        """Drop a session and release its compiled-slice references."""
        self._cache.close(self._session(session_id))
        del self._sessions[session_id]
        self._publish_gauges()

    # -- batched stepping ----------------------------------------------

    def step(self, frames: Mapping[str, np.ndarray]) -> dict[str, TrackingStep]:
        """Advance every supplied session by one frame, in one call.

        ``frames`` maps session id → that session's next input frame;
        sessions not present simply do not advance this round (their
        amplifier delivered no complete frame yet).  Every session id and
        frame is validated before any state changes: an unknown session,
        a wrong shape or a non-finite sample raises
        :class:`~repro.errors.TrackingError` and no session advances.
        """
        size = self.config.frame_samples
        batch: list[tuple[CompiledSession, np.ndarray]] = []
        for session_id, frame in frames.items():
            session = self._session(session_id)
            batch.append(
                (session, check_frame(frame, size, f" for session {session_id!r}"))
            )
        with obs.trace.span("edge.fleet.step", sessions=len(batch)) as span:
            outcomes, slices = step_sessions(self._cache, batch, fused=self.fused)
        steps: dict[str, TrackingStep] = {}
        for session_id, (session, _), outcome in zip(frames, batch, outcomes):
            session.iteration += 1
            steps[session_id] = TrackingStep(
                iteration=session.iteration,
                tracked_before=len(outcome.survivors) + len(outcome.removed),
                removed=len(outcome.removed),
                area_evaluations=outcome.area_evaluations,
                anomaly_probability=_probability(outcome.survivors),
                removed_signals=outcome.removed,
            )
        if self.fused:
            self._record_plan(slices, span.elapsed_s)
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("edge.fleet.steps")
            registry.inc(
                "edge.fleet.area_evaluations",
                sum(step.area_evaluations for step in steps.values()),
            )
            self._publish_gauges()
        return steps

    def _record_plan(self, slices: Sequence[object], elapsed_s: float) -> None:
        groups = Counter(map(id, slices))
        self.last_fused_groups = len(groups)
        self.last_fused_pairs = len(slices)
        self.last_fused_max_group = max(groups.values(), default=0)
        self.last_fused_step_s = elapsed_s
        registry = obs.metrics()
        if registry.enabled:
            registry.observe("edge.fleet.fused_groups", len(groups))
            for size in groups.values():
                registry.observe("edge.fleet.fused_queries_per_group", size)
            registry.set_gauge(
                "edge.fleet.fused_kernel_threads",
                kernel_threads() if kernel_backend() == "c" else 1,
            )

    def _publish_gauges(self) -> None:
        registry = obs.metrics()
        if not registry.enabled:
            return
        registry.set_gauge("edge.fleet.sessions", len(self._sessions))
        registry.set_gauge("edge.fleet.unique_slices", self.unique_slices)
        registry.set_gauge("edge.fleet.tracked_references", self.tracked_references)
        registry.set_gauge("edge.fleet.compiled_bytes", self.compiled_bytes)


def _probability(signals: Sequence[TrackedSignal]) -> float:
    """Eq. 5: ``PA = N(AS) / N(F)`` (0 when nothing is tracked)."""
    if not signals:
        return 0.0
    return sum(1 for s in signals if s.anomalous) / len(signals)
