"""The compiled edge tracking path (Algorithm 2 as one kernel call per step).

:class:`~repro.edge.tracker.ScalarTrackingEngine` walks the correlation
set in a Python loop and calls
:func:`~repro.signals.metrics.sliding_area_normalized` per candidate per
frame — rebuilding prefix sums and per-offset means/RMS for slices that
*have not changed since the cloud returned them*.  Those statistics are
frame-invariant, so this path compiles them once per slice
(:func:`repro.edge._kernels.compile_slice`: raw samples plus per-offset
mean, scale and flat marker — no window matrix) and a tracking step
becomes a single :func:`repro.edge._kernels.evaluate_pairs` call over
every (compiled slice, query) pair, normalising the windows inside the
kernel.

Compiled slices live in a :class:`SliceCache`: content-addressed by
``slice_id`` and reference-counted, so sessions tracking the same MDB
slice share one entry, a re-adoption whose slices overlap the old set
acquires the new set *before* releasing the old one (the overlap stays
warm instead of being evicted and recompiled), and an entry is evicted
as soon as no candidate references it.  Slices with an empty
``slice_id`` cannot be content-addressed and are compiled privately
per candidate.

Two front ends share this path: :class:`CompiledTrackingEngine`, the
``engine="plane"`` :class:`~repro.edge.tracker.SignalTracker` engine
(the one-session case), and :class:`~repro.edge.fleet.FleetTracker`,
which steps many sessions in the same single call.  :func:`step_sessions`
evaluates first and commits afterwards, replaying the scalar engine's
per-candidate order and arithmetic, so areas, best offsets, removals,
``area_evaluations`` and the anomaly probability match it bit for bit
(``tests/test_edge_plane.py`` holds every front end to that property).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.edge._kernels import CompiledSlice, compile_slice, evaluate_pairs
from repro.edge.tracker import EngineStep, TrackedSignal, TrackerConfig
from repro.signals.metrics import normalized_query
from repro.signals.types import SignalSlice


@dataclass
class SliceEntry:
    """One compiled slice plus how many live candidates reference it."""

    key: object
    compiled: CompiledSlice | None  # None: slice shorter than a frame
    refs: int = 0


@dataclass
class CompiledSession:
    """One session's live candidates and their cache entries, in order."""

    signals: list[TrackedSignal]
    entries: list[SliceEntry]  # parallel to ``signals``
    iteration: int = 0


class SliceCache:
    """Compiled slices keyed by ``slice_id``, reference-counted."""

    def __init__(self, config: TrackerConfig) -> None:
        self.config = config
        self._entries: dict[object, SliceEntry] = {}
        self.hits = 0
        self.misses = 0

    @property
    def unique_slices(self) -> int:
        """Distinct compiled slices currently cached."""
        return len(self._entries)

    @property
    def tracked_references(self) -> int:
        """Live candidate → compiled-slice references."""
        return sum(entry.refs for entry in self._entries.values())

    @property
    def compiled_bytes(self) -> int:
        """Bytes of compiled slices held (shared entries counted once)."""
        return sum(
            entry.compiled.nbytes
            for entry in self._entries.values()
            if entry.compiled is not None
        )

    def acquire(self, sig_slice: SignalSlice) -> SliceEntry:
        key: object = sig_slice.slice_id if sig_slice.slice_id else object()
        entry = self._entries.get(key)
        if entry is None:
            entry = SliceEntry(
                key=key,
                compiled=compile_slice(
                    sig_slice.data,
                    self.config.frame_samples,
                    self.config.offset_stride,
                    self.config.reference_rms,
                ),
            )
            self._entries[key] = entry
            self.misses += 1
        else:
            self.hits += 1
        entry.refs += 1
        return entry

    def release(self, entry: SliceEntry) -> None:
        if entry.refs <= 0:
            # Already fully released (e.g. a stale handle released
            # twice on a churn path) — decrementing again would
            # underflow and evict an entry a re-registered session
            # still references.
            return
        entry.refs -= 1
        if entry.refs == 0 and self._entries.get(entry.key) is entry:
            # The identity check guards the re-registration race: if a
            # re-add already replaced this key with a fresh entry, the
            # stale handle must not evict the live one.
            del self._entries[entry.key]

    def open(self, signals: Sequence[TrackedSignal]) -> CompiledSession:
        """Acquire every candidate's entry; all-or-nothing."""
        entries: list[SliceEntry] = []
        try:
            for signal in signals:
                entries.append(self.acquire(signal.sig_slice))
        except Exception:
            for entry in entries:
                self.release(entry)
            raise
        return CompiledSession(signals=list(signals), entries=entries)

    def close(self, session: CompiledSession) -> None:
        for entry in session.entries:
            self.release(entry)


def step_sessions(
    cache: SliceCache,
    batch: Sequence[tuple[CompiledSession, np.ndarray]],
    *,
    fused: bool = True,
) -> tuple[list[EngineStep], list[CompiledSlice]]:
    """Advance each ``(session, frame)`` of ``batch`` by one frame.

    Plans one pair per evaluable candidate in batch order, evaluates
    every pair in one kernel call (``fused``) or one call per pair, then
    commits each session in the scalar engine's candidate order.  All
    state mutation is deferred to the commit, so an entry evicted by
    this step can never be released before every pair has read it.
    Returns the per-session outcomes and the evaluated pairs' slices.
    """
    config = cache.config
    frames = np.array([data for _, data in batch], dtype=np.float64).reshape(
        len(batch), config.frame_samples
    )
    if config.reference_rms is not None:
        queries = normalized_query(frames, config.reference_rms)
        worsts = np.abs(queries).sum(axis=1)
    else:
        queries, worsts = frames, np.full(len(batch), np.inf)
    slices: list[CompiledSlice] = []
    counts: list[int] = []
    for session, _ in batch:
        before = len(slices)
        slices.extend(e.compiled for e in session.entries if e.compiled is not None)
        counts.append(len(slices) - before)
    pair_query = np.repeat(np.arange(len(batch), dtype=np.intp), counts)

    stride = config.offset_stride
    if fused:
        best, best_area = evaluate_pairs(slices, pair_query, queries, worsts, stride)
    else:
        best = np.empty(len(slices), dtype=np.intp)
        best_area = np.empty(len(slices))
        first = np.zeros(1, dtype=np.intp)
        for pair, (compiled, row) in enumerate(zip(slices, pair_query)):
            one_best, one_area = evaluate_pairs(
                [compiled],
                first,
                queries[row : row + 1],
                worsts[row : row + 1],
                stride,
                threads=1,
            )
            best[pair], best_area[pair] = one_best[0], one_area[0]
    # One bulk conversion beats per-pair numpy-scalar reads in the loop.
    offsets = best.tolist()
    areas = best_area.tolist()

    outcomes: list[EngineStep] = []
    cursor = 0
    threshold = config.area_threshold
    for session, _ in batch:
        survivors: list[TrackedSignal] = []
        kept: list[SliceEntry] = []
        removed: list[TrackedSignal] = []
        dropped: list[SliceEntry] = []
        evaluations = 0
        for signal, entry in zip(session.signals, session.entries):
            if entry.compiled is None:
                # Too short to hold even one comparison window: retired
                # with a defined worst-case area.
                signal.last_area = float("inf")
                removed.append(signal)
                dropped.append(entry)
                continue
            evaluations += entry.compiled.n_offsets
            signal.last_area = areas[cursor]
            if signal.last_area > threshold:
                removed.append(signal)
                dropped.append(entry)
            else:
                signal.offset = offsets[cursor] * stride
                survivors.append(signal)
                kept.append(entry)
            cursor += 1
        # Commit the survivor set before releasing: the session never
        # holds entries it no longer owns, even if a release faults.
        session.signals = survivors
        session.entries = kept
        for entry in dropped:
            cache.release(entry)
        outcomes.append(
            EngineStep(survivors=survivors, removed=removed, area_evaluations=evaluations)
        )
    return outcomes, slices


class CompiledTrackingEngine:
    """``engine="plane"``: one session on the compiled path.

    Implements the :class:`~repro.edge.tracker.TrackingEngine` seam with
    its own :class:`SliceCache`: :meth:`load` acquires the new set
    before releasing the old one, so candidates a cloud re-call returns
    again are not recompiled, and :meth:`step` is one kernel call.
    """

    def __init__(self, config: TrackerConfig) -> None:
        self.config = config
        self.cache = SliceCache(config)
        self._session = CompiledSession(signals=[], entries=[])

    def load(self, signals: Sequence[TrackedSignal]) -> None:
        session = self.cache.open(signals)
        self.cache.close(self._session)
        self._session = session

    def step(self, data: np.ndarray) -> EngineStep:
        outcomes, _ = step_sessions(self.cache, [(self._session, data)])
        return outcomes[0]
