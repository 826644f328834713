"""Stateful churn test for the compiled edge path.

A hypothesis ``RuleBasedStateMachine`` drives a fused
:class:`~repro.edge.fleet.FleetTracker`, a sequential one
(``fused=False``) and one compiled (``engine="plane"``)
:class:`~repro.edge.tracker.SignalTracker` per session through random
open, reopen, step and close sequences — including slices shorter
than a frame, slices with flat windows, slices with an empty
``slice_id`` and rejected non-finite frames.  Every step is
bit-compared against a per-session scalar ``SignalTracker`` replay,
and the fleets' slice-cache reference counts are checked against the
candidates they still track.

Runs in the CI ``kernel-backends`` matrix under both ``EMAP_KERNEL=c``
and ``EMAP_KERNEL=numpy``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cloud.results import SearchMatch
from repro.edge.fleet import FleetTracker
from repro.edge.tracker import SignalTracker, TrackerConfig
from repro.errors import TrackingError
from repro.signals.types import AnomalyType, SignalSlice

SESSIONS = ("s0", "s1", "s2", "s3")


def _pool() -> list[SignalSlice]:
    """Shared slices: normal, short, flat-stretch and anonymous ones."""
    rng = np.random.default_rng(2024)
    pool = []
    for index in range(10):
        if index == 7:
            data = rng.standard_normal(40) * 7  # shorter than a frame
        else:
            data = rng.standard_normal(int(rng.integers(256, 700))) * 7
        if index == 6:
            data[:300] = 2.5  # zero-variance stretch -> flat windows
        label = AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE
        slice_id = "" if index >= 8 else f"churn-{index}"  # 8, 9 anonymous
        pool.append(SignalSlice(data=data, label=label, slice_id=slice_id))
    return pool


POOL = _pool()


def _step_key(step, tracked):
    return (
        step.iteration,
        step.tracked_before,
        step.removed,
        step.area_evaluations,
        step.anomaly_probability,
        tuple((s.sig_slice.slice_id, s.last_area, s.offset, s.omega) for s in tracked),
        tuple((s.sig_slice.slice_id, s.last_area) for s in step.removed_signals),
    )


class EdgeChurn(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.fleets: list[FleetTracker] = []
        self.compiled: dict[str, SignalTracker] = {}
        self.mirrors: dict[str, SignalTracker] = {}
        self.config = TrackerConfig()

    @initialize(
        normalized=st.booleans(),
        threshold=st.sampled_from([900.0, 2000.0, 1e9]),
        stride=st.integers(1, 5),
    )
    def configure(self, normalized: bool, threshold: float, stride: int) -> None:
        self.config = TrackerConfig(
            reference_rms=7.0 if normalized else None,
            area_threshold=threshold,
            offset_stride=stride,
        )
        self.fleets = [
            FleetTracker(self.config, fused=True),
            FleetTracker(self.config, fused=False),
        ]

    def _tracker(self, engine: str) -> SignalTracker:
        return SignalTracker(
            TrackerConfig(
                reference_rms=self.config.reference_rms,
                area_threshold=self.config.area_threshold,
                offset_stride=self.config.offset_stride,
                engine=engine,
            )
        )

    @rule(
        session=st.sampled_from(SESSIONS),
        picks=st.lists(st.integers(0, len(POOL) - 1), max_size=7),
    )
    def open(self, session: str, picks: list[int]) -> None:
        """Open a session, or reopen it with a new (overlapping) set."""
        matches = [
            SearchMatch(sig_slice=POOL[index], omega=0.9, offset=0) for index in picks
        ]
        for fleet in self.fleets:
            fleet.open_session(session, matches)
        if session not in self.compiled:
            self.compiled[session] = self._tracker("plane")
        self.compiled[session].load(matches)
        self.mirrors[session] = self._tracker("scalar")
        self.mirrors[session].load(matches)

    @precondition(lambda self: bool(self.mirrors))
    @rule(data=st.data())
    def close(self, data: st.DataObject) -> None:
        session = data.draw(st.sampled_from(sorted(self.mirrors)))
        for fleet in self.fleets:
            fleet.close_session(session)
        del self.compiled[session]
        del self.mirrors[session]

    @precondition(lambda self: bool(self.mirrors))
    @rule(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def step(self, data: st.DataObject, seed: int) -> None:
        """Step a subset of the open sessions; frames near pool windows."""
        sessions = data.draw(
            st.lists(st.sampled_from(sorted(self.mirrors)), min_size=1, unique=True)
        )
        rng = np.random.default_rng(seed)
        frames = {}
        for session in sessions:
            source = POOL[int(rng.integers(0, 7))].data
            start = int(rng.integers(0, source.size - 256 + 1))
            noise = float(rng.choice([0.5, 3.0, 7.0]))
            frames[session] = source[start : start + 256] + rng.standard_normal(256) * noise
        fleet_steps = [fleet.step(frames) for fleet in self.fleets]
        for session, frame in frames.items():
            mirror = self.mirrors[session]
            expected = _step_key(mirror.step(frame), mirror.tracked)
            compiled = self.compiled[session]
            assert _step_key(compiled.step(frame), compiled.tracked) == expected
            for fleet, steps in zip(self.fleets, fleet_steps):
                assert _step_key(steps[session], fleet.tracked(session)) == expected

    @precondition(lambda self: bool(self.mirrors))
    @rule(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    def reject_non_finite(self, data: st.DataObject, bad: float) -> None:
        """A non-finite frame raises and advances nothing (later steps
        still match the mirrors, which never saw it)."""
        session = data.draw(st.sampled_from(sorted(self.mirrors)))
        frame = np.zeros(256)
        frame[3] = bad
        for fleet in self.fleets:
            with pytest.raises(TrackingError, match="non-finite"):
                fleet.step({session: frame})
        with pytest.raises(TrackingError, match="non-finite"):
            self.compiled[session].step(frame)

    @invariant()
    def references_match_tracked_candidates(self) -> None:
        for fleet in self.fleets:
            tracked = sum(len(fleet.tracked(s)) for s in fleet.session_ids)
            assert fleet.tracked_references == tracked
            assert fleet.unique_slices <= tracked
        for tracker in self.compiled.values():
            engine = tracker.engine
            assert engine.cache.tracked_references == tracker.tracked_count


EdgeChurn.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestEdgeChurn = EdgeChurn.TestCase
