"""Tests for the compiled edge tracking path and fleet batching.

Covers the one-pair step kernel (bitwise against the scalar oracle on
every backend), the compiled engine's slice-cache mechanics, the
short-slice removal and non-finite-frame contracts, and the
cross-engine equivalence property: the scalar tracker, the compiled
engine and the fleet must produce bit-identical ``TrackingStep``
sequences — areas, offsets, removals, evaluation counts and anomaly
probabilities — over random correlation sets, strides and both
normalisation modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.results import SearchMatch
from repro.cloud.server import CloudServer
from repro.edge._kernels import (
    _evaluate,
    compile_slice,
    evaluate_pairs,
    kernel_backend,
)
from repro.edge.fleet import FleetTracker
from repro.edge.plane import CompiledTrackingEngine
from repro.edge.tracker import (
    ScalarTrackingEngine,
    SignalTracker,
    TrackerConfig,
)
from repro.errors import TrackingError
from repro.runtime.streaming import StreamingConfig, StreamingMonitor
from repro.signals.generator import EEGGenerator
from repro.signals.metrics import normalized_query, sliding_area, sliding_area_normalized
from repro.signals.types import AnomalyType, SignalSlice


def _random_matches(
    seed: int,
    n: int = 24,
    slice_len: int = 1000,
    short_every: int = 7,
    flat_every: int = 9,
) -> list[SearchMatch]:
    """A deterministic correlation set with short and flat-stretch slices."""
    rng = np.random.default_rng(seed)
    matches = []
    for index in range(n):
        if short_every and index % short_every == 3:
            data = rng.standard_normal(int(rng.integers(10, 200))) * 7
        elif flat_every and index % flat_every == 5:
            data = rng.standard_normal(slice_len) * 7
            data[100:500] = 2.5  # zero-variance stretch -> flat windows
        else:
            data = rng.standard_normal(slice_len) * 7
        label = AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE
        sig_slice = SignalSlice(
            data=data, label=label, slice_id=f"p{seed}-{index}"
        )
        matches.append(SearchMatch(sig_slice=sig_slice, omega=0.9, offset=0))
    return matches


def _frames(seed: int, count: int, samples: int = 256) -> list[np.ndarray]:
    rng = np.random.default_rng(seed + 50_000)
    return [rng.standard_normal(samples) * 7 for _ in range(count)]


def _step_key(step, tracked):
    """Everything a TrackingStep observably carries, bit-compared."""
    return (
        step.iteration,
        step.tracked_before,
        step.removed,
        step.area_evaluations,
        step.anomaly_probability,
        tuple(
            (s.sig_slice.slice_id, s.last_area, s.offset, s.omega) for s in tracked
        ),
        tuple((s.sig_slice.slice_id, s.last_area) for s in step.removed_signals),
    )


def _run_tracker(engine: str, matches, frames, **overrides):
    tracker = SignalTracker(TrackerConfig(engine=engine, **overrides))
    tracker.load(matches)
    return [
        _step_key(tracker.step(frame), tracker.tracked) for frame in frames
    ]


def _run_fleet(matches, frames, fused=True, **overrides):
    fleet = FleetTracker(TrackerConfig(**overrides), fused=fused)
    fleet.open_session("s", matches)
    keys = []
    for frame in frames:
        step = fleet.step({"s": frame})["s"]
        keys.append(_step_key(step, fleet.tracked("s")))
    return keys


def _one_pair(data, frame, stride, reference_rms):
    """Kernel arguments for one (slice, frame) pair."""
    compiled = compile_slice(data, frame.size, stride, reference_rms)
    assert compiled is not None
    if reference_rms is None:
        query, worst = frame, np.inf
    else:
        query = normalized_query(frame, reference_rms)
        worst = np.abs(query).sum()
    return (
        [compiled],
        np.zeros(1, dtype=np.intp),
        np.ascontiguousarray(query[None]),
        np.array([worst]),
        stride,
    )


class TestAreaKernel:
    def test_backend_is_known(self):
        assert kernel_backend() in ("c", "numpy")

    @pytest.mark.parametrize("m", [1, 7, 64, 100, 131, 256, 1000])
    def test_selected_backend_bitwise_equals_numpy(self, m):
        rng = np.random.default_rng(m)
        data = rng.standard_normal(m + 12) * 1e3
        frame = rng.standard_normal(m)
        expected = sliding_area_normalized(frame, data, 7.0)
        areas = np.empty(expected.size)
        best, best_area = evaluate_pairs(*_one_pair(data, frame, 1, 7.0), areas=areas)
        np.testing.assert_array_equal(areas, expected)
        assert best[0] == np.argmin(expected)
        assert best_area[0] == expected.min()

    @pytest.mark.parametrize("m", [1, 7, 256, 1000])
    def test_numpy_fallback_bitwise_equals_numpy(self, m):
        rng = np.random.default_rng(m + 1)
        data = rng.standard_normal(m + 699)
        frame = rng.standard_normal(m)
        areas = np.empty(700)
        _evaluate(None, *_one_pair(data, frame, 1, None), areas, 1)
        np.testing.assert_array_equal(areas, sliding_area(frame, data))

    def test_writes_into_out(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(35)
        frame = rng.standard_normal(32)
        areas = np.full(4, np.nan)
        evaluate_pairs(*_one_pair(data, frame, 1, None), areas=areas)
        np.testing.assert_array_equal(areas, sliding_area(frame, data))

    def test_empty_rows_ok(self):
        best, best_area = evaluate_pairs(
            [], np.empty(0, dtype=np.intp), np.zeros((1, 16)), np.zeros(1), 1
        )
        assert best.shape == best_area.shape == (0,)

    def test_rejects_bad_shapes(self):
        rng = np.random.default_rng(1)
        args = _one_pair(rng.standard_normal(20), rng.standard_normal(8), 1, None)
        slices, pair_query, queries, worsts, stride = args
        with pytest.raises(ValueError, match="2-D"):
            evaluate_pairs(slices, pair_query, queries[0], worsts, stride)
        with pytest.raises(ValueError, match="match"):
            evaluate_pairs(slices, pair_query, queries, np.zeros(2), stride)
        with pytest.raises(ValueError, match="match"):
            evaluate_pairs(*args, areas=np.empty(3))
        with pytest.raises(ValueError, match="contiguous"):
            evaluate_pairs(slices, pair_query, queries, worsts, stride,
                           areas=np.empty(26)[::2])
        with pytest.raises(ValueError, match="float64"):
            evaluate_pairs(
                slices, pair_query, queries.astype(np.float32), worsts, stride
            )


class TestTrackerConfigEngine:
    def test_rejects_unknown_engine(self):
        with pytest.raises(TrackingError, match="unknown tracking engine"):
            TrackerConfig(engine="gpu")

    def test_engine_selection_builds_matching_engine(self):
        assert isinstance(
            SignalTracker(TrackerConfig(engine="scalar")).engine,
            ScalarTrackingEngine,
        )
        assert isinstance(
            SignalTracker(TrackerConfig(engine="plane")).engine,
            CompiledTrackingEngine,
        )
        # The compiled engine is the default.
        assert isinstance(SignalTracker().engine, CompiledTrackingEngine)

    def test_explicit_engine_instance_wins(self):
        config = TrackerConfig(engine="scalar")
        plane = CompiledTrackingEngine(config)
        assert SignalTracker(config, engine=plane).engine is plane


class TestShortSliceRemoval:
    """Short slices are retired with a *defined* last_area."""

    @pytest.mark.parametrize("engine", ["scalar", "plane"])
    def test_short_slice_removed_with_inf_area(self, engine):
        short = SignalSlice(
            data=np.ones(10), label=AnomalyType.SEIZURE, slice_id="short"
        )
        tracker = SignalTracker(TrackerConfig(engine=engine))
        tracker.load([SearchMatch(sig_slice=short, omega=0.9, offset=0)])
        step = tracker.step(np.zeros(256))
        assert step.removed == 1
        assert step.area_evaluations == 0
        assert tracker.tracked_count == 0
        assert step.removed_signals[0].last_area == float("inf")

    def test_fleet_short_slice_removed_with_inf_area(self):
        short = SignalSlice(
            data=np.ones(10), label=AnomalyType.NONE, slice_id="short"
        )
        fleet = FleetTracker()
        fleet.open_session("s", [SearchMatch(sig_slice=short, omega=0.9, offset=0)])
        step = fleet.step({"s": np.zeros(256)})["s"]
        assert step.removed == 1
        assert step.area_evaluations == 0
        assert step.removed_signals[0].last_area == float("inf")
        assert fleet.unique_slices == 0  # reference released on removal


class TestCompiledSliceWindows:
    def test_short_slice_compiles_to_none(self):
        assert compile_slice(np.ones(10), 256, 4, 7.0) is None

    def test_raw_mode_windows_match_strided_view(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal(500)
        compiled = compile_slice(data, 256, 4, None)
        assert compiled is not None
        assert compiled.n_offsets == (500 - 256) // 4 + 1
        # Raw mode: the windows are the strided view itself (μ 0, s 1).
        np.testing.assert_array_equal(compiled.samples, data)
        assert not compiled.means.any()
        assert (compiled.scales == 1.0).all()
        assert not compiled.flat.any()
        # Stats only: no (offsets × frame) window matrix is stored.
        assert compiled.nbytes == (data.size + 3 * compiled.n_offsets) * 8
        assert compiled.n_samples == data.size


class TestTrackingPlaneMechanics:
    def test_load_compiles_once(self):
        plane = CompiledTrackingEngine(TrackerConfig())
        tracker = SignalTracker(TrackerConfig(), engine=plane)
        matches = _random_matches(0, n=12)
        tracker.load(matches)
        assert plane.cache.misses == 12
        assert plane.cache.unique_slices == 12
        assert plane.cache.compiled_bytes > 0
        for frame in _frames(0, 3):
            tracker.step(frame)
        assert plane.cache.misses == 12  # steps never recompile
        # Readopting the survivors recompiles nothing.
        tracker.load(
            [SearchMatch(sig_slice=s.sig_slice, omega=s.omega, offset=s.offset)
             for s in tracker.tracked]
        )
        assert plane.cache.misses == 12
        assert plane.cache.tracked_references == tracker.tracked_count

    def test_mass_removal_releases_every_entry(self):
        config = TrackerConfig(area_threshold=1e-6)
        plane = CompiledTrackingEngine(config)
        tracker = SignalTracker(config, engine=plane)
        tracker.load(_random_matches(1, n=10, short_every=0, flat_every=0))
        step = tracker.step(_frames(1, 1)[0])
        assert step.removed == 10
        assert plane.cache.unique_slices == 0
        # Further steps on the emptied engine are harmless no-ops.
        empty = tracker.step(_frames(1, 2)[1])
        assert empty.tracked_before == 0
        assert empty.area_evaluations == 0


class TestNonFiniteFrames:
    """Regression: a NaN/inf sample used to keep every candidate alive
    with ``last_area = nan`` and reset its offset to 0."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("engine", ["scalar", "plane"])
    def test_signal_tracker_rejects_before_any_state_change(self, engine, bad):
        matches = _random_matches(30, n=6, short_every=0)
        tracker = SignalTracker(TrackerConfig(engine=engine, area_threshold=1e9))
        tracker.load(matches)
        tracker.step(_frames(30, 1)[0])
        before = [(s.offset, s.last_area) for s in tracker.tracked]
        frame = _frames(31, 1)[0]
        frame[17] = bad
        with pytest.raises(TrackingError, match="non-finite"):
            tracker.step(frame)
        assert tracker.iteration == 1
        assert [(s.offset, s.last_area) for s in tracker.tracked] == before

    @pytest.mark.parametrize("fused", [True, False])
    def test_fleet_rejects_before_any_session_steps(self, fused):
        matches = _random_matches(32, n=6, short_every=0)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9), fused=fused)
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        frame = _frames(32, 1)[0]
        bad = frame.copy()
        bad[0] = np.nan
        with pytest.raises(TrackingError, match="non-finite.*'b'"):
            fleet.step({"a": frame, "b": bad})
        assert all(s.last_area == float("inf") for s in fleet.tracked("a"))
        assert fleet.step({"a": frame})["a"].iteration == 1


class TestEngineEquivalence:
    """Bit-identical TrackingStep sequences across engines."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        stride=st.sampled_from([1, 4, 7]),
        normalized=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_scalar_plane_fleet_identical(self, seed, stride, normalized):
        overrides = {
            "offset_stride": stride,
            "reference_rms": 7.0 if normalized else None,
            # Thresholds that actually exercise removal for each mode.
            "area_threshold": 900.0 if normalized else 1800.0,
        }
        matches = _random_matches(seed)
        frames = _frames(seed, 6)
        scalar = _run_tracker("scalar", matches, frames, **overrides)
        plane = _run_tracker("plane", matches, frames, **overrides)
        fused = _run_fleet(matches, frames, fused=True, **overrides)
        sequential = _run_fleet(matches, frames, fused=False, **overrides)
        assert plane == scalar
        assert fused == scalar
        assert sequential == scalar

    def test_survivor_tracking_near_threshold(self):
        """Steps where most candidates survive (self-similar frames)."""
        matches = _random_matches(11, n=16, short_every=0)
        rng = np.random.default_rng(11)
        frames = [
            matches[int(rng.integers(0, len(matches)))].sig_slice.data[:256]
            + rng.standard_normal(256) * 2.0
            for _ in range(8)
        ]
        scalar = _run_tracker("scalar", matches, frames)
        plane = _run_tracker("plane", matches, frames)
        assert plane == scalar


class TestFleetMechanics:
    def test_shared_slices_compiled_once(self):
        matches = _random_matches(20, n=10, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        assert fleet.session_count == 2
        assert fleet.unique_slices == 10
        assert fleet.tracked_references == 20
        assert fleet.dedup_ratio == pytest.approx(2.0)
        assert fleet.cache_misses == 10
        assert fleet.cache_hits == 10
        # Shared bytes: the same compiled windows serve both sessions.
        single = FleetTracker()
        single.open_session("only", matches)
        assert fleet.compiled_bytes == single.compiled_bytes

    def test_close_session_releases_references(self):
        matches = _random_matches(21, n=6, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        fleet.close_session("a")
        assert fleet.unique_slices == 6  # still referenced by "b"
        fleet.close_session("b")
        assert fleet.unique_slices == 0
        assert fleet.session_count == 0

    def test_reopen_restarts_iterations(self):
        matches = _random_matches(22, n=4, short_every=0)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("a", matches)
        fleet.step({"a": np.zeros(256)})
        fleet.open_session("a", matches)
        step = fleet.step({"a": np.zeros(256)})["a"]
        assert step.iteration == 1
        assert fleet.unique_slices == 4  # no duplicate cache entries

    def test_unknown_session_rejected(self):
        fleet = FleetTracker()
        with pytest.raises(TrackingError, match="unknown fleet session"):
            fleet.step({"ghost": np.zeros(256)})
        with pytest.raises(TrackingError, match="unknown fleet session"):
            fleet.close_session("ghost")

    def test_bad_frame_rejected_before_any_session_steps(self):
        matches = _random_matches(23, n=4, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        with pytest.raises(TrackingError, match="256 samples"):
            fleet.step({"a": np.zeros(256), "b": np.zeros(13)})
        # Validation happens up front: session "a" did not advance.
        assert fleet.step({"a": np.zeros(256)})["a"].iteration == 1

    def test_absent_sessions_do_not_advance(self):
        matches = _random_matches(24, n=4, short_every=0)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("a", matches)
        fleet.open_session("b", matches)
        fleet.step({"a": np.zeros(256)})
        steps = fleet.step({"a": np.zeros(256), "b": np.zeros(256)})
        assert steps["a"].iteration == 2
        assert steps["b"].iteration == 1

    def test_reopen_same_slices_keeps_entries_warm(self):
        """Churn regression: drop-then-re-add of a session whose slice
        ids overlap the old set must reuse the compiled entries instead
        of evicting and recompiling them."""
        matches = _random_matches(26, n=6, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        assert fleet.cache_misses == 6
        fleet.open_session("a", matches)  # drop-then-re-add, same slices
        assert fleet.cache_misses == 6  # nothing recompiled
        assert fleet.cache_hits == 6
        assert fleet.unique_slices == 6
        assert fleet.tracked_references == 6  # no refcount drift either

    def test_stale_release_cannot_evict_a_reregistered_entry(self):
        """Underflow regression: a handle released after its session was
        already closed (refs == 0) must be a no-op — decrementing again
        would evict the entry a re-registered session still uses."""
        matches = _random_matches(27, n=4, short_every=0)
        fleet = FleetTracker()
        fleet.open_session("a", matches)
        stale = list(fleet._sessions["a"].entries)
        fleet.close_session("a")
        assert fleet.unique_slices == 0
        fleet.open_session("a", [matches[0]])
        # The stale handles' refs are 0; releasing them again must not
        # underflow or evict the freshly re-registered entry.
        for entry in stale:
            fleet._cache.release(entry)
        assert fleet.unique_slices == 1
        assert fleet.tracked_references == 1
        # The re-registered session still steps cleanly.
        step = fleet.step({"a": np.zeros(256)})["a"]
        assert step.tracked_before == 1

    def test_churned_session_recompiles_cleanly_after_eviction(self):
        """Full churn cycle: open → close (evicts) → reopen must
        recompile from scratch and land on consistent counters."""
        matches = _random_matches(28, n=5, short_every=0)
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("a", matches)
        fleet.close_session("a")
        assert fleet.unique_slices == 0
        fleet.open_session("a", matches)  # slices were evicted: recompile
        assert fleet.cache_misses == 10
        assert fleet.unique_slices == 5
        assert fleet.tracked_references == 5
        step = fleet.step({"a": np.zeros(256)})["a"]
        assert step.iteration == 1
        assert step.tracked_before == 5

    def test_empty_slice_id_not_shared_but_correct(self):
        rng = np.random.default_rng(25)
        data = rng.standard_normal(1000) * 7
        anon = SignalSlice(data=data, label=AnomalyType.NONE)  # slice_id=""
        matches = [
            SearchMatch(sig_slice=anon, omega=0.9, offset=0) for _ in range(3)
        ]
        fleet = FleetTracker(TrackerConfig(area_threshold=1e9))
        fleet.open_session("a", matches)
        assert fleet.unique_slices == 3  # compiled privately, not merged
        step = fleet.step({"a": rng.standard_normal(256) * 7})["a"]
        assert step.tracked_before == 3


class TestRuntimeIntegration:
    """Plane mode flows through the streaming monitor unchanged."""

    def test_streaming_monitor_identical_across_engines(self, mdb_slices):
        recording = EEGGenerator(seed=77).record(8.0)
        traces = {}
        for engine in ("scalar", "plane"):
            monitor = StreamingMonitor(
                CloudServer(mdb_slices),
                StreamingConfig(tracker=TrackerConfig(engine=engine)),
            )
            monitor.push(recording.data)
            traces[engine] = [
                (
                    u.frame_index,
                    u.anomaly_probability,
                    u.tracked_count,
                    u.anomaly_predicted,
                    u.cloud_call_issued,
                    u.tracking_active,
                )
                for u in monitor.updates
            ]
        assert traces["plane"] == traces["scalar"]
