"""Tests for the async multi-tenant serving gateway.

Covers the bit-identity property (coalesced batch walks must return
exactly what per-request :meth:`CloudServer.handle_frame` returns),
admission control and backpressure, round-robin tenant fairness,
per-tenant resilient retry semantics, and the fleet driver.

pytest-asyncio is not a dependency: every async scenario runs through
``asyncio.run`` inside a synchronous test.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.client import BreakerState, ResilienceConfig
from repro.cloud.results import SearchMatch
from repro.cloud.server import CloudServer
from repro.edge.fleet import FleetTracker
from repro.edge.tracker import TrackerConfig
from repro.errors import GatewayError, TrackingError
from repro.faults.plan import FaultKind, FaultPlan
from repro.gateway import (
    EdgeStepDriver,
    FleetConfig,
    GatewayConfig,
    ServingGateway,
    build_frame_pool,
    run_fleet,
)
from repro.gateway.gateway import _PendingAttempt, _tenant_seed
from repro.signals.types import AnomalyType, SignalSlice


def _random_slices(seed: int, n: int = 16, min_len: int = 300, max_len: int = 1200):
    rng = np.random.default_rng(seed)
    slices = []
    for index in range(n):
        length = int(rng.integers(min_len, max_len))
        label = AnomalyType.SEIZURE if index % 3 == 0 else AnomalyType.NONE
        slices.append(
            SignalSlice(
                data=rng.standard_normal(length),
                label=label,
                slice_id=f"g{seed}-{index}",
            )
        )
    return slices


def _frames(seed: int, n: int, samples: int = 256) -> list[np.ndarray]:
    rng = np.random.default_rng(seed + 20_000)
    return [rng.standard_normal(samples) for _ in range(n)]


def _match_key(result):
    return [(m.sig_slice.slice_id, m.offset, m.omega) for m in result.matches]


async def _submit_all(gateway, requests):
    """Submit (tenant, frame) pairs concurrently; outcomes in order."""
    try:
        return await asyncio.gather(
            *(
                gateway.submit(tenant, frame, now_s=float(i))
                for i, (tenant, frame) in enumerate(requests)
            )
        )
    finally:
        await gateway.aclose()


class TestGatewayConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"coalesce_window_s": -0.1},
            {"max_queue_per_tenant": 0},
            {"max_pending": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(GatewayError):
            GatewayConfig(**kwargs)

    def test_tenant_seed_deterministic_and_distinct(self):
        assert _tenant_seed(0, "tenant-0") == _tenant_seed(0, "tenant-0")
        assert _tenant_seed(0, "tenant-0") != _tenant_seed(0, "tenant-1")


class TestBatchBitIdentity:
    """The tentpole property: coalescing must not change any answer.

    Hypothesis drives random MDBs and frame pools through the gateway
    (which batches aggressively) and through plain per-request
    ``handle_frame``; every match list, ω and search statistic must be
    bit-identical.
    """

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_gateway_matches_per_request_path(self, seed):
        slices = _random_slices(seed)
        frames = _frames(seed, n=12)
        requests = [
            (f"tenant-{i % 3}", frames[i % len(frames)]) for i in range(12)
        ]
        server = CloudServer(slices)
        try:
            gateway = ServingGateway(server, GatewayConfig(max_batch=8))
            outcomes = asyncio.run(_submit_all(gateway, requests))
            assert gateway.batches_served > 0
            for (_, frame), outcome in zip(requests, outcomes):
                assert outcome.ok
                reference, _ = server.handle_frame(frame)
                assert _match_key(outcome.result) == _match_key(reference)
                assert (
                    outcome.result.correlations_evaluated
                    == reference.correlations_evaluated
                )
                assert (
                    outcome.result.candidates_above_threshold
                    == reference.candidates_above_threshold
                )
        finally:
            server.close()

    def test_coalesces_concurrent_requests(self):
        """Concurrent submissions ride shared batches, not solo walks."""
        slices = _random_slices(1)
        frames = _frames(1, n=4)
        requests = [("tenant-0", frames[i % 4]) for i in range(24)]
        server = CloudServer(slices)
        try:
            gateway = ServingGateway(server, GatewayConfig(max_batch=16))
            outcomes = asyncio.run(_submit_all(gateway, requests))
            assert all(outcome.ok for outcome in outcomes)
            assert gateway.batches_served < len(requests)
            assert gateway.attempts_served == len(requests)
        finally:
            server.close()


class TestBadFrameIsolation:
    @pytest.mark.parametrize("offload", [False, True])
    def test_nan_frame_fails_only_its_own_request(self, offload):
        """Regression: one NaN frame used to crash the dispatcher (a raw
        ``IndexError`` from the walk), failing every co-batched request
        of every tenant."""
        slices = _random_slices(5)
        good = _frames(5, n=6)
        bad = good[0].copy()
        bad[100] = np.nan
        requests = [(f"tenant-{i % 3}", frame) for i, frame in enumerate(good)]
        requests.insert(3, ("tenant-0", bad))
        server = CloudServer(slices)
        try:
            gateway = ServingGateway(
                server,
                GatewayConfig(
                    max_batch=16,
                    offload_batches=offload,
                    resilience=ResilienceConfig(max_retries=0),
                ),
            )
            outcomes = asyncio.run(_submit_all(gateway, requests))
            assert gateway.dispatcher_crash is None
            assert gateway.batches_served == 1  # all rode one batch
            for (_, frame), outcome in zip(requests, outcomes):
                if frame is bad:
                    assert not outcome.ok
                    assert outcome.failure == "search_error"
                    continue
                assert outcome.ok
                reference, _ = server.handle_frame(frame)
                assert _match_key(outcome.result) == _match_key(reference)
                assert (
                    outcome.result.correlations_evaluated
                    == reference.correlations_evaluated
                )
        finally:
            server.close()


class TestAdmissionControl:
    def test_global_pending_bound_rejects(self):
        slices = _random_slices(2, n=6)
        frames = _frames(2, n=2)
        server = CloudServer(slices)
        try:
            gateway = ServingGateway(
                server, GatewayConfig(max_batch=4, max_pending=3)
            )
            requests = [(f"tenant-{i}", frames[0]) for i in range(10)]
            outcomes = asyncio.run(_submit_all(gateway, requests))
            rejected = [o for o in outcomes if o.failure == "rejected"]
            served = [o for o in outcomes if o.failure != "rejected"]
            # All 10 land in the same event-loop tick; only max_pending
            # fit, the rest bounce without consuming an attempt.
            assert len(rejected) == 7
            assert all(o.attempts == 0 for o in rejected)
            assert all(
                o.breaker_state is BreakerState.CLOSED for o in rejected
            )
            assert all(o.ok for o in served)
            assert gateway.requests_rejected == 7
        finally:
            server.close()

    def test_per_tenant_queue_bound_rejects_only_flooder(self):
        slices = _random_slices(3, n=6)
        frames = _frames(3, n=2)
        server = CloudServer(slices)
        try:
            gateway = ServingGateway(
                server,
                GatewayConfig(max_batch=8, max_queue_per_tenant=2),
            )
            requests = [("flooder", frames[0]) for _ in range(6)]
            requests += [("quiet", frames[1])]
            outcomes = asyncio.run(_submit_all(gateway, requests))
            flooder = outcomes[:6]
            quiet = outcomes[6]
            assert sum(1 for o in flooder if o.failure == "rejected") == 4
            assert quiet.ok
        finally:
            server.close()

    def test_queue_high_water_tracks_peak(self):
        slices = _random_slices(4, n=6)
        frames = _frames(4, n=2)
        server = CloudServer(slices)
        try:
            gateway = ServingGateway(server, GatewayConfig(max_batch=4))
            requests = [("tenant-0", frames[0]) for _ in range(5)]
            asyncio.run(_submit_all(gateway, requests))
            assert gateway.queue_high_water == 5
            assert gateway.pending == 0
        finally:
            server.close()


class TestFairness:
    def test_round_robin_interleaves_backlogged_tenants(self):
        """A flooding tenant cannot push the quiet tenant out of a batch."""

        async def scenario():
            slices = _random_slices(5, n=4)
            frames = _frames(5, n=1)
            server = CloudServer(slices)
            try:
                gateway = ServingGateway(server, GatewayConfig(max_batch=4))
                loop = asyncio.get_running_loop()
                flooder = gateway._tenant("flooder")
                quiet = gateway._tenant("quiet")
                for _ in range(6):
                    flooder.queue.append(
                        _PendingAttempt(frames[0], loop.create_future())
                    )
                quiet.queue.append(
                    _PendingAttempt(frames[0], loop.create_future())
                )
                gateway._pending_total = 7
                batch = gateway._next_batch()
                owners = [state.name for state, _ in batch]
                # One per tenant in rotation, then work-conserving fill.
                assert owners == ["flooder", "quiet", "flooder", "flooder"]
                second = gateway._next_batch()
                assert [state.name for state, _ in second] == ["flooder"] * 3
                assert gateway.pending == 0
            finally:
                await gateway.aclose()
                server.close()

        asyncio.run(scenario())


class TestResilientSemantics:
    def test_transient_fault_retries_within_batch_path(self):
        slices = _random_slices(6, n=6)
        frames = _frames(6, n=1)
        plan = FaultPlan.single(
            FaultKind.TRANSIENT_ERROR, first_call=0, last_call=0
        )
        server = CloudServer(slices)
        try:
            gateway = ServingGateway(
                server,
                GatewayConfig(
                    resilience=ResilienceConfig(max_retries=2, seed=3)
                ),
                tenant_plans={"flaky": plan},
            )
            outcomes = asyncio.run(
                _submit_all(gateway, [("flaky", frames[0])])
            )
            outcome = outcomes[0]
            assert outcome.ok
            assert outcome.attempts == 2
            assert outcome.retries == 1
            assert outcome.penalty_s > 0
        finally:
            server.close()

    def test_fault_free_tenant_unaffected_by_plan_map(self):
        slices = _random_slices(7, n=6)
        frames = _frames(7, n=1)
        plan = FaultPlan.single(
            FaultKind.OUTAGE, first_call=0, last_call=50
        )
        server = CloudServer(slices)
        try:
            gateway = ServingGateway(
                server,
                GatewayConfig(
                    resilience=ResilienceConfig(max_retries=0, seed=3)
                ),
                tenant_plans={"downed": plan},
            )
            outcomes = asyncio.run(
                _submit_all(
                    gateway, [("healthy", frames[0]), ("downed", frames[0])]
                )
            )
            healthy, downed = outcomes
            assert healthy.ok
            assert not downed.ok
            assert downed.failure == "unreachable"
        finally:
            server.close()

    def test_rejects_empty_tenant_name(self):
        server = CloudServer(_random_slices(8, n=4))
        try:
            gateway = ServingGateway(server)
            with pytest.raises(GatewayError, match="non-empty"):
                gateway.tenant_client("")
        finally:
            server.close()


class TestFleet:
    def test_fleet_config_validation(self):
        with pytest.raises(GatewayError):
            FleetConfig(n_sessions=0)
        with pytest.raises(GatewayError):
            FleetConfig(n_tenants=0)
        with pytest.raises(GatewayError):
            FleetConfig(mean_requests_per_session=0.5)
        with pytest.raises(GatewayError):
            FleetConfig(think_time_s=-1.0)

    def test_frame_pool_is_seeded_and_validated(self):
        slices = _random_slices(9, n=6)
        first = build_frame_pool(slices, n_frames=5, seed=42)
        second = build_frame_pool(slices, n_frames=5, seed=42)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        with pytest.raises(GatewayError):
            build_frame_pool(slices, n_frames=0)
        with pytest.raises(GatewayError, match="long enough"):
            build_frame_pool(slices, frame_samples=10**6)

    def test_run_fleet_requires_frames(self):
        server = CloudServer(_random_slices(10, n=4))
        try:
            with pytest.raises(GatewayError, match="frame pool"):
                run_fleet(server, [])
        finally:
            server.close()

    def test_small_fleet_completes_and_coalesces(self):
        slices = _random_slices(11, n=10)
        frames = build_frame_pool(slices, n_frames=6, seed=11)
        server = CloudServer(slices)
        try:
            report = run_fleet(
                server,
                frames,
                FleetConfig(n_sessions=24, n_tenants=3, seed=11),
                GatewayConfig(max_batch=16),
            )
        finally:
            server.close()
        assert report.sessions_completed == 24
        assert report.sessions_dropped == 0
        assert report.requests == report.successes + report.failures
        assert report.failures == 0
        assert report.pending_at_end == 0
        assert report.batches_served > 0
        # Concurrent arrivals must actually share batch walks.
        assert report.mean_batch_size > 1.0
        assert set(report.per_tenant) == {
            "tenant-0",
            "tenant-1",
            "tenant-2",
        }
        assert sum(t.requests for t in report.per_tenant.values()) == (
            report.requests
        )

    def test_fleet_is_deterministic_in_request_counts(self):
        slices = _random_slices(12, n=8)
        frames = build_frame_pool(slices, n_frames=4, seed=12)
        config = FleetConfig(n_sessions=12, n_tenants=2, seed=12)

        def counts():
            server = CloudServer(slices)
            try:
                report = run_fleet(server, frames, config)
            finally:
                server.close()
            return (
                report.requests,
                report.successes,
                {
                    name: summary.requests
                    for name, summary in report.per_tenant.items()
                },
            )

        assert counts() == counts()


def _edge_matches(seed: int, n: int = 6) -> list[SearchMatch]:
    return [
        SearchMatch(sig_slice=sig_slice, omega=0.9, offset=0)
        for sig_slice in _random_slices(seed, n=n)
    ]


def _edge_step_key(step, tracked):
    return (
        step.iteration,
        step.tracked_before,
        step.removed,
        step.area_evaluations,
        step.anomaly_probability,
        tuple((s.sig_slice.slice_id, s.last_area, s.offset) for s in tracked),
    )


class TestEdgeStepDriver:
    """The async front door coalescing sessions into fused fleet steps."""

    def test_config_rejects_negative_edge_steps(self):
        with pytest.raises(GatewayError):
            FleetConfig(edge_steps_per_request=-1)

    def test_coalesced_steps_match_direct_fleet(self):
        matches = _edge_matches(30)
        config = TrackerConfig(area_threshold=1e9)
        rng = np.random.default_rng(30)
        frames = {f"s{i}": rng.standard_normal(256) for i in range(6)}

        async def scenario():
            driver = EdgeStepDriver(config)
            for session_id in frames:
                await driver.adopt(session_id, matches)
            steps = dict(
                zip(
                    frames,
                    await asyncio.gather(
                        *(
                            driver.step(session_id, frame)
                            for session_id, frame in frames.items()
                        )
                    ),
                )
            )
            tracked = {
                session_id: driver.tracker.tracked(session_id)
                for session_id in frames
            }
            stats = (
                driver.fused_steps,
                driver.frames_stepped,
                driver.max_dedup_ratio,
            )
            await driver.aclose()
            return steps, tracked, stats

        steps, tracked, (fused_steps, frames_stepped, dedup) = asyncio.run(
            scenario()
        )
        # Concurrent same-tick submissions must share fused steps.
        assert frames_stepped == len(frames)
        assert 1 <= fused_steps < len(frames)
        # 6 sessions all tracking the same 6 slices: dedup ratio 6.
        assert dedup == pytest.approx(6.0)
        direct = FleetTracker(config)
        for session_id in frames:
            direct.open_session(session_id, matches)
        expected = direct.step(frames)
        for session_id in frames:
            assert _edge_step_key(
                steps[session_id], tracked[session_id]
            ) == _edge_step_key(
                expected[session_id], direct.tracked(session_id)
            )

    def test_duplicate_inflight_frame_and_closed_driver_rejected(self):
        matches = _edge_matches(31, n=3)

        async def scenario():
            driver = EdgeStepDriver(TrackerConfig(area_threshold=1e9))
            await driver.adopt("s", matches)
            frame = np.zeros(256)
            first = asyncio.ensure_future(driver.step("s", frame))
            await asyncio.sleep(0)  # frame parked; fused step not yet run
            with pytest.raises(GatewayError, match="in flight"):
                await driver.step("s", frame)
            step = await first  # the parked frame still completes
            assert step.iteration == 1
            await driver.aclose()
            with pytest.raises(GatewayError, match="closed"):
                await driver.step("s", frame)

        asyncio.run(scenario())

    def test_aclose_fails_parked_frames(self):
        matches = _edge_matches(32, n=3)

        async def scenario():
            driver = EdgeStepDriver(TrackerConfig(area_threshold=1e9))
            await driver.adopt("s", matches)
            parked = asyncio.ensure_future(driver.step("s", np.zeros(256)))
            await asyncio.sleep(0)
            await driver.aclose()
            with pytest.raises(GatewayError, match="in flight"):
                await parked

        asyncio.run(scenario())

    def test_tracker_error_fails_the_whole_batch_and_driver_survives(self):
        matches = _edge_matches(33, n=3)

        async def scenario():
            driver = EdgeStepDriver(TrackerConfig(area_threshold=1e9))
            await driver.adopt("a", matches)
            results = await asyncio.gather(
                driver.step("a", np.zeros(256)),
                driver.step("ghost", np.zeros(256)),
                return_exceptions=True,
            )
            # The fleet validates the batch up front, so both riders of
            # the poisoned fused step fail together — and the driver
            # keeps serving afterwards.
            step = await driver.step("a", np.zeros(256))
            await driver.aclose()
            return results, step

        results, step = asyncio.run(scenario())
        assert all(isinstance(result, TrackingError) for result in results)
        assert step.iteration == 1  # the failed batch never advanced "a"

    def test_bad_frame_fails_only_its_own_session(self):
        """A malformed or non-finite frame fails its own request before it
        is queued; the sessions it would have been batched with get
        exactly what a solo step returns."""
        matches = _edge_matches(36, n=4)
        config = TrackerConfig(area_threshold=1e9)
        rng = np.random.default_rng(36)
        good = {f"s{i}": rng.standard_normal(256) for i in range(3)}
        nan_frame = rng.standard_normal(256)
        nan_frame[5] = np.nan

        async def scenario():
            driver = EdgeStepDriver(config)
            for session_id in [*good, "short", "nan"]:
                await driver.adopt(session_id, matches)
            results = await asyncio.gather(
                *(driver.step(sid, frame) for sid, frame in good.items()),
                driver.step("short", np.zeros(13)),
                driver.step("nan", nan_frame),
                return_exceptions=True,
            )
            tracked = {sid: driver.tracker.tracked(sid) for sid in good}
            await driver.aclose()
            return results, tracked

        results, tracked = asyncio.run(scenario())
        *steps, short, nan = results
        assert isinstance(short, TrackingError) and "256 samples" in str(short)
        assert isinstance(nan, TrackingError) and "non-finite" in str(nan)
        for (session_id, frame), step in zip(good.items(), steps):
            solo = FleetTracker(config)
            solo.open_session(session_id, matches)
            expected = solo.step({session_id: frame})[session_id]
            assert _edge_step_key(step, tracked[session_id]) == _edge_step_key(
                expected, solo.tracked(session_id)
            )

    def test_fleet_edge_leg_counts_and_report(self):
        slices = _random_slices(34, n=10)
        frames = build_frame_pool(slices, n_frames=6, seed=34)
        server = CloudServer(slices)
        try:
            report = run_fleet(
                server,
                frames,
                FleetConfig(
                    n_sessions=16,
                    n_tenants=2,
                    seed=34,
                    edge_steps_per_request=2,
                ),
            )
        finally:
            server.close()
        assert report.successes > 0
        # Edge completeness: every success ran exactly its edge steps.
        assert report.edge_steps == report.successes * 2
        assert report.edge_fused_steps >= 1
        assert report.edge_mean_fused_batch >= 1.0
        assert report.edge_evaluations > 0
        assert report.edge_dedup_ratio >= 1.0
        assert "edge:" in report.report()

    def test_cloud_only_fleet_reports_no_edge_leg(self):
        slices = _random_slices(35, n=8)
        frames = build_frame_pool(slices, n_frames=4, seed=35)
        server = CloudServer(slices)
        try:
            report = run_fleet(
                server, frames, FleetConfig(n_sessions=8, n_tenants=2, seed=35)
            )
        finally:
            server.close()
        assert report.edge_steps == 0
        assert report.edge_fused_steps == 0
        assert "edge:" not in report.report()
