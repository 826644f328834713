"""Simulated session fleets driving the serving gateway.

:func:`run_fleet` spawns ``n_sessions`` concurrent asyncio sessions
against one :class:`~repro.gateway.gateway.ServingGateway`.  Each
session belongs to a tenant, arrives at a seeded offset inside the
arrival horizon, issues a seeded number of frame requests with
simulated think time between them, and retries admission rejections a
bounded number of times before counting itself *dropped* — the failure
mode the soak gate treats as fatal.

Two clocks run side by side.  The **simulated** clock (``now_s``) is
what sessions hand the resilient client — breaker cooldowns, think
time and backoff penalties all live there, and with ``time_scale=0``
it never sleeps, so a 60-simulated-second fleet finishes in wall
milliseconds-to-seconds.  The **wall** clock measures real end-to-end
request latency through the gateway (queueing + batching + search),
which is what the ``gateway.request_latency_s`` histogram and the
report's p50/p95/p99 summarise.

With ``edge_steps_per_request > 0`` the simulator also exercises the
edge leg: after each successful search a session adopts the result
into a shared :class:`~repro.edge.fleet.FleetTracker` and runs that
many tracking iterations.  Concurrent sessions' frames are coalesced
by :class:`EdgeStepDriver` into single fused fleet steps (the
single-call compiled path), run on a dedicated worker thread so the
event loop never blocks on the kernel.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence, TypeVar

import numpy as np

from repro.edge.fleet import FleetTracker
from repro.edge.tracker import TrackerConfig, TrackingStep, check_frame
from repro.errors import EMAPError, GatewayError
from repro.gateway.gateway import GatewayConfig, ServingGateway

if TYPE_CHECKING:
    from repro.cloud.results import SearchResult
    from repro.cloud.server import CloudServer
    from repro.faults.plan import FaultPlan
    from repro.signals.types import SignalSlice

_T = TypeVar("_T")


@dataclass(frozen=True)
class FleetConfig:
    """Shape of a simulated serving fleet."""

    n_sessions: int = 200
    n_tenants: int = 8
    #: Mean requests per session (seeded Poisson, minimum 1).
    mean_requests_per_session: float = 4.0
    #: Simulated seconds between a session's consecutive requests.
    think_time_s: float = 1.0
    #: Sessions arrive uniformly over this many simulated seconds.
    arrival_horizon_s: float = 5.0
    #: Admission-rejection retries before a session counts as dropped.
    admission_retries: int = 5
    #: Simulated backoff between admission retries.
    admission_backoff_s: float = 0.25
    #: Wall seconds per simulated second (0 = as fast as possible).
    time_scale: float = 0.0
    #: Edge tracking iterations a session runs after each successful
    #: search (0 = cloud-only simulation, the historical behaviour).
    edge_steps_per_request: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise GatewayError(
                f"fleet needs >= 1 session, got {self.n_sessions}"
            )
        if self.n_tenants < 1:
            raise GatewayError(
                f"fleet needs >= 1 tenant, got {self.n_tenants}"
            )
        if self.mean_requests_per_session < 1:
            raise GatewayError(
                "mean requests per session must be >= 1, got "
                f"{self.mean_requests_per_session}"
            )
        if self.think_time_s < 0 or self.arrival_horizon_s < 0:
            raise GatewayError("fleet times must be non-negative")
        if self.admission_retries < 0:
            raise GatewayError(
                "admission retries must be non-negative, got "
                f"{self.admission_retries}"
            )
        if self.admission_backoff_s < 0 or self.time_scale < 0:
            raise GatewayError("fleet times must be non-negative")
        if self.edge_steps_per_request < 0:
            raise GatewayError(
                "edge steps per request must be non-negative, got "
                f"{self.edge_steps_per_request}"
            )


@dataclass
class TenantSummary:
    """Per-tenant aggregate of the fleet run."""

    sessions: int = 0
    requests: int = 0
    successes: int = 0
    failures: int = 0
    rejected: int = 0
    dropped_sessions: int = 0

    @property
    def failure_ratio(self) -> float:
        return self.failures / self.requests if self.requests else 0.0


@dataclass
class FleetReport:
    """What the whole fleet run produced."""

    sessions_completed: int
    sessions_dropped: int
    requests: int
    successes: int
    failures: int
    rejections: int
    wall_elapsed_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    batches_served: int
    mean_batch_size: float
    queue_high_water: int
    pending_at_end: int
    per_tenant: dict[str, TenantSummary] = field(default_factory=dict)
    #: Edge leg (zeros when ``edge_steps_per_request == 0``).
    edge_steps: int = 0
    edge_evaluations: int = 0
    edge_fused_steps: int = 0
    edge_mean_fused_batch: float = 0.0
    edge_dedup_ratio: float = 1.0

    @property
    def throughput_rps(self) -> float:
        if self.wall_elapsed_s <= 0:
            return 0.0
        return self.requests / self.wall_elapsed_s

    def report(self) -> str:
        """Human-readable summary (the ``emap serve`` output)."""
        lines = [
            f"sessions: {self.sessions_completed} completed, "
            f"{self.sessions_dropped} dropped",
            f"requests: {self.requests} "
            f"({self.successes} ok, {self.failures} failed, "
            f"{self.rejections} rejections)",
            f"wall time: {self.wall_elapsed_s:.2f}s "
            f"({self.throughput_rps:.0f} req/s)",
            f"latency p50/p95/p99: {self.latency_p50_s * 1e3:.1f} / "
            f"{self.latency_p95_s * 1e3:.1f} / "
            f"{self.latency_p99_s * 1e3:.1f} ms",
            f"batches: {self.batches_served} "
            f"(mean size {self.mean_batch_size:.1f}), "
            f"queue high-water {self.queue_high_water}, "
            f"pending at end {self.pending_at_end}",
        ]
        if self.edge_steps:
            lines.append(
                f"edge: {self.edge_steps} session steps in "
                f"{self.edge_fused_steps} fused fleet steps "
                f"(mean batch {self.edge_mean_fused_batch:.1f}), "
                f"{self.edge_evaluations} area evaluations, "
                f"dedup ratio {self.edge_dedup_ratio:.1f}"
            )
        lines.append(
            "per tenant (requests ok/failed/rejected, dropped sessions):"
        )
        for name in sorted(self.per_tenant):
            tenant = self.per_tenant[name]
            lines.append(
                f"  {name:<12} {tenant.successes}/{tenant.failures}"
                f"/{tenant.rejected}, dropped {tenant.dropped_sessions}"
            )
        return "\n".join(lines)


@dataclass
class _SessionResult:
    tenant: str
    requests: int = 0
    successes: int = 0
    failures: int = 0
    rejected: int = 0
    dropped: bool = False
    edge_steps: int = 0
    edge_evaluations: int = 0


class EdgeStepDriver:
    """Coalesces concurrent sessions' edge frames into fused fleet steps.

    Async front door to one (non-thread-safe) shared
    :class:`~repro.edge.fleet.FleetTracker`: every tracker interaction —
    adopt, step, close — runs on a dedicated single worker thread, which
    both serialises access and keeps the event loop off the kernel's
    critical path (the C kernel releases the GIL and threads
    internally).  Frames submitted while a fused step is running pile up
    in ``_pending``; the stepper drains them as the *next* fused
    :meth:`FleetTracker.step` — so the batch size adapts to load exactly
    like the gateway's cloud-side coalescing.
    """

    def __init__(self, config: TrackerConfig | None = None) -> None:
        self.tracker = FleetTracker(config)
        self._pending: dict[
            str, tuple[np.ndarray, asyncio.Future[TrackingStep]]
        ] = {}
        self._wake: asyncio.Event | None = None
        self._stepper: asyncio.Task[None] | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="edge-step"
        )
        self._closed = False
        self.fused_steps = 0
        self.frames_stepped = 0
        #: Highest references-per-slice ratio seen across fused steps
        #: (sessions close at end, so the final ratio is trivially 1).
        self.max_dedup_ratio = 1.0

    async def adopt(self, session_id: str, result: SearchResult) -> None:
        """(Re)open ``session_id`` with a fresh correlation set."""
        await self._run(self.tracker.open_session, session_id, result)

    async def close_session(self, session_id: str) -> None:
        await self._run(self.tracker.close_session, session_id)

    async def step(self, session_id: str, frame: np.ndarray) -> TrackingStep:
        """One tracking iteration, riding the next fused fleet step.

        The frame is validated here, before it is queued: a wrong shape
        or a non-finite sample fails only this session's request with
        :class:`~repro.errors.TrackingError`, never the fused step other
        sessions ride.
        """
        if self._closed:
            raise GatewayError("edge driver is closed; create a new one")
        if session_id in self._pending:
            raise GatewayError(
                f"session {session_id!r} already has a frame in flight"
            )
        data = check_frame(
            frame, self.tracker.config.frame_samples, f" for session {session_id!r}"
        )
        loop = asyncio.get_running_loop()
        future: asyncio.Future[TrackingStep] = loop.create_future()
        self._pending[session_id] = (data, future)
        if self._wake is None:
            self._wake = asyncio.Event()
        self._wake.set()
        if self._stepper is None or self._stepper.done():
            self._stepper = loop.create_task(self._step_loop())
        return await future

    async def aclose(self) -> None:
        """Stop the stepper and the worker thread; fail pending frames."""
        self._closed = True
        task = self._stepper
        self._stepper = None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        failure = GatewayError("edge driver closed with frames in flight")
        for _, future in self._pending.values():
            if not future.done():
                future.set_exception(failure)
        self._pending.clear()
        self._executor.shutdown(wait=True)

    async def _run(self, fn: Callable[..., _T], *args: object) -> _T:
        """Run one tracker call on the serialising worker thread."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _step_loop(self) -> None:
        wake = self._wake
        if wake is None:  # pragma: no cover - step() sets it first
            raise GatewayError("edge stepper started without a wake event")
        while True:
            await wake.wait()
            # One yield lets same-tick submitters join this fused step.
            await asyncio.sleep(0)
            wake.clear()
            while self._pending:
                batch = self._pending
                self._pending = {}
                frames = {sid: frame for sid, (frame, _) in batch.items()}
                try:
                    steps = await self._run(self.tracker.step, frames)
                except EMAPError as error:
                    for _, future in batch.values():
                        if not future.done():
                            future.set_exception(error)
                    continue
                self.fused_steps += 1
                self.frames_stepped += len(batch)
                self.max_dedup_ratio = max(
                    self.max_dedup_ratio, self.tracker.dedup_ratio
                )
                for sid, (_, future) in batch.items():
                    if not future.done():
                        future.set_result(steps[sid])
                # Yield so resolved sessions run (and may re-enqueue the
                # next frame) before this loop drains again.
                await asyncio.sleep(0)


def build_frame_pool(
    slices: Sequence[SignalSlice],
    n_frames: int = 32,
    frame_samples: int = 256,
    seed: int = 0,
) -> list[np.ndarray]:
    """Seeded query frames cut from real slice windows.

    Sessions draw from this pool, so every request is a plausible
    bandpass-filtered frame with genuine near-matches in the plane.
    """
    if n_frames < 1:
        raise GatewayError(f"frame pool needs >= 1 frame, got {n_frames}")
    rng = np.random.default_rng(seed)
    pool: list[np.ndarray] = []
    eligible = [s for s in slices if len(s) >= frame_samples]
    if not eligible:
        raise GatewayError(
            f"no slice long enough for {frame_samples}-sample frames"
        )
    for _ in range(n_frames):
        sig_slice = eligible[int(rng.integers(len(eligible)))]
        last = len(sig_slice) - frame_samples
        start = int(rng.integers(last + 1))
        pool.append(
            np.asarray(
                sig_slice.data[start : start + frame_samples],
                dtype=np.float64,
            )
        )
    return pool


async def _sleep_scaled(simulated_s: float, time_scale: float) -> None:
    """Sleep ``simulated_s`` of simulated time at the configured scale."""
    await asyncio.sleep(simulated_s * time_scale if time_scale > 0 else 0)


async def _run_session(
    gateway: ServingGateway,
    config: FleetConfig,
    frames: Sequence[np.ndarray],
    index: int,
    latencies: list[float],
    edge: EdgeStepDriver | None = None,
) -> _SessionResult:
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, index)))
    tenant = f"tenant-{index % config.n_tenants}"
    session = _SessionResult(tenant=tenant)
    session_id = f"session-{index}"
    edge_opened = False
    arrival = float(rng.uniform(0.0, config.arrival_horizon_s))
    n_requests = 1 + int(
        rng.poisson(max(0.0, config.mean_requests_per_session - 1.0))
    )
    now_s = arrival
    await _sleep_scaled(arrival, config.time_scale)
    loop = asyncio.get_running_loop()
    try:
        for _ in range(n_requests):
            frame = frames[int(rng.integers(len(frames)))]
            admitted = False
            for _ in range(config.admission_retries + 1):
                started = loop.time()
                outcome = await gateway.submit(tenant, frame, now_s)
                if outcome.failure == "rejected":
                    session.rejected += 1
                    now_s += config.admission_backoff_s
                    await _sleep_scaled(
                        config.admission_backoff_s, config.time_scale
                    )
                    continue
                admitted = True
                latencies.append(loop.time() - started)
                session.requests += 1
                if outcome.ok:
                    session.successes += 1
                else:
                    session.failures += 1
                now_s += outcome.penalty_s
                break
            if not admitted:
                session.dropped = True
                break
            if edge is not None and outcome.ok and outcome.result is not None:
                # The edge leg: adopt the fresh correlation set, then run
                # the configured tracking iterations — each riding a
                # fused fleet step shared with concurrent sessions.
                await edge.adopt(session_id, outcome.result)
                edge_opened = True
                for _ in range(config.edge_steps_per_request):
                    edge_frame = frames[int(rng.integers(len(frames)))]
                    step = await edge.step(session_id, edge_frame)
                    session.edge_steps += 1
                    session.edge_evaluations += step.area_evaluations
            now_s += config.think_time_s
            await _sleep_scaled(config.think_time_s, config.time_scale)
    finally:
        if edge is not None and edge_opened:
            await edge.close_session(session_id)
    return session


async def _run_fleet_async(
    server: CloudServer,
    frames: Sequence[np.ndarray],
    config: FleetConfig,
    gateway_config: GatewayConfig,
    tenant_plans: Mapping[str, FaultPlan] | None,
) -> FleetReport:
    gateway = ServingGateway(server, gateway_config, tenant_plans)
    edge: EdgeStepDriver | None = None
    if config.edge_steps_per_request > 0:
        edge = EdgeStepDriver(
            TrackerConfig(frame_samples=int(frames[0].size))
        )
    latencies: list[float] = []
    started = time.perf_counter()
    try:
        sessions = await asyncio.gather(
            *(
                _run_session(gateway, config, frames, index, latencies, edge)
                for index in range(config.n_sessions)
            )
        )
    finally:
        pending_at_end = gateway.pending
        await gateway.aclose()
        if edge is not None:
            await edge.aclose()
    elapsed = time.perf_counter() - started

    per_tenant: dict[str, TenantSummary] = {}
    for session in sessions:
        summary = per_tenant.setdefault(session.tenant, TenantSummary())
        summary.sessions += 1
        summary.requests += session.requests
        summary.successes += session.successes
        summary.failures += session.failures
        summary.rejected += session.rejected
        if session.dropped:
            summary.dropped_sessions += 1

    requests = sum(s.requests for s in sessions)
    sample = np.asarray(latencies) if latencies else np.zeros(1)
    p50, p95, p99 = (
        float(value) for value in np.percentile(sample, (50.0, 95.0, 99.0))
    )
    batches = gateway.batches_served
    return FleetReport(
        sessions_completed=sum(1 for s in sessions if not s.dropped),
        sessions_dropped=sum(1 for s in sessions if s.dropped),
        requests=requests,
        successes=sum(s.successes for s in sessions),
        failures=sum(s.failures for s in sessions),
        rejections=sum(s.rejected for s in sessions),
        wall_elapsed_s=elapsed,
        latency_p50_s=p50,
        latency_p95_s=p95,
        latency_p99_s=p99,
        batches_served=batches,
        mean_batch_size=gateway.attempts_served / batches if batches else 0.0,
        queue_high_water=gateway.queue_high_water,
        pending_at_end=pending_at_end,
        per_tenant=per_tenant,
        edge_steps=sum(s.edge_steps for s in sessions),
        edge_evaluations=sum(s.edge_evaluations for s in sessions),
        edge_fused_steps=edge.fused_steps if edge is not None else 0,
        edge_mean_fused_batch=(
            edge.frames_stepped / edge.fused_steps
            if edge is not None and edge.fused_steps
            else 0.0
        ),
        edge_dedup_ratio=(
            edge.max_dedup_ratio if edge is not None else 1.0
        ),
    )


def run_fleet(
    server: CloudServer,
    frames: Sequence[np.ndarray],
    config: FleetConfig | None = None,
    gateway_config: GatewayConfig | None = None,
    tenant_plans: Mapping[str, FaultPlan] | None = None,
) -> FleetReport:
    """Drive a simulated session fleet through a fresh gateway.

    ``frames`` is the query pool sessions draw from (seeded).  Builds
    the gateway, runs every session to completion (or drop), closes the
    gateway, and returns the aggregated :class:`FleetReport`.
    """
    if not frames:
        raise GatewayError("fleet needs a non-empty frame pool")
    return asyncio.run(
        _run_fleet_async(
            server,
            frames,
            config or FleetConfig(),
            gateway_config or GatewayConfig(),
            tenant_plans,
        )
    )
