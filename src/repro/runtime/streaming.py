"""Streaming monitor: the closed loop as an online, push-based API.

:class:`EMAPFramework` consumes a complete recording; a deployed edge
node instead sees samples arrive *live*.  :class:`StreamingMonitor`
exposes exactly that interface: push raw samples in arbitrary-size
chunks as the amplifier delivers them, and the monitor emits one
:class:`MonitorUpdate` per completed one-second frame — with the same
acquisition → search → tracking → prediction semantics as the batch
framework (the test suite asserts trace equivalence).

Cloud calls go through the same
:class:`~repro.cloud.client.ResilientCloudClient` as the batch loop:
a failed call (outage, timeout, dropped/corrupt payload, open breaker)
puts the monitor in **degraded mode** — it keeps tracking the stale
candidate set, flags each update's PA observation as stale
(:attr:`MonitorUpdate.degraded`), and re-dispatches per policy on
subsequent frames until a fresh set is adopted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.cloud.client import ResilienceConfig, ResilientCloudClient
from repro.edge.device import CloudCallPolicy
from repro.errors import FrameworkError, SignalError

if TYPE_CHECKING:  # avoid a circular import with repro.cloud.server
    from repro.cloud.client import CloudEndpoint
    from repro.cloud.results import SearchResult
from repro.edge.predictor import AnomalyPredictor, PredictorConfig
from repro.edge.tracker import SignalTracker, TrackerConfig
from repro.signals.filters import FilterSpec, StreamingFIRFilter
from repro.signals.types import (
    BASE_SAMPLE_RATE_HZ,
    FRAME_SAMPLES,
    Frame,
    real_samples,
)


@dataclass(frozen=True)
class MonitorUpdate:
    """What the monitor reports after each completed frame."""

    frame_index: int
    time_s: float
    anomaly_probability: float
    tracked_count: int
    anomaly_predicted: bool
    cloud_call_issued: bool
    #: Whether a tracking iteration actually ran this frame (False
    #: while the initial search is in flight or the set is empty).
    tracking_active: bool = False
    #: True when this frame ran in degraded mode: the last cloud call
    #: failed and the tracked set (and its PA observation) is stale.
    degraded: bool = False
    #: True when this frame's cloud call failed after retries.
    cloud_call_failed: bool = False


@dataclass
class StreamingConfig:
    """Knobs of the streaming monitor."""

    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    policy: CloudCallPolicy = field(default_factory=CloudCallPolicy)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    filter_spec: FilterSpec = field(default_factory=FilterSpec)
    frame_samples: int = FRAME_SAMPLES
    #: Simulated cloud round-trip in whole frames: a search issued at
    #: frame N is adopted at frame N + latency (Fig. 9's in-flight gap).
    cloud_latency_frames: int = 2
    #: Keep at most this many entries in :attr:`StreamingMonitor.updates`
    #: (oldest dropped first).  ``None`` retains every update — fine for
    #: tests and short sessions, unbounded for a long-lived monitor.
    max_retained_updates: int | None = None

    def __post_init__(self) -> None:
        if self.frame_samples <= 0:
            raise FrameworkError(
                f"frame size must be positive, got {self.frame_samples}"
            )
        if self.cloud_latency_frames < 0:
            raise FrameworkError(
                f"cloud latency must be non-negative, got {self.cloud_latency_frames}"
            )
        if self.max_retained_updates is not None and self.max_retained_updates < 1:
            raise FrameworkError(
                "max_retained_updates must be None or >= 1, got "
                f"{self.max_retained_updates}"
            )


class StreamingMonitor:
    """Push-based EMAP session over a live sample stream."""

    def __init__(
        self, cloud: CloudEndpoint, config: StreamingConfig | None = None
    ) -> None:
        self.cloud = cloud
        self.config = config or StreamingConfig()
        self._client = ResilientCloudClient(cloud, self.config.resilience)
        self._filter = StreamingFIRFilter(self.config.filter_spec)
        self._tracker = SignalTracker(self.config.tracker)
        self._predictor = AnomalyPredictor(self.config.predictor)
        # Filtered samples awaiting a complete frame, kept as the pushed
        # chunks rather than one array: re-concatenating on every push
        # is O(buffer) per chunk, i.e. quadratic for the many-small-chunk
        # delivery real amplifiers produce.
        self._chunks: deque[np.ndarray] = deque()
        self._buffered = 0
        self._frame_index = 0
        self._iterations_since_refresh = 0
        self._pending: tuple[int, SearchResult] | None = None  # (ready_frame, result)
        self._degraded = False
        self.cloud_calls = 0
        self.cloud_failures = 0
        self.degraded_frames = 0
        self.updates: list[MonitorUpdate] = []

    @property
    def tracker(self) -> SignalTracker:
        return self._tracker

    @property
    def predictor(self) -> AnomalyPredictor:
        return self._predictor

    def push(self, samples: np.ndarray) -> list[MonitorUpdate]:
        """Feed raw (unfiltered) samples; returns updates for every
        frame the chunk completed."""
        chunk = real_samples(samples, SignalError, "sample chunk")
        if chunk.ndim != 1:
            raise SignalError(f"sample chunk must be 1-D, got shape {chunk.shape}")
        if chunk.size == 0:
            return []
        filtered = self._filter.process(chunk)
        if filtered.size:
            self._chunks.append(filtered)
            self._buffered += filtered.size
        emitted: list[MonitorUpdate] = []
        size = self.config.frame_samples
        while self._buffered >= size:
            emitted.append(self._handle_frame(self._assemble_frame(size)))
        self.updates.extend(emitted)
        limit = self.config.max_retained_updates
        if limit is not None and len(self.updates) > limit:
            del self.updates[: len(self.updates) - limit]
        return emitted

    @property
    def buffered_samples(self) -> int:
        """Filtered samples waiting for the next frame boundary."""
        return self._buffered

    def _assemble_frame(self, size: int) -> np.ndarray:
        """Pop exactly ``size`` buffered samples into one frame array."""
        frame = np.empty(size)
        filled = 0
        while filled < size:
            head = self._chunks[0]
            take = min(head.size, size - filled)
            frame[filled : filled + take] = head[:take]
            if take == head.size:
                self._chunks.popleft()
            else:
                self._chunks[0] = head[take:]
            filled += take
        self._buffered -= size
        return frame

    def _handle_frame(self, data: np.ndarray) -> MonitorUpdate:
        with obs.trace.span("runtime.stream_frame") as span:
            update = self._process_frame(data)
        registry = obs.metrics()
        if registry.enabled:
            registry.inc("runtime.stream.frames")
            # The live loop budget: each one-second frame must be fully
            # handled in under a second of host wall time.
            frame_budget_s = self.config.frame_samples / BASE_SAMPLE_RATE_HZ
            registry.observe(
                "runtime.loop.budget_used", span.elapsed_s / frame_budget_s
            )
            if span.elapsed_s > frame_budget_s:
                registry.inc("runtime.loop.deadline_misses")
        return update

    def _process_frame(self, data: np.ndarray) -> MonitorUpdate:
        frame = Frame(
            data=data,
            index=self._frame_index,
            filtered=True,
            expected_samples=self.config.frame_samples,
        )
        self._frame_index += 1
        time_s = (frame.index + 1) * self.config.frame_samples / BASE_SAMPLE_RATE_HZ

        # Adopt a finished background search.
        if self._pending is not None and frame.index >= self._pending[0]:
            self._tracker.load(self._pending[1])
            self._iterations_since_refresh = 0
            self._pending = None
            self._degraded = False

        # Snapshot the degraded flag the frame's PA observation runs
        # under; a call failure later this frame degrades *subsequent*
        # frames (mirrors the batch loop's stale_series semantics).
        was_degraded = self._degraded
        stepped = self._tracker.tracked_count > 0
        if stepped:
            step = self._tracker.step(frame)
            self._predictor.observe(
                step.anomaly_probability, support=step.tracked_after
            )
            self._iterations_since_refresh += 1
            probability = step.anomaly_probability
            tracked = step.tracked_after
            # The predictor runs on every tracking iteration, exactly
            # like the batch loop — even when the step emptied the set
            # (the EMA/trend may still flag an anomaly).
            predicted = self._predictor.predict()
        else:
            probability = 0.0
            tracked = 0
            predicted = False

        if was_degraded:
            self.degraded_frames += 1
            obs.metrics().inc("runtime.degraded_iterations")

        issued = False
        failed = False
        wants_call = self._pending is None and (
            tracked == 0
            or self.config.policy.should_call(
                tracked, self._iterations_since_refresh
            )
        )
        if wants_call:
            outcome = self._client.call(frame, now_s=time_s)
            if outcome.ok and outcome.result is not None:
                # Each retry defers adoption by one extra frame: the
                # re-attempts consumed (simulated) live air time.
                ready = (
                    frame.index
                    + 1
                    + self.config.cloud_latency_frames
                    + outcome.retries
                )
                self._pending = (ready, outcome.result)
                self._iterations_since_refresh = 0
                self.cloud_calls += 1
                issued = True
                obs.metrics().inc("edge.device.cloud_calls")
            else:
                # Degrade: keep the stale set, leave the refresh
                # counter running so the policy re-fires next frame
                # (the breaker keeps a hard outage cheap).
                failed = True
                self.cloud_failures += 1
                self._degraded = True

        return MonitorUpdate(
            frame_index=frame.index,
            time_s=time_s,
            anomaly_probability=probability,
            tracked_count=tracked,
            anomaly_predicted=predicted,
            cloud_call_issued=issued,
            tracking_active=stepped,
            degraded=was_degraded,
            cloud_call_failed=failed,
        )

    def reset(self) -> None:
        """Start a fresh session (new patient)."""
        self._filter.reset()
        self._tracker = SignalTracker(self.config.tracker)
        self._predictor = AnomalyPredictor(self.config.predictor)
        self._client.reset()
        self._chunks.clear()
        self._buffered = 0
        self._frame_index = 0
        self._iterations_since_refresh = 0
        self._pending = None
        self._degraded = False
        self.cloud_calls = 0
        self.cloud_failures = 0
        self.degraded_frames = 0
        self.updates = []
