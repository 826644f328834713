"""``edge_hub``: one ``FleetTracker`` stepping many sessions per tick.

Each of ``SESSIONS`` sessions plays its own seeded, bandpass-filtered
30-second recording in a loop, one frame per tick; sessions join at
evenly spread phases of the policy's refresh cycle.  When
``CloudCallPolicy().should_call`` fires for a session, the hub
re-adopts it through ``close_session``/``open_session`` before the
tick's single ``FleetTracker.step`` over all sessions.  The adopted
correlation sets are real ``CloudServer`` answers for that session's
own frames, searched before the timed region at the policy's refresh
cadence (every fifth frame); a re-adoption takes the set searched from
the latest such frame, so it is at most four frames stale, about the
staleness the streaming monitor's in-flight search has.  Consecutive
sets of one session overlap heavily and sessions share MDB slices, so
the fused step's deduplication, the content-addressed adopt cache and
the C kernel all carry real load.  The cloud does no work in the timed
region.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from perfbench import stats
from perfbench.inputs import recording, stratified_kinds
from perfbench.oracles import step_key, tracked_key
from perfbench.tracing import Recorder, root_span
from repro.config import Pipeline, PipelineConfig, build_pipeline
from repro.edge.device import CloudCallPolicy
from repro.edge.fleet import FleetTracker
from repro.edge.tracker import SignalTracker, TrackerConfig
from repro.signals.filters import BandpassFilter
from repro.signals.types import FRAME_SAMPLES

MDB_SCALE = 0.3
SESSIONS = 48
LOOP_FRAMES = 30
#: Ticks per second of ``--seconds``: 120 ticks at 30 s.
TICKS_PER_SECOND = 4
ORACLE_SESSIONS = 2
#: Ticks of each sampled session replayed on a ``SignalTracker``; past
#: the first loop wrap-around.
REPLAY_TICKS = 40


@dataclass
class Inputs:
    seed: int
    ticks: int
    frames: list[np.ndarray]  # per session: (LOOP_FRAMES, FRAME_SAMPLES) filtered
    sampled: list[int]


@dataclass
class Prepared:
    cadence: int
    sets: list[list[Any]]  # [session][cadence index] -> SearchResult
    initial_s: list[float]


@dataclass
class Run:
    latencies_ns: list[int]
    session_frames: int
    logs: dict[int, list[tuple[Any, ...]]]
    counters: dict[str, float] = field(default_factory=dict)


class EdgeHub:
    name = "edge_hub"
    stable = (
        "edge.fleet.open.calls",
        "edge.fleet.area_evaluations",
        "edge.fleet.kernel_groups",
        "edge.fleet.pairs",
        "edge.fleet.compiled_bytes_peak",
        "edge.fleet.slice_hit_ratio",
        "runtime.modelled_initial_s",
    )

    def make_inputs(self, seed: int, seconds: int) -> Inputs:
        rng = np.random.default_rng([seed, 5])
        bandpass = BandpassFilter()
        frames = []
        for kind in stratified_kinds(SESSIONS, rng):
            data = bandpass.apply(recording(kind, float(LOOP_FRAMES), rng).data)
            frames.append(data.reshape(LOOP_FRAMES, FRAME_SAMPLES))
        sampled = sorted(int(i) for i in rng.choice(SESSIONS, ORACLE_SESSIONS, replace=False))
        return Inputs(
            seed=seed,
            ticks=max(2, round(TICKS_PER_SECOND * seconds)),
            frames=frames,
            sampled=sampled,
        )

    def setup(self) -> tuple[Pipeline, FleetTracker]:
        return build_pipeline(PipelineConfig(mdb_scale=MDB_SCALE)), FleetTracker()

    def prepare(self, system: Any, inputs: Inputs) -> Prepared:
        """Search every session's cadence frames, one batch per frame."""
        pipeline, _ = system
        cadence = CloudCallPolicy().refresh_interval
        sets: list[list[Any]] = [[] for _ in inputs.frames]
        initial = []
        for frame_index in range(0, LOOP_FRAMES, cadence):
            served = pipeline.cloud.handle_batch([f[frame_index] for f in inputs.frames])
            for session, (result, breakdown) in enumerate(served):
                sets[session].append(result)
                initial.append(breakdown.initial_s)
        return Prepared(cadence=cadence, sets=sets, initial_s=initial)

    def run(
        self, system: Any, inputs: Inputs, prepared: Prepared, recorder: Recorder | None
    ) -> Run:
        _, fleet = system
        policy = CloudCallPolicy()
        ids = [f"session-{i}" for i in range(len(inputs.frames))]
        iterations = [0] * len(ids)
        tracked = [0] * len(ids)
        opened = [False] * len(ids)
        logs: dict[int, list[tuple[Any, ...]]] = {i: [] for i in inputs.sampled}
        latencies: list[int] = []
        clock = time.perf_counter_ns
        hits_before, misses_before = fleet.cache_hits, fleet.cache_misses
        for tick in range(inputs.ticks):
            frame_index = tick % LOOP_FRAMES
            cadence_index = frame_index // prepared.cadence
            batch = {sid: inputs.frames[i][frame_index] for i, sid in enumerate(ids)}
            adopted = []
            with root_span(recorder, "bench.tick", f"tick-{tick}"):
                before = clock()
                for i, sid in enumerate(ids):
                    if opened[i] and not policy.should_call(tracked[i], iterations[i]):
                        continue
                    if opened[i]:
                        fleet.close_session(sid)
                    fleet.open_session(sid, prepared.sets[i][cadence_index])
                    iterations[i] = 0 if opened[i] else _stagger(i, prepared.cadence)
                    opened[i] = True
                    adopted.append(i)
                steps = fleet.step(batch)
                latencies.append(clock() - before)
            for i, sid in enumerate(ids):
                iterations[i] += 1
                tracked[i] = steps[sid].tracked_after
            if tick < REPLAY_TICKS:
                for i in inputs.sampled:
                    logs[i].append(
                        (
                            cadence_index if i in adopted else None,
                            step_key(steps[ids[i]]),
                            tracked_key(fleet.tracked(ids[i])),
                        )
                    )
        hits = fleet.cache_hits - hits_before
        lookups = hits + fleet.cache_misses - misses_before
        return Run(
            latencies_ns=latencies,
            session_frames=len(ids) * inputs.ticks,
            logs=logs,
            counters={
                "edge.fleet.slice_hit_ratio": hits / lookups if lookups else 0.0
            },
        )

    def attempts(self, run: Run) -> tuple[int, int]:
        return max(run.session_frames, 1), 0

    def metrics(self, run: Run) -> tuple[dict[str, float], dict[str, tuple[float, str]]]:
        lat_ms = [ns / 1e6 for ns in run.latencies_ns]
        p50, p90 = stats.percentile(lat_ms, 50), stats.percentile(lat_ms, 90)
        rate = run.session_frames / (sum(run.latencies_ns) / 1e9)
        gated = {"latency_ms": p50, "latency_tail_ms": p90, "throughput_per_s": rate}
        report = {
            "tick_p50_ms": (p50, "ms"),
            "tick_p90_ms": (p90, "ms"),
            "session_frames_per_s": (rate, "frames/s"),
            "failed_ratio": (0.0, "ratio"),
            "ticks": (float(len(lat_ms)), "count"),
        }
        return gated, report

    def modelled_initial(self, run: Run, prepared: Prepared) -> list[float]:
        return prepared.initial_s

    def check(self, system: Any, inputs: Inputs, prepared: Prepared, run: Run) -> list[str]:
        problems = []
        policy = CloudCallPolicy()
        for session in inputs.sampled:
            tracker = SignalTracker(TrackerConfig(engine="scalar"))
            iterations = tracked = 0
            for tick, observed in enumerate(run.logs[session]):
                frame_index = tick % LOOP_FRAMES
                cadence_index = frame_index // prepared.cadence
                adopted = None
                if tick == 0 or policy.should_call(tracked, iterations):
                    tracker.load(prepared.sets[session][cadence_index])
                    iterations = _stagger(session, prepared.cadence) if tick == 0 else 0
                    adopted = cadence_index
                step = tracker.step(inputs.frames[session][frame_index])
                iterations += 1
                tracked = step.tracked_after
                expected = (adopted, step_key(step), tracked_key(tracker.tracked))
                if expected != observed:
                    problems.append(
                        f"session {session} tick {tick}: fleet {observed[:2]} "
                        f"!= SignalTracker replay {expected[:2]}"
                    )
                    break
        return problems


def _stagger(session: int, cadence: int) -> int:
    """Refresh-cycle phase a session joins at: sessions are spread over
    the cycle, as patients who did not all connect in the same second,
    so the periodic re-adoptions do not all land on the same tick."""
    return session % cadence
