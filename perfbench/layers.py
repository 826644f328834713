"""Per-layer metrics of the traced run, named by ``repro`` module.

``TARGETS`` lists the public calls wrapped while tracing; ``derive``
turns the recorded spans (plus a few counters read at the same
boundaries) into the ``PER_LAYER`` metrics.  A layer a workload does
not exercise reports 0.
"""

from __future__ import annotations

from typing import Any

from perfbench import stats
from perfbench.tracing import Recorder
from repro.cloud.client import ResilientCloudClient
from repro.cloud.shards import ShardedSearchPlane
from repro.edge.fleet import FleetTracker
from repro.edge.predictor import AnomalyPredictor
from repro.edge.tracker import SignalTracker
from repro.mdb.builder import MDBBuilder
from repro.runtime.streaming import StreamingMonitor
from repro.signals.filters import StreamingFIRFilter

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("mdb.build_s", "s", "lower"),
    ("cloud.compile_s", "s", "lower"),
    ("cloud.refresh.calls", "count", "lower"),
    ("cloud.refresh.busy_ms", "ms", "lower"),
    ("cloud.refresh.shards_compiled", "count", "lower"),
    ("cloud.search.calls", "count", "lower"),
    ("cloud.search.busy_ms", "ms", "lower"),
    ("cloud.search.p50_ms", "ms", "lower"),
    ("cloud.search.correlations", "count", "lower"),
    ("cloud.search.visit_ratio", "ratio", "lower"),
    ("cloud.search.ns_per_correlation", "ns", "lower"),
    ("cloud.client.self_ms", "ms", "lower"),
    ("cloud.client.retries", "count", "lower"),
    ("cloud.client.failures", "count", "lower"),
    ("gateway.queue_wait_p50_ms", "ms", "lower"),
    ("gateway.queue_wait_p95_ms", "ms", "lower"),
    ("gateway.batches", "count", "lower"),
    ("gateway.batch_size_mean", "requests", "higher"),
    ("gateway.batch.busy_share", "ratio", "lower"),
    ("gateway.rejected", "count", "lower"),
    ("gateway.queue_high_water", "requests", "lower"),
    ("edge.adopt.calls", "count", "lower"),
    ("edge.adopt.busy_ms", "ms", "lower"),
    ("edge.step.calls", "count", "lower"),
    ("edge.step.busy_ms", "ms", "lower"),
    ("edge.step.p50_ms", "ms", "lower"),
    ("edge.step.area_evaluations", "count", "lower"),
    ("edge.fleet.open.calls", "count", "lower"),
    ("edge.fleet.open.busy_ms", "ms", "lower"),
    ("edge.fleet.slice_hit_ratio", "ratio", "higher"),
    ("edge.fleet.compiled_bytes_peak", "bytes", "lower"),
    ("edge.fleet.step.busy_ms", "ms", "lower"),
    ("edge.fleet.step.p50_ms", "ms", "lower"),
    ("edge.fleet.area_evaluations", "count", "lower"),
    ("edge.fleet.kernel_groups", "count", "lower"),
    ("edge.fleet.pairs", "count", "lower"),
    ("edge.fleet.ns_per_evaluation", "ns", "lower"),
    ("edge.fleet.close.busy_ms", "ms", "lower"),
    ("edge.predict.busy_ms", "ms", "lower"),
    ("signals.filter.busy_ms", "ms", "lower"),
    ("runtime.stream.self_ms", "ms", "lower"),
    ("runtime.modelled_initial_s", "s", "lower"),
    ("loadgen.lateness_p95_ms", "ms", "lower"),
    ("loadgen.backlog_end", "requests", "lower"),
    ("tracing.spans", "count", "lower"),
    ("tracing.overhead.latency_ms", "ms", "lower"),
    ("tracing.overhead.latency_tail_ms", "ms", "lower"),
    ("tracing.overhead.throughput_per_s", "1/s", "higher"),
)


def _fleet_step(steps: Any, fleet: FleetTracker, frames: Any) -> dict[str, Any]:
    return {
        "evaluations": sum(step.area_evaluations for step in steps.values()),
        "groups": fleet.last_fused_groups,
        "pairs": fleet.last_fused_pairs,
        "compiled_bytes": fleet.compiled_bytes,
    }


def _refresh(refreshed: bool, plane: ShardedSearchPlane) -> dict[str, Any]:
    return {
        "refreshed": refreshed,
        "compiled": plane.last_refresh_compiled if refreshed else 0,
    }


#: Class-level wrappers: ``(owner, attribute, span name, attrs hook)``.
TARGETS: list[tuple[object, str, str, Any]] = [
    (MDBBuilder, "build", "mdb.build", None),
    (ShardedSearchPlane, "__init__", "cloud.compile", None),
    (ShardedSearchPlane, "refresh", "cloud.refresh", _refresh),
    (
        ResilientCloudClient,
        "call",
        "cloud.client.call",
        lambda outcome, *_: {"retries": outcome.retries, "ok": outcome.ok},
    ),
    (SignalTracker, "load", "edge.adopt", None),
    (
        SignalTracker,
        "step",
        "edge.step",
        lambda step, *_: {"evaluations": step.area_evaluations},
    ),
    (
        FleetTracker,
        "open_session",
        "edge.fleet.open",
        lambda _, fleet, *__: {"compiled_bytes": fleet.compiled_bytes},
    ),
    (FleetTracker, "close_session", "edge.fleet.close", None),
    (FleetTracker, "step", "edge.fleet.step", _fleet_step),
    (AnomalyPredictor, "observe", "edge.predict", None),
    (AnomalyPredictor, "predict", "edge.predict", None),
    (StreamingFIRFilter, "process", "signals.filter", None),
    (StreamingMonitor, "push", "runtime.stream.push", None),
]


def engine_targets(engine: Any) -> list[tuple[object, str, str, Any]]:
    """Instance wrappers on one cloud's search engine (the walk)."""
    frame_samples = engine.config.frame_samples
    offsets: dict[tuple[int, int], int] = {}

    def total_offsets(plane: Any) -> int:
        key = (id(plane), plane.generation)
        if key not in offsets:
            offsets[key] = sum(
                max(0, length - frame_samples + 1) for length in plane.slice_lengths()
            )
        return offsets[key]

    def single(result: Any, frame: Any, plane: Any) -> dict[str, Any]:
        return {
            "queries": 1,
            "correlations": result.correlations_evaluated,
            "offsets": total_offsets(plane),
        }

    def batch(results: Any, frames: Any, plane: Any) -> dict[str, Any]:
        return {
            "queries": len(results),
            "correlations": sum(r.correlations_evaluated for r in results),
            "offsets": len(results) * total_offsets(plane),
        }

    return [
        (engine, "search", "cloud.search", single),
        (engine, "search_batch", "cloud.search", batch),
    ]


def _busy_ms(spans: list[Any]) -> float:
    return sum(s.duration_ns for s in spans) / 1e6


def _sum(spans: list[Any], attr: str) -> float:
    return float(sum(s.attrs.get(attr, 0) for s in spans))


def derive(
    recorder: Recorder,
    counters: dict[str, float],
    modelled_initial: list[float],
    timed_wall_s: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric except the ``tracing.overhead`` ones."""
    kids = recorder.children()
    select = recorder.select
    out: dict[str, float] = {}

    def self_ms(name: str) -> float:
        return (
            sum(
                recorder.self_time_ns(i, kids)
                for i, s in enumerate(recorder.spans)
                if s.name == name and s.attrs.get("region") == "timed"
            )
            / 1e6
        )

    out["mdb.build_s"] = _busy_ms(select("mdb.build", "setup")) / 1e3
    out["cloud.compile_s"] = _busy_ms(select("cloud.compile", "setup")) / 1e3

    refresh = select("cloud.refresh")
    recompiled = [s for s in refresh if s.attrs.get("refreshed")]
    out["cloud.refresh.calls"] = float(len(recompiled))
    out["cloud.refresh.busy_ms"] = _busy_ms(refresh)
    out["cloud.refresh.shards_compiled"] = _sum(recompiled, "compiled")

    searches = select("cloud.search")
    queries = _sum(searches, "queries")
    correlations = _sum(searches, "correlations")
    busy = _busy_ms(searches)
    out["cloud.search.calls"] = queries
    out["cloud.search.busy_ms"] = busy
    out["cloud.search.p50_ms"] = stats.median(
        [s.duration_ns / 1e6 / s.attrs["queries"] for s in searches if s.attrs.get("queries")]
    )
    out["cloud.search.correlations"] = correlations
    offsets = _sum(searches, "offsets")
    out["cloud.search.visit_ratio"] = correlations / offsets if offsets else 0.0
    out["cloud.search.ns_per_correlation"] = busy * 1e6 / correlations if correlations else 0.0

    calls = select("cloud.client.call")
    out["cloud.client.self_ms"] = self_ms("cloud.client.call")
    out["cloud.client.retries"] = _sum(calls, "retries")
    out["cloud.client.failures"] = float(sum(1 for s in calls if not s.attrs.get("ok", True)))

    submits = select("gateway.submit")
    batches = select("gateway.batch")
    submitted_at = {s.request: s.start_ns for s in submits}
    waits = [
        (batch.start_ns - submitted_at[request]) / 1e6
        for batch in batches
        for request in str(batch.attrs.get("requests", "")).split(",")
        if request in submitted_at
    ]
    out["gateway.queue_wait_p50_ms"] = stats.percentile(waits, 50)
    out["gateway.queue_wait_p95_ms"] = stats.percentile(waits, 95)
    out["gateway.batches"] = float(len(batches))
    out["gateway.batch_size_mean"] = stats.mean([b.attrs["size"] for b in batches])
    out["gateway.batch.busy_share"] = _busy_ms(batches) / 1e3 / timed_wall_s if batches else 0.0
    out["gateway.rejected"] = float(
        sum(1 for s in submits if s.attrs.get("failure") == "rejected")
    )
    out["gateway.queue_high_water"] = counters.get("gateway.queue_high_water", 0.0)

    adopts = select("edge.adopt")
    steps = select("edge.step")
    out["edge.adopt.calls"] = float(len(adopts))
    out["edge.adopt.busy_ms"] = _busy_ms(adopts)
    out["edge.step.calls"] = float(len(steps))
    out["edge.step.busy_ms"] = _busy_ms(steps)
    out["edge.step.p50_ms"] = stats.median([s.duration_ns / 1e6 for s in steps])
    out["edge.step.area_evaluations"] = _sum(steps, "evaluations")

    opens = select("edge.fleet.open")
    fleet_steps = select("edge.fleet.step")
    evaluations = _sum(fleet_steps, "evaluations")
    fleet_busy = _busy_ms(fleet_steps)
    out["edge.fleet.open.calls"] = float(len(opens))
    out["edge.fleet.open.busy_ms"] = _busy_ms(opens)
    out["edge.fleet.slice_hit_ratio"] = counters.get("edge.fleet.slice_hit_ratio", 0.0)
    out["edge.fleet.compiled_bytes_peak"] = float(
        max((s.attrs.get("compiled_bytes", 0) for s in opens + fleet_steps), default=0)
    )
    out["edge.fleet.step.busy_ms"] = fleet_busy
    out["edge.fleet.step.p50_ms"] = stats.median([s.duration_ns / 1e6 for s in fleet_steps])
    out["edge.fleet.area_evaluations"] = evaluations
    out["edge.fleet.kernel_groups"] = _sum(fleet_steps, "groups")
    out["edge.fleet.pairs"] = _sum(fleet_steps, "pairs")
    out["edge.fleet.ns_per_evaluation"] = fleet_busy * 1e6 / evaluations if evaluations else 0.0
    out["edge.fleet.close.busy_ms"] = _busy_ms(select("edge.fleet.close"))

    out["edge.predict.busy_ms"] = _busy_ms(select("edge.predict"))
    out["signals.filter.busy_ms"] = _busy_ms(select("signals.filter"))
    out["runtime.stream.self_ms"] = self_ms("runtime.stream.push")
    out["runtime.modelled_initial_s"] = stats.mean(modelled_initial)
    out["loadgen.lateness_p95_ms"] = counters.get("loadgen.lateness_p95_ms", 0.0)
    out["loadgen.backlog_end"] = counters.get("loadgen.backlog_end", 0.0)
    out["tracing.spans"] = float(len(recorder.spans))
    return out
