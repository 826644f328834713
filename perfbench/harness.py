"""Runs one workload: set-up, timed run, output checks, traced run.

The untraced run gives the end-to-end metrics.  With ``trace`` a second
set-up and run of the same inputs follows with span wrappers installed;
it gives the per-layer metrics, the span file and the tracing overhead
(traced minus untraced end-to-end metrics).
"""

from __future__ import annotations

import gc
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from perfbench import layers, stats
from perfbench.tracing import Recorder, patched
from perfbench.workloads import WORKLOADS
from repro.edge import _kernels
from repro.edge._kernels import kernel_backend, kernel_threads

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The gated end-to-end metrics, with units; every workload reports all.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
)


@dataclass
class Result:
    workload: str
    seed: int
    environment: dict[str, Any]
    end_to_end: dict[str, float]
    report: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    per_layer: dict[str, float] = field(default_factory=dict)
    spans_path: str | None = None

    @property
    def correct(self) -> bool:
        return not self.problems


def environment() -> dict[str, Any]:
    """The run's environment; selecting the backend here also builds
    and caches the kernel ``.so``, so no set-up pays a first compile."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernel_backend(),
        "kernel_threads": kernel_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _setup(workload: Any) -> tuple[Any, float]:
    gc.collect()
    started = time.perf_counter()
    system = workload.setup()
    # The kernel's bitwise self-check, against the cached ``.so``.
    _kernels._reset_backend_selection()
    kernel_backend()
    return system, time.perf_counter() - started


def _timed_run(
    workload: Any, system: Any, inputs: Any, prepared: Any, recorder: Any
) -> tuple[Any, float]:
    gc.collect()
    started = time.perf_counter()
    run = workload.run(system, inputs, prepared, recorder)
    return run, time.perf_counter() - started


def run_workload(name: str, seed: int, seconds: int, trace: bool, out_dir: Path) -> Result:
    workload = WORKLOADS[name]
    env = environment()
    inputs = workload.make_inputs(seed, seconds)

    setup_times = []
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            system[0].close()
        system, elapsed = _setup(workload)
        setup_times.append(elapsed)
    prepared = workload.prepare(system, inputs)
    run, _ = _timed_run(workload, system, inputs, prepared, None)
    gated, report = workload.metrics(run)
    attempted, failed = workload.attempts(run)
    problems = workload.check(system, inputs, prepared, run)
    system[0].close()
    end_to_end = {"setup_s": stats.median(setup_times), **gated}
    report["setup_s"] = (end_to_end["setup_s"], "s")
    result = Result(
        workload=name,
        seed=seed,
        environment=env,
        end_to_end=end_to_end,
        report=report,
        attempted=attempted,
        failed=failed,
        problems=problems,
    )
    if trace:
        traced(workload, inputs, result, out_dir)
    return result


def traced(workload: Any, inputs: Any, result: Result, out_dir: Path) -> None:
    recorder = Recorder()
    with patched(recorder, layers.TARGETS):
        recorder.recording = True
        system, _ = _setup(workload)
        recorder.recording = False
        prepared = workload.prepare(system, inputs)
        engine = system[0].cloud.search_engine
        with patched(recorder, layers.engine_targets(engine)):
            recorder.region = "timed"
            recorder.recording = True
            run, wall = _timed_run(workload, system, inputs, prepared, recorder)
            recorder.recording = False
    result.problems += [f"traced run: {p}" for p in workload.check(system, inputs, prepared, run)]
    system[0].close()
    gated, _ = workload.metrics(run)
    per_layer = layers.derive(
        recorder, run.counters, workload.modelled_initial(run, prepared), wall
    )
    for key in ("latency_ms", "latency_tail_ms", "throughput_per_s"):
        per_layer[f"tracing.overhead.{key}"] = gated[key] - result.end_to_end[key]
    result.per_layer = per_layer
    path = out_dir / f"{result.workload}-seed{result.seed}-spans.jsonl"
    recorder.write(path)
    result.spans_path = str(path)
