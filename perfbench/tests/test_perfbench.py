"""Tests of the benchmark itself, at a tiny size (``--seconds 1``).

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, layers
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
SEED = 7
HELD_OUT_SEED = 424242

#: Each workload's own end-to-end metrics, printed on its report lines.
REPORTED = {
    "patient_stream": (
        "setup_s", "failed_ratio", "frame_p50_ms", "frame_p99_ms", "realtime_factor",
    ),
    "gateway_serve": (
        "setup_s", "failed_ratio", "request_p50_ms.low", "request_p95_ms.low",
        "request_p50_ms.high", "request_p95_ms.high", "request_p95_ms.ingest",
        "sustained_rps", "ingest_p50_ms",
    ),
    "edge_hub": (
        "setup_s", "failed_ratio", "tick_p50_ms", "tick_p90_ms", "session_frames_per_s",
    ),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench")
    return {name: harness.run_workload(name, SEED, 1, True, out) for name in WORKLOADS}


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(traced, name):
    result = traced[name]
    assert result.correct, result.problems
    assert list(result.end_to_end) == [n for n, _ in harness.END_TO_END]
    assert all(value > 0 for value in result.end_to_end.values())
    for metric in REPORTED[name]:
        value, unit = result.report[metric]
        assert unit and value >= 0
    assert sorted(result.per_layer) == sorted(n for n, _, _ in layers.PER_LAYER)
    assert result.spans_path and Path(result.spans_path).stat().st_size > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_stable_counts_repeat_for_one_seed(traced, tmp_path, name):
    again = harness.run_workload(name, SEED, 1, True, tmp_path)
    workload = WORKLOADS[name]
    first = {k: traced[name].per_layer[k] for k in workload.stable}
    second = {k: again.per_layer[k] for k in workload.stable}
    assert first == second
    assert any(value > 0 for value in first.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_on_a_held_out_seed(tmp_path, name):
    result = harness.run_workload(name, HELD_OUT_SEED, 1, False, tmp_path)
    assert result.correct, result.problems


def _executed(name):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(SEED, 1)
    system = workload.setup()
    prepared = workload.prepare(system, inputs)
    run = workload.run(system, inputs, prepared, None)
    assert workload.check(system, inputs, prepared, run) == []
    return workload, system, inputs, prepared, run


def test_patient_checks_catch_corrupted_outputs():
    workload, system, inputs, prepared, run = _executed("patient_stream")
    try:
        for _, result, _ in run.proxy.answers:
            result.correlations_evaluated += 1
        assert any("cloud answer" in p for p in workload.check(system, inputs, prepared, run))
        for _, result, _ in run.proxy.answers:
            result.correlations_evaluated -= 1
        for monitor in run.monitors:
            update = monitor.updates[-1]
            monitor.updates[-1] = dataclasses.replace(
                update, anomaly_probability=update.anomaly_probability + 0.5
            )
        assert any("scalar replay" in p for p in workload.check(system, inputs, prepared, run))
    finally:
        system[0].close()


def test_gateway_checks_catch_corrupted_outputs():
    workload, system, inputs, prepared, run = _executed("gateway_serve")
    try:
        for phase in run.phases:
            for outcome in phase.outcomes:
                outcome.result.correlations_evaluated += 1
        problems = workload.check(system, inputs, prepared, run)
        assert problems and all("scalar oracle" in p for p in problems)
    finally:
        system[0].close()


def test_edge_hub_checks_catch_corrupted_outputs():
    workload, system, inputs, prepared, run = _executed("edge_hub")
    try:
        for log in run.logs.values():
            adopted, step, tracked = log[-1]
            log[-1] = (adopted, step[:3] + (step[3] + 1,) + step[4:], tracked)
        problems = workload.check(system, inputs, prepared, run)
        assert len(problems) == len(run.logs)
    finally:
        system[0].close()


def _cli(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env={**os.environ, **(env or {})},
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_cli_prints_the_result_line_last():
    done = _cli(["--workload", "edge_hub", "--seed", "3", "--seconds", "1", "--trace", "0"], ROOT)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(harness.END_TO_END)
    assert any(line.split()[:1] == ["tick_p50_ms"] and line.endswith(" ms") for line in lines)


def test_cli_refuses_to_run_sanitized():
    args = ["--workload", "edge_hub", "--seed", "1", "--seconds", "1"]
    done = _cli(args, ROOT, {"EMAP_SANITIZE": "1"})
    assert done.returncode == 2
    assert done.stdout == ""


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = _cli(["--workload", "patient_stream", "--seed", "1", "--seconds", "1"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
