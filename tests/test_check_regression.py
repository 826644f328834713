"""The regression gate's check table loses no check.

Runs no bench: each gate's summary is built from its committed
baseline, every floored field is set exactly at its floor, and each
check is then broken in turn.  Exactly the broken check must fail.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import check_regression as gate_table  # noqa: E402

THRESHOLD = 0.2
GATES = {gate.name: gate for gate in gate_table.GATES}

#: Every check the gate held before the table existed, at its bound:
#: (gate, field) -> (kind, floor).  The table must carry exactly these
#: plus one config check per gate.
EXPECTED = {
    ("fig7b", "exhaustive_correlations"): ("count", None),
    ("fig7b", "algorithm1_correlations"): ("count", None),
    ("fig7b", "mean_speedup"): ("ratio", None),
    ("fig7b", "algorithm1_time_s"): ("ceiling", None),
    ("plane", "identical"): ("identity", None),
    ("plane", "correlations_per_query"): ("count", None),
    ("plane", "speedup"): ("floor", 3.0),
    ("edge-plane", "identical"): ("identity", None),
    ("edge-plane", "evaluations_per_frame"): ("count", None),
    ("edge-plane", "speedup"): ("floor", 3.0),
    ("edge-plane", "fleet_speedup"): ("floor", 2.0),
    ("gateway", "identical"): ("identity", None),
    ("gateway", "correlations_per_request"): ("count", None),
    ("gateway", "speedup"): ("floor", 0.75),
    ("gateway", "mean_batch_size"): ("floor", 8.0),
    ("two-stage", "fast_pruned_per_query"): ("count", None),
    ("two-stage", "fast_speedup"): ("floor", 2.0),
    ("shards", "identical"): ("identity", None),
    ("shards", "shards_compiled"): ("count", None),
    ("shards", "delta_speedup"): ("floor", 5.0),
    ("fleet", "identical"): ("identity", None),
    ("fleet", "evaluations_per_frame"): ("count", None),
    ("fleet", "speedup"): ("floor", gate_table.FLEET_SPEEDUP_FLOOR),
}


def _baseline(name):
    path = gate_table.BASELINE_DIR / GATES[name].baseline
    return json.loads(path.read_text())


def _at_floor(name):
    """The committed baseline with every floored field exactly at its floor."""
    summary = _baseline(name)
    for field, kind, bound, _ in GATES[name].checks:
        if kind == "floor":
            summary[field] = bound
    return summary


def _failed(name, summary, strict_time=True):
    outcomes = gate_table.evaluate(
        GATES[name], summary, _baseline(name), THRESHOLD, strict_time
    )
    return [(o.field, o.kind) for o in outcomes if not o.ok]


def _break(kind, value, reference, bound):
    """A value just past ``kind``'s bound."""
    if kind == "identity":
        return False
    if kind == "count":
        if isinstance(value, list):
            return [value[0] + 1, *value[1:]]
        return value + 1
    if kind == "floor":
        return bound * (1 - 1e-6)
    if kind == "ratio":
        return reference * (1 - THRESHOLD) * (1 - 1e-6)
    if kind == "ceiling":
        return [item * (1 + THRESHOLD) * (1 + 1e-6) for item in reference]
    raise AssertionError(kind)


def _perturbations():
    cases = []
    for name, gate in GATES.items():
        cases.append((name, "config", "count"))
        cases.extend((name, field, kind) for field, kind, _, _ in gate.checks)
    return cases


def test_table_holds_every_check_at_its_bound():
    table = {
        (name, field): (kind, bound)
        for name, gate in GATES.items()
        for field, kind, bound, _ in gate.checks
    }
    assert table == EXPECTED
    assert gate_table.GATE_NAMES == (
        "fig7b", "plane", "edge-plane", "gateway", "two-stage", "shards", "fleet",
    )


@pytest.mark.parametrize("name", list(GATES))
def test_summary_at_every_floor_passes(name):
    assert _failed(name, _at_floor(name)) == []


@pytest.mark.parametrize(
    "name,field,kind", _perturbations(), ids=lambda part: str(part)
)
def test_breaking_one_check_fails_exactly_that_check(name, field, kind):
    summary = _at_floor(name)
    if field == "config":
        summary["config"] = {**summary["config"], "seed": summary["config"]["seed"] + 1}
    else:
        bound = {f: b for f, _, b, _ in GATES[name].checks}[field]
        summary[field] = _break(kind, summary[field], _baseline(name)[field], bound)
    assert _failed(name, summary) == [(field, kind)]


def test_ceiling_only_under_strict_time():
    summary = _at_floor("fig7b")
    summary["algorithm1_time_s"] = [
        item * 10 for item in summary["algorithm1_time_s"]
    ]
    assert _failed("fig7b", summary, strict_time=False) == []
    assert _failed("fig7b", summary) == [("algorithm1_time_s", "ceiling")]


def test_missing_baseline_exits_2(tmp_path, monkeypatch):
    monkeypatch.setattr(gate_table, "BASELINE_DIR", tmp_path)
    assert gate_table.main(["--skip", "fig7b", "--skip", "plane"]) == 2


def test_skip_rejects_unknown_gate():
    with pytest.raises(SystemExit):
        gate_table.main(["--skip", "no-such-gate"])
