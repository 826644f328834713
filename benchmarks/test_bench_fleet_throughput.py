"""Bench: fleet stepping throughput, fused one-call step vs sequential.

The acceptance bar for the fused step: stepping a 1000-session x
10-candidate fleet with one ``evaluate_pairs`` call per frame beats
one call per (session, candidate) pair by
at least 4x on a multi-core runner — with bit-identical tracking steps
for every session at every frame.  On a single-core host the dispatch
amortisation alone must still clear 2.5x (the thread pool contributes
nothing there).  A smaller sweep point sanity-checks that fusing wins
across fleet sizes, not just at the gate's scale.
"""

import os

import fleet_throughput
import pytest

GATE_SESSIONS = 1000
MULTI_CORE = (os.cpu_count() or 1) >= 2


@pytest.mark.parametrize("sessions", [100, GATE_SESSIONS])
def test_bench_fleet_throughput(benchmark, save_report, sessions):
    result = benchmark.pedantic(
        fleet_throughput.run_fleet_throughput,
        kwargs={"sessions": sessions},
        rounds=1,
        iterations=1,
    )
    save_report(f"fleet_throughput_{sessions}", result.report())
    assert result.identical  # fusing must not change any session's result
    assert result.evaluations_per_frame > 0
    assert result.fused_groups <= result.unique_slices
    assert result.fused_pairs == sessions * result.candidates_per_session
    if sessions == GATE_SESSIONS:
        assert result.speedup >= (4.0 if MULTI_CORE else 2.5)
    else:
        # Off the gate point the fused path must still not lose.
        assert result.speedup >= 1.0
