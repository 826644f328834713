"""CI benchmark-regression gate: one table of checks over seven benches.

Each row of :data:`GATES` names a bench, its committed baseline under
``benchmarks/baselines/`` and the checks its summary must pass.  Every
gate first compares ``summary["config"]`` with the baseline's (a run
at another MDB scale, seed or database size is not comparable), then
runs its checks.  A check is ``(field, kind, bound, reason)``:

* ``identity`` — the field must be ``True``: the fast path's answers
  are bit-identical to its reference arm.  Never acceptable to lose.
* ``count`` — the field must equal the baseline's exactly (lists
  compare whole).  These counts are seeded and deterministic, so any
  drift is an algorithmic change.
* ``floor`` — the field must be ≥ ``bound``.  Every floored field is a
  speedup of one arm over another on the same host, so it is
  self-normalising and needs no baseline hardware match.
* ``ratio`` — the field must be ≥ baseline × (1 − ``--threshold``):
  Fig. 7(b)'s exhaustive / Algorithm 1 time, the paper's ~6.8×
  headline, gated relative to its own baseline.
* ``ceiling`` — every element must be ≤ baseline × (1 + threshold).
  Absolute seconds only match on the baseline's own hardware, so only
  ``--strict-time`` turns this kind on.

The run prints one report table (gate | field | kind | value | bound |
ok) and, on failure, one line per failed check with its reason.
Regenerate the baselines after an intentional change with::

    python benchmarks/check_regression.py --update

``--skip NAME`` (repeatable) leaves a gate out.  Exit status: 0 =
within budget, 1 = regression, 2 = missing baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
if "repro" not in sys.modules:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import edge_plane_throughput  # noqa: E402
import fleet_throughput  # noqa: E402
import gateway_throughput  # noqa: E402
import plane_throughput  # noqa: E402
import shard_throughput  # noqa: E402
import two_stage_throughput  # noqa: E402

from repro import obs  # noqa: E402
from repro.eval.experiments import fig7_alpha_sweep  # noqa: E402
from repro.eval.experiments.common import build_fixture  # noqa: E402

BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"
DEFAULT_METRICS_OUT = REPO_ROOT / "benchmark_reports" / "fig7b_obs_metrics.json"
DEFAULT_DB_SIZES = (500, 1000, 2000)
GATEWAY_CONCURRENCY = 32
#: 4x on a multi-core runner (CI): dispatch amortisation + the
#: kernel's thread pool.  A single-core host only gets the dispatch
#: amortisation, so the floor relaxes there.
FLEET_SPEEDUP_FLOOR = 4.0 if (os.cpu_count() or 1) >= 2 else 2.5

IDENTITY, COUNT, FLOOR, RATIO, CEILING = "identity", "count", "floor", "ratio", "ceiling"
DETERMINISTIC = "deterministic, so this is an algorithmic change"
DIVERGED = ": matches or correlations_evaluated are no longer bit-identical"
STEPS = ": areas, offsets, removals or evaluation counts are no longer bit-identical"

Check = tuple[str, str, float | None, str]


@dataclass(frozen=True)
class Gate:
    """One bench: how to run it, where its baseline lives, what to check."""

    name: str
    baseline: str
    run: Callable[[argparse.Namespace], dict[str, Any]]
    checks: tuple[Check, ...]


@dataclass(frozen=True)
class Outcome:
    """One evaluated check — a row of the report table."""

    gate: str
    field: str
    kind: str
    value: Any
    bound: str
    ok: bool
    reason: str


def _fig7b(args: argparse.Namespace) -> dict[str, Any]:
    """Instrumented Fig. 7(b) scaling run; exports the obs metrics doc."""
    obs.reset()
    obs.enable()
    fixture = build_fixture(mdb_scale=args.mdb_scale, seed=args.seed)
    result = fig7_alpha_sweep.run_scaling(fixture, db_sizes=tuple(args.db_sizes))
    args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
    args.metrics_out.write_text(json.dumps(obs.export()["metrics"], indent=2) + "\n")
    print(f"obs metrics written to {args.metrics_out}")
    return {
        "config": {
            "mdb_scale": args.mdb_scale,
            "seed": args.seed,
            "db_sizes": list(args.db_sizes),
        },
        "db_sizes": result.db_sizes,
        "exhaustive_correlations": result.exhaustive_correlations,
        "algorithm1_correlations": result.algorithm1_correlations,
        "exhaustive_time_s": result.exhaustive_time_s,
        "algorithm1_time_s": result.algorithm1_time_s,
        "mean_speedup": result.mean_speedup,
        "mean_correlation_reduction": result.mean_correlation_reduction,
    }


def _fixture(args: argparse.Namespace) -> Any:
    return build_fixture(mdb_scale=args.mdb_scale, seed=args.seed)


GATES: tuple[Gate, ...] = (
    Gate(
        "fig7b",
        "fig7b.json",
        _fig7b,
        (
            ("exhaustive_correlations", COUNT, None, f"the search is {DETERMINISTIC}"),
            ("algorithm1_correlations", COUNT, None, f"the search is {DETERMINISTIC}"),
            (
                "mean_speedup",
                RATIO,
                None,
                "search wall-time regressed (exhaustive / Algorithm 1 time "
                "is self-normalising: both engines share the host)",
            ),
            (
                "algorithm1_time_s",
                CEILING,
                None,
                "absolute Algorithm 1 wall-time regressed (same-host baseline)",
            ),
        ),
    ),
    Gate(
        "plane",
        "plane_throughput.json",
        lambda args: plane_throughput.summarize(
            plane_throughput.run_throughput(_fixture(args), n_queries=12),
            mdb_scale=args.mdb_scale,
            seed=args.seed,
        ),
        (
            ("identical", IDENTITY, None, f"plane diverged from the legacy path{DIVERGED}"),
            ("correlations_per_query", COUNT, None, f"the search is {DETERMINISTIC}"),
            ("speedup", FLOOR, 3.0, "serving-path regression"),
        ),
    ),
    Gate(
        "edge-plane",
        "edge_plane_throughput.json",
        lambda args: edge_plane_throughput.summarize(
            edge_plane_throughput.run_tracking_throughput(
                candidates=100, n_frames=12, seed=args.seed
            ),
            seed=args.seed,
        ),
        (
            ("identical", IDENTITY, None, f"plane/fleet diverged from the scalar tracker{STEPS}"),
            ("evaluations_per_frame", COUNT, None, f"the scan is {DETERMINISTIC}"),
            ("speedup", FLOOR, 3.0, "tracking-path regression at 100 candidates"),
            ("fleet_speedup", FLOOR, 2.0, "batched-stepping regression"),
        ),
    ),
    Gate(
        "gateway",
        "gateway_throughput.json",
        lambda args: gateway_throughput.summarize(
            gateway_throughput.run_gateway_throughput(
                _fixture(args),
                n_requests=96,
                concurrency=GATEWAY_CONCURRENCY,
                rounds=3,
            ),
            mdb_scale=args.mdb_scale,
            seed=args.seed,
        ),
        (
            ("identical", IDENTITY, None, f"coalesced walks diverged from solo walks{DIVERGED}"),
            ("correlations_per_request", COUNT, None, f"the search is {DETERMINISTIC}"),
            # Coalescing wins by dispatch amortisation, so the ratio sits
            # near 1x (0.9-1.3x by MDB scale and host load); the floor
            # catches shared batch walks turning outright costly.
            ("speedup", FLOOR, 0.75, "coalescing now costs throughput"),
            (
                "mean_batch_size",
                FLOOR,
                GATEWAY_CONCURRENCY / 4,
                f"requests stopped coalescing at concurrency {GATEWAY_CONCURRENCY}",
            ),
        ),
    ),
    Gate(
        "two-stage",
        "two_stage_throughput.json",
        lambda args: two_stage_throughput.summarize(
            two_stage_throughput.run_two_stage(_fixture(args), n_queries=12),
            mdb_scale=args.mdb_scale,
            seed=args.seed,
        ),
        (
            ("fast_pruned_per_query", COUNT, None, f"the coarse screen is {DETERMINISTIC}"),
            # Fast-mode *quality* is gated by the Fig. 11 bench
            # (test_bench_two_stage_throughput.py), not here.
            ("fast_speedup", FLOOR, 2.0, "screening regression over the single-stage plane"),
        ),
    ),
    Gate(
        "shards",
        "shard_throughput.json",
        lambda args: shard_throughput.summarize(
            shard_throughput.run_shard_throughput(
                _fixture(args), shard_slices=16, n_inserts=4
            ),
            mdb_scale=args.mdb_scale,
            seed=args.seed,
        ),
        (
            ("identical", IDENTITY, None, f"shards diverged from one shard on insert{DIVERGED}"),
            (
                "shards_compiled",
                COUNT,
                None,
                "content addressing is deterministic, so an insert stopped "
                "compiling exactly its delta shard",
            ),
            # The sharded plane's reason to exist: an online-growing MDB
            # adopts one inserted slice without the whole store's recompile.
            ("delta_speedup", FLOOR, 5.0, "incremental compilation regression"),
        ),
    ),
    Gate(
        "fleet",
        "fleet_throughput.json",
        lambda args: fleet_throughput.summarize(
            fleet_throughput.run_fleet_throughput(
                sessions=1000,
                candidates_per_session=10,
                unique_slices=20,
                n_frames=3,
                seed=args.seed,
            ),
            seed=args.seed,
        ),
        (
            ("identical", IDENTITY, None, f"fused steps diverged from the sequential loop{STEPS}"),
            ("evaluations_per_frame", COUNT, None, f"the scan is {DETERMINISTIC}"),
            ("speedup", FLOOR, FLEET_SPEEDUP_FLOOR, "fused-stepping regression at 1000 sessions"),
        ),
    ),
)
GATE_NAMES = tuple(gate.name for gate in GATES)


#: Every gate's first check: a baseline from another MDB scale, seed or
#: database size describes another run, so nothing else is comparable.
CONFIG_CHECK: Check = ("config", COUNT, None, "the baseline describes another run")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    if isinstance(value, dict):
        return " ".join(f"{key}={_fmt(item)}" for key, item in value.items())
    if isinstance(value, list):
        if len(value) > 3:
            return f"[{_fmt(value[0])}, … {len(value)} items]"
        return "[" + ", ".join(_fmt(item) for item in value) + "]"
    return str(value)


def _difference(value: Any, reference: Any) -> str:
    """Where a count check's value first departs from the baseline."""
    if isinstance(value, list) and isinstance(reference, list):
        for at, (item, expected) in enumerate(zip(value, reference)):
            if item != expected:
                return f"[{at}] is {item}, baseline {expected}"
        return f"{len(value)} items, baseline {len(reference)}"
    return f"baseline {_fmt(reference)}"


def evaluate(
    gate: Gate,
    summary: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float,
    strict_time: bool,
) -> list[Outcome]:
    """Every check of ``gate`` on ``summary`` against ``baseline``.

    The config check runs first; when it fails, it is the only outcome.
    """
    out: list[Outcome] = []
    for field, kind, bound, reason in (CONFIG_CHECK, *gate.checks):
        value = summary[field]
        reference = baseline.get(field)
        if kind == IDENTITY:
            ok, shown = bool(value), "True"
        elif kind == COUNT:
            ok, shown = value == reference, "= baseline"
            if not ok:
                reason = f"{_difference(value, reference)}: {reason}"
        elif kind == FLOOR:
            assert bound is not None
            ok, shown = value >= bound, f">= {bound:g}"
        elif kind == RATIO:
            limit = reference * (1 - threshold)
            ok, shown = value >= limit, f">= {limit:.3g}"
        elif kind == CEILING:
            if not strict_time:
                continue
            limits = [item * (1 + threshold) for item in reference]
            ok = all(item <= limit for item, limit in zip(value, limits))
            shown = f"<= {_fmt(limits)}"
        else:
            raise ValueError(f"unknown check kind {kind!r} on {gate.name}.{field}")
        out.append(Outcome(gate.name, field, kind, value, shown, ok, reason))
        if field == "config" and not ok:
            break
    return out


def report(outcomes: list[Outcome]) -> None:
    """Print the one report table, then each failure with its reason."""
    header = ("gate", "field", "kind", "value", "bound", "ok")
    rows = [header] + [
        (o.gate, o.field, o.kind, _fmt(o.value), o.bound, "ok" if o.ok else "FAIL")
        for o in outcomes
    ]
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for o in outcomes:
        if not o.ok:
            print(
                f"  - {o.gate}.{o.field} ({o.kind}) {_fmt(o.value)}, want {o.bound}"
                f" — {o.reason}",
                file=sys.stderr,
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip",
        action="append",
        default=[],
        choices=GATE_NAMES,
        metavar="NAME",
        help=f"leave a gate out (repeatable; one of {', '.join(GATE_NAMES)})",
    )
    parser.add_argument(
        "--update", action="store_true", help="rewrite the baselines and exit 0"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.2,
        help="allowed relative drift for ratio/ceiling checks (0.2 = 20%%)",
    )
    parser.add_argument(
        "--strict-time",
        action="store_true",
        help="also gate absolute Algorithm 1 wall-time (same-host baselines only)",
    )
    parser.add_argument("--mdb-scale", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--db-sizes", type=int, nargs="+", default=list(DEFAULT_DB_SIZES))
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=DEFAULT_METRICS_OUT,
        help="where to write the Fig. 7(b) run's repro.obs metrics document",
    )
    args = parser.parse_args(argv)

    gates = [gate for gate in GATES if gate.name not in args.skip]
    missing = [
        BASELINE_DIR / gate.baseline
        for gate in gates
        if not (BASELINE_DIR / gate.baseline).exists()
    ]
    if missing and not args.update:
        for path in missing:
            print(f"no baseline at {path}; run with --update to create one", file=sys.stderr)
        return 2

    outcomes: list[Outcome] = []
    for gate in gates:
        started = time.perf_counter()
        summary = gate.run(args)
        print(f"ran {gate.name} in {time.perf_counter() - started:.1f} s")
        path = BASELINE_DIR / gate.baseline
        if args.update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(summary, indent=2) + "\n")
            print(f"baseline updated: {path}")
            continue
        baseline = json.loads(path.read_text())
        outcomes += evaluate(gate, summary, baseline, args.threshold, args.strict_time)
    if args.update:
        return 0

    report(outcomes)
    if not all(o.ok for o in outcomes):
        print("benchmark regression gate FAILED", file=sys.stderr)
        return 1
    print(f"benchmark regression gate passed ({len(outcomes)} checks over {len(gates)} gates)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
