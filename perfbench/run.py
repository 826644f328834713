"""End-to-end EMAP benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload patient_stream --seed 1 --seconds 30 --trace 0

Prints the run environment and every metric by name with its unit,
then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Exits 1 when an output check failed and 2 when it
cannot run at all (no ``src/repro`` next to it, or ``EMAP_SANITIZE``
set).  Everything it writes (kernel cache, temporary files, result and
span files) goes under ``.perfbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _configure_environment() -> None:
    """Keep every file the run writes inside the checkout, and the
    kernel's threads within the CPUs this process may use."""
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["EMAP_KERNEL_CACHE"] = str(OUT_DIR / "kernels")
    os.environ["TMPDIR"] = str(OUT_DIR / "tmp")
    tempfile.tempdir = None
    nproc = len(os.sched_getaffinity(0))
    requested = os.environ.get("EMAP_KERNEL_THREADS", "").strip()
    threads = int(requested) if requested.isdigit() and int(requested) > 0 else nproc
    os.environ["EMAP_KERNEL_THREADS"] = str(min(threads, nproc))


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if os.environ.get("EMAP_SANITIZE"):
        print(
            "refusing to run with EMAP_SANITIZE set: it turns on "
            "GatewayConfig.offload_batches and changes what is measured",
            file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no EMAP sources under {ROOT / 'src'}; nothing to benchmark", file=sys.stderr)
        return 2
    _configure_environment()
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench.harness import END_TO_END, run_workload
    from perfbench.layers import PER_LAYER
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"unknown workload {args.workload!r}; one of {known}", file=sys.stderr)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)

    env = " ".join(f"{k}={v}" for k, v in result.environment.items())
    print(f"environment {env}")
    print(f"workload {result.workload} seed {result.seed} seconds {args.seconds}")
    for name, (value, unit) in result.report.items():
        print(f"  {name} {_format(value)} {unit}")
    if args.trace:
        for name, unit, _ in PER_LAYER:
            print(f"  {name} {_format(result.per_layer[name])} {unit}")
        print(f"spans {result.spans_path}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")

    if args.trace:
        metrics = {
            name: {"value": result.per_layer[name], "unit": unit} for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": result.end_to_end[name], "unit": unit} for name, unit in END_TO_END
        }
    record = {
        "workload": result.workload,
        "seed": result.seed,
        "seconds": args.seconds,
        "environment": result.environment,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in result.report.items()},
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
        "problems": result.problems,
    }
    suffix = "-trace" if args.trace else ""
    results_path = OUT_DIR / f"{result.workload}-seed{result.seed}{suffix}.json"
    results_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
