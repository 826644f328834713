"""Output checks against the repo's scalar reference oracles.

They run outside the timed region and with tracing removed.  Each
returns a description of the first mismatch, or ``None``/``[]`` when
the production path agrees bit for bit with its oracle.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.cloud.search import SearchConfig, SlidingWindowSearch


def search_key(result: Any) -> tuple[Any, ...]:
    return (
        tuple((m.sig_slice.slice_id, m.offset, m.omega) for m in result.matches),
        result.correlations_evaluated,
        result.candidates_above_threshold,
    )


def compare_search(
    config: SearchConfig, frame: Any, slices: Sequence[Any], result: Any
) -> str | None:
    """``result`` against the scalar ``CorrelationSearch`` over ``slices``."""
    data = getattr(frame, "data", frame)
    reference = SlidingWindowSearch(config).search(np.asarray(data, dtype=np.float64), slices)
    if search_key(reference) != search_key(result):
        return (
            f"{len(result.matches)} matches / {result.correlations_evaluated} "
            f"correlations, scalar oracle gives {len(reference.matches)} / "
            f"{reference.correlations_evaluated} (or different slices/offsets/omega)"
        )
    return None


def step_key(step: Any) -> tuple[Any, ...]:
    return (
        step.iteration,
        step.tracked_before,
        step.removed,
        step.area_evaluations,
        step.anomaly_probability,
    )


def tracked_key(signals: Sequence[Any]) -> tuple[Any, ...]:
    return tuple((s.sig_slice.slice_id, s.offset, s.last_area) for s in signals)
