"""Small order-statistics helpers (numpy's linear interpolation)."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.mean(np.asarray(values, dtype=np.float64)))
