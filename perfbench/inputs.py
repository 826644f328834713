"""Seeded input generation shared by the workloads.

Everything here is a pure function of the seed: recordings come from
the repo's own signal generator and anomaly injector, so the program
under test receives only generated inputs.  None of it counts toward
``setup_s``.
"""

from __future__ import annotations

import numpy as np

from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType, Signal

#: The four recording kinds of the paper's evaluation, in the order a
#: stratified mix cycles through them.
KINDS = (
    AnomalyType.NONE,
    AnomalyType.SEIZURE,
    AnomalyType.ENCEPHALOPATHY,
    AnomalyType.STROKE,
)


def recording(kind: AnomalyType, duration_s: float, rng: np.random.Generator) -> Signal:
    """One seeded recording of ``kind``.

    Seizures get an onset in the second half with a build-up that
    starts inside the recording; encephalopathy and stroke are
    anomalous throughout, as the paper labels them.
    """
    generator = EEGGenerator(seed=int(rng.integers(2**31)))
    if kind is AnomalyType.NONE:
        return generator.record(duration_s)
    if kind is AnomalyType.SEIZURE:
        onset = float(rng.uniform(0.55, 0.8)) * duration_s
        spec = AnomalySpec(kind=kind, onset_s=onset, buildup_s=0.5 * onset)
    else:
        spec = AnomalySpec(kind=kind)
    return make_anomalous_signal(generator, duration_s, spec)


def stratified_kinds(count: int, rng: np.random.Generator) -> list[AnomalyType]:
    """``count`` kinds, equally many of each (up to one), in seeded order.

    Stratifying keeps the share of each kind fixed across seeds, so a
    seed changes which recordings a run sees but not the mix.
    """
    kinds = [KINDS[i % len(KINDS)] for i in range(count)]
    order = rng.permutation(count)
    return [kinds[i] for i in order]
