"""Edge stages: signal acquisition (§V-A) and real-time tracking (§V-C).

* :mod:`repro.edge.acquisition` — sampling, streaming bandpass
  filtering and framing of the patient's EEG.
* :mod:`repro.edge.tracker` — Algorithm 2: area-between-curves signal
  tracking over the downloaded correlation set (scalar reference
  engine plus the engine seam).
* :mod:`repro.edge.plane` — the compiled tracking path: each adopted
  slice compiled once to per-offset statistics in a ``slice_id``-keyed
  cache, each step a single kernel call (bit-identical to the scalar
  engine); the default ``engine="plane"``.
* :mod:`repro.edge.fleet` — many concurrent sessions stepped in the
  same single call, compiled slices shared across sessions by slice
  id.
* :mod:`repro.edge.predictor` — anomaly-probability trend analysis and
  the anomaly / normal decision.
* :mod:`repro.edge.device` — the edge device facade combining all three
  with the cloud-call policy.
"""

from repro.edge.acquisition import SignalAcquisition
from repro.edge.device import CloudCallPolicy, EdgeDevice
from repro.edge.energy import EdgeEnergyModel, EnergySpec, SessionEnergy
from repro.edge.fleet import FleetTracker
from repro.edge.plane import CompiledTrackingEngine
from repro.edge.predictor import AnomalyPredictor, PredictorConfig, ProbabilityTrace
from repro.edge.tracker import (
    ScalarTrackingEngine,
    SignalTracker,
    TrackedSignal,
    TrackerConfig,
    TrackingEngine,
    TrackingStep,
)

__all__ = [
    "AnomalyPredictor",
    "CloudCallPolicy",
    "CompiledTrackingEngine",
    "EdgeDevice",
    "EdgeEnergyModel",
    "EnergySpec",
    "FleetTracker",
    "PredictorConfig",
    "ProbabilityTrace",
    "ScalarTrackingEngine",
    "SessionEnergy",
    "SignalAcquisition",
    "SignalTracker",
    "TrackedSignal",
    "TrackerConfig",
    "TrackingEngine",
    "TrackingStep",
]
