"""Typed containers and constants for EEG signals.

The paper fixes three magic numbers that recur through the whole
framework; they are defined once here:

* 256 Hz base sampling rate (Section V-A),
* 256-sample input frames (one second of signal, Eq. 2),
* 1000-sample signal-sets stored in the mega-database (Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterator

import numpy as np

from repro.errors import EMAPError, SignalError

#: Base sampling rate every MDB signal is resampled to (Section V-A).
BASE_SAMPLE_RATE_HZ = 256.0

#: Samples per one-second input frame transmitted to the cloud (Eq. 2).
FRAME_SAMPLES = 256

#: Samples per signal-set stored in the mega-database (Section V-B).
SLICE_SAMPLES = 1000


class AnomalyType(Enum):
    """Taxonomy of neurological anomalies evaluated in the paper.

    ``NONE`` marks normal background EEG.  The three anomalies match the
    paper's evaluation: seizures (anomaly 1), encephalopathy (anomaly 2)
    and stroke (anomaly 3).
    """

    NONE = "none"
    SEIZURE = "seizure"
    ENCEPHALOPATHY = "encephalopathy"
    STROKE = "stroke"

    @property
    def is_anomalous(self) -> bool:
        """Whether this label counts as anomalous (``A(S) = 1``)."""
        return self is not AnomalyType.NONE

    @classmethod
    def from_name(cls, name: str) -> "AnomalyType":
        """Parse an anomaly type from its string name (case-insensitive)."""
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(member.value for member in cls)
            raise SignalError(
                f"unknown anomaly type {name!r}; expected one of: {valid}"
            ) from None


#: The three anomalies evaluated in Table I, in paper order.
ANOMALY_TYPES = (
    AnomalyType.SEIZURE,
    AnomalyType.ENCEPHALOPATHY,
    AnomalyType.STROKE,
)


def real_samples(
    data: object, error: type[EMAPError], what: str
) -> np.ndarray:
    """``data`` as a float64 array, or ``error`` if it is not real-valued.

    A plain float64 cast would silently drop a complex input's imaginary
    part and parse a string array as numbers, so any dtype other than
    bool, integer or float is rejected before casting.
    """
    array = np.asarray(data)
    if array.dtype.kind not in "biuf":
        raise error(f"{what} must hold real numbers, got dtype {array.dtype}")
    return array.astype(np.float64, copy=False)


def _as_signal_array(data: np.ndarray | list[float]) -> np.ndarray:
    """Coerce raw input into a validated 1-D float64 sample array."""
    array = real_samples(data, SignalError, "signal data")
    if array.ndim != 1:
        raise SignalError(f"signal data must be 1-D, got shape {array.shape}")
    if array.size == 0:
        raise SignalError("signal data must not be empty")
    if not np.all(np.isfinite(array)):
        raise SignalError("signal data contains NaN or infinite samples")
    return array


@dataclass(frozen=True)
class Signal:
    """A single-channel EEG recording in microvolts.

    Parameters
    ----------
    data:
        1-D array of samples in µV.
    sample_rate_hz:
        Sampling rate of ``data``.
    label:
        Anomaly label of the whole recording.
    channel:
        EEG channel name in 10-20 nomenclature (e.g. ``"Fp1"``).
    source:
        Free-form provenance string (dataset and record id).
    onset_sample:
        For anomalous recordings, the sample index of the *clinical*
        onset; ``None`` when unknown or not applicable.  Used by the
        prediction-horizon experiments (Fig. 10).
    label_start_sample:
        Where the anomaly *annotation* begins — the "preset" of the
        anomaly progression in the paper's well-annotated seizure data.
        Precedes the clinical onset for seizures (the preictal build-up
        is annotated anomalous); defaults to the onset when ``None``.
    anomalous_spans:
        Sample intervals ``(start, stop)`` that actually contain
        anomalous morphology (preictal discharge bursts + the ictal
        span).  When present, slicing labels slices by overlap with
        these spans rather than by the coarse label start.
    """

    data: np.ndarray
    sample_rate_hz: float = BASE_SAMPLE_RATE_HZ
    label: AnomalyType = AnomalyType.NONE
    channel: str = "Fp1"
    source: str = "synthetic"
    onset_sample: int | None = None
    label_start_sample: int | None = None
    anomalous_spans: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _as_signal_array(self.data))
        if self.sample_rate_hz <= 0:
            raise SignalError(
                f"sample rate must be positive, got {self.sample_rate_hz}"
            )
        for name in ("onset_sample", "label_start_sample"):
            value = getattr(self, name)
            if value is not None and not (0 <= value <= len(self.data)):
                raise SignalError(
                    f"{name} {value} outside signal of length {len(self.data)}"
                )
        if (
            self.onset_sample is not None
            and self.label_start_sample is not None
            and self.label_start_sample > self.onset_sample
        ):
            raise SignalError(
                f"label start {self.label_start_sample} must not follow "
                f"the clinical onset {self.onset_sample}"
            )
        if self.anomalous_spans is not None:
            for start, stop in self.anomalous_spans:
                if not (0 <= start < stop <= len(self.data)):
                    raise SignalError(
                        f"anomalous span ({start}, {stop}) outside signal "
                        f"of length {len(self.data)}"
                    )

    def __len__(self) -> int:
        return len(self.data)

    @property
    def duration_s(self) -> float:
        """Recording duration in seconds."""
        return len(self.data) / self.sample_rate_hz

    @property
    def onset_time_s(self) -> float | None:
        """Anomaly onset in seconds from recording start, if annotated."""
        if self.onset_sample is None:
            return None
        return self.onset_sample / self.sample_rate_hz

    @property
    def effective_label_start(self) -> int | None:
        """Where anomalous labelling begins (label start, else onset)."""
        if self.label_start_sample is not None:
            return self.label_start_sample
        return self.onset_sample

    def with_data(self, data: np.ndarray, sample_rate_hz: float | None = None) -> "Signal":
        """Return a copy with new samples (and optionally a new rate).

        Onset annotations are rescaled when the rate changes so they
        stay at the same instant in time.
        """
        new_rate = self.sample_rate_hz if sample_rate_hz is None else sample_rate_hz

        def _rescale(sample: int | None) -> int | None:
            if sample is None or new_rate == self.sample_rate_hz:
                return sample
            return min(int(round(sample * new_rate / self.sample_rate_hz)), len(data))

        spans = self.anomalous_spans
        if spans is not None and new_rate != self.sample_rate_hz:
            rescaled = []
            for start, stop in spans:
                new_start = _rescale(start)
                new_stop = _rescale(stop)
                if new_stop > new_start:
                    rescaled.append((new_start, new_stop))
            spans = tuple(rescaled)
        return replace(
            self,
            data=data,
            sample_rate_hz=new_rate,
            onset_sample=_rescale(self.onset_sample),
            label_start_sample=_rescale(self.label_start_sample),
            anomalous_spans=spans,
        )

    def frames(self, frame_samples: int = FRAME_SAMPLES) -> Iterator[np.ndarray]:
        """Iterate complete, non-overlapping frames of the recording.

        A trailing partial frame is dropped, matching the acquisition
        stage which only ever uploads complete one-second frames.
        """
        if frame_samples <= 0:
            raise SignalError(f"frame size must be positive, got {frame_samples}")
        for start in range(0, len(self.data) - frame_samples + 1, frame_samples):
            yield self.data[start : start + frame_samples]

    def segment(self, start: int, stop: int) -> np.ndarray:
        """Return samples ``[start, stop)`` with bounds checking."""
        if not (0 <= start < stop <= len(self.data)):
            raise SignalError(
                f"segment [{start}, {stop}) outside signal of length "
                f"{len(self.data)}"
            )
        return self.data[start:stop]


@dataclass(frozen=True)
class SignalSlice:
    """A 1000-sample signal-set ``S`` as stored in the mega-database.

    Slices carry the anomaly attribute ``A(S)`` (paper Section V-B) plus
    provenance so search results can be traced back to their source
    recording.
    """

    data: np.ndarray
    label: AnomalyType
    source: str = "synthetic"
    start_sample: int = 0
    slice_id: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _as_signal_array(self.data))
        if self.start_sample < 0:
            raise SignalError(
                f"start sample must be non-negative, got {self.start_sample}"
            )

    def __len__(self) -> int:
        return len(self.data)

    @property
    def attribute(self) -> int:
        """The paper's binary label ``A(S)``: 0 normal, 1 anomalous."""
        return int(self.label.is_anomalous)

    def window(self, offset: int, length: int) -> np.ndarray:
        """Return the window ``data[offset : offset + length]``."""
        if offset < 0 or offset + length > len(self.data):
            raise SignalError(
                f"window [{offset}, {offset + length}) outside slice of "
                f"length {len(self.data)}"
            )
        return self.data[offset : offset + length]


@dataclass(frozen=True)
class Frame:
    """One second of acquired input signal ``I_N`` (256 samples).

    ``index`` is the time-step ``N``; ``filtered`` marks whether the
    bandpass filter has already been applied (``B_N`` vs ``I_N``).
    """

    data: np.ndarray
    index: int = 0
    filtered: bool = False
    expected_samples: int = field(default=FRAME_SAMPLES, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _as_signal_array(self.data))
        if len(self.data) != self.expected_samples:
            raise SignalError(
                f"frame must contain exactly {self.expected_samples} samples, "
                f"got {len(self.data)}"
            )
        if self.index < 0:
            raise SignalError(f"frame index must be non-negative, got {self.index}")

    def __len__(self) -> int:
        return len(self.data)
