"""Unit tests for signal containers and the anomaly taxonomy."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.signals.types import (
    ANOMALY_TYPES,
    BASE_SAMPLE_RATE_HZ,
    FRAME_SAMPLES,
    AnomalyType,
    Frame,
    Signal,
    SignalSlice,
)


class TestAnomalyType:
    def test_none_is_not_anomalous(self):
        assert not AnomalyType.NONE.is_anomalous

    @pytest.mark.parametrize("kind", ANOMALY_TYPES)
    def test_disorders_are_anomalous(self, kind):
        assert kind.is_anomalous

    def test_from_name_round_trip(self):
        for kind in AnomalyType:
            assert AnomalyType.from_name(kind.value) is kind

    def test_from_name_is_case_insensitive(self):
        assert AnomalyType.from_name("  SEIZURE ") is AnomalyType.SEIZURE

    def test_from_name_rejects_unknown(self):
        with pytest.raises(SignalError, match="unknown anomaly type"):
            AnomalyType.from_name("migraine")

    def test_table_order_matches_paper(self):
        assert [k.value for k in ANOMALY_TYPES] == [
            "seizure",
            "encephalopathy",
            "stroke",
        ]


class TestSignal:
    def test_defaults(self):
        sig = Signal(data=np.zeros(10) + 1.0)
        assert sig.sample_rate_hz == BASE_SAMPLE_RATE_HZ
        assert sig.label is AnomalyType.NONE
        assert len(sig) == 10

    def test_duration(self):
        sig = Signal(data=np.ones(512))
        assert sig.duration_s == pytest.approx(2.0)

    def test_rejects_empty(self):
        with pytest.raises(SignalError, match="empty"):
            Signal(data=np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(SignalError, match="1-D"):
            Signal(data=np.zeros((2, 5)))

    def test_rejects_nan(self):
        with pytest.raises(SignalError, match="NaN or infinite"):
            Signal(data=np.array([1.0, np.nan]))

    @pytest.mark.parametrize(
        "data",
        [np.ones(4) + 1j, np.full(4, "1"), np.full(4, "x")],
        ids=["complex", "numeric-string", "string"],
    )
    def test_rejects_non_real(self, data):
        with pytest.raises(SignalError, match="real numbers"):
            Signal(data=data)

    def test_rejects_bad_rate(self):
        with pytest.raises(SignalError, match="sample rate"):
            Signal(data=np.ones(4), sample_rate_hz=0.0)

    def test_onset_bounds_checked(self):
        with pytest.raises(SignalError, match="onset_sample"):
            Signal(data=np.ones(4), onset_sample=99)

    def test_label_start_must_not_follow_onset(self):
        with pytest.raises(SignalError, match="must not follow"):
            Signal(
                data=np.ones(100),
                label=AnomalyType.SEIZURE,
                onset_sample=10,
                label_start_sample=50,
            )

    def test_effective_label_start_falls_back_to_onset(self):
        sig = Signal(data=np.ones(100), onset_sample=40)
        assert sig.effective_label_start == 40
        sig2 = Signal(data=np.ones(100), onset_sample=40, label_start_sample=20)
        assert sig2.effective_label_start == 20

    def test_anomalous_span_bounds_checked(self):
        with pytest.raises(SignalError, match="anomalous span"):
            Signal(data=np.ones(10), anomalous_spans=((5, 20),))

    def test_onset_time(self):
        sig = Signal(data=np.ones(512), onset_sample=256)
        assert sig.onset_time_s == pytest.approx(1.0)
        assert Signal(data=np.ones(4)).onset_time_s is None

    def test_with_data_rescales_annotations(self):
        sig = Signal(
            data=np.ones(1000),
            sample_rate_hz=500.0,
            onset_sample=500,
            label_start_sample=250,
            anomalous_spans=((500, 1000),),
        )
        resampled = sig.with_data(np.ones(512), sample_rate_hz=256.0)
        assert resampled.onset_sample == 256
        assert resampled.label_start_sample == 128
        assert resampled.anomalous_spans == ((256, 512),)

    def test_frames_drop_partial_tail(self):
        sig = Signal(data=np.arange(600, dtype=float))
        frames = list(sig.frames(FRAME_SAMPLES))
        assert len(frames) == 2
        assert frames[1][0] == 256.0

    def test_segment_bounds(self):
        sig = Signal(data=np.arange(10, dtype=float))
        assert list(sig.segment(2, 4)) == [2.0, 3.0]
        with pytest.raises(SignalError, match="segment"):
            sig.segment(5, 50)


class TestSignalSlice:
    def test_attribute_binary(self):
        normal = SignalSlice(data=np.ones(10), label=AnomalyType.NONE)
        anomalous = SignalSlice(data=np.ones(10), label=AnomalyType.STROKE)
        assert normal.attribute == 0
        assert anomalous.attribute == 1

    def test_window(self):
        sl = SignalSlice(data=np.arange(10, dtype=float), label=AnomalyType.NONE)
        assert list(sl.window(3, 2)) == [3.0, 4.0]
        with pytest.raises(SignalError, match="window"):
            sl.window(8, 5)

    def test_rejects_negative_start(self):
        with pytest.raises(SignalError, match="start sample"):
            SignalSlice(data=np.ones(5), label=AnomalyType.NONE, start_sample=-1)


class TestFrame:
    def test_enforces_sample_count(self):
        Frame(data=np.zeros(FRAME_SAMPLES) + 1)
        with pytest.raises(SignalError, match="exactly"):
            Frame(data=np.ones(100))

    def test_custom_expected_samples(self):
        frame = Frame(data=np.ones(64), expected_samples=64)
        assert len(frame) == 64

    def test_rejects_negative_index(self):
        with pytest.raises(SignalError, match="frame index"):
            Frame(data=np.ones(FRAME_SAMPLES), index=-1)
