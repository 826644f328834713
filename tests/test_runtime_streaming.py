"""Unit tests for the streaming (push-based) monitor."""

import numpy as np
import pytest

from repro.cloud.server import CloudServer
from repro.errors import FrameworkError, SignalError
from repro.runtime.framework import EMAPFramework
from repro.runtime.streaming import StreamingConfig, StreamingMonitor
from repro.runtime.timing import DeviceCostModel, TimingModel
from repro.signals.anomalies import AnomalySpec, make_anomalous_signal
from repro.signals.generator import EEGGenerator
from repro.signals.types import AnomalyType


@pytest.fixture
def monitor(mdb_slices):
    return StreamingMonitor(CloudServer(mdb_slices))


class TestPushMechanics:
    def test_partial_chunks_buffer(self, monitor):
        recording = EEGGenerator(seed=0).record(2.0)
        # Push in odd-sized chunks; two frames total.
        updates = []
        for start in range(0, 512, 100):
            updates.extend(monitor.push(recording.data[start : start + 100]))
        assert [update.frame_index for update in updates] == [0, 1]

    def test_one_update_per_frame(self, monitor):
        recording = EEGGenerator(seed=1).record(5.0)
        updates = monitor.push(recording.data)
        assert len(updates) == 5
        assert [u.frame_index for u in updates] == list(range(5))
        assert updates[-1].time_s == pytest.approx(5.0)

    def test_empty_chunk_noop(self, monitor):
        assert monitor.push(np.array([])) == []

    def test_rejects_2d(self, monitor):
        with pytest.raises(SignalError, match="1-D"):
            monitor.push(np.zeros((2, 10)))

    @pytest.mark.parametrize(
        "chunk",
        [np.ones(512) + 1j, np.full(512, "1"), np.full(512, "x")],
        ids=["complex", "numeric-string", "string"],
    )
    def test_rejects_non_real_chunk(self, monitor, chunk):
        """Regression: a float64 cast dropped a complex chunk's imaginary
        part and parsed a numeric string chunk, then streamed the result;
        a non-numeric string chunk escaped as a bare ``ValueError``."""
        with pytest.raises(SignalError, match="real numbers"):
            monitor.push(chunk)
        assert monitor.updates == []
        assert monitor.buffered_samples == 0

    def test_first_frame_issues_cloud_call(self, monitor):
        recording = EEGGenerator(seed=2).record(1.0)
        updates = monitor.push(recording.data)
        assert updates[0].cloud_call_issued
        assert monitor.cloud_calls == 1

    def test_latency_gap_before_tracking(self, mdb_slices):
        monitor = StreamingMonitor(
            CloudServer(mdb_slices), StreamingConfig(cloud_latency_frames=2)
        )
        recording = EEGGenerator(seed=3).record(6.0)
        updates = monitor.push(recording.data)
        # Frames 0-2 have no adopted set yet; tracking starts at frame 3.
        assert updates[0].tracked_count == 0
        assert updates[3].tracked_count > 0

    def test_reset_starts_fresh_session(self, monitor):
        recording = EEGGenerator(seed=4).record(3.0)
        first = monitor.push(recording.data)
        monitor.reset()
        assert monitor.cloud_calls == 0
        second = monitor.push(recording.data)
        assert [u.anomaly_probability for u in first] == [
            u.anomaly_probability for u in second
        ]


class TestChunkBuffering:
    """Regression: buffering is chunk-accumulating, not O(n²) concat."""

    def _trace(self, monitor):
        return [
            (
                u.frame_index,
                u.anomaly_probability,
                u.tracked_count,
                u.anomaly_predicted,
                u.cloud_call_issued,
                u.tracking_active,
            )
            for u in monitor.updates
        ]

    def test_many_small_chunks_emit_identical_updates(self, mdb_slices):
        """Sample-at-a-time delivery must match one-shot delivery."""
        recording = EEGGenerator(seed=31).record(6.0)
        bulk = StreamingMonitor(CloudServer(mdb_slices))
        bulk.push(recording.data)
        trickle = StreamingMonitor(CloudServer(mdb_slices))
        step = 7  # chunk size coprime to the frame size
        for start in range(0, len(recording.data), step):
            trickle.push(recording.data[start : start + step])
        assert self._trace(trickle) == self._trace(bulk)
        assert trickle.buffered_samples == len(recording.data) % 256

    def test_buffered_samples_tracks_partial_frames(self, monitor):
        recording = EEGGenerator(seed=32).record(2.0)
        monitor.push(recording.data[:100])
        assert monitor.buffered_samples == 100
        monitor.push(recording.data[100:300])
        assert monitor.buffered_samples == 300 - 256
        monitor.reset()
        assert monitor.buffered_samples == 0


class TestUpdateRetention:
    """Satellite: optional bound on the retained updates list."""

    def test_unbounded_by_default(self, mdb_slices):
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        recording = EEGGenerator(seed=33).record(6.0)
        monitor.push(recording.data)
        assert len(monitor.updates) == 6

    def test_bounded_retention_keeps_newest(self, mdb_slices):
        monitor = StreamingMonitor(
            CloudServer(mdb_slices), StreamingConfig(max_retained_updates=3)
        )
        recording = EEGGenerator(seed=33).record(6.0)
        emitted = []
        for start in range(0, len(recording.data), 300):
            emitted.extend(monitor.push(recording.data[start : start + 300]))
        # push() still returns every update; only retention is bounded.
        assert [u.frame_index for u in emitted] == list(range(6))
        assert [u.frame_index for u in monitor.updates] == [3, 4, 5]

    def test_rejects_non_positive_bound(self):
        with pytest.raises(FrameworkError, match="max_retained_updates"):
            StreamingConfig(max_retained_updates=0)


class TestStreamingDetection:
    def test_seizure_detected_online(self, mdb_slices):
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=40.0, buildup_s=30.0)
        patient = make_anomalous_signal(EEGGenerator(seed=5), 50.0, spec)
        # Simulate live delivery in 0.25 s chunks.
        flagged = False
        for start in range(0, len(patient.data), 64):
            for update in monitor.push(patient.data[start : start + 64]):
                if update.anomaly_predicted:
                    flagged = True
        assert flagged

    def test_normal_stays_quiet_online(self, mdb_slices):
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        recording = EEGGenerator(seed=6).record(30.0)
        updates = monitor.push(recording.data)
        assert not any(update.anomaly_predicted for update in updates)
        assert max(update.anomaly_probability for update in updates) < 0.4

    def test_chunking_does_not_change_trace(self, mdb_slices):
        """Same samples, different chunk sizes, identical PA trace."""
        recording = EEGGenerator(seed=7).record(12.0)
        traces = []
        for chunk_size in (64, 256, 1000):
            monitor = StreamingMonitor(CloudServer(mdb_slices))
            updates = []
            for start in range(0, len(recording.data), chunk_size):
                updates.extend(
                    monitor.push(recording.data[start : start + chunk_size])
                )
            traces.append([update.anomaly_probability for update in updates])
        assert traces[0] == traces[1] == traces[2]


class TestBatchStreamEquivalence:
    """Regression for the prediction-trace divergence bug: the batch
    framework and the streaming monitor must produce identical PA and
    prediction series on the same recording.

    The streaming monitor used to skip ``predictor.predict()`` (forcing
    ``anomaly_predicted=False``) whenever a tracking step emptied the
    set, while the batch loop predicts on every iteration — the two
    traces diverged exactly when monitoring matters most.

    Alignment recipe: a near-instant cloud (Δinitial < one tick) makes
    the batch loop adopt the first set at frame 1, which matches the
    streaming monitor with ``cloud_latency_frames=0``; after that both
    loops refresh on the same frames.
    """

    def instant_server(self, mdb_slices) -> CloudServer:
        timing = TimingModel(
            costs=DeviceCostModel(cloud_correlations_per_s=1e12)
        )
        return CloudServer(mdb_slices, timing=timing)

    def run_both(self, mdb_slices, recording):
        framework = EMAPFramework(self.instant_server(mdb_slices))
        batch = framework.run(recording)
        monitor = StreamingMonitor(
            self.instant_server(mdb_slices),
            StreamingConfig(cloud_latency_frames=0),
        )
        monitor.push(recording.data)
        stream = [u for u in monitor.updates if u.tracking_active]
        return batch, stream

    def test_seizure_traces_identical(self, mdb_slices, seizure_recording):
        batch, stream = self.run_both(mdb_slices, seizure_recording)
        assert batch.initial_latency_s < 1.0  # recipe sanity check
        assert [u.anomaly_probability for u in stream] == batch.pa_series
        assert [u.tracked_count for u in stream] == batch.tracked_counts
        assert [u.anomaly_predicted for u in stream] == batch.predictions
        assert any(batch.predictions)  # the seizure is actually flagged

    def test_normal_traces_identical(self, mdb_slices, normal_recording):
        batch, stream = self.run_both(mdb_slices, normal_recording)
        assert [u.anomaly_probability for u in stream] == batch.pa_series
        assert [u.anomaly_predicted for u in stream] == batch.predictions

    def test_prediction_runs_even_when_step_empties_the_set(self, mdb_slices):
        """The fixed path: tracked_after == 0 still consults the
        predictor (EMA / trend may flag an anomaly on an emptied set)."""
        monitor = StreamingMonitor(CloudServer(mdb_slices))
        spec = AnomalySpec(kind=AnomalyType.SEIZURE, onset_s=20.0, buildup_s=15.0)
        patient = make_anomalous_signal(EEGGenerator(seed=8), 30.0, spec)
        monitor.push(patient.data)
        emptied = [
            u
            for u in monitor.updates
            if u.tracking_active and u.tracked_count == 0
        ]
        # The scenario must occur for this regression test to bite.
        assert emptied, "no step emptied the set; adjust the scenario"
