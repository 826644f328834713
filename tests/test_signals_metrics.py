"""Unit + property tests for the similarity metrics (Eqs. 2 & 3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import SignalError
from repro.signals.metrics import (
    area_between_curves,
    cross_correlation,
    mean_absolute_deviation,
    normalized_cross_correlation,
    normalized_query,
    sliding_area,
    sliding_area_normalized,
    sliding_normalized_correlation,
)

finite_window = arrays(
    np.float64,
    st.integers(min_value=4, max_value=64),
    elements=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
)


def paired_windows():
    """Two equal-length finite windows."""
    return st.integers(min_value=4, max_value=64).flatmap(
        lambda n: st.tuples(
            arrays(np.float64, n, elements=st.floats(-1e3, 1e3)),
            arrays(np.float64, n, elements=st.floats(-1e3, 1e3)),
        )
    )


class TestCrossCorrelation:
    def test_matches_dot_product(self):
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        assert cross_correlation(a, b) == pytest.approx(32.0)

    def test_rejects_length_mismatch(self):
        with pytest.raises(SignalError, match="equal length"):
            cross_correlation(np.ones(3), np.ones(4))

    def test_rejects_empty(self):
        with pytest.raises(SignalError, match="empty"):
            cross_correlation(np.array([]), np.array([]))


class TestNormalizedCrossCorrelation:
    def test_self_correlation_is_one(self):
        rng = np.random.default_rng(0)
        window = rng.standard_normal(256)
        assert normalized_cross_correlation(window, window) == pytest.approx(1.0)

    def test_negated_is_minus_one(self):
        rng = np.random.default_rng(1)
        window = rng.standard_normal(64)
        assert normalized_cross_correlation(window, -window) == pytest.approx(-1.0)

    def test_scale_invariant(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(50), rng.standard_normal(50)
        base = normalized_cross_correlation(a, b)
        assert normalized_cross_correlation(3.0 * a, b) == pytest.approx(base)
        assert normalized_cross_correlation(a, 0.1 * b + 5.0) == pytest.approx(base)

    def test_flat_window_yields_zero(self):
        assert normalized_cross_correlation(np.ones(8), np.arange(8.0)) == 0.0

    @given(paired_windows())
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, pair):
        a, b = pair
        value = normalized_cross_correlation(a, b)
        assert -1.0 <= value <= 1.0

    @given(paired_windows())
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, pair):
        a, b = pair
        assert normalized_cross_correlation(a, b) == pytest.approx(
            normalized_cross_correlation(b, a), abs=1e-9
        )


class TestAreaBetweenCurves:
    def test_identical_is_zero(self):
        window = np.arange(16.0)
        assert area_between_curves(window, window) == 0.0

    def test_known_value(self):
        assert area_between_curves(np.zeros(4), np.array([1.0, -2.0, 3.0, 0.0])) == 6.0

    @given(paired_windows())
    @settings(max_examples=60, deadline=None)
    def test_non_negative_and_symmetric(self, pair):
        a, b = pair
        area = area_between_curves(a, b)
        assert area >= 0.0
        assert area == pytest.approx(area_between_curves(b, a))

    @given(paired_windows())
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality_against_zero(self, pair):
        a, b = pair
        zero = np.zeros_like(a)
        assert area_between_curves(a, b) <= (
            area_between_curves(a, zero) + area_between_curves(zero, b) + 1e-6
        )

    def test_mean_absolute_deviation_scales(self):
        a, b = np.zeros(4), np.full(4, 2.0)
        assert mean_absolute_deviation(a, b) == pytest.approx(2.0)
        assert area_between_curves(a, b) == pytest.approx(8.0)


class TestSlidingCorrelation:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        window = rng.standard_normal(32)
        series = rng.standard_normal(100)
        values = sliding_normalized_correlation(window, series)
        assert values.shape == (69,)
        for offset in (0, 17, 68):
            expected = normalized_cross_correlation(
                window, series[offset : offset + 32]
            )
            assert values[offset] == pytest.approx(expected, abs=1e-9)

    def test_finds_embedded_copy(self):
        rng = np.random.default_rng(4)
        window = rng.standard_normal(32)
        series = rng.standard_normal(200) * 0.1
        series[60:92] = window * 2.5 + 1.0
        values = sliding_normalized_correlation(window, series)
        assert int(np.argmax(values)) == 60
        assert values[60] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_short_series(self):
        with pytest.raises(SignalError, match="shorter"):
            sliding_normalized_correlation(np.ones(10), np.ones(5))


class TestSlidingArea:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(5)
        window = rng.standard_normal(16)
        series = rng.standard_normal(64)
        values = sliding_area(window, series)
        for offset in (0, 10, 48):
            assert values[offset] == pytest.approx(
                area_between_curves(window, series[offset : offset + 16])
            )

    def test_stride_subsamples_offsets(self):
        rng = np.random.default_rng(6)
        window = rng.standard_normal(16)
        series = rng.standard_normal(64)
        full = sliding_area(window, series)
        strided = sliding_area(window, series, stride=4)
        assert np.allclose(strided, full[::4])

    def test_rejects_bad_stride(self):
        with pytest.raises(SignalError, match="stride"):
            sliding_area(np.ones(4), np.ones(8), stride=0)


class TestSlidingAreaNormalized:
    def test_zero_for_scaled_shifted_copy(self):
        rng = np.random.default_rng(7)
        window = rng.standard_normal(32)
        series = np.concatenate(
            [rng.standard_normal(20), 5.0 * window + 3.0, rng.standard_normal(20)]
        )
        areas = sliding_area_normalized(window, series, reference_rms=7.0)
        assert int(np.argmin(areas)) == 20
        assert areas[20] == pytest.approx(0.0, abs=1e-6)

    def test_flat_slice_window_gets_worst_case(self):
        window = np.sin(np.linspace(0, 6.0, 32))
        series = np.zeros(64)
        areas = sliding_area_normalized(window, series, reference_rms=7.0)
        centered = window - window.mean()
        scaled = centered * (7.0 / np.sqrt(np.mean(centered**2)))
        assert np.allclose(areas, np.abs(scaled).sum())

    def test_amplitude_invariance(self):
        rng = np.random.default_rng(8)
        window = rng.standard_normal(32)
        series = rng.standard_normal(128)
        base = sliding_area_normalized(window, series, reference_rms=7.0)
        loud = sliding_area_normalized(10 * window, 0.2 * series, reference_rms=7.0)
        assert np.allclose(base, loud, atol=1e-8)

    def test_rejects_bad_reference(self):
        with pytest.raises(SignalError, match="reference RMS"):
            sliding_area_normalized(np.ones(4), np.ones(8), reference_rms=0.0)


class TestNormalizedQueryRows:
    """A 2-D stack normalises each row exactly as a 1-D call would."""

    @given(
        m=st.integers(min_value=1, max_value=300),
        rows=st.integers(min_value=1, max_value=6),
        magnitude=st.sampled_from([1e-3, 1.0, 7.0, 1e3, 1e6]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_bitwise_equal_one_dimensional_calls(self, m, rows, magnitude, seed):
        rng = np.random.default_rng(seed)
        frames = rng.standard_normal((rows, m)) * magnitude + rng.choice([0.0, 1e3])
        frames[0] = 2.5  # a zero-variance row is only centred
        stacked = normalized_query(frames, 7.0)
        for index in range(rows):
            np.testing.assert_array_equal(
                stacked[index], normalized_query(frames[index], 7.0)
            )

    def test_rejects_bad_shapes(self):
        with pytest.raises(SignalError, match="1-D or 2-D"):
            normalized_query(np.zeros((2, 2, 2)), 7.0)
        with pytest.raises(SignalError, match="empty"):
            normalized_query(np.zeros((3, 0)), 7.0)
