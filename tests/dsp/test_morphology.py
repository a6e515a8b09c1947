"""Tests for morphological operators and the 3L-MF conditioning filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.dsp.morphology import (
    MfParams,
    MorphologicalFilter,
    closing,
    dilate,
    erode,
    opening,
)
from repro.signals import EcgConfig, NoiseProfile, synthesize_ecg

_SIGNALS = hnp.arrays(np.int16, st.integers(min_value=8, max_value=80),
                      elements=st.integers(-1000, 1000))
_SIZES = st.integers(min_value=0, max_value=4).map(lambda k: 2 * k + 1)


@given(_SIGNALS, _SIZES)
def test_erosion_below_dilation(signal, size):
    assert np.all(erode(signal, size) <= dilate(signal, size))


@given(_SIGNALS, _SIZES)
def test_erosion_dilation_bound_signal(signal, size):
    assert np.all(erode(signal, size) <= signal)
    assert np.all(dilate(signal, size) >= signal)


@given(_SIGNALS, _SIZES)
def test_opening_antiextensive_closing_extensive(signal, size):
    assert np.all(opening(signal, size) <= signal)
    assert np.all(closing(signal, size) >= signal)


@given(_SIGNALS, _SIZES)
@settings(max_examples=40)
def test_opening_closing_idempotent(signal, size):
    """Opening and closing are idempotent (textbook property)."""
    opened = opening(signal, size)
    assert np.array_equal(opening(opened, size), opened)
    closed = closing(signal, size)
    assert np.array_equal(closing(closed, size), closed)


@given(_SIGNALS)
def test_size_one_is_identity(signal):
    assert np.array_equal(erode(signal, 1), signal)
    assert np.array_equal(dilate(signal, 1), signal)


@given(_SIGNALS, _SIZES)
def test_duality_under_negation(signal, size):
    """Erosion of -x equals -dilation of x (with symmetric padding)."""
    negated = (-signal.astype(np.int32))
    assert np.array_equal(erode(negated, size), -dilate(signal, size))


def test_erode_constant_signal():
    flat = np.full(20, 7, dtype=np.int16)
    assert np.array_equal(erode(flat, 5), flat)
    assert np.array_equal(dilate(flat, 5), flat)


def test_invalid_size_rejected():
    with pytest.raises(ValueError):
        erode(np.zeros(4, dtype=np.int16), 0)
    with pytest.raises(ValueError, match="odd"):
        erode(np.zeros(4, dtype=np.int16), 4)


# ---------------------------------------------------------------------------
# Conditioning filter on ECG
# ---------------------------------------------------------------------------

def _clean_and_noisy(duration=20.0, seed=5):
    clean_cfg = EcgConfig(duration_s=duration, num_leads=1, seed=seed,
                          noise=NoiseProfile(baseline_wander=0.0,
                                             powerline=0.0, muscle=0.0))
    noisy_cfg = EcgConfig(duration_s=duration, num_leads=1, seed=seed)
    return (synthesize_ecg(clean_cfg).leads[0],
            synthesize_ecg(noisy_cfg).leads[0])


def test_filter_removes_baseline_wander():
    clean, noisy = _clean_and_noisy()
    mf = MorphologicalFilter(fs=250.0)
    filtered = mf.process(noisy)
    # Block means measure residual drift.
    def drift(x):
        return x[:4500].reshape(9, -1).mean(axis=1).std()
    assert drift(filtered.astype(float)) < 0.25 * drift(
        noisy.astype(float))


def test_filter_preserves_qrs_amplitude():
    clean, noisy = _clean_and_noisy()
    mf = MorphologicalFilter(fs=250.0)
    filtered = mf.process(noisy)
    # R peaks survive within 30 % of the clean amplitude.
    clean_peak = np.abs(clean.astype(int)).max()
    filtered_peak = np.abs(filtered).max()
    assert filtered_peak > 0.7 * clean_peak
    assert filtered_peak < 1.3 * clean_peak


def test_filter_output_is_integer_typed():
    _, noisy = _clean_and_noisy(duration=4.0)
    filtered = MorphologicalFilter(fs=250.0).process(noisy)
    assert np.issubdtype(filtered.dtype, np.integer)
    assert len(filtered) == len(noisy)


def test_structuring_elements_scale_with_fs():
    mf250 = MorphologicalFilter(fs=250.0)
    mf500 = MorphologicalFilter(fs=500.0)
    assert abs(mf500.open_size - 2 * mf250.open_size) <= 2
    assert abs(mf500.close_size - 2 * mf250.close_size) <= 2
    assert mf500.open_size % 2 == 1
    assert mf500.close_size % 2 == 1


def test_ops_per_sample_model():
    mf = MorphologicalFilter(fs=250.0)
    ops = mf.ops_per_sample()
    # Dominated by the 51- and 75-wide baseline passes (odd-rounded).
    expected = (2 * (2 * mf.open_size - 1) + 2 * (2 * mf.close_size - 1)
                + 4 * (2 * mf.noise_size - 1) + 4)
    assert ops == expected
    assert ops > 500


def test_bad_noise_element_rejected():
    with pytest.raises(ValueError):
        MorphologicalFilter(fs=250.0, params=MfParams(noise_element=0))
