"""The benchmark's correctness checks accept the program's answers and reject wrong ones.

Run from the root of the repository: python -m pytest perfbench
"""
import math
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
from gccdoa import GccParams, build_estimator, cross_spectrum, stft_frames  # noqa: E402


def _delayed_pair(delay: int, samples: int = 6000):
    """White noise on two channels, the second delayed by ``delay`` samples."""
    x = np.random.default_rng(3).standard_normal(samples + 8)
    return x[8:], x[8 - delay:len(x) - delay]


def _mm_estimates(ch1, ch2):
    params = GccParams()
    est = build_estimator("mm", params)
    frames = cross_spectrum(stft_frames(ch1, params.n, params.hop), stft_frames(ch2, params.n, params.hop))
    out = [est.estimate(f) for f in frames]
    starts = np.arange(0, ch1.size - ref.N + 1, ref.HOP)
    return (np.array([e.q_max for e in out]), np.array([e.energy for e in out]),
            ref.frame_curves(ch1, ch2, starts))


def test_reference_accepts_the_exact_backend():
    q, energy, curves = _mm_estimates(*_delayed_pair(2))
    assert len(q) == len(curves) > 10
    assert ref.exact_mismatches(q, energy, curves).size == 0


def test_curve_shifted_by_one_grid_step_is_rejected():
    q, energy, curves = _mm_estimates(*_delayed_pair(2))
    for shift in (-1, 1):
        shifted = np.clip(q + shift, 0, ref.Q - 1)
        moved = shifted != q
        bad = ref.exact_mismatches(shifted, curves[np.arange(len(q)), shifted], curves)
        assert moved.any() and set(bad) == set(np.flatnonzero(moved))


def test_energy_off_the_curve_is_rejected():
    q, energy, curves = _mm_estimates(*_delayed_pair(-1))
    assert ref.exact_mismatches(q, energy + 1e-6, curves).size == len(q)


def test_ties_within_rounding_pass():
    curves = np.zeros((1, ref.Q))
    curves[0, [40, 41]] = 1.0, 1.0 - ref.TIE_TOL / 2
    assert ref.exact_mismatches(np.array([41]), curves[0, [41]], curves).size == 0
    assert ref.exact_mismatches(np.array([42]), curves[0, [42]], curves).size == 1


def test_scene_check_rejects_an_angle_beyond_tolerance():
    theta = np.full(10, 20.0)
    energy = np.linspace(0.5, 1.0, 10)
    scenes = [("s", np.arange(10), 20.0 - 1.9, 2.0)]
    assert ref.scene_errors(theta, energy, scenes) == []
    assert len(ref.scene_errors(theta + 0.5, energy, scenes)) == 1
    # a fully silent scene has no weighted DOA at all
    with np.errstate(invalid="ignore"):
        assert len(ref.scene_errors(theta, np.zeros(10), scenes)) == 1


def test_silent_frames_are_those_with_a_zero_channel():
    ch1, ch2 = _delayed_pair(1, samples=2000)
    ch1[:800] = 0.0
    starts = np.arange(0, 2000 - ref.N + 1, ref.HOP)
    assert list(ref.silent(ch1, ch2, starts)) == [s + ref.N <= 800 for s in starts]


def test_sweep_check_rejects_non_finite_and_inaccurate_rmse():
    good = {("mm", 0.0, 40.0): 0.6, ("fft01", 0.6, 10.0): 9.0}
    assert ref.sweep_errors(good) == []
    assert len(ref.sweep_errors({**good, ("fft01", 0.6, 10.0): math.nan})) == 1
    assert len(ref.sweep_errors({**good, ("mm", 0.0, 40.0): ref.FREE_FIELD_TOL_DEG + 0.1})) == 1


def test_geometric_angle_sign():
    # the source on the far side of mic_b is endfire +90 deg
    assert ref.geometric_doa_deg((0, 0, 0), (0.05, 0, 0), (2, 0, 0)) == 90.0
    assert abs(ref.geometric_doa_deg((0, 0, 0), (0.05, 0, 0), (0.025, 1, 0))) < 1e-12
