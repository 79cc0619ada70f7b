"""Independent reference for the benchmark's correctness checks.

Plain numpy that shares no code with the ``gccdoa`` package: its own
periodic Hann STFT, its own PHAT normalisation, and the correlation curve
as the direct sum over the grid

    c[q] = Re sum_k g_k X12_k exp(j 2 pi k tau_q / N)
    theta_q = (q / (Q - 1) - 1/2) pi,   tau_q = (fs / c) d sin(theta_q)

with g_0 = g_{N/2} = 1/sqrt(N) and sqrt(2/N) between. The scenes' geometric
angles serve as ground truth.
"""
from __future__ import annotations

import math

import numpy as np

# the package defaults the benchmark runs with
Q, N, HOP, DIST, SPEED, RATE = 181, 512, 160, 0.05, 343.0, 16000

# two curve values closer than this are a tie "within rounding": the package and
# the reference sum the same terms in another order (differences are ~1e-15)
TIE_TOL = 1e-9
# a silent bin pair carries no phase; same rule as the PHAT definition
MAG_FLOOR = 1e-20
# energy-weighted DOA of one scene against its geometric angle, every back-end,
# by the scene's beta. Over 100 scenes of each kind the workloads draw
# (|theta| <= 60 deg, source within 2 m of the pair, 20 m x 20 m room, 1.2 s,
# 30 dB SNR) the largest error was 0.76 deg anechoic and 2.5 deg at beta=0.6.
SCENE_TOL_DEG = {0.0: 2.0, 0.6: 5.0}
# RMSE of the exact back-end in the anechoic 40 dB cell; 200 random
# configurations at two sweep seeds gave 0.62 and 0.64 deg
FREE_FIELD_TOL_DEG = 2.0


def grid_deg() -> np.ndarray:
    return (np.arange(Q) / (Q - 1) - 0.5) * 180.0


def spectra(signal: np.ndarray, starts) -> np.ndarray:
    """One-sided Hann spectra of the N-sample frames that begin at ``starts``."""
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N) / N)
    frames = np.stack([signal[s:s + N] for s in starts])
    return np.fft.rfft(frames * win, axis=1)


def phat(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    prod = x1 * np.conj(x2)
    mag = np.abs(x1) * np.abs(x2)
    keep = mag >= MAG_FLOOR
    out = np.zeros_like(prod)
    out[keep] = prod[keep] / mag[keep]
    return out


def curves(x12: np.ndarray) -> np.ndarray:
    """Correlation curves, one row of Q values per cross-spectrum row."""
    k = np.arange(N // 2 + 1)
    g = np.full(k.size, math.sqrt(2.0 / N))
    g[0] = g[-1] = 1.0 / math.sqrt(N)
    tau = RATE * DIST / SPEED * np.sin(np.radians(grid_deg()))
    steer = g * np.exp(2j * np.pi * np.outer(tau, k) / N)
    return (x12 @ steer.T).real


def frame_curves(ch1: np.ndarray, ch2: np.ndarray, starts) -> np.ndarray:
    return curves(phat(spectra(ch1, starts), spectra(ch2, starts)))


def silent(ch1: np.ndarray, ch2: np.ndarray, starts) -> np.ndarray:
    """Frames in which either channel is all zeros: no direction can be estimated."""
    return np.array([not ch1[s:s + N].any() or not ch2[s:s + N].any() for s in starts], dtype=bool)


def geometric_doa_deg(mic_a, mic_b, source) -> float:
    """arcsin of (unit pair axis) . (unit midpoint-to-source), in degrees."""
    mic_a, mic_b, source = (np.asarray(p, dtype=np.float64) for p in (mic_a, mic_b, source))
    axis = (mic_b - mic_a) / np.linalg.norm(mic_b - mic_a)
    look = source - 0.5 * (mic_a + mic_b)
    return math.degrees(math.asin(float(np.clip(axis @ look / np.linalg.norm(look), -1.0, 1.0))))


def q_of_deg(theta_deg) -> np.ndarray:
    """Grid index of angles that lie on the grid."""
    return np.rint((np.asarray(theta_deg, dtype=np.float64) / 180.0 + 0.5) * (Q - 1)).astype(np.int64)


def exact_mismatches(q: np.ndarray, energy: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Frames whose (q, energy) is not the reference peak.

    A frame passes when the curve value at q ties the reference maximum
    within TIE_TOL (so q is the argmax, or ties it within rounding) and the
    reported energy is that value.
    """
    at_q = ref[np.arange(len(q)), q]
    ok = (at_q >= ref.max(axis=1) - TIE_TOL) & (np.abs(energy - at_q) <= TIE_TOL)
    return np.flatnonzero(~ok)


def weighted_doa_deg(theta_deg: np.ndarray, energy: np.ndarray) -> float:
    return float(np.sum(theta_deg * energy) / np.sum(energy))


def scene_errors(theta_deg, energy, scenes) -> list[str]:
    """Scenes whose energy-weighted DOA misses the geometric angle by more than a tolerance.

    ``scenes`` holds (label, frame indices inside the scene, geometric angle, tolerance).
    """
    theta_deg, energy = np.asarray(theta_deg), np.asarray(energy)
    bad = []
    for label, idx, truth, tol in scenes:
        doa = weighted_doa_deg(theta_deg[idx], energy[idx])
        if not abs(doa - truth) <= tol:
            bad.append(f"{label}: weighted DOA {doa:.2f} deg, geometry {truth:.2f} deg")
    return bad


def sweep_errors(rmse_deg: dict) -> list[str]:
    """``rmse_deg`` maps (method, beta, snr_db) to the RMSE over the run's configurations."""
    bad = [f"{key}: RMSE {v}" for key, v in rmse_deg.items() if not math.isfinite(v)]
    free = rmse_deg.get(("mm", 0.0, 40.0))
    if free is None or not free <= FREE_FIELD_TOL_DEG:
        bad.append(f"mm anechoic 40 dB RMSE {free} deg exceeds {FREE_FIELD_TOL_DEG} deg")
    return bad
