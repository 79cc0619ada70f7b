"""Framing, windowing, one-sided spectra, and the PHAT cross-spectrum."""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError, InputError

# silence guard: below this magnitude product a bin carries no usable phase
MAG_FLOOR = 1e-20


def window_samples(kind: str, n: int) -> np.ndarray:
    """Analysis window of length n: periodic Hann ("hann") or all-ones ("rect")."""
    if kind == "hann":
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    if kind == "rect":
        return np.ones(n)
    raise ConfigurationError(f"unknown window {kind!r} (expected 'hann' or 'rect')")


def stft_frames(signal: np.ndarray, n: int, hop: int, window: str = "hann") -> np.ndarray:
    """One-sided spectra of all complete frames, shape (frames, n//2 + 1).

    Frame l covers samples [l*hop, l*hop + n); the frame count is
    floor((len - n) / hop) + 1.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise DimensionError(f"expected a mono sample sequence, got shape {signal.shape}")
    if not np.isfinite(signal).all():
        raise InputError("signal holds a non-finite sample (NaN or inf)")
    if len(signal) < n:
        raise InputError(f"signal has {len(signal)} samples, need at least n={n}")
    win = window_samples(window, n)
    n_frames = (len(signal) - n) // hop + 1
    idx = np.arange(n)[None, :] + hop * np.arange(n_frames)[:, None]
    return np.fft.rfft(signal[idx] * win, axis=1)


def cross_spectrum(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """PHAT-normalized cross-spectrum X1 * conj(X2) / (|X1| |X2|).

    Accepts single spectra or batches of frames (last axis = bins). Bins whose
    magnitude product falls below MAG_FLOOR are set to exactly zero instead of
    dividing by (nearly) nothing.
    """
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    if x1.shape != x2.shape:
        raise DimensionError(f"spectrum shapes differ: {x1.shape} vs {x2.shape}")
    prod = x1 * np.conj(x2)
    mag = np.abs(x1) * np.abs(x2)
    out = np.zeros_like(prod)
    np.divide(prod, mag, out=out, where=mag >= MAG_FLOOR)
    return out
