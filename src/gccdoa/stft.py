"""Framing, windowing, one-sided spectra, and the PHAT cross-spectrum."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import _INTEGER, _freeze
from .errors import ConfigurationError, DimensionError, InputError

# silence guard: below this magnitude product a bin carries no usable phase
MAG_FLOOR = 1e-20


@lru_cache(maxsize=32)
def window_samples(kind: str, n: int) -> np.ndarray:
    """Analysis window of length n: periodic Hann ("hann") or all-ones ("rect").

    Built once per (kind, n) and shared: the array is read-only.
    """
    if n < 1:
        raise ConfigurationError(f"window length must be >= 1, got {n}")
    if kind == "hann":
        return _freeze(0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n)))
    if kind == "rect":
        return _freeze(np.ones(n))
    raise ConfigurationError(f"unknown window {kind!r} (expected 'hann' or 'rect')")


def stft_frames(signal: np.ndarray, n: int, hop: int, window: str = "hann",
                out: np.ndarray | None = None) -> np.ndarray:
    """One-sided spectra of all complete frames, shape (frames, n//2 + 1).

    Frame l covers samples [l*hop, l*hop + n); the frame count is
    floor((len - n) / hop) + 1. n and hop must be integers >= 1; hop > n skips
    samples. out, a complex128 array of exactly that shape, receives the spectra
    and is returned; the bits are the same as without it. An out of another
    shape raises DimensionError, of another dtype InputError, before it is written.
    """
    if not (isinstance(n, _INTEGER) and isinstance(hop, _INTEGER) and n >= 1 and hop >= 1):
        raise ConfigurationError(f"frame size and hop must be integers >= 1, got n={n!r} hop={hop!r}")
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise DimensionError(f"expected a mono sample sequence, got shape {signal.shape}")
    if not np.isfinite(signal).all():
        raise InputError("signal holds a non-finite sample (NaN or inf)")
    if len(signal) < n:
        raise InputError(f"signal has {len(signal)} samples, need at least n={n}")
    win = window_samples(window, n)
    # one copy only for a strided signal, which only API callers pass (gccdoa estimate
    # decodes contiguous rows); frame l is then a view of samples [l*hop, l*hop + n)
    signal = np.ascontiguousarray(signal)
    frames = np.ndarray(((len(signal) - n) // hop + 1, n), np.float64, buffer=signal,
                        strides=(8 * hop, 8))
    shape = (len(frames), n // 2 + 1)
    if out is None:
        # handing rfft its output skips its own output set-up; the gufunc is the same
        out = np.empty(shape, np.complex128)
    elif out.shape != shape:
        raise DimensionError(f"out has shape {out.shape}, the spectra {shape}")
    elif out.dtype != np.complex128:
        raise InputError(f"out has dtype {out.dtype}, the spectra complex128")
    return np.fft.rfft(frames * win, axis=1, out=out)


def cross_spectrum(x1: np.ndarray, x2: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """PHAT-normalized cross-spectrum X1 * conj(X2) / (|X1| |X2|).

    Accepts single spectra or batches of frames (last axis = bins). Bins whose
    magnitude product falls below MAG_FLOOR are set to exactly zero instead of
    dividing by (nearly) nothing; a NaN or infinite magnitude product raises
    InputError before out is written. out, an array of the inputs' shape
    (DimensionError otherwise) and promoted complex dtype that shares no memory
    with them (InputError otherwise), receives the result and is returned.
    """
    x1 = np.asarray(x1)
    x2 = np.asarray(x2)
    if x1.shape != x2.shape:
        raise DimensionError(f"spectrum shapes differ: {x1.shape} vs {x2.shape}")
    dtype = np.result_type(x1, x2)
    if out is not None:
        if np.may_share_memory(out, x1) or np.may_share_memory(out, x2):
            # conj(x2) goes into out before x1 is read
            raise InputError("out shares memory with an input spectrum")
        if out.shape != x1.shape:
            raise DimensionError(f"out has shape {out.shape}, the spectra {x1.shape}")
        if out.dtype != dtype:
            raise InputError(f"out has dtype {out.dtype}, the result {dtype}")
    with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and overflow: refused below
        mag = np.abs(x1) * np.abs(x2)
    if not mag.max(initial=0.0) < np.inf:  # one reduction; NaN fails too
        raise InputError("spectrum holds a non-finite bin (NaN or inf)")
    # always x1 * conj(x2), in that operand order: `x1 * np.conj(x2)` lets numpy
    # reuse the conj temporary from 256 KiB on and compute conj(x2) * x1, which
    # FMA code rounds differently, so a frame's value would depend on batch size
    prod = np.conj(x2, out=np.empty(x1.shape, dtype) if out is None else out)
    np.multiply(x1, prod, out=prod)
    voiced = mag >= MAG_FLOOR
    np.divide(prod, mag, out=prod, where=voiced)
    prod[~voiced] = 0
    return prod
