"""Stereo 16-bit PCM WAV reading and writing (stdlib wave module)."""
from __future__ import annotations

import wave

import numpy as np

from .errors import DimensionError, FormatError, InputError


def read_stereo_wav(path, expected_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Two float channels in [-1, 1), normalized by 32768.

    The file must be 2-channel 16-bit PCM at exactly expected_rate; anything
    else is rejected rather than resampled. A file that is not a PCM WAV, or
    that ends before the samples its header declares, raises FormatError.
    """
    try:
        with wave.open(str(path), "rb") as wf:
            if wf.getnchannels() != 2:
                raise InputError(f"{path}: expected 2 channels, got {wf.getnchannels()}")
            if wf.getsampwidth() != 2:
                raise InputError(f"{path}: expected 16-bit PCM (width 2), got width {wf.getsampwidth()}")
            if wf.getframerate() != expected_rate:
                raise InputError(f"{path}: sample rate {wf.getframerate()}, expected {expected_rate}")
            raw = wf.readframes(wf.getnframes())
            if len(raw) != 4 * wf.getnframes():
                raise FormatError(f"{path}: cut short, {len(raw)} of {4 * wf.getnframes()} sample bytes")
    except (EOFError, wave.Error) as exc:
        raise FormatError(f"{path}: not a PCM WAV file ({str(exc) or 'ends in its header'})") from None
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    return data[0::2], data[1::2]


def write_stereo_wav(path, ch1: np.ndarray, ch2: np.ndarray, rate: int,
                     normalize: bool = True) -> None:
    """Interleave two channels into a 16-bit PCM stereo file.

    With normalize=True both channels are scaled by one shared factor to a
    0.99 peak, preserving the interchannel level ratio.
    """
    ch1 = np.asarray(ch1, dtype=np.float64)
    ch2 = np.asarray(ch2, dtype=np.float64)
    if ch1.shape != ch2.shape or ch1.ndim != 1:
        raise DimensionError(f"channel shapes differ: {ch1.shape} vs {ch2.shape}")
    peak = max(np.max(np.abs(ch1)), np.max(np.abs(ch2)), 1e-12)
    scale = 0.99 / peak if normalize and peak > 0.99 else 1.0
    interleaved = np.empty(2 * len(ch1))
    interleaved[0::2] = ch1 * scale
    interleaved[1::2] = ch2 * scale
    pcm = np.clip(np.round(interleaved * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(pcm.tobytes())
