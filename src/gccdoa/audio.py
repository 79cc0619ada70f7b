"""Stereo 16-bit PCM WAV reading and writing (stdlib wave module)."""
from __future__ import annotations

import os
import wave

import numpy as np

from .core import _check_positive_finite
from .errors import ConfigurationError, DimensionError, FormatError, InputError


class StereoWavReader:
    """An open 2-channel 16-bit PCM WAV whose samples are decoded one span at a time.

    Opening reads the header and decodes no sample. The file must be 2-channel
    16-bit PCM at exactly expected_rate (anything else is rejected rather than
    resampled); a file that is not a PCM WAV, or that ends before the samples
    its header declares, raises FormatError. Use it in a with block.
    """

    def __init__(self, path, expected_rate: int):
        self.path = path
        self._file = open(str(path), "rb")
        try:
            try:
                self._wav = wave.open(self._file)
            except (EOFError, wave.Error) as exc:
                raise FormatError(
                    f"{path}: not a PCM WAV file ({str(exc) or 'ends in its header'})") from None
            wf = self._wav
            if wf.getnchannels() != 2:
                raise InputError(f"{path}: expected 2 channels, got {wf.getnchannels()}")
            if wf.getsampwidth() != 2:
                raise InputError(f"{path}: expected 16-bit PCM (width 2), got width {wf.getsampwidth()}")
            if wf.getframerate() != expected_rate:
                raise InputError(f"{path}: sample rate {wf.getframerate()}, expected {expected_rate}")
            self.frames = wf.getnframes()
            # wave.open leaves the file at the first sample byte, and wave reads up
            # to the end of the file or of the RIFF chunk, whichever comes first
            first = self._file.tell()
            self._file.seek(4)
            riff_end = 8 + int.from_bytes(self._file.read(4), "little")
            present = min(os.fstat(self._file.fileno()).st_size, riff_end) - first
            if present < 4 * self.frames:
                raise self._cut_short(present)
        except BaseException:
            self._file.close()
            raise

    def _cut_short(self, present: int) -> FormatError:
        return FormatError(f"{self.path}: cut short, {present} of {4 * self.frames} sample bytes")

    def read(self, start: int, stop: int, out: np.ndarray | None = None
             ) -> tuple[np.ndarray, np.ndarray]:
        """Two float channels in [-1, 1), normalized by 32768, of samples [start, stop).

        The span is clipped to the recording as a slice is. Dividing int16 by
        32768 is exact, so every span holds the bits of that slice of the
        whole recording. The channels are the rows of out[:, :count] for a
        float64 out of shape (2, m >= count), and of a new array without it.
        """
        start, stop, _ = slice(start, stop).indices(self.frames)
        count = max(stop - start, 0)
        self._wav.setpos(start)
        raw = self._wav.readframes(count)
        # only a file that shrank since it was opened
        if len(raw) < 4 * count:
            raise self._cut_short(4 * start + len(raw))
        chans = (np.empty((2, count)) if out is None else out)[:, :count]
        np.divide(np.frombuffer(raw, dtype="<i2").reshape(count, 2).T, 32768.0, out=chans)
        return chans[0], chans[1]

    def __enter__(self) -> StereoWavReader:
        return self

    def __exit__(self, *exc) -> None:
        self._wav.close()
        self._file.close()


def read_stereo_wav(path, expected_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole recording's two float channels; see StereoWavReader."""
    with StereoWavReader(path, expected_rate) as wav:
        return wav.read(0, wav.frames)


def write_stereo_wav(path, ch1: np.ndarray, ch2: np.ndarray, rate: int,
                     normalize: bool = True) -> None:
    """Interleave two channels into a 16-bit PCM stereo file.

    With normalize=True both channels are scaled by one shared factor to a
    0.99 peak, preserving the interchannel level ratio. Empty channels and
    non-finite samples raise InputError, and a rate that is not positive, finite
    and a whole number (wave would round it) ConfigurationError, before the file
    is opened.
    """
    _check_positive_finite("sample rate", rate)
    if rate != round(rate):
        raise ConfigurationError(f"sample rate must be a whole number of Hz, got {rate}")
    ch1 = np.asarray(ch1, dtype=np.float64)
    ch2 = np.asarray(ch2, dtype=np.float64)
    if ch1.shape != ch2.shape or ch1.ndim != 1:
        raise DimensionError(f"channel shapes differ: {ch1.shape} vs {ch2.shape}")
    if ch1.size == 0:
        raise InputError("no samples to write")
    if not (np.isfinite(ch1).all() and np.isfinite(ch2).all()):
        raise InputError("a channel holds a non-finite sample (NaN or inf)")
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
