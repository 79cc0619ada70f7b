"""The WAV reader: any span it decodes holds the bits of the whole-file decode; the writer
rejects samples it cannot write."""
import os
import wave

import numpy as np
import pytest

from gccdoa import audio
from gccdoa.errors import ConfigurationError, DimensionError, FormatError, InputError


def _noise_wav(path, frames):
    """A stereo 16-bit WAV of full-range noise; returns its samples as written."""
    pcm = np.random.default_rng(31).integers(-32768, 32768, (frames, 2), dtype="<i2")
    pcm[:2] = [[-32768, 32767], [32767, -32768]]
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(pcm.tobytes())
    return pcm


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


def _estimate_spans(frames, n, hop, block):
    """The [start, stop) spans that `gccdoa estimate` reads, one per block of frames."""
    total = max((frames - n) // hop + 1, 1)
    for b0 in range(0, total, block):
        yield b0 * hop, (b0 + min(block, total - b0) - 1) * hop + n


def test_whole_file_is_int16_over_32768(tmp_path):
    pcm = _noise_wav(tmp_path / "a.wav", 5001)
    ch1, ch2 = audio.read_stereo_wav(tmp_path / "a.wav", 16000)
    assert _bits(ch1) == _bits(pcm[:, 0] / 32768.0)
    assert _bits(ch2) == _bits(pcm[:, 1] / 32768.0)


@pytest.mark.parametrize("chunk", [1, 333, 4096, 10_000])
def test_whole_file_is_the_concatenation_of_spans(tmp_path, chunk):
    _noise_wav(tmp_path / "a.wav", 5001)
    whole = audio.read_stereo_wav(tmp_path / "a.wav", 16000)
    with audio.StereoWavReader(tmp_path / "a.wav", 16000) as wav:
        spans = [wav.read(start, start + chunk) for start in range(0, wav.frames, chunk)]
    for c in (0, 1):
        assert _bits(np.concatenate([span[c] for span in spans])) == _bits(whole[c])


@pytest.mark.parametrize("frames,n,hop,block", [
    (5001, 512, 160, 1), (5001, 512, 160, 7), (5001, 512, 160, 128),
    (5001, 64, 100, 3),     # hop > n: the blocks skip samples
    (300, 512, 160, 128),   # shorter than a frame: the one span is clipped
])
def test_estimate_blocks_are_slices_of_the_whole_file(tmp_path, frames, n, hop, block):
    _noise_wav(tmp_path / "a.wav", frames)
    whole = audio.read_stereo_wav(tmp_path / "a.wav", 16000)
    with audio.StereoWavReader(tmp_path / "a.wav", 16000) as wav:
        for start, stop in _estimate_spans(frames, n, hop, block):
            got = wav.read(start, stop)
            for c in (0, 1):
                assert _bits(got[c]) == _bits(whole[c][start:stop])
    assert len(got[0]) == (frames if frames < n else stop - start)


def test_read_into_out_fills_its_first_columns(tmp_path):
    """A span read into a larger reused buffer holds the whole-file bits in
    out[:, :count], whatever the buffer held before."""
    _noise_wav(tmp_path / "a.wav", 5001)
    whole = audio.read_stereo_wav(tmp_path / "a.wav", 16000)
    out = np.full((2, 3000), np.nan)
    with audio.StereoWavReader(tmp_path / "a.wav", 16000) as wav:
        for start, stop in [(0, 3000), (100, 1100), (4500, 7000)]:
            got = wav.read(start, stop, out=out)
            count = min(stop, 5001) - start
            for c in (0, 1):
                assert np.shares_memory(got[c], out) and len(got[c]) == count
                assert _bits(got[c]) == _bits(whole[c][start:stop])
                assert _bits(out[c, :count]) == _bits(whole[c][start:stop])


def test_riff_size_ending_inside_the_samples_is_cut_short(tmp_path):
    """wave reads no further than the RIFF chunk declares, so the file is short."""
    path = tmp_path / "a.wav"
    _noise_wav(path, 2000)
    data = bytearray(path.read_bytes())
    data[4:8] = (int.from_bytes(data[4:8], "little") - 10).to_bytes(4, "little")
    path.write_bytes(data)
    with pytest.raises(FormatError, match=r"cut short, 7990 of 8000 sample bytes$"):
        audio.StereoWavReader(path, 16000)


def test_file_cut_after_opening_is_cut_short(tmp_path):
    path = tmp_path / "a.wav"
    _noise_wav(path, 2000)
    with audio.StereoWavReader(path, 16000) as wav:
        os.truncate(path, path.stat().st_size - 4 * 500 - 1)
        assert len(wav.read(0, 1000)[0]) == 1000  # the samples before the cut still read
        with pytest.raises(FormatError, match=r"cut short, 5999 of 8000 sample bytes$"):
            wav.read(1000, 2000)


def test_reader_closes_its_file(tmp_path):
    _noise_wav(tmp_path / "a.wav", 100)
    with audio.StereoWavReader(tmp_path / "a.wav", 16000) as wav:
        wav.read(0, 10)
    assert wav._file.closed


@pytest.mark.parametrize("channel", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("normalize", [True, False])
def test_writer_rejects_a_non_finite_sample(tmp_path, channel, bad, normalize):
    """NaN would be written as 0 and inf would scale the pair to silence; neither is written."""
    pair = [np.full(100, 0.5), np.full(100, 0.5)]
    pair[channel][37] = bad
    with pytest.raises(InputError, match="non-finite"):
        audio.write_stereo_wav(tmp_path / "a.wav", *pair, 16000, normalize=normalize)
    assert not (tmp_path / "a.wav").exists()


def test_writer_rejects_empty_channels(tmp_path):
    with pytest.raises(InputError, match="no samples"):
        audio.write_stereo_wav(tmp_path / "a.wav", np.zeros(0), np.zeros(0), 16000)
    assert not (tmp_path / "a.wav").exists()


def test_reader_rejects_8_bit_samples(tmp_path):
    path = tmp_path / "u8.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(1)
        wf.setframerate(16000)
        wf.writeframes(bytes(200))
    with pytest.raises(InputError, match=r"expected 16-bit PCM \(width 2\), got width 1"):
        audio.StereoWavReader(path, 16000)


def test_writer_rejects_channels_of_different_lengths(tmp_path):
    with pytest.raises(DimensionError, match="channel shapes differ"):
        audio.write_stereo_wav(tmp_path / "a.wav", np.zeros(4), np.zeros(5), 16000)
    assert not (tmp_path / "a.wav").exists()


@pytest.mark.parametrize("rate", [0, -5, np.nan, np.inf])
def test_writer_rejects_a_bad_rate_before_the_file_is_opened(tmp_path, rate):
    path = tmp_path / "a.wav"
    with pytest.raises(ConfigurationError) as exc:
        audio.write_stereo_wav(path, np.zeros(4), np.zeros(4), rate)
    assert str(exc.value) == f"sample rate must be positive and finite, got {rate}"
    assert not path.exists()


@pytest.mark.parametrize("rate", [0.3, 0.5, 16000.7])
def test_writer_rejects_a_rate_that_is_not_whole_before_the_file_is_opened(tmp_path, rate):
    # wave rounds the rate: 0.3 and 0.5 become 0, 16000.7 would be written as 16001
    path = tmp_path / "a.wav"
    with pytest.raises(ConfigurationError) as exc:
        audio.write_stereo_wav(path, np.zeros(4), np.zeros(4), rate)
    assert str(exc.value) == f"sample rate must be a whole number of Hz, got {rate}"
    assert not path.exists()


def test_writer_takes_a_whole_float_rate_as_its_integer(tmp_path):
    ch = np.linspace(-0.5, 0.5, 32)
    audio.write_stereo_wav(tmp_path / "f.wav", ch, -ch, 16000.0)
    audio.write_stereo_wav(tmp_path / "i.wav", ch, -ch, 16000)
    assert (tmp_path / "f.wav").read_bytes() == (tmp_path / "i.wav").read_bytes()
