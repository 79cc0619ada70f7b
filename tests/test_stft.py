"""Framing, windows, and the PHAT cross-spectrum."""
import numpy as np
import pytest

from gccdoa.errors import ConfigurationError, DimensionError, InputError
from gccdoa.stft import cross_spectrum, stft_frames, window_samples


class TestStftFrames:
    def test_dc_only_spectrum(self):
        frames = stft_frames(np.ones(8), n=8, hop=8, window="rect")
        assert frames.shape == (1, 5)
        assert frames[0, 0] == pytest.approx(8.0, abs=1e-12)
        assert frames[0, 1:] == pytest.approx(np.zeros(4), abs=1e-12)

    def test_pure_cosine_hits_one_bin(self):
        t = np.arange(16)
        frames = stft_frames(np.cos(2 * np.pi * 3 * t / 16), n=16, hop=16, window="rect")
        mags = np.abs(frames[0])
        assert mags[3] == pytest.approx(8.0, abs=1e-9)
        others = np.delete(mags, 3)
        assert np.max(others) < 1e-9

    def test_frame_count_at_table_values(self):
        frames = stft_frames(np.random.default_rng(0).standard_normal(512 + 160),
                             n=512, hop=160)
        assert frames.shape == (2, 257)

    def test_frame_alignment_and_hop(self):
        sig = np.arange(40, dtype=float)
        frames = stft_frames(sig, n=16, hop=8, window="rect")
        assert frames.shape == (4, 9)
        # frame 2 covers samples [16, 32): its DC value is their sum
        assert frames[2, 0].real == pytest.approx(sig[16:32].sum(), abs=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_rejected(self, bad):
        sig = np.random.default_rng(5).standard_normal(2000)
        sig[777] = bad
        with pytest.raises(InputError, match="non-finite"):
            stft_frames(sig, n=512, hop=160)

    def test_short_signal_rejected(self):
        with pytest.raises(InputError):
            stft_frames(np.ones(100), n=512, hop=160)

    def test_hann_window_applied(self):
        win = window_samples("hann", 64)
        frames = stft_frames(np.ones(64), n=64, hop=64, window="hann")
        assert frames[0] == pytest.approx(np.fft.rfft(win), abs=1e-12)

    def test_hann_is_periodic(self):
        win = window_samples("hann", 8)
        assert win[0] == 0.0
        assert win[4] == pytest.approx(1.0, abs=1e-15)  # peak at n/2, not (n-1)/2

    def test_unknown_window_rejected(self):
        with pytest.raises(ConfigurationError):
            window_samples("hamming", 16)


class TestCrossSpectrum:
    def test_self_correlation_is_unit_real(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        out = cross_spectrum(x, x)
        assert out == pytest.approx(np.ones(257), abs=1e-12)

    def test_phase_difference_preserved(self):
        phi = np.linspace(-3, 3, 257)
        out = cross_spectrum(np.exp(1j * phi), np.ones(257, dtype=complex))
        assert out == pytest.approx(np.exp(1j * phi), abs=1e-12)

    def test_zero_bins_guarded(self):
        x1 = np.ones(10, dtype=complex)
        x1[3] = 0.0
        x2 = np.ones(10, dtype=complex)
        out = cross_spectrum(x1, x2)
        assert out[3] == 0.0
        assert np.all(np.isfinite(out))

    def test_silence_gives_all_zeros(self):
        out = cross_spectrum(np.zeros(5, dtype=complex), np.zeros(5, dtype=complex))
        assert np.all(out == 0.0)
        assert np.all(np.isfinite(out))

    def test_unit_modulus_idempotence(self):
        rng = np.random.default_rng(2)
        x1 = np.exp(1j * rng.uniform(-np.pi, np.pi, 257))
        x2 = np.exp(1j * rng.uniform(-np.pi, np.pi, 257))
        out = cross_spectrum(x1, x2)
        assert np.angle(out) == pytest.approx(np.angle(x1 * np.conj(x2)), abs=1e-12)
        assert np.abs(out) == pytest.approx(np.ones(257), abs=1e-9)

    def test_batch_shape_support(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        b = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        out = cross_spectrum(a, b)
        assert out.shape == (4, 9)
        assert out[2] == pytest.approx(cross_spectrum(a[2], b[2]), abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            cross_spectrum(np.ones(5, dtype=complex), np.ones(6, dtype=complex))

    def test_integer_delay_phase_ramp(self):
        # x2 = x1 circularly delayed by D -> angle(X12[k]) = 2*pi*k*D/N
        rng = np.random.default_rng(4)
        x1 = rng.standard_normal(64)
        d = 5
        x2 = np.roll(x1, d)
        s1 = stft_frames(x1, n=64, hop=64, window="rect")[0]
        s2 = stft_frames(x2, n=64, hop=64, window="rect")[0]
        out = cross_spectrum(s1, s2)
        k = np.arange(33)
        expected = np.exp(1j * 2 * np.pi * k * d / 64)
        nz = np.abs(out) > 0.5
        assert np.angle(out[nz]) == pytest.approx(np.angle(expected[nz]), abs=1e-9)
