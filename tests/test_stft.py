"""Framing, windows, and the PHAT cross-spectrum."""
import warnings

import numpy as np
import pytest

from gccdoa.errors import ConfigurationError, DimensionError, InputError
from gccdoa.stft import MAG_FLOOR, cross_spectrum, stft_frames, window_samples


def gather_frames(signal, n, hop, window):
    """Reference framing: an explicit index table and a gathered copy per frame."""
    signal = np.asarray(signal, dtype=np.float64)
    if window == "hann":
        win = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))
    else:
        win = np.ones(n)
    n_frames = (len(signal) - n) // hop + 1
    idx = np.arange(n)[None, :] + hop * np.arange(n_frames)[:, None]
    return np.fft.rfft(signal[idx] * win, axis=1)


def masked_cross(x1, x2):
    """Reference PHAT step: one zero-filled division masked by the silence guard."""
    prod = x1 * np.conj(x2)
    mag = np.abs(x1) * np.abs(x2)
    out = np.zeros_like(prod)
    np.divide(prod, mag, out=out, where=mag >= MAG_FLOOR)
    return out


def read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


# (signal length, n, hop): one frame, the table values, hop > n, hop == 1
FRAMINGS = [(512, 512, 160), (4000, 512, 160), (4000, 512, 700), (700, 512, 1), (300, 64, 1)]
INPUTS = {
    "contiguous": lambda x: x,
    "slice": lambda x: np.concatenate((x, x))[37:37 + x.size],
    "strided": lambda x: np.repeat(x, 2)[0::2],
    "int16": lambda x: np.rint(x * 8000).astype(np.int16),
    "read-only": read_only,
}


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

    @pytest.mark.parametrize("kind", ["hann", "rect"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_window_length_below_one_rejected_and_not_cached(self, kind, n):
        cached = window_samples.cache_info().currsize
        with pytest.raises(ConfigurationError):
            window_samples(kind, n)
        assert window_samples.cache_info().currsize == cached

    @pytest.mark.parametrize("kind", ["hann", "rect"])
    def test_window_is_read_only_and_stable(self, kind):
        win = window_samples(kind, 512)
        assert not win.flags.writeable
        with pytest.raises(ValueError):
            win[0] = 1.0
        again = window_samples(kind, 512)
        assert np.array_equal(again, win)
        expected = (0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(512) / 512))
                    if kind == "hann" else np.ones(512))
        assert np.array_equal(win, expected)

    @pytest.mark.parametrize("n, hop", [(512, 0), (512, -160), (0, 160), (-1, 160), (0, 0)])
    def test_bad_frame_size_or_hop_rejected(self, n, hop):
        with pytest.raises(ConfigurationError):
            stft_frames(np.ones(1000), n=n, hop=hop)

    @pytest.mark.parametrize("window", ["hann", "rect"])
    @pytest.mark.parametrize("kind", list(INPUTS))
    def test_matches_gathered_frames_bit_for_bit(self, kind, window):
        rng = np.random.default_rng(6)
        for length, n, hop in FRAMINGS:
            sig = INPUTS[kind](rng.uniform(-1.0, 1.0, length))
            got = stft_frames(sig, n, hop, window)
            expected = gather_frames(sig, n, hop, window)
            assert got.shape == expected.shape == ((length - n) // hop + 1, n // 2 + 1)
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected), (length, n, hop)


    @pytest.mark.parametrize("window", ["hann", "rect"])
    def test_out_receives_the_same_bits(self, window):
        rng = np.random.default_rng(16)
        for length, n, hop in FRAMINGS:
            sig = rng.uniform(-1.0, 1.0, length)
            out = np.full(((length - n) // hop + 1, n // 2 + 1), np.nan, dtype=complex)
            assert stft_frames(sig, n, hop, window, out=out) is out
            assert np.array_equal(out, stft_frames(sig, n, hop, window)), (length, n, hop)

    @pytest.mark.parametrize("n, hop", [(16.0, 4), (16, 20.0), (np.float64(16), 4), (16, "4")])
    def test_non_integer_frame_size_or_hop_rejected(self, n, hop):
        with pytest.raises(ConfigurationError, match="integers >= 1"):
            stft_frames(np.ones(100), n, hop)

    def test_numpy_integer_frame_size_and_hop_accepted(self):
        sig = np.random.default_rng(18).uniform(-1.0, 1.0, 100)
        assert np.array_equal(stft_frames(sig, np.int64(16), np.uint8(4)), stft_frames(sig, 16, 4))

    @pytest.mark.parametrize("shape, dtype, error", [
        ((5, 9), np.complex128, DimensionError), ((6, 10), np.complex128, DimensionError),
        ((54,), np.complex128, DimensionError), ((1, 6, 9), np.complex128, DimensionError),
        ((6, 9), np.complex64, InputError), ((6, 9), np.float64, InputError)])
    def test_out_of_another_shape_or_dtype_rejected_unwritten(self, shape, dtype, error):
        # 100 samples at n = hop = 16 make 6 frames of 9 bins
        out = np.full(shape, 7, dtype=dtype)
        with pytest.raises(error, match="out has"):
            stft_frames(np.random.default_rng(19).uniform(-1.0, 1.0, 100), 16, 16, out=out)
        assert (out == 7).all()

    def test_calls_without_out_return_their_own_arrays(self):
        sig = np.random.default_rng(17).uniform(-1.0, 1.0, 1000)
        a, b = stft_frames(sig, 256, 128), stft_frames(sig, 256, 128)
        for got in (a, b):
            assert got.dtype == np.complex128 and got.shape == (6, 129)
            assert got.flags.writeable and got.flags.c_contiguous
        assert not np.may_share_memory(a, b)


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

    @staticmethod
    def _spectra(shape, dtype=np.complex128, seed=7):
        rng = np.random.default_rng(seed)
        return [(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
                for _ in range(2)]

    def _assert_matches_masked(self, x1, x2):
        got = cross_spectrum(x1, x2)
        expected = masked_cross(x1, x2)
        assert got.shape == expected.shape
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert not np.shares_memory(got, x1) and not np.shares_memory(got, x2)

    def test_all_voiced_matches_masked_division(self):
        self._assert_matches_masked(*self._spectra(257))

    def test_partly_silent_matches_masked_division(self):
        x1, x2 = self._spectra(257)
        x1[[0, 5, 256]] = 0.0
        x2[17] = 1e-30
        self._assert_matches_masked(x1, x2)

    def test_all_silent_matches_masked_division(self):
        x1, x2 = self._spectra(257)
        self._assert_matches_masked(np.zeros(257, dtype=complex), x2)
        self._assert_matches_masked(x1 * 1e-12, x2 * 1e-12)

    def test_batch_matches_masked_division(self):
        x1, x2 = self._spectra((6, 257))
        self._assert_matches_masked(x1, x2)
        x1[2] = 0.0
        self._assert_matches_masked(x1, x2)

    def test_complex64_matches_masked_division(self):
        x1, x2 = self._spectra((3, 257), np.complex64)
        self._assert_matches_masked(x1, x2)
        self._assert_matches_masked(x1, x2.astype(np.complex128))

    def test_batch_equals_its_frames_bit_for_bit(self):
        # 300 frames: past the 256 KiB at which numpy may reuse a temporary
        # and change the operand order of the complex product
        x1, x2 = self._spectra((300, 257))
        x1[40:50] = 0.0
        batch = cross_spectrum(x1, x2)
        assert np.array_equal(batch, [cross_spectrum(a, b) for a, b in zip(x1, x2)])

    def test_out_holding_stale_values_receives_the_same_bits(self):
        """out, here full of NaN as a reused buffer may be, is overwritten in
        every bin, silent ones included."""
        x1, x2 = self._spectra((300, 257))
        x1[40:50] = 0.0
        x2[7, 3] = 1e-30
        out = np.full(x1.shape, np.nan, dtype=complex)
        assert cross_spectrum(x1, x2, out=out) is out
        assert np.array_equal(out, cross_spectrum(x1, x2))
        assert not out[40:50].any() and out[7, 3] == 0
        voiced = self._spectra((300, 257), seed=8)
        assert cross_spectrum(*voiced, out=out) is out
        assert np.array_equal(out, cross_spectrum(*voiced))

    def test_out_sharing_memory_with_an_input_rejected(self):
        x1, x2 = self._spectra((4, 257))
        for out in (x1, x2, x1[1:], x2.view()):
            before = (x1.copy(), x2.copy())
            with pytest.raises(InputError):
                cross_spectrum(x1, x2, out=out)
            assert np.array_equal(x1, before[0]) and np.array_equal(x2, before[1])

    @pytest.mark.parametrize("in_shape, in_dtype, shape, dtype, error", [
        ((5,), np.complex128, (2, 5), np.complex128, DimensionError),
        ((5,), np.complex128, (4,), np.complex128, DimensionError),
        ((3, 257), np.complex128, (257,), np.complex128, DimensionError),
        ((5,), np.complex128, (5,), np.complex64, InputError),
        ((5,), np.complex64, (5,), np.complex128, InputError),
        ((3, 257), np.complex128, (3, 257), np.float64, InputError)])
    def test_out_of_another_shape_or_dtype_rejected_unwritten(self, in_shape, in_dtype,
                                                               shape, dtype, error):
        """out must have the shape and dtype the call returns without it."""
        x1, x2 = self._spectra(in_shape, in_dtype)
        out = np.full(shape, 7, dtype=dtype)
        with pytest.raises(error, match="out has"):
            cross_spectrum(x1, x2, out=out)
        assert (out == 7).all()

    def test_out_beside_its_inputs_in_one_workspace(self):
        # disjoint slices of one array, as gccdoa estimate's workspace holds them
        x1, x2 = self._spectra((4, 257))
        ws = np.empty((3, 4, 257), dtype=complex)
        ws[0], ws[1] = x1, x2
        out = ws[2]
        assert cross_spectrum(ws[0], ws[1], out=out) is out
        assert np.array_equal(out, cross_spectrum(x1, x2))

    @pytest.mark.parametrize("dtypes", [(np.complex64, np.complex128),
                                        (np.complex128, np.complex64)])
    def test_mixed_precision_promotes(self, dtypes):
        x1, x2 = self._spectra((3, 257))
        x1, x2 = x1.astype(dtypes[0]), x2.astype(dtypes[1])
        got = cross_spectrum(x1, x2)
        assert got.dtype == np.complex128
        assert np.array_equal(got, masked_cross(x1, x2))

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


class TestCrossSpectrumNonFinite:
    """A NaN or infinite bin raises InputError: it is neither silence nor a phase."""

    @staticmethod
    def _spectra(shape, seed=9):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf),
                                     complex(np.nan, 0.0)])
    @pytest.mark.parametrize("which", [0, 1])
    def test_single_frame(self, bad, which):
        spectra = self._spectra(257)
        spectra[which][100] = bad
        with pytest.raises(InputError, match=r"non-finite bin \(NaN or inf\)"):
            cross_spectrum(*spectra)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_batch(self, bad):
        x1, x2 = self._spectra((6, 257))
        x2[4, 0] = bad
        with pytest.raises(InputError, match=r"non-finite bin \(NaN or inf\)"):
            cross_spectrum(x1, x2)

    def test_all_nan_frame_is_not_silence(self):
        x1, x2 = self._spectra((3, 257))
        x1[1] = np.nan
        with pytest.raises(InputError, match=r"non-finite bin \(NaN or inf\)"):
            cross_spectrum(x1, x2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_out_is_left_untouched(self, bad):
        x1, x2 = self._spectra((4, 257))
        x1[2, 7] = bad
        out = np.full(x1.shape, 5.0 + 1j)
        with pytest.raises(InputError, match=r"non-finite bin \(NaN or inf\)"):
            cross_spectrum(x1, x2, out=out)
        assert np.all(out == 5.0 + 1j)

    def test_empty_spectra_still_allowed(self):
        out = cross_spectrum(np.zeros((0, 257), complex), np.zeros((0, 257), complex))
        assert out.shape == (0, 257)


class TestCrossSpectrumRefusesWithoutWarning:
    """inf * 0 and an overflowing magnitude product raise InputError and emit no warning."""

    @staticmethod
    def _pair():
        rng = np.random.default_rng(5)
        return [rng.standard_normal((3, 257)) + 1j * rng.standard_normal((3, 257)) for _ in range(2)]

    @pytest.mark.parametrize("case", ["inf against zero", "overflow"])
    def test_raises_input_error_and_leaves_out_alone(self, case):
        x1, x2 = self._pair()
        if case == "inf against zero":
            x1[1, 2], x2[1, 2] = np.inf, 0.0
        else:
            x1[1, 2], x2[1, 2] = 1e200, 1e200j
        out = np.full(x1.shape, 5.0 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"non-finite bin \(NaN or inf\)"):
                cross_spectrum(x1, x2, out=out)
        assert np.all(out == 5.0 + 1j)

    def test_a_large_finite_product_is_still_accepted(self):
        x1, x2 = self._pair()
        x1[1, 2], x2[1, 2] = 1e150, -1e150j
        out = cross_spectrum(x1, x2)
        assert out[1, 2] == pytest.approx(1j, abs=1e-15)
