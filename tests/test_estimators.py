"""Back-end correctness: oracles, frozen arithmetic, and cross-method properties."""
import math
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gccdoa.core import (ALLOWED_INTERP, AngularGrid, GccParams, normalization_gains,
                         round_half_away, steering_matrix, theta_grid)
from gccdoa.errors import ConfigurationError, DimensionError, InputError
from gccdoa.evaluation import DEFAULT_BENCH_SEED
from gccdoa.estimators import (DoaEstimate, FftEstimator, InterpolatedLags,
                               MatrixEstimator, SvdEstimator, _lag_operator,
                               build_estimator, fft_correlate, map_lags,
                               method_names, mm_correlate, parse_method,
                               pick_peak, qi_correlate, svd_correlate)
from gccdoa.factorization import factorize

TABLE = GccParams()
GRID = theta_grid(TABLE)
W = steering_matrix(TABLE, GRID)
GAIN_SUM = 16.025888347648318  # sum of the N=512 PHAT gains
BOUND = np.sqrt(257) + 1e-6


def synthetic_spectrum(tau: float, n: int = 512) -> np.ndarray:
    """Single-source cross-spectrum with TDOA tau samples."""
    k = np.arange(n // 2 + 1)
    return np.exp(-2j * np.pi * k * tau / n)


def unit_modulus_batch(count: int, bins: int = 257, seed: int = 99) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.exp(1j * rng.uniform(0, 2 * np.pi, size=(count, bins)))


class TestMmCorrelate:
    def test_synthetic_source_peaks_at_its_angle(self):
        for q0 in (0, 17, 90, 140, 180):
            values = mm_correlate(W, synthetic_spectrum(GRID.taus[q0]))
            assert np.argmax(values) == q0
            assert values[q0] == pytest.approx(GAIN_SUM, rel=1e-12)

    def test_zero_input_gives_zero_curve(self):
        assert np.all(mm_correlate(W, np.zeros(257, dtype=complex)) == 0.0)

    def test_matches_bruteforce_sum(self):
        # independent elementwise evaluation, no matrix product
        x12 = unit_modulus_batch(5)
        g = normalization_gains(512)
        k = np.arange(257)
        for x in x12:
            expect = np.empty(181)
            for q in range(181):
                phi = 2 * np.pi * k * GRID.taus[q] / 512
                expect[q] = np.sum(g * (np.cos(phi) * x.real - np.sin(phi) * x.imag))
            assert mm_correlate(W, x) == pytest.approx(expect, abs=1e-10)

    def test_pure_python_anchor_row(self):
        x = unit_modulus_batch(1)[0]
        q = 37
        acc = 0.0
        for k in range(257):
            gk = math.sqrt(2 / 512) if 0 < k < 256 else math.sqrt(1 / 512)
            phi = 2 * math.pi * k * GRID.taus[q] / 512
            acc += gk * (math.cos(phi) * x[k].real - math.sin(phi) * x[k].imag)
        assert mm_correlate(W, x)[q] == pytest.approx(acc, abs=1e-10)

    def test_mirror_symmetry_under_conjugation(self):
        x = unit_modulus_batch(1, seed=5)[0]
        values = mm_correlate(W, x)
        mirrored = mm_correlate(W, np.conj(x))
        assert mirrored == pytest.approx(values[::-1], abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            mm_correlate(W, np.ones(100, dtype=complex))


class TestFftCorrelate:
    def test_all_ones_peaks_at_zero_lag(self):
        y = fft_correlate(np.ones(257, dtype=complex), TABLE)
        assert len(y.samples) == 512 and y.factor == 1
        assert y.samples[0] == pytest.approx(GAIN_SUM, rel=1e-12)
        assert np.argmax(y.samples) == 0

    @pytest.mark.parametrize("d", [0, 3, 100, -2, -77])
    def test_integer_delay_peaks_at_that_lag(self, d):
        y = fft_correlate(synthetic_spectrum(d), TABLE)
        assert np.argmax(y.samples) == d % 512

    @pytest.mark.parametrize("interp", [2, 4, 8, 16, 32])
    def test_consistency_with_factor_one(self, interp):
        x = unit_modulus_batch(1, seed=interp)[0]
        y1 = fft_correlate(x, TABLE)
        yi = fft_correlate(x, GccParams(interp=interp))
        assert yi.samples[::interp] == pytest.approx(y1.samples, abs=1e-9)

    def test_output_length_and_finiteness(self):
        p = GccParams(interp=8)
        y = fft_correlate(unit_modulus_batch(1)[0], p)
        assert len(y.samples) == 8 * 512
        assert np.all(np.isfinite(y.samples))

    def test_complex_edge_bins_use_real_part_only(self):
        x = np.ones(257, dtype=complex)
        x[0] = 0.3 + 0.9j
        x[256] = -0.4 + 0.7j
        y = fft_correlate(x, TABLE)
        x_real_edges = x.copy()
        x_real_edges[0] = 0.3
        x_real_edges[256] = -0.4
        expect = fft_correlate(x_real_edges, TABLE)
        assert y.samples == pytest.approx(expect.samples, abs=1e-12)

    def test_matches_mm_on_the_grid_lags(self):
        # the direct sum at integer tau equals the inverse-transform sample
        x = unit_modulus_batch(1, seed=7)[0]
        y = fft_correlate(x, TABLE)
        g = normalization_gains(512)
        k = np.arange(257)
        for t in (0, 1, 5, 510, 256):
            expect = np.sum((g * x * np.exp(2j * np.pi * k * t / 512)).real)
            # one-sided convention: edge bins contribute their real parts
            assert y.samples[t] == pytest.approx(expect, abs=1e-10)


class TestMapLags:
    def test_negative_lag_wraps(self):
        grid = AngularGrid(thetas=np.zeros(1), taus=np.array([-2.0]))
        y = InterpolatedLags(samples=np.arange(512, dtype=float), factor=1)
        assert map_lags(y, grid, TABLE) == pytest.approx([510.0])

    def test_zero_maps_to_zero(self):
        grid = AngularGrid(thetas=np.zeros(1), taus=np.array([0.0]))
        y = InterpolatedLags(samples=np.arange(512, dtype=float), factor=1)
        assert map_lags(y, grid, TABLE) == pytest.approx([0.0])

    def test_table_max_lag_at_interp32(self):
        # 32 * 2.33236... = 74.6356 -> nearest lag 75
        p = GccParams(interp=32)
        y = InterpolatedLags(samples=np.arange(32 * 512, dtype=float), factor=32)
        grid = AngularGrid(thetas=GRID.thetas[-1:], taus=GRID.taus[-1:])
        assert map_lags(y, grid, p) == pytest.approx([75.0])

    def test_rounds_half_away_from_zero(self):
        p = GccParams(interp=1)
        y = InterpolatedLags(samples=np.arange(512, dtype=float), factor=1)
        grid = AngularGrid(thetas=np.zeros(4), taus=np.array([0.5, 1.5, -0.5, -1.5]))
        assert map_lags(y, grid, p) == pytest.approx([1.0, 2.0, 511.0, 510.0])

    def test_factor_mismatch_rejected(self):
        y = InterpolatedLags(samples=np.zeros(512), factor=1)
        with pytest.raises(ConfigurationError):
            map_lags(y, GRID, GccParams(interp=2))

    def test_full_grid_readout(self):
        x = unit_modulus_batch(1, seed=11)[0]
        p = GccParams(interp=4)
        y = fft_correlate(x, p)
        values = map_lags(y, GRID, p)
        idx = np.sign(4 * GRID.taus) * np.floor(np.abs(4 * GRID.taus) + 0.5)
        expect = y.samples[idx.astype(int) % 2048]
        assert np.array_equal(values, expect)


class TestQiCorrelate:
    def test_symmetric_triple_at_zero_offset(self):
        samples = np.zeros(512)
        samples[[9, 10, 11]] = [1.0, 4.0, 1.0]
        grid = AngularGrid(thetas=np.zeros(1), taus=np.array([10.0]))
        assert qi_correlate(InterpolatedLags(samples, 1), grid, TABLE) == pytest.approx([4.0])

    def test_reproduces_quadratic_frozen_case(self):
        # p(t) = 2 t^2 - t + 3 sampled at t in {-1, 0, 1} around lag 20,
        # evaluated at offset 0.3: p(0.3) = 2.88
        samples = np.zeros(512)
        samples[[19, 20, 21]] = [6.0, 3.0, 4.0]
        grid = AngularGrid(thetas=np.zeros(1), taus=np.array([20.3]))
        values = qi_correlate(InterpolatedLags(samples, 1), grid, TABLE)
        assert values == pytest.approx([2.88], abs=1e-12)

    def test_zero_offsets_reduce_to_map_lags(self):
        rng = np.random.default_rng(12)
        samples = rng.standard_normal(512)
        taus = np.array([-3.0, 0.0, 7.0, 255.0])
        grid = AngularGrid(thetas=np.zeros(4), taus=taus)
        y = InterpolatedLags(samples, 1)
        assert np.array_equal(qi_correlate(y, grid, TABLE), map_lags(y, grid, TABLE))

    def test_exact_on_random_quadratics(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, b, c = rng.uniform(-5, 5, 3)
            base = int(rng.integers(2, 500))
            frac = rng.uniform(-0.5, 0.5)
            samples = np.zeros(512)
            samples[[base - 1, base, base + 1]] = [a - b + c, c, a + b + c]
            grid = AngularGrid(thetas=np.zeros(1), taus=np.array([base + frac]))
            values = qi_correlate(InterpolatedLags(samples, 1), grid, TABLE)
            assert values[0] == pytest.approx(a * frac**2 + b * frac + c, abs=1e-12)

    def test_wraps_at_lag_zero(self):
        samples = np.zeros(512)
        samples[[511, 0, 1]] = [6.0, 3.0, 4.0]
        grid = AngularGrid(thetas=np.zeros(1), taus=np.array([0.3]))
        values = qi_correlate(InterpolatedLags(samples, 1), grid, TABLE)
        assert values == pytest.approx([2.88], abs=1e-12)


class TestSvdCorrelate:
    def test_full_rank_matches_mm(self):
        # keep every singular value: the reconstruction identity is exact
        from gccdoa.factorization import LowRankFactors, split_steering
        w_r, w_i = split_steering(W)
        (ur, sr, vtr), (ui, si, vti) = np.linalg.svd(w_r, 0), np.linalg.svd(w_i, 0)
        factors = LowRankFactors(u_r=ur, t_r=sr[:, None] * vtr, u_i=ui, t_i=si[:, None] * vti,
                                 k_r=len(sr), k_i=len(si), delta=0.0)
        for x in unit_modulus_batch(20, seed=21):
            assert svd_correlate(factors, x) == pytest.approx(mm_correlate(W, x), abs=1e-8)

    def test_tiny_delta_stays_close_to_mm(self):
        # through rank selection the imaginary part keeps a ~1e-8 singular
        # tail at float precision, so the achievable bound is looser
        factors = factorize(W, 1e-12)
        for x in unit_modulus_batch(20, seed=21):
            assert svd_correlate(factors, x) == pytest.approx(mm_correlate(W, x), abs=1e-6)

    def test_zero_input_gives_zero_curve(self):
        factors = factorize(W, 1e-5)
        assert np.all(svd_correlate(factors, np.zeros(257, dtype=complex)) == 0.0)

    def test_strided_and_complex64_frames_match_mm(self):
        # the kernel reads a frame as interleaved float64 (re, im) pairs, so a
        # strided or single-precision frame must be converted, not reinterpreted
        factors = factorize(W, 1e-12)
        est = SvdEstimator(TABLE, factors)
        columns = unit_modulus_batch(4, seed=23).T
        for x in (columns[:, 1], columns[:, 2].astype(np.complex64)):
            ref = mm_correlate(W, x)
            assert svd_correlate(factors, x) == pytest.approx(ref, abs=1e-6)
            e = est.estimate(x)
            assert e.q_max == int(np.argmax(ref))
            assert e.energy == pytest.approx(ref[e.q_max], abs=1e-6)

    def test_argmax_agreement_at_default_delta(self):
        factors = factorize(W, 1e-5)
        rng = np.random.default_rng(22)
        agree = 0
        for tau in rng.uniform(-2.33, 2.33, 100):
            x = synthetic_spectrum(tau)
            agree += np.argmax(svd_correlate(factors, x)) == np.argmax(mm_correlate(W, x))
        assert agree >= 99

    def test_dimension_mismatch_rejected(self):
        factors = factorize(W, 1e-5)
        with pytest.raises(DimensionError):
            svd_correlate(factors, np.ones(64, dtype=complex))


def _frames_and_their_copies(seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """A strided, a complex64 and a real float64 frame, each with its contiguous complex128 copy."""
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((257, 3)) + 1j * rng.standard_normal((257, 3))
    frames = (block[:, 0], block[:, 1].astype(np.complex64), np.ascontiguousarray(block[:, 2].real))
    return [(x, np.array(x, dtype=np.complex128)) for x in frames]


class TestFramesAreConvertedNotReinterpreted:
    """Every back-end reads a frame as contiguous complex128: a strided, single-precision
    or real frame gives the bits of its contiguous complex128 copy."""

    @pytest.mark.parametrize("name", method_names())
    def test_every_method(self, name):
        est = build_estimator(name, TABLE)
        for x, ref in _frames_and_their_copies(31):
            assert ref.flags.c_contiguous and ref.dtype == np.complex128
            assert repr(est.estimate(x)) == repr(est.estimate(ref))

    def test_free_functions(self):
        factors = factorize(W, TABLE.delta)
        for x, ref in _frames_and_their_copies(32):
            assert mm_correlate(W, x).tobytes() == mm_correlate(W, ref).tobytes()
            assert svd_correlate(factors, x).tobytes() == svd_correlate(factors, ref).tobytes()
            for interp in ALLOWED_INTERP:
                p = GccParams(interp=interp)
                assert fft_correlate(x, p).samples.tobytes() == fft_correlate(ref, p).samples.tobytes()


class TestPickPeak:
    def test_simple_max(self):
        grid = theta_grid(GccParams(q=3))
        est = pick_peak(np.array([0.0, 3.0, 1.0]), grid)
        assert est == DoaEstimate(q_max=1, theta_est=grid.thetas[1], energy=3.0)

    def test_tie_breaks_to_lowest_index(self):
        grid = theta_grid(GccParams(q=5))
        assert pick_peak(np.ones(5), grid).q_max == 0

    def test_empty_curve_rejected(self):
        with pytest.raises(DimensionError):
            pick_peak(np.array([]), GRID)

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            pick_peak(np.ones(7), GRID)

    def test_end_to_end_on_synthetic_source(self):
        q0 = 33
        values = mm_correlate(W, synthetic_spectrum(GRID.taus[q0]))
        est = pick_peak(values, GRID)
        assert est.q_max == q0
        assert est.theta_est == GRID.thetas[q0]
        assert est.energy == pytest.approx(GAIN_SUM, rel=1e-12)

    @pytest.mark.parametrize("where", [slice(None), 0, 90, 180])
    def test_nan_curve_rejected(self, where):
        values = np.zeros(TABLE.q)
        values[where] = np.nan
        with pytest.raises(InputError, match="non-finite"):
            pick_peak(values, GRID)


class TestNonFiniteFrames:
    """A frame with one NaN or infinite bin fails loudly; it never yields a plausible angle."""

    @pytest.mark.parametrize("name", method_names())
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_estimate_rejects_a_non_finite_bin(self, name, bad):
        est = build_estimator(name, TABLE)
        for k in (0, 1, 128, 256):
            x = synthetic_spectrum(0.7)
            x[k] = complex(bad, 0.0)
            # numpy warns of the NaN it makes on the way; the estimate must still fail
            with np.errstate(invalid="ignore"), pytest.raises(InputError, match="non-finite"):
                est.estimate(x)

    @pytest.mark.parametrize("name", [f"fft{i:02d}{qi}" for i in (8, 16, 32) for qi in ("", "-qi")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lag_operator_fails_without_a_numpy_warning(self, name, bad):
        # fft08..fft32 read their window through the real operator at the defaults, as
        # fft01..fft04 do: a caller that turns warnings into errors still gets InputError
        est = build_estimator(name, TABLE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (0, 1, 128, 256):
                x = synthetic_spectrum(0.7)
                x[k] = complex(bad, 0.0)
                with pytest.raises(InputError, match="non-finite"):
                    est.estimate(x)

    @pytest.mark.parametrize("name", method_names())
    @pytest.mark.parametrize("params", [TABLE, GccParams(dist=0.3)], ids=["defaults", "dist0.3"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_estimate_rejects_a_non_finite_imaginary_edge_part(self, name, params, bad):
        # at 0.3 m fft01..fft04(-qi) take the padded irfft, which drops Im X12 at the
        # edges; g * X12 is complex, so a non-finite Im X12 still reaches the transform
        est = build_estimator(name, params)
        for k in (0, 256):
            x = synthetic_spectrum(0.7)
            x[k] = complex(x[k].real, bad)
            with np.errstate(invalid="ignore"), pytest.raises(InputError, match="non-finite"):
                est.estimate(x)


class TestBoundedness:
    @pytest.mark.parametrize("name", ["mm", "fft01", "fft08", "fft02-qi", "fft32-qi", "svd"])
    def test_unit_modulus_curves_within_cauchy_schwarz_bound(self, name):
        est = build_estimator(name, TABLE)
        for x in unit_modulus_batch(10, seed=31):
            assert abs(est.estimate(x).energy) <= BOUND


class TestPreparedEstimators:
    def test_matrix_estimator_matches_free_functions(self):
        est = MatrixEstimator(TABLE)
        for x in unit_modulus_batch(5, seed=41):
            e = est.estimate(x)
            ref = pick_peak(mm_correlate(W, x), GRID)
            assert e == ref

    @pytest.mark.parametrize("interp,qi", [(1, False), (2, False), (4, True), (32, True)])
    def test_fft_estimator_matches_free_functions(self, interp, qi):
        p = GccParams(interp=interp)
        est = FftEstimator(p, qi=qi)
        for x in unit_modulus_batch(5, seed=42):
            y = fft_correlate(x, p)
            curve = qi_correlate(y, GRID, p) if qi else map_lags(y, GRID, p)
            ref = pick_peak(curve, GRID)
            e = est.estimate(x)
            assert e.q_max == ref.q_max
            assert e.energy == pytest.approx(ref.energy, abs=1e-10)

    def test_svd_estimator_matches_free_functions(self):
        factors = factorize(W, 1e-5)
        est = SvdEstimator(TABLE, factors)
        for x in unit_modulus_batch(5, seed=43):
            e = est.estimate(x)
            ref = pick_peak(svd_correlate(factors, x), GRID)
            assert e == ref

    def test_svd_estimator_builds_factors_when_missing(self):
        est = SvdEstimator(TABLE)
        assert est.factors.delta == TABLE.delta

    def test_svd_estimator_measures_only_supplied_factors(self, monkeypatch):
        import gccdoa.estimators as estimators
        calls = []
        real = estimators.reconstruction_ratios
        monkeypatch.setattr(estimators, "reconstruction_ratios",
                            lambda *a: calls.append(a) or real(*a))
        SvdEstimator(TABLE)  # factorize has just checked the factors it builds
        assert calls == []
        # supplied factors may come from another spacing, even if factorize built them
        SvdEstimator(TABLE, factorize(W, TABLE.delta))
        assert len(calls) == 1

    def test_build_estimator_returns_a_fresh_instance_over_one_matrix(self):
        a, b = build_estimator("mm", TABLE), build_estimator("mm", TABLE)
        assert a is not b and a._entries is b._entries

    def test_svd_estimator_rejects_mismatched_factors(self):
        factors = factorize(W, 1e-2)
        with pytest.raises(DimensionError):
            SvdEstimator(GccParams(q=91), factors)

    def test_svd_estimator_rejects_factors_of_another_spacing(self):
        # same Q and N, so the shapes fit; only the reconstruction shows the mismatch
        factors = factorize(W, TABLE.delta)
        with pytest.raises(ConfigurationError, match="reconstruction ratios"):
            SvdEstimator(GccParams(dist=0.1), factors)

    @pytest.mark.parametrize("name", method_names())
    def test_wrong_shaped_frame_rejected(self, name):
        est = build_estimator(name, TABLE)
        for frame in (np.ones(256, dtype=complex), np.ones((2, 257), dtype=complex)):
            with pytest.raises(DimensionError):
                est.estimate(frame)

    def test_estimate_is_reentrant(self):
        est = FftEstimator(GccParams(interp=2), qi=True)
        x = unit_modulus_batch(2, seed=44)
        first = est.estimate(x[0])
        est.estimate(x[1])
        again = est.estimate(x[0])
        assert first == again


class TestMethodRegistry:
    def test_roster_is_complete(self):
        names = method_names()
        assert names[0] == "mm" and names[-1] == "svd"
        assert len(names) == 14
        assert "fft01" in names and "fft32-qi" in names

    @pytest.mark.parametrize("name,expect", [
        ("mm", ("mm", 1, False)),
        ("svd", ("svd", 1, False)),
        ("fft01", ("fft", 1, False)),
        ("fft16-qi", ("fft", 16, True)),
    ])
    def test_parse_known_names(self, name, expect):
        assert parse_method(name) == expect

    @pytest.mark.parametrize("name", ["fft03", "fft1", "fft64", "mm-qi", "", "FFT01", "svd-qi"])
    def test_unknown_names_rejected(self, name):
        with pytest.raises(InputError):
            parse_method(name)

    def test_build_estimator_sets_interp_from_name(self):
        est = build_estimator("fft08-qi", TABLE)
        assert est.params.interp == 8 and est.qi
        assert est.name == "fft08-qi"


def _bench_batch(params: GccParams, count: int) -> np.ndarray:
    """The run_bench batch: unit-modulus frames drawn from the default bench seed."""
    rng = np.random.default_rng(DEFAULT_BENCH_SEED)
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(count, params.half_bins)))


class TestChirpWindow:
    """The prepared fftNN/fftNN-qi estimators against the full padded irfft."""

    def _check_against_padded_irfft(self, params: GccParams, frames: np.ndarray) -> None:
        grid = theta_grid(params)
        plain, quad = FftEstimator(params), FftEstimator(params, qi=True)
        for x in frames:
            y = fft_correlate(x, params)
            for est, curve in ((plain, map_lags(y, grid, params)), (quad, qi_correlate(y, grid, params))):
                ref = pick_peak(curve, grid)
                e = est.estimate(x)
                assert e.q_max == ref.q_max
                assert abs(e.energy - ref.energy) <= 1e-12 * np.max(np.abs(curve))

    @pytest.mark.parametrize("interp", [1, 2, 4, 8, 16, 32])
    def test_matches_padded_irfft_on_the_bench_batch(self, interp):
        params = GccParams(interp=interp)
        self._check_against_padded_irfft(params, _bench_batch(params, 2000))

    @pytest.mark.parametrize("base", [GccParams(dist=0.2, q=91), GccParams(n=256)])
    @pytest.mark.parametrize("interp", [4, 8, 16, 32])
    def test_matches_padded_irfft_off_the_defaults(self, base, interp):
        params = replace(base, interp=interp)
        self._check_against_padded_irfft(params, _bench_batch(params, 200))

    @pytest.mark.parametrize("interp", [1, 2, 4])
    def test_matches_padded_irfft_where_the_nearest_lag_reaches_half_the_transform(self, interp):
        # round(i * max_lag) = i*N/2: the signed window reads lags -i*N/2 and +i*N/2,
        # which are one sample of the padded transform
        params = GccParams(n=8, hop=8, dist=0.084, interp=interp)
        assert round_half_away(interp * params.max_lag) == interp * params.n // 2
        self._check_against_padded_irfft(params, _bench_batch(params, 2000))

    def test_whole_curve_matches_padded_irfft(self):
        params = GccParams(interp=32)
        grid = theta_grid(params)
        est = FftEstimator(params, qi=True)
        for x in unit_modulus_batch(20, seed=45):
            ref = qi_correlate(fft_correlate(x, params), grid, params)
            assert np.max(np.abs(est._curve(x) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_chirp_z_only_where_two_short_ffts_are_cheaper(self):
        # at the defaults every window's rows cost less than 10*M*log2(M), M = 512
        for interp in (1, 2, 4, 8, 16, 32):
            for qi in (False, True):
                assert FftEstimator(GccParams(interp=interp), qi=qi)._chirp is None
        # 0.2 m at i = 32 reads ~600 lags: 600 rows cost more than two 1024-point FFTs
        for qi in (False, True):
            est = FftEstimator(GccParams(dist=0.2, q=91, interp=32), qi=qi)
            assert est._op is None
            assert len(est._chirp[1]) == 1024

    def test_edge_bins_use_real_part_only(self):
        params = GccParams(interp=16)
        est = FftEstimator(params)
        x = unit_modulus_batch(1, seed=46)[0]
        nudged = x.copy()
        nudged[0] = x[0].real + 5j
        assert est._curve(nudged) == pytest.approx(est._curve(x), abs=1e-12)


class TestLagOperator:
    """Where the readout's lags are few, fft01..fft04 run one real operator on the
    interleaved spectrum in place of the padded irfft, with the same readout."""

    def test_operator_only_below_the_transform_cost(self):
        # one row per lag of the window, round(i * max_lag) = 2, 5, 9, 19, 37, 75 either side
        # of zero (qi: one more), below i*N*log2(i*N) and 10*M*log2(M) at every i
        rows = {1: 5, 2: 11, 4: 19, 8: 39, 16: 75, 32: 151}
        for interp in (1, 2, 4, 8, 16, 32):
            for qi in (False, True):
                est = FftEstimator(GccParams(interp=interp), qi=qi)
                assert est._op.shape == (rows[interp] + 2 * qi, 514)

    @pytest.mark.parametrize("params, kept", [
        (GccParams(dist=1.0, interp=1), "transform"), (GccParams(dist=1.0, interp=4), "transform"),
        (GccParams(q=3601, interp=4), "operator")])
    def test_wide_spacing_or_large_q_stays_bounded(self, params, kept):
        # 1 m spreads the reads over ~i*93 lags, too many rows; 3601 angles still read 21 lags
        grid = theta_grid(params)
        est = FftEstimator(params, qi=True)
        assert est._chirp is None
        assert (est._op is None) == (kept == "transform")
        if est._op is not None:
            assert est._op.shape == (21, 514)
        for x in unit_modulus_batch(10, seed=47):
            ref = qi_correlate(fft_correlate(x, params), grid, params)
            assert np.max(np.abs(est._curve(x) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("interp", [1, 2, 4])
    def test_edge_bins_use_real_part_only(self, interp):
        # DC always, and Nyquist at i = 1 only: for i > 1 it is an interior bin of the irfft
        est = FftEstimator(GccParams(interp=interp))
        x = unit_modulus_batch(1, seed=48)[0]
        nudged = x.copy()
        nudged[0] += 5j
        if interp == 1:
            nudged[-1] += 5j
        assert np.array_equal(est._curve(nudged), est._curve(x))


class TestPaddedTransformEdgeBins:
    """The padded irfft reads only Re X12 at DC, and at NN = 1 at Nyquist (for NN > 1
    Nyquist is an interior bin of the transform): the imaginary parts there change no bit."""

    @staticmethod
    def _edges(x: np.ndarray, interp: int, imag: float) -> np.ndarray:
        y = x.copy()
        for k in ([0, -1] if interp == 1 else [0]):
            y[k] = complex(x[k].real, imag)
        return y

    @pytest.mark.parametrize("interp", [1, 4])
    @pytest.mark.parametrize("qi", [False, True])
    def test_prepared_transform_branch(self, interp, qi):
        est = FftEstimator(GccParams(dist=1.0, interp=interp), qi=qi)
        assert est._op is None and est._chirp is None
        for x in unit_modulus_batch(5, seed=49):
            assert np.array_equal(est._curve(self._edges(x, interp, 5.0)),
                                  est._curve(self._edges(x, interp, 0.0)))

    @pytest.mark.parametrize("interp", [1, 2, 32])
    def test_fft_correlate(self, interp):
        p = GccParams(interp=interp)
        for x in unit_modulus_batch(5, seed=50):
            assert np.array_equal(fft_correlate(self._edges(x, interp, 5.0), p).samples,
                                  fft_correlate(self._edges(x, interp, 0.0), p).samples)


def _full_table_operator(n: int, interp: int, lo: int, count: int) -> np.ndarray:
    """The window's operator gathered from all i*N twiddles exp(2*pi*j*m/(i*N))."""
    i_n = interp * n
    gains = normalization_gains(n)
    turns = np.exp((2j * np.pi / i_n) * np.arange(i_n))
    rows = gains * turns[np.outer(np.arange(lo, lo + count), np.arange(n // 2 + 1)) % i_n]
    op = np.stack([rows.real, -rows.imag], axis=-1)
    op[:, [0, -1] if interp == 1 else 0, 1] = 0.0
    return op.reshape(count, -1)


class TestLagOperatorCache:
    """Each lag window's operator is built once per process and shared read-only."""

    def test_two_estimators_share_one_read_only_operator(self):
        a = FftEstimator(GccParams(interp=32), qi=True)
        b = build_estimator("fft32-qi", GccParams())
        assert a._op is b._op
        assert not a._op.flags.writeable
        with pytest.raises(ValueError):
            a._op[0, 0] = 0.0

    @pytest.mark.parametrize("base", [GccParams(), GccParams(n=384), GccParams(dist=0.2, q=91)])
    @pytest.mark.parametrize("interp", [1, 2, 4, 8, 16, 32])
    def test_shared_operator_has_the_bits_of_an_uncached_build(self, base, interp):
        params = replace(base, interp=interp)
        for qi in (False, True):
            op = FftEstimator(params, qi=qi)._op
            if op is None:
                continue
            # an odd grid reads a window symmetric about lag 0
            count = op.shape[0]
            assert count % 2 == 1
            window = (params.n, interp, -(count // 2), count)
            for ref in (_lag_operator.__wrapped__(*window), _full_table_operator(*window)):
                assert ref.shape == op.shape and ref.dtype == op.dtype
                assert np.array_equal(ref.view(np.uint64), op.view(np.uint64))


_PREPARED_FFT = {name: build_estimator(name, TABLE) for name in method_names() if name.startswith("fft")}


class TestPreparedFftMatchesPaddedTransform:
    """Random spectra, silent bins and all-silent frames: every prepared fftNN and
    fftNN-qi picks the same peak as fft_correlate + map_lags / qi_correlate. A
    nearest-lag readout gives runs of angles the same value, so each fftNN frame is
    an exact first-index tie, and a silent frame is one at every angle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), silent=st.floats(0.0, 1.0), scale=st.floats(1e-6, 1e6))
    @example(seed=0, silent=1.0, scale=1.0)
    def test_same_peak_as_the_padded_readout(self, seed, silent, scale):
        rng = np.random.default_rng(seed)
        x = scale * (rng.standard_normal(257) + 1j * rng.standard_normal(257))
        x[rng.uniform(size=257) < silent] = 0.0
        for name, est in _PREPARED_FFT.items():
            y = fft_correlate(x, est.params)
            curve = (qi_correlate if est.qi else map_lags)(y, est.grid, est.params)
            ref = pick_peak(curve, est.grid)
            e = est.estimate(x)
            assert e.q_max == ref.q_max, name
            assert abs(e.energy - ref.energy) <= 1e-12 * np.max(np.abs(curve)), name


_WIDEST_DELAY_STEP = float(np.max(np.diff(GRID.taus)))
_PROPERTY_ESTIMATORS = {name: build_estimator(name, TABLE)
                        for name in ["mm", "svd"] + [f"fft{i:02d}-qi" for i in (2, 4, 8, 16, 32)]}


class TestAgreementWithMmOnFractionalDelays:
    """Random fractional delays: the cheap back-ends' peaks stay next to mm's.

    Near endfire the grid's delays crowd (their spacing shrinks as cos theta),
    so a small delay error spans several grid indices there; fft02-qi and
    fft04-qi are held to one step of delay, the widest one, at broadside.
    """

    @pytest.mark.parametrize("name", ["svd", "fft08-qi", "fft16-qi", "fft32-qi"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(frac=st.floats(-1.0, 1.0))
    def test_within_one_grid_index_of_mm(self, name, frac):
        x = synthetic_spectrum(frac * TABLE.max_lag)
        q_mm = _PROPERTY_ESTIMATORS["mm"].estimate(x).q_max
        assert abs(_PROPERTY_ESTIMATORS[name].estimate(x).q_max - q_mm) <= 1

    @pytest.mark.parametrize("name", ["svd", "fft02-qi", "fft04-qi", "fft08-qi", "fft16-qi", "fft32-qi"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(frac=st.floats(-1.0, 1.0))
    def test_within_one_delay_step_of_mm(self, name, frac):
        x = synthetic_spectrum(frac * TABLE.max_lag)
        q_mm = _PROPERTY_ESTIMATORS["mm"].estimate(x).q_max
        q = _PROPERTY_ESTIMATORS[name].estimate(x).q_max
        assert abs(GRID.taus[q] - GRID.taus[q_mm]) <= _WIDEST_DELAY_STEP


class TestMethodTable:
    """parse_method and method_names read one table of the 14 names."""

    @pytest.mark.parametrize("name", method_names())
    def test_every_name_round_trips(self, name):
        kind, interp, qi = parse_method(name)
        rebuilt = f"fft{interp:02d}" + ("-qi" if qi else "") if kind == "fft" else kind
        assert rebuilt == name
        assert (kind == "fft") == name.startswith("fft") and (kind == "fft" or interp == 1)
        assert build_estimator(name, TABLE).name == name

    def test_roster_order(self):
        fft = [f"fft{i:02d}" for i in (1, 2, 4, 8, 16, 32)]
        assert method_names() == ["mm", *fft, *(f + "-qi" for f in fft), "svd"]

    def test_unknown_name_message(self):
        with pytest.raises(InputError) as info:
            parse_method("fft03")
        assert str(info.value) == ("unknown method 'fft03'; expected one of "
                                   + ", ".join(method_names()))


_SPACINGS = {"defaults": TABLE, "dist0.3": GccParams(dist=0.3)}


class TestMirroredPureDelay:
    """A pure delay at +theta and at -theta gives mirrored angles, and broadside
    reads 0. Plain fftNN reports the angle of its peak lag, not the first grid
    angle of the run of angles that read that lag. At dist=0.3 the fft lags
    come from the padded irfft and chirp-z instead of the lag operator."""

    @pytest.mark.parametrize("spacing", list(_SPACINGS))
    @pytest.mark.parametrize("name", method_names())
    def test_mirrored_about_broadside(self, name, spacing):
        params = _SPACINGS[spacing]
        est = build_estimator(name, params)

        def read(theta_deg: float) -> float:
            tau = params.max_lag * math.sin(math.radians(theta_deg))
            return math.degrees(est.estimate(synthetic_spectrum(tau, params.n)).theta_est)

        assert read(0.0) == 0.0
        for theta in (20.0, 45.0):
            plus, minus = read(theta), read(-theta)
            assert plus > 0.0 and plus == -minus, (theta, plus, minus)

    @pytest.mark.parametrize("interp", ALLOWED_INTERP)
    def test_plain_fft_reads_the_angle_of_its_peak_lag(self, interp):
        e = FftEstimator(replace(TABLE, interp=interp)).estimate(synthetic_spectrum(GRID.taus[120]))
        lag = round_half_away(interp * GRID.taus[e.q_max])
        assert e.theta_est == np.arcsin(lag / (interp * TABLE.max_lag))


@lru_cache(maxsize=2)
def _curve_operators(spacing: str) -> dict:
    """name -> (estimator, A_m, r_m) at one spacing. A_m is the real Q x 2(N/2+1) matrix of
    the method's curve on the spectrum read as interleaved (re, im) pairs, built
    column by column from _curve on the unit vectors 1 and j of every bin. For a
    PHAT frame (|X12[k]| <= 1) the largest possible |curve_m[q] - curve_mm[q]| is
    r_m[q] = sum_k |E[q, 2k] - j E[q, 2k+1]| with E = A_m - A_mm, reached by
    aligning each bin's phase."""
    params = _SPACINGS[spacing]
    bins = params.half_bins
    ops = {}
    for name in method_names():
        est = build_estimator(name, params)
        a = np.empty((params.q, 2 * bins))
        for k in range(bins):
            for part, unit in enumerate((1.0, 1j)):
                x = np.zeros(bins, dtype=np.complex128)
                x[k] = unit
                a[:, 2 * k + part] = est._curve(x)
        ops[name] = (est, a)
    a_mm = ops["mm"][1]
    return {name: (est, a, np.abs((a - a_mm)[:, 0::2] - 1j * (a - a_mm)[:, 1::2]).sum(axis=1))
            for name, (est, a) in ops.items()}


class TestExactGapToMm:
    """Every back-end's curve is one fixed real-linear map A_m of the interleaved
    PHAT spectrum, whichever kernel path computes it, so r_m bounds its gap to
    mm's curve exactly, at every angle and on every PHAT frame."""

    @pytest.mark.parametrize("spacing", list(_SPACINGS))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), silent=st.floats(0.0, 1.0))
    @example(seed=0, silent=1.0)
    def test_linear_map_and_gap_bound(self, spacing, seed, silent):
        ops = _curve_operators(spacing)
        bins = _SPACINGS[spacing].half_bins
        rng = np.random.default_rng(seed)
        x = np.exp(2j * np.pi * rng.uniform(size=bins))
        x[rng.uniform(size=bins) < silent] = 0.0
        curve_mm = ops["mm"][0]._curve(x)
        for name, (est, a, r) in ops.items():
            curve = est._curve(x)
            assert np.max(np.abs(a @ x.view(np.float64) - curve)) <= 1e-12 * np.max(np.abs(curve)), name
            assert np.all(np.abs(curve - curve_mm) <= r + 1e-12), name

    @pytest.mark.parametrize("spacing", list(_SPACINGS))
    def test_bound_is_reached_by_aligned_phases(self, spacing):
        ops = _curve_operators(spacing)
        a_mm = ops["mm"][1]
        assert not ops["mm"][2].any()
        for name, (est, a, r) in ops.items():
            q = int(np.argmax(r))
            c = (a - a_mm)[q, 0::2] - 1j * (a - a_mm)[q, 1::2]
            # Re(c_k x_k) = |c_k| for x_k = conj(c_k) / |c_k|
            x = np.ones_like(c)
            np.divide(np.conj(c), np.abs(c), out=x, where=c != 0)
            gap = est._curve(x)[q] - ops["mm"][0]._curve(x)[q]
            assert gap == pytest.approx(r[q], rel=1e-12, abs=1e-12), name


@pytest.mark.parametrize("readout", [map_lags, qi_correlate])
def test_lags_of_the_wrong_length_rejected(readout):
    """The factor matches params.interp, but 100 samples are not interp * n."""
    y = InterpolatedLags(samples=np.zeros(100), factor=TABLE.interp)
    with pytest.raises(DimensionError, match="100 lag samples"):
        readout(y, GRID, TABLE)
