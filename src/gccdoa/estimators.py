"""The four GCC-PHAT back-ends and peak picking.

Given a PHAT-normalized cross-spectrum X12, every back-end produces the same
quantity: a correlation curve over the Q grid angles,

    x12[q] = Re( sum_k g[k] * X12[k] * exp(j * 2*pi * k * tau_q / N) )

- "mm"       evaluates it exactly as one complex matrix-vector product.
- "fftNN"    zero-pads the spectrum by a factor i = NN, takes one real
             inverse FFT of length i*N, and reads the nearest lag per angle.
             The readout touches only the lags within about i*max_lag of zero
             (153 of 16384 at i=32), and the estimator computes just those, by
             whichever of three paths costs least: one real operator with a
             row per lag of the window (every NN at the defaults, 5-153 rows),
             chirp-z (Bluestein) with two complex FFTs of length M >= N/2 +
             window - 1 where the window outgrows the operator (wide spacings
             at NN >= 8), or the padded irfft itself. fft_correlate keeps the
             padded transform the paper times.
- "fftNN-qi" additionally corrects each read with a quadratic fit through
             the three neighboring lags, evaluated at the fractional offset.
- "svd"      replaces the exact product with two skinny real products from
             the offline low-rank factorization, stacked into one real
             operator that reads the spectrum as interleaved (re, im) pairs.

Each back-end's arithmetic is one private kernel over precomputed state. The
free functions build that state per call (``svd_correlate`` reads the operator
its factors carry); the prepared classes build it once
and share one ``estimate(x12) -> DoaEstimate`` (check the frame, run the
kernel, take the peak). Prepared state is immutable; estimate calls allocate
their own scratch and are reentrant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (ALLOWED_INTERP, AngularGrid, GccParams, SteeringMatrix,
                   _freeze, normalization_gains, round_half_away,
                   steering_matrix, theta_grid)
from .errors import ConfigurationError, DimensionError, InputError
from .factorization import (RECON_SLACK, LowRankFactors, factorize,
                            reconstruction_ratios)


@dataclass(frozen=True)
class DoaEstimate:
    """Peak of a correlation curve: grid index, angle (radians), and energy.

    For plain fftNN (no -qi) the angle is that of the peak lag itself,
    arcsin(lag / (i * max_lag)), so it need not be ``grid.thetas[q_max]``: a
    run of grid angles reads the same lag, and ``q_max`` is the first of them.
    """

    q_max: int
    theta_est: float
    energy: float


@dataclass(frozen=True)
class InterpolatedLags:
    """Time-domain correlation on the zero-padded lag grid of length factor*N."""

    samples: np.ndarray
    factor: int


def _check_spectrum(x12: np.ndarray, half_bins: int) -> np.ndarray:
    # every kernel reads contiguous complex128: such a frame is returned as is, any other converted once
    x12 = np.asarray(x12)
    if x12.shape != (half_bins,):
        raise DimensionError(f"cross-spectrum shape {x12.shape}, expected ({half_bins},)")
    return np.ascontiguousarray(x12, dtype=np.complex128)


def _peak(values: np.ndarray, thetas: np.ndarray) -> DoaEstimate:
    # the ndarray method skips the dispatch wrapper of the numpy function (~1.4 us/frame)
    q = int(values.argmax())
    energy = float(values[q])
    if not math.isfinite(energy):  # argmax stops at the first NaN, so NaN anywhere shows here
        raise InputError("correlation curve peaks at a non-finite value (NaN or inf)")
    return DoaEstimate(q, float(thetas[q]), energy)


def _mm_curve(entries: np.ndarray, x12: np.ndarray) -> np.ndarray:
    return (entries @ x12).real


def _padded_gains(gains: np.ndarray, interp: int) -> np.ndarray:
    """Gains pre-scaled so one irfft of length i*N yields the weighted sum.

    The real inverse transform doubles every interior bin and divides by the
    length, so interior gains carry i*N/2 and the DC (and, for i=1, Nyquist)
    edge carries i*N.
    """
    i_n = interp * (2 * (len(gains) - 1))
    gs = gains * float(i_n)
    gs[1:] *= 0.5
    if interp == 1:
        gs[-1] *= 2.0
    return gs


def _padded_lags(gs: np.ndarray, interp: int, x12: np.ndarray) -> np.ndarray:
    """Lag samples: one irfft of length i*N of the g-weighted, zero-padded spectrum.
    irfft itself drops the imaginary part of the DC bin and (at i = 1) of the Nyquist bin."""
    i_n = interp * (2 * (len(gs) - 1))
    buf = np.zeros(i_n // 2 + 1, dtype=np.complex128)
    np.multiply(gs, x12, out=buf[: len(gs)])
    return np.fft.irfft(buf, i_n)


def _chirp_length(bins: int, count: int) -> int:
    """Circular-convolution length of the chirp-z window: the power of two >= bins + count - 1."""
    return 1 << (bins + count - 2).bit_length()


def _chirp_window(gains: np.ndarray, interp: int, lo: int,
                  count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chirp-z (Bluestein) state (pre, FFT of the chirp filter, post) for the
    padded lags lo .. lo+count-1 only.

    Lag m = lo + l of the padded irfft is Re(sum_k g[k] X12[k] exp(j*th*k*m))
    with th = 2*pi/(i*N): the irfft's 1/(i*N) and interior doubling cancel the
    scaling of _padded_gains, so the pre-chirp carries g itself, and taking the
    real part keeps only Re X12 at the edges. Writing k*l = (k^2 + l^2 - (l-k)^2)/2
    turns the sum into a convolution with the chirp exp(-j*th*n^2/2); the
    exponents are reduced mod 2*i*N in integers, so the phases stay exact.
    """
    bins = len(gains)
    period = 2 * interp * (2 * (bins - 1))
    m = _chirp_length(bins, count)

    def chirp(e: np.ndarray) -> np.ndarray:
        return np.exp((2j * np.pi / period) * (e % period))

    k = np.arange(bins, dtype=np.int64)
    n = np.arange(-(bins - 1), count, dtype=np.int64)
    filt = np.zeros(m, dtype=np.complex128)
    filt[n % m] = chirp(-n * n)
    post = chirp(np.arange(count, dtype=np.int64) ** 2)
    return gains * chirp(k * k + 2 * lo * k), np.fft.fft(filt), post


@lru_cache(maxsize=12)
def _lag_operator(n: int, interp: int, lo: int, count: int) -> np.ndarray:
    """Real (count x 2(N/2+1)) operator for the padded lags lo .. lo+count-1 of
    the spectrum read as interleaved (re, im) pairs; built once per window (12:
    every fftNN and fftNN-qi name at one set of params) and shared, so read-only.

    Row l holds g[k] exp(-2*pi*j*k*m/(i*N)) for lag m = lo + l, read as
    (re, im) pairs, with k*m reduced mod i*N in integers so the phases stay
    exact. Only the count x (N/2+1) phases the rows use are evaluated, in the
    one complex array that the operator then views.
    """
    i_n = interp * n
    gains = normalization_gains(n)
    rows = np.outer(np.arange(lo, lo + count), np.arange(len(gains))) % i_n * (2j * np.pi / i_n)
    np.exp(rows, out=rows)
    rows *= gains
    np.conjugate(rows, out=rows)
    rows.imag[:, [0, -1] if interp == 1 else 0] = 0.0  # the edges read only Re X12
    return _freeze(rows.view(np.float64))


def _chirp_lags(pre: np.ndarray, filt: np.ndarray, post: np.ndarray, x12: np.ndarray) -> np.ndarray:
    """Lag samples of the chirp-z window: pre-chirp, one circular convolution, post-chirp."""
    conv = np.fft.ifft(np.fft.fft(pre * x12, len(filt)) * filt)
    return (conv[: len(post)] * post).real


def _lag_table(taus: np.ndarray, params: GccParams, qi: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Signed padded lags read per angle and their weights (None: read as is):
    the nearest lag round(i * tau), ties away from zero, or with qi the lags
    -1, 0, +1 around it, weighted to evaluate their parabola at the fractional
    offset delta in [-0.5, 0.5] left over. A negative lag indexes the padded
    transform from its end, which is the sample mod i*N."""
    r = params.interp * taus
    t0 = round_half_away(r)
    idx = t0.astype(np.int64)
    if not qi:
        return idx, None
    delta = r - t0
    lags = np.stack([idx - 1, idx, idx + 1])
    weights = np.stack([0.5 * (delta * delta - delta),
                        1.0 - delta * delta,
                        0.5 * (delta * delta + delta)])
    return lags, weights


def _read_lags(samples: np.ndarray, lags: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    return samples[lags] if weights is None else np.einsum("ij,ij->j", weights, samples[lags])


def _svd_apply(u: np.ndarray, t_il: np.ndarray, x12: np.ndarray) -> np.ndarray:
    return u @ (t_il @ x12.view(np.float64))


def mm_correlate(w: SteeringMatrix, x12: np.ndarray) -> np.ndarray:
    """Exact correlation curve: Re(W @ X12)."""
    return _mm_curve(w.entries, _check_spectrum(x12, w.entries.shape[1]))


def fft_correlate(x12: np.ndarray, params: GccParams) -> InterpolatedLags:
    """Zero-padded inverse transform of the g-weighted cross-spectrum."""
    x12 = _check_spectrum(x12, params.half_bins)
    gs = _padded_gains(normalization_gains(params.n), params.interp)
    return InterpolatedLags(samples=_padded_lags(gs, params.interp, x12), factor=params.interp)


def _check_lags(y: InterpolatedLags, params: GccParams) -> None:
    if y.factor != params.interp:
        raise ConfigurationError(f"lags built at factor {y.factor}, params.interp={params.interp}")
    if len(y.samples) != params.interp * params.n:
        raise DimensionError(f"{len(y.samples)} lag samples, expected {params.interp * params.n}")


def map_lags(y: InterpolatedLags, grid: AngularGrid, params: GccParams) -> np.ndarray:
    """Nearest-lag readout: values[q] = samples[round(i * tau_q)], a negative lag read from the end."""
    _check_lags(y, params)
    return _read_lags(y.samples, *_lag_table(grid.taus, params, False))


def qi_correlate(y: InterpolatedLags, grid: AngularGrid, params: GccParams) -> np.ndarray:
    """Quadratic-corrected readout at the fractional lag offsets.

    For each angle, fit a parabola through the three signed lags around
    round(i * tau_q) (a negative lag read from the end of the samples) and
    evaluate it at the remaining fractional offset delta in [-0.5, 0.5].
    """
    _check_lags(y, params)
    return _read_lags(y.samples, *_lag_table(grid.taus, params, True))


def svd_correlate(factors: LowRankFactors, x12: np.ndarray) -> np.ndarray:
    """Low-rank curve: U_R (T_R Re X12) - U_I (T_I Im X12)."""
    x12 = _check_spectrum(x12, factors.t_r.shape[1])
    return _svd_apply(*factors.operator, x12)


def pick_peak(curve: np.ndarray, grid: AngularGrid) -> DoaEstimate:
    """First index attaining the maximum; energy is the curve value there."""
    values = np.asarray(curve)
    if values.size == 0:
        raise DimensionError("empty correlation curve")
    if values.shape != grid.thetas.shape:
        raise DimensionError(f"curve has {values.shape[0]} values for {grid.thetas.shape[0]} angles")
    return _peak(values, grid.thetas)


class _PreparedEstimator:
    """Shared set-up and per-frame path; each subclass supplies its kernel as ``_curve``."""

    def __init__(self, params: GccParams, name: str):
        self.params = params
        self.grid = theta_grid(params)
        self.name = name
        self._bins = params.half_bins
        self._thetas = self.grid.thetas

    def estimate(self, x12: np.ndarray) -> DoaEstimate:
        return _peak(self._curve(_check_spectrum(x12, self._bins)), self._thetas)


class MatrixEstimator(_PreparedEstimator):
    """Exact back-end: one complex matrix-vector product per frame."""

    def __init__(self, params: GccParams):
        super().__init__(params, "mm")
        self._entries = steering_matrix(params, self.grid).entries

    def _curve(self, x12: np.ndarray) -> np.ndarray:
        return _mm_curve(self._entries, x12)


class FftEstimator(_PreparedEstimator):
    """Zero-padded-IFFT back-end over the lag window it reads, optionally with quadratic correction."""

    def __init__(self, params: GccParams, qi: bool = False):
        super().__init__(params, f"fft{params.interp:02d}" + ("-qi" if qi else ""))
        self.qi = qi
        gains = normalization_gains(params.n)
        lags, self._weights = _lag_table(self.grid.taus, params, qi)
        if not qi:  # the angle of the peak lag, theta = arcsin(lag / (i * max_lag)), not a grid angle
            self._thetas = np.arcsin(np.clip(lags / (params.interp * params.max_lag), -1.0, 1.0))
        i_n = params.interp * params.n
        lo = int(lags.min())
        count = int(lags.max()) - lo + 1
        self._chirp = self._op = None
        self._lags = lags - lo
        # Per-frame cost of each path, in the operator's count x (N/2+1) multiply-adds:
        # i*N*log2(i*N) for the irfft, 10*M*log2(M) for chirp-z, whose two length-M
        # complex FFTs must also beat one i*N/2-point one (4*M < i*N). Chirp-z is
        # overhead-bound at these sizes: timed on numpy 2.4 / OpenBLAS (2 cores), the
        # operator broke even with it at 10-23 x M*log2(M) for M <= 1024, 6-15 at M = 2048.
        m = _chirp_length(self._bins, count)
        if 4 * m < i_n and count * self._bins > 10 * m * math.log2(m):
            self._chirp = _chirp_window(gains, params.interp, lo, count)
        elif count * self._bins <= i_n * math.log2(i_n):
            self._op = _lag_operator(params.n, params.interp, lo, count)
        else:
            self._gs = _padded_gains(gains, params.interp)
            self._lags = lags

    def _curve(self, x12: np.ndarray) -> np.ndarray:
        if self._chirp is not None:
            samples = _chirp_lags(*self._chirp, x12)
        elif self._op is not None:
            samples = self._op @ x12.view(np.float64)
        else:
            samples = _padded_lags(self._gs, self.params.interp, x12)
        return _read_lags(samples, self._lags, self._weights)


class SvdEstimator(_PreparedEstimator):
    """Low-rank back-end using offline factors (built here if not supplied).

    Factors of another Q x (N/2+1) raise DimensionError; factors that miss this
    steering matrix by more than their own delta (built for another spacing,
    speed or rate) raise ConfigurationError.
    """

    def __init__(self, params: GccParams, factors: LowRankFactors | None = None):
        super().__init__(params, "svd")
        w = steering_matrix(params, self.grid)
        if factors is None:  # factorize checks the bound on what it builds
            factors = factorize(w, params.delta)
        else:  # supplied factors may fit another spacing
            rr, ri = reconstruction_ratios(factors, w)
            bound = factors.delta + RECON_SLACK
            if not (rr <= bound and ri <= bound):
                raise ConfigurationError(f"factors miss this steering matrix: reconstruction "
                                         f"ratios {rr:.3e}/{ri:.3e} exceed delta={factors.delta:g}")
        self.factors = factors
        self._u, self._t_il = factors.operator

    def _curve(self, x12: np.ndarray) -> np.ndarray:
        return _svd_apply(self._u, self._t_il, x12)


# name -> (kind, interp, qi), in roster order
_METHODS = {"mm": ("mm", 1, False),
            **{f"fft{i:02d}": ("fft", i, False) for i in ALLOWED_INTERP},
            **{f"fft{i:02d}-qi": ("fft", i, True) for i in ALLOWED_INTERP},
            "svd": ("svd", 1, False)}


def method_names() -> list[str]:
    """All 14 back-end names in roster order."""
    return list(_METHODS)


def parse_method(name: str) -> tuple[str, int, bool]:
    """Split a method name into (kind, interp, qi); rejects unknown names."""
    if name not in _METHODS:
        raise InputError(f"unknown method {name!r}; expected one of {', '.join(_METHODS)}")
    return _METHODS[name]


def build_estimator(name: str, params: GccParams,
                    factors: LowRankFactors | None = None):
    """Prepared estimator for a method name; interp in the name wins."""
    kind, interp, qi = parse_method(name)
    if kind == "mm":
        return MatrixEstimator(params)
    if kind == "svd":
        return SvdEstimator(params, factors)
    return FftEstimator(replace(params, interp=interp), qi=qi)
