"""Scalar parameters, the angle/TDOA grid, PHAT gains, and the steering matrix.

The direction-of-arrival search space is a grid of Q angles

    theta_q = (q / (Q - 1) - 1/2) * pi,          q = 0 .. Q-1

mapped to fractional time differences of arrival (in samples)

    tau_q = (fS / c) * d * sin(theta_q)

for a two-microphone pair with spacing ``d``. The steering matrix collects
one complex exponential row per angle,

    W[q, k] = g[k] * exp(j * 2*pi * k * tau_q / N),   k = 0 .. N/2

where the gains ``g`` normalize each row to unit Euclidean norm, so
diag(W W^H) = I. Everything here is built once, offline; the per-frame
estimators only read it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError

ALLOWED_INTERP = (1, 2, 4, 8, 16, 32)


def _check_positive_finite(what: str, value) -> None:
    if not 0 < value < np.inf:  # written so that NaN fails too
        raise ConfigurationError(f"{what} must be positive and finite, got {value}")


# the types q, n, hop and interp may have: a float would reach numpy's shapes or a format code
_INTEGER = (int, np.integer)


@dataclass(frozen=True)
class GccParams:
    """All scalar configuration for the estimators.

    Attributes
    ----------
    q : number of discrete angles in the grid.
    n : STFT frame size in samples (even).
    hop : hop size between frames in samples.
    dist : microphone spacing in meters.
    speed : speed of sound in m/s.
    rate : sample rate in samples/s.
    delta : low-rank reconstruction tolerance for the SVD back-end.
    interp : frequency zero-padding factor for the FFT back-ends.
    """

    q: int = 181
    n: int = 512
    hop: int = 160
    dist: float = 0.05
    speed: float = 343.0
    rate: int = 16000
    delta: float = 1e-5
    interp: int = 1

    def __post_init__(self) -> None:
        for name in ("q", "n", "hop", "interp"):  # kept as int: the fft paths call int methods on n
            value = getattr(self, name)
            if not isinstance(value, _INTEGER):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.q < 2:
            raise ConfigurationError(f"need at least 2 grid angles, got q={self.q}")
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigurationError(f"frame size must be even and >= 4, got n={self.n}")
        if not 0 < self.hop <= self.n:
            raise ConfigurationError(f"hop must be in (0, n], got hop={self.hop}")
        _check_positive_finite("microphone spacing", self.dist)
        _check_positive_finite("speed of sound", self.speed)
        _check_positive_finite("sample rate", self.rate)
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must be in (0, 1), got {self.delta}")
        if self.interp not in ALLOWED_INTERP:
            raise ConfigurationError(
                f"interp must be one of {ALLOWED_INTERP}, got {self.interp}")
        # every lag must stay representable within one frame
        if self.max_lag >= self.n / 2:
            raise ConfigurationError(
                f"max |tau| = {self.max_lag:.3f} samples exceeds n/2 = {self.n // 2}")

    @property
    def half_bins(self) -> int:
        """Length of a one-sided spectrum: N/2 + 1."""
        return self.n // 2 + 1

    @property
    def max_lag(self) -> float:
        """Largest reachable |tau| in samples: (fS / c) * d."""
        return self.rate * self.dist / self.speed


@dataclass(frozen=True)
class AngularGrid:
    """The Q grid angles (radians) and their TDOAs (fractional samples)."""

    thetas: np.ndarray
    taus: np.ndarray


@dataclass(frozen=True)
class SteeringMatrix:
    """PHAT gains and the complex Q x (N/2+1) steering matrix."""

    gains: np.ndarray
    entries: np.ndarray


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Nearest integer (as float), ties away from zero (not banker's rounding)."""
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def theta_grid(params: GccParams) -> AngularGrid:
    """Build the angle grid and its TDOAs.

    The angles are computed from the integer numerator ``2q - (Q-1)`` so the
    grid is exactly symmetric about broadside: thetas[q] == -thetas[Q-1-q]
    bit for bit, and therefore taus inherits exact odd symmetry through the
    sign symmetry of sin.
    """
    q = np.arange(params.q)
    num = 2 * q - (params.q - 1)
    thetas = (num / (2.0 * (params.q - 1))) * np.pi
    taus = params.max_lag * np.sin(thetas)
    return AngularGrid(thetas=_freeze(thetas), taus=_freeze(taus))


def normalization_gains(n: int) -> np.ndarray:
    """PHAT normalization gains g[0..N/2].

    g[0] = g[N/2] = 1/sqrt(N) and sqrt(2/N) in between, which makes
    sum(g**2) == 1 and hence every steering row unit-norm.
    """
    if n < 4 or n % 2 != 0:
        raise ConfigurationError(f"frame size must be even and >= 4, got n={n}")
    g = np.full(n // 2 + 1, np.sqrt(2.0 / n))
    g[0] = g[-1] = 1.0 / np.sqrt(n)
    return _freeze(g)


def steering_matrix(params: GccParams, grid: AngularGrid) -> SteeringMatrix:
    """Assemble W[q, k] = g[k] * exp(j * 2*pi * k * taus[q] / N); built once per (N, taus)
    in a process and shared read-only, as ``stft.window_samples`` shares its windows."""
    if grid.thetas.shape != (params.q,) or grid.taus.shape != (params.q,):
        raise ConfigurationError(
            f"grid has {grid.taus.shape[0]} angles but params.q={params.q}")
    return _steering(params.n, grid.taus.dtype.str, grid.taus.tobytes())


@lru_cache(maxsize=4)
def _steering(n: int, dtype: str, raw: bytes) -> SteeringMatrix:
    taus = np.frombuffer(raw, dtype)
    gains = normalization_gains(n)
    k = np.arange(len(gains))
    entries = gains * np.exp(1j * ((2.0 * np.pi / n) * np.outer(taus, k)))
    return SteeringMatrix(gains=gains, entries=_freeze(entries))
