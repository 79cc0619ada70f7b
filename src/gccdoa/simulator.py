"""Random-room scenario generation, image-method RIRs, and stereo rendering.

A scenario is one draw of (room, microphone pair, source) with ground-truth
DOA. Rooms come in three size categories, the pair axis is uniform on the
sphere, and both the pair center and the source are uniform inside the room
shrunk by a fixed wall clearance. Rendering convolves a mono source with the
two image-method impulse responses and adds independent per-channel white
noise at a target SNR.

All randomness flows through named integer seed paths so every artifact is
bit-reproducible: stream 0 draws geometry, stream 1 the source signal, and
stream 2 the rendering noise.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import fftconvolve

from .core import round_half_away
from .errors import ConfigurationError

CATEGORY_BOUNDS = {
    "small": ((5.0, 10.0), (5.0, 10.0), (3.0, 5.0)),
    "medium": ((10.0, 20.0), (10.0, 20.0), (3.0, 5.0)),
    "large": ((20.0, 20.0), (20.0, 20.0), (5.0, 10.0)),
}
CATEGORIES = tuple(CATEGORY_BOUNDS)

WALL_CLEARANCE = 0.5  # meters kept between any point and every wall
RIR_LENGTH = 4096     # default impulse response length in samples
KERNEL_HALF = 40      # fractional-delay sinc kernel spans 2*KERNEL_HALF+1 taps

GEOMETRY_STREAM, SOURCE_STREAM, NOISE_STREAM = 0, 1, 2


@dataclass(frozen=True)
class RoomSpec:
    dims: tuple[float, float, float]
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ConfigurationError(f"reflection coefficient must be in [0, 1), got {self.beta}")
        if any(x <= 0 for x in self.dims):
            raise ConfigurationError(f"room dimensions must be positive, got {self.dims}")


@dataclass(frozen=True)
class Scenario:
    room: RoomSpec
    mic_a: tuple[float, float, float]
    mic_b: tuple[float, float, float]
    source: tuple[float, float, float]
    theta0: float
    snr_db: float | None
    seed: tuple[int, ...]


@dataclass(frozen=True)
class RenderedPair:
    ch1: np.ndarray
    ch2: np.ndarray
    scenario: Scenario


def stream_rng(seed: Sequence[int], stream: int) -> np.random.Generator:
    """Deterministic generator for one named stream of a seed path."""
    return np.random.default_rng(np.random.SeedSequence([*map(int, seed), stream]))


def sample_room(category: str, rng: np.random.Generator) -> np.ndarray:
    """Room dimensions drawn uniformly within a size category's bounds."""
    try:
        bounds = CATEGORY_BOUNDS[category]
    except KeyError:
        raise ConfigurationError(
            f"unknown room category {category!r}; expected one of {CATEGORIES}") from None
    return np.array([rng.uniform(lo, hi) for lo, hi in bounds])


def pair_doa(mic_a, mic_b, source) -> float:
    """Ground-truth DOA: arcsin of (pair axis unit) . (midpoint-to-source unit)."""
    mic_a, mic_b, source = map(np.asarray, (mic_a, mic_b, source))
    u = mic_b - mic_a
    u = u / np.linalg.norm(u)
    v = source - 0.5 * (mic_a + mic_b)
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        raise ConfigurationError("source coincides with the pair midpoint")
    return float(np.arcsin(np.clip(np.dot(u, v / norm), -1.0, 1.0)))


def place_pair_and_source(room: RoomSpec, d: float, rng: np.random.Generator):
    """Random pair center/axis and source inside the clearance-shrunk room."""
    dims = np.asarray(room.dims)
    center_lo = WALL_CLEARANCE + 0.5 * d
    center_hi = dims - center_lo
    if np.any(center_hi <= center_lo) or np.any(dims <= 2 * WALL_CLEARANCE):
        raise ConfigurationError(
            f"room {room.dims} too small for {WALL_CLEARANCE} m clearance and spacing {d}")
    center = rng.uniform(np.full(3, center_lo), center_hi)
    axis = rng.standard_normal(3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    mic_a = center - 0.5 * d * axis
    mic_b = center + 0.5 * d * axis
    source = rng.uniform(np.full(3, WALL_CLEARANCE), dims - WALL_CLEARANCE)
    while np.linalg.norm(source - center) < 1e-9:
        source = rng.uniform(np.full(3, WALL_CLEARANCE), dims - WALL_CLEARANCE)
    return mic_a, mic_b, source, pair_doa(mic_a, mic_b, source)


def _check_inside(name: str, pos: np.ndarray, dims: np.ndarray) -> None:
    if np.any(pos <= 0) or np.any(pos >= dims):
        raise ConfigurationError(f"{name} {tuple(pos)} outside room {tuple(dims)}")


def image_rir(room: RoomSpec, source, mic, rate: int, length: int = RIR_LENGTH,
              speed: float = 343.0) -> np.ndarray:
    """Image-method room impulse response with fractional-delay placement.

    Mirror sources are enumerated per axis up to the order whose distance
    exceeds the response length; each image contributes
    beta**(reflection count) / (4 pi r) through an 81-tap Hann-windowed sinc
    centered at the fractional delay r * rate / c, placing energy at the
    exact arrival time instead of the nearest sample.
    """
    dims = np.asarray(room.dims, dtype=np.float64)
    source = np.asarray(source, dtype=np.float64)
    mic = np.asarray(mic, dtype=np.float64)
    _check_inside("source", source, dims)
    _check_inside("microphone", mic, dims)
    if length <= 0:
        raise ConfigurationError(f"RIR length must be positive, got {length}")

    c = float(speed)
    max_dist = (length + KERNEL_HALF) * c / rate
    orders = np.ceil(max_dist / (2.0 * dims)).astype(int)
    grids = [np.arange(-o, o + 1) for o in orders]
    rx, ry, rz = np.meshgrid(*grids, indexing="ij")
    r_all = np.stack([rx.ravel(), ry.ravel(), rz.ravel()], axis=1).astype(np.float64)

    h = np.zeros(length)
    offs = np.arange(-KERNEL_HALF, KERNEL_HALF + 1)
    beta = float(room.beta)
    for p in range(8):
        pv = np.array([(p >> 2) & 1, (p >> 1) & 1, p & 1], dtype=np.float64)
        pos = (1.0 - 2.0 * pv) * source + 2.0 * r_all * dims
        dist = np.maximum(np.linalg.norm(pos - mic, axis=1), 1e-6)
        refl = np.abs(r_all + pv).sum(axis=1) + np.abs(r_all).sum(axis=1)
        amp = beta**refl / (4.0 * np.pi * dist)
        delay = dist * rate / c
        keep = (delay < length + KERNEL_HALF) & (amp != 0.0)
        if not np.any(keep):
            continue
        delay, amp = delay[keep], amp[keep]
        base = round_half_away(delay).astype(np.int64)
        t = base[:, None] + offs[None, :] - delay[:, None]
        taps = amp[:, None] * np.sinc(t) * (0.5 * (1.0 + np.cos(np.pi * t / (KERNEL_HALF + 0.5))))
        idx = base[:, None] + offs[None, :]
        ok = (idx >= 0) & (idx < length)
        h += np.bincount(idx[ok].ravel(), weights=taps[ok].ravel(), minlength=length)[:length]
    return h


def speech_like_source(duration_s: float, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-RMS noise with a speech-shaped spectrum and 4 Hz amplitude modulation.

    White noise is tilted to be flat up to 500 Hz and fall 6 dB/octave above,
    then modulated at a syllabic rate with random phase.
    """
    if duration_s <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration_s}")
    n = max(int(round(duration_s * rate)), 2)
    x = rng.standard_normal(n)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    shape = np.ones_like(freqs)
    above = freqs > 500.0
    shape[above] = 500.0 / freqs[above]
    x = np.fft.irfft(np.fft.rfft(x) * shape, n)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    x *= 1.0 - 0.85 * np.cos(2.0 * np.pi * 4.0 * np.arange(n) / rate + phase)
    return x / np.sqrt(np.mean(x * x))


def render(scenario: Scenario, source_signal: np.ndarray, rate: int = 16000,
           length: int = RIR_LENGTH) -> RenderedPair:
    """Convolve the source with both RIRs and add per-channel noise at snr_db.

    snr_db=None disables noise entirely (pure convolutions). Noise draws come
    from the scenario's own seed path, so rendering is bit-reproducible.
    """
    source_signal = np.asarray(source_signal, dtype=np.float64)
    if source_signal.size == 0 or not np.any(source_signal):
        raise ConfigurationError("source signal is silent")
    channels = []
    rng = stream_rng(scenario.seed, NOISE_STREAM)
    for mic in (scenario.mic_a, scenario.mic_b):
        h = image_rir(scenario.room, scenario.source, mic, rate, length)
        ch = fftconvolve(source_signal, h)
        channels.append(ch)
    if scenario.snr_db is not None and np.isfinite(scenario.snr_db):
        for ch in channels:
            power = np.mean(ch * ch)
            sigma = np.sqrt(power / 10.0 ** (scenario.snr_db / 10.0))
            ch += sigma * rng.standard_normal(len(ch))
    return RenderedPair(ch1=channels[0], ch2=channels[1], scenario=scenario)


def random_scenario(beta: float, snr_db: float | None, d: float,
                    seed: Sequence[int]) -> Scenario:
    """One reproducible scenario draw: category, room, poses, ground truth."""
    seed = tuple(int(s) for s in seed)
    rng = stream_rng(seed, GEOMETRY_STREAM)
    category = CATEGORIES[rng.integers(len(CATEGORIES))]
    room = RoomSpec(dims=tuple(sample_room(category, rng)), beta=beta)
    mic_a, mic_b, source, theta0 = place_pair_and_source(room, d, rng)
    return Scenario(room=room, mic_a=tuple(mic_a), mic_b=tuple(mic_b),
                    source=tuple(source), theta0=theta0, snr_db=snr_db, seed=seed)


def scenario_to_json(scenario: Scenario) -> str:
    rec = {
        "dims": list(scenario.room.dims),
        "beta": scenario.room.beta,
        "mic_a": list(scenario.mic_a),
        "mic_b": list(scenario.mic_b),
        "source": list(scenario.source),
        "theta0": scenario.theta0,
        "snr_db": scenario.snr_db,
        "seed": list(scenario.seed),
    }
    return json.dumps(rec)


def scenario_from_json(line: str) -> Scenario:
    rec = json.loads(line)
    return Scenario(room=RoomSpec(dims=tuple(rec["dims"]), beta=rec["beta"]),
                    mic_a=tuple(rec["mic_a"]), mic_b=tuple(rec["mic_b"]),
                    source=tuple(rec["source"]), theta0=rec["theta0"],
                    snr_db=rec["snr_db"], seed=tuple(rec["seed"]))


def write_manifest(scenarios: Sequence[Scenario], destination) -> None:
    with open(destination, "w") as fh:
        for sc in scenarios:
            fh.write(scenario_to_json(sc) + "\n")


def read_manifest(source) -> list[Scenario]:
    with open(source) as fh:
        return [scenario_from_json(line) for line in fh if line.strip()]
