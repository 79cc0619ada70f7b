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
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _check_positive_finite, round_half_away
from .errors import ConfigurationError, FormatError, InputError

CATEGORY_BOUNDS = {
    "small": ((5.0, 10.0), (5.0, 10.0), (3.0, 5.0)),
    "medium": ((10.0, 20.0), (10.0, 20.0), (3.0, 5.0)),
    "large": ((20.0, 20.0), (20.0, 20.0), (5.0, 10.0)),
}
CATEGORIES = tuple(CATEGORY_BOUNDS)

WALL_CLEARANCE = 0.5  # meters kept between any point and every wall
RIR_LENGTH = 4096     # default impulse response length in samples
KERNEL_HALF = 40      # fractional-delay sinc kernel spans 2*KERNEL_HALF+1 taps
# images per block of `image_rir`: its taps, not a parity's, bound the memory
_IMAGE_BLOCK = 256

GEOMETRY_STREAM, SOURCE_STREAM, NOISE_STREAM = 0, 1, 2


@dataclass(frozen=True)
class RoomSpec:
    dims: tuple[float, float, float]
    beta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.beta < 1.0:
            raise ConfigurationError(f"reflection coefficient must be in [0, 1), got {self.beta}")
        # written so that NaN fails: every comparison with NaN is False
        if not all(0 < x < np.inf for x in self.dims):
            raise ConfigurationError(f"room dimensions must be positive and finite, got {self.dims}")


@dataclass(frozen=True)
class Scenario:
    room: RoomSpec
    mic_a: tuple[float, float, float]
    mic_b: tuple[float, float, float]
    source: tuple[float, float, float]
    theta0: float
    snr_db: float | None
    seed: tuple[int, ...]

    def __post_init__(self) -> None:
        # None and +inf add no noise; NaN and -inf (all noise) are no SNR to render
        if self.snr_db is not None and not -np.inf < self.snr_db <= np.inf:
            raise ConfigurationError(
                f"SNR must be finite dB, +inf or None (both: no noise), got {self.snr_db}")
        object.__setattr__(self, "seed", seed_path(self.seed))


@dataclass(frozen=True)
class RenderedPair:
    ch1: np.ndarray
    ch2: np.ndarray


def seed_path(seed: Sequence[int]) -> tuple[int, ...]:
    """The seed path as a tuple of ints (operator.index: a float or a string, which no
    manifest line can hold, raises); numpy's SeedSequence takes no negative entry."""
    try:
        path = tuple(map(operator.index, seed))
    except TypeError:
        raise ConfigurationError(f"seed path entries must be integers, got {seed!r}") from None
    if any(s < 0 for s in path):
        raise ConfigurationError(f"seed path entries must be non-negative integers, got {list(path)}")
    return path


def stream_rng(seed: Sequence[int], stream: int) -> np.random.Generator:
    """Deterministic generator for one named stream of a seed path."""
    return np.random.default_rng(np.random.SeedSequence([*seed_path(seed), stream]))


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
    _check_positive_finite("microphone spacing", d)
    dims = np.asarray(room.dims)
    center_lo = WALL_CLEARANCE + 0.5 * d
    center_hi = dims - center_lo
    if np.any(center_hi <= center_lo):
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
    # written so that a NaN coordinate fails: every comparison with NaN is False
    if not np.all((pos > 0) & (pos < dims)):
        raise ConfigurationError(f"{name} {tuple(pos)} outside room {tuple(dims)}")


# Tap o of an image at fractional delay f = delay - round(delay) is
#   sinc(o - f) * 0.5 * (1 + cos(a_o - b)),  a_o = pi*o/(H+1/2),  b = pi*f/(H+1/2),
# and sin(pi*(o - f)) = (-1)**(o+1) * sin(pi*f). So an image of amplitude amp has taps
#   amp * sin(pi*f) * [1, cos b, sin b] @ _TAP_BASIS / (o - f),
# three transcendentals per image instead of two per tap.
_TAP_OFFS = np.arange(-KERNEL_HALF, KERNEL_HALF + 1)
_TAP_SLOTS = _TAP_OFFS + KERNEL_HALF  # tap offsets within a buffer shifted by KERNEL_HALF
_HANN_STEP = np.pi / (KERNEL_HALF + 0.5)
_TAP_BASIS = (np.where(_TAP_OFFS % 2, 0.5, -0.5) / np.pi
              * np.stack([np.ones(_TAP_OFFS.size), np.cos(_HANN_STEP * _TAP_OFFS),
                          np.sin(_HANN_STEP * _TAP_OFFS)]))


def _kernel_taps(f: np.ndarray, amp: np.ndarray, taps: np.ndarray | None = None,
                 den: np.ndarray | None = None) -> np.ndarray:
    """(images, 2*KERNEL_HALF+1) Hann-windowed sinc taps, scaled by amp.

    Written into ``taps`` with ``den`` as scratch where the caller passes them.
    """
    b = _HANN_STEP * f
    scale = amp * np.sin(np.pi * f)
    # einsum rather than a BLAS product, whose rounding depends on the row count:
    # a tap's value must depend neither on how many images share its parity nor on its block
    taps = np.einsum("ik,kj->ij", np.stack([scale, scale * np.cos(b), scale * np.sin(b)], axis=1),
                     _TAP_BASIS, out=taps)
    den = np.subtract(_TAP_OFFS, f[:, None], out=den)
    # an integer delay puts the sinc's 0/0 on tap o = 0, where the kernel is 1
    exact = np.flatnonzero(f == 0.0)
    den[exact, KERNEL_HALF] = 1.0
    taps[exact, KERNEL_HALF] = amp[exact]
    taps /= den
    return taps


def _lattice_sum(axes: list[np.ndarray]) -> np.ndarray:
    """x + y + z over the image lattice, flattened in (rx, ry, rz) order."""
    x, y, z = axes
    return ((x[:, None, None] + y[None, :, None]) + z[None, None, :]).ravel()


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
    _check_positive_finite("sample rate", rate)
    _check_positive_finite("speed of sound", speed)

    c = float(speed)
    beta = float(room.beta)
    if beta == 0.0:
        # 0.0**refl vanishes for every image but the direct one (r = 0, p = 0)
        grids, parities = [np.zeros(1)] * 3, (0,)
    else:
        max_dist = (length + KERNEL_HALF) * c / rate
        orders = np.ceil(max_dist / (2.0 * dims)).astype(int)
        grids, parities = [np.arange(-o, o + 1, dtype=np.float64) for o in orders], range(8)

    # every tap lands in a buffer offset by KERNEL_HALF, so none needs a mask; a delay
    # just below length + KERNEL_HALF rounds up to it, whose last tap is the buffer's
    # last sample. The response is the buffer's middle `length` samples
    h = np.zeros(length)
    buf = np.empty(length + 3 * KERNEL_HALF + 1)
    # one block's taps, denominators and tap indices, reused by every block of every
    # parity (a view for the last, partial one), so a block maps no new pages
    rows = min(_IMAGE_BLOCK, math.prod(g.size for g in grids))
    taps, den = np.empty((rows, _TAP_SLOTS.size)), np.empty((rows, _TAP_SLOTS.size))
    idx = np.empty((rows, _TAP_SLOTS.size), np.int64)
    for p in parities:
        pv = ((p >> 2) & 1, (p >> 1) & 1, p & 1)
        # image offsets and reflection counts separate per axis
        sq = [((1.0 - 2.0 * q) * s + 2.0 * r * d - m) ** 2
              for q, s, r, d, m in zip(pv, source, grids, dims, mic)]
        dist = np.maximum(np.sqrt(_lattice_sum(sq)), 1e-6)
        delay = dist * rate / c
        keep = delay < length + KERNEL_HALF
        dist, delay = dist[keep], delay[keep]
        refl = _lattice_sum([np.abs(r + q) + np.abs(r) for q, r in zip(pv, grids)])[keep]
        amp = beta**refl / (4.0 * np.pi * dist)
        base = round_half_away(delay).astype(np.int64)
        buf[:] = 0.0
        for b0 in range(0, base.size, rows):
            m = min(rows, base.size - b0)
            blk = slice(b0, b0 + m)
            np.add(base[blk, None], _TAP_SLOTS, out=idx[:m])
            _kernel_taps(delay[blk] - base[blk], amp[blk], taps[:m], den[:m])
            # adds in input order, as np.bincount does: the block size changes no bit
            np.add.at(buf, idx[:m].ravel(), taps[:m].ravel())
        h += buf[KERNEL_HALF:KERNEL_HALF + length]
    return h


def speech_like_source(duration_s: float, rate: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-RMS noise with a speech-shaped spectrum and 4 Hz amplitude modulation.

    White noise is tilted to be flat up to 500 Hz and fall 6 dB/octave above,
    then modulated at a syllabic rate with random phase.
    """
    _check_positive_finite("duration", duration_s)
    _check_positive_finite("sample rate", rate)
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


def _fast_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n (n >= 1): scipy.fft.next_fast_len(n, real=True)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of two non-empty 1-D float64 arrays.

    The same bits as scipy.signal.fftconvolve(a, b): a direct product when
    either input has one sample, else rfft/irfft at scipy's real fast length
    (numpy >= 2 runs the same pocketfft code as scipy.fft).
    """
    if a.size == 1 or b.size == 1:
        return a * b
    n = a.size + b.size - 1
    m = _fast_len(n)
    # rfft(a) * rfft(b), in that operand order, in place: one transform-sized
    # array fewer for the allocator to hand back and fault in again
    spec = np.fft.rfft(a, m)
    spec *= np.fft.rfft(b, m)
    return np.fft.irfft(spec, m)[:n]


def render(scenario: Scenario, source_signal: np.ndarray, rate: int = 16000,
           length: int = RIR_LENGTH, speed: float = 343.0) -> RenderedPair:
    """Convolve the source with both RIRs, built at speed, and add per-channel noise at snr_db.

    snr_db=None or +inf disables noise entirely (pure convolutions). Noise draws come
    from the scenario's own seed path, so rendering is bit-reproducible.
    """
    source_signal = np.asarray(source_signal, dtype=np.float64)
    if not np.isfinite(source_signal).all():
        raise InputError("source signal holds a non-finite sample (NaN or inf)")
    if not np.any(source_signal):
        raise ConfigurationError("source signal is silent")
    channels = []
    rng = stream_rng(scenario.seed, NOISE_STREAM)
    for mic in (scenario.mic_a, scenario.mic_b):
        h = image_rir(scenario.room, scenario.source, mic, rate, length, speed)
        channels.append(_fftconvolve(source_signal, h))
    if scenario.snr_db is not None and np.isfinite(scenario.snr_db):
        for ch in channels:
            power = np.mean(ch * ch)
            sigma = np.sqrt(power / 10.0 ** (scenario.snr_db / 10.0))
            ch += sigma * rng.standard_normal(len(ch))
    return RenderedPair(ch1=channels[0], ch2=channels[1])


def random_scenario(beta: float, snr_db: float | None, d: float,
                    seed: Sequence[int]) -> Scenario:
    """One reproducible scenario draw: category, room, poses, ground truth."""
    seed = seed_path(seed)  # read once: an iterator would be spent by stream_rng
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


def _real(value) -> bool:
    # a JSON number loads as exactly int or float; a bool (an int subclass) is none
    return type(value) in (int, float)


def _point(value) -> bool:
    return isinstance(value, list) and len(value) == 3 and all(map(_real, value))


# each manifest field: what it must hold, and the check of its JSON value
_FIELD_TYPES = {
    **dict.fromkeys(("dims", "mic_a", "mic_b", "source"), ("3 real numbers", _point)),
    "beta": ("a real number", _real),
    "theta0": ("a real number", _real),
    "snr_db": ("a real number or null", lambda v: v is None or _real(v)),
    "seed": ("a list of integers", lambda v: isinstance(v, list) and all(type(s) is int for s in v)),
}


def scenario_from_json(line: str) -> Scenario:
    """The Scenario of one manifest line.

    A line that is not a JSON object holding every field of scenario_to_json,
    or whose field has the wrong JSON type (the error names it), raises
    FormatError; values that Scenario or RoomSpec reject raise ConfigurationError.
    """
    try:
        rec = json.loads(line)
        for field, (expected, valid) in _FIELD_TYPES.items():
            if not valid(rec[field]):
                raise TypeError(f"{field} must be {expected}, got {rec[field]!r}")
        return Scenario(room=RoomSpec(dims=tuple(rec["dims"]), beta=rec["beta"]),
                        mic_a=tuple(rec["mic_a"]), mic_b=tuple(rec["mic_b"]),
                        source=tuple(rec["source"]), theta0=rec["theta0"],
                        snr_db=rec["snr_db"], seed=tuple(rec["seed"]))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not JSON ({exc})") from None
    except KeyError as exc:
        raise FormatError(f"missing field {exc}") from None
    except TypeError as exc:
        raise FormatError(f"not a scenario record ({exc})") from None


def write_manifest(scenarios: Sequence[Scenario], destination) -> None:
    with open(destination, "w") as fh:
        for sc in scenarios:
            fh.write(scenario_to_json(sc) + "\n")


def read_manifest(source) -> list[Scenario]:
    """The scenarios of a manifest, one per non-blank line; an error names its line."""
    scenarios = []
    with open(source) as fh:
        for number, line in enumerate(fh, 1):
            if line.strip():
                try:
                    scenarios.append(scenario_from_json(line))
                except (FormatError, ConfigurationError) as exc:
                    raise type(exc)(f"{source}, line {number}: {exc}") from None
    return scenarios
