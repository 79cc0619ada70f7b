"""Room sampling, geometry, image-method RIRs, rendering, and the manifest."""
import dataclasses
import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from gccdoa import simulator

from gccdoa.core import round_half_away
from gccdoa.errors import ConfigurationError, FormatError, InputError
from gccdoa.simulator import (CATEGORIES, CATEGORY_BOUNDS, KERNEL_HALF, RIR_LENGTH,
                              WALL_CLEARANCE, RoomSpec, Scenario, image_rir,
                              pair_doa, place_pair_and_source, random_scenario,
                              read_manifest, render, sample_room,
                              scenario_from_json, scenario_to_json,
                              speech_like_source, stream_rng, write_manifest)

RATE = 16000


class _PinnedRng:
    """Duck-typed generator whose uniform() always returns the low bound."""

    def uniform(self, lo, hi):
        return lo


class TestSampleRoom:
    def test_pinned_low_gives_category_minimum(self):
        assert sample_room("small", _PinnedRng()) == pytest.approx([5.0, 5.0, 3.0])

    def test_large_rooms_have_fixed_footprint(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dims = sample_room("large", rng)
            assert dims[0] == 20.0 and dims[1] == 20.0
            assert 5.0 <= dims[2] <= 10.0

    def test_bounds_respected_and_approached(self):
        rng = np.random.default_rng(1)
        draws = np.array([sample_room("small", rng) for _ in range(10000)])
        for axis, (lo, hi) in enumerate(CATEGORY_BOUNDS["small"]):
            assert draws[:, axis].min() >= lo and draws[:, axis].max() <= hi
            assert draws[:, axis].min() < lo + 0.05 * (hi - lo)
            assert draws[:, axis].max() > hi - 0.05 * (hi - lo)

    def test_unknown_category_rejected(self):
        with pytest.raises(ConfigurationError):
            sample_room("gigantic", np.random.default_rng(0))


class TestGeometry:
    def test_broadside_source_is_zero(self):
        assert pair_doa([0, 0, 0], [0.05, 0, 0], [0.025, 3.0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_endfire_source_is_quarter_turn(self):
        theta = pair_doa([0, 0, 0], [0.05, 0, 0], [1.0, 0, 0])
        assert theta == pytest.approx(np.pi / 2, abs=1e-9)

    def test_swapping_mics_negates_doa(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.uniform(0, 1, 3), rng.uniform(0, 1, 3)
            s = rng.uniform(2, 5, 3)
            assert pair_doa(a, b, s) == pytest.approx(-pair_doa(b, a, s), abs=1e-12)

    def test_placement_invariants(self):
        rng = np.random.default_rng(3)
        room = RoomSpec(dims=(6.0, 7.0, 3.5), beta=0.0)
        for _ in range(200):
            mic_a, mic_b, source, theta0 = place_pair_and_source(room, 0.05, rng)
            assert np.linalg.norm(mic_b - mic_a) == pytest.approx(0.05, abs=1e-9)
            for point in (mic_a, mic_b, source):
                assert np.all(point >= WALL_CLEARANCE - 1e-9)
                assert np.all(point <= np.array(room.dims) - WALL_CLEARANCE + 1e-9)
            assert -np.pi / 2 <= theta0 <= np.pi / 2

    def test_too_small_room_rejected(self):
        room = RoomSpec(dims=(0.9, 0.9, 0.9), beta=0.0)
        with pytest.raises(ConfigurationError):
            place_pair_and_source(room, 0.05, np.random.default_rng(0))

    @pytest.mark.parametrize("side", [2 * WALL_CLEARANCE + 0.01, 2 * WALL_CLEARANCE + 0.05])
    def test_room_without_room_for_the_pair_rejected(self, side):
        """A side in (2 WC, 2 WC + d] leaves clearance for a point but not for the pair."""
        room = RoomSpec(dims=(6.0, side, 3.0), beta=0.0)
        with pytest.raises(ConfigurationError, match="too small"):
            place_pair_and_source(room, 0.05, np.random.default_rng(0))

    def test_bad_beta_rejected(self):
        with pytest.raises(ConfigurationError):
            RoomSpec(dims=(5.0, 5.0, 3.0), beta=1.0)


class TestImageRir:
    def test_free_field_single_arrival(self):
        room = RoomSpec(dims=(8.0, 9.0, 4.0), beta=0.0)
        source = np.array([2.0, 3.0, 1.5])
        # place the mic so the direct path is exactly 100 samples
        dist = 100 * 343.0 / RATE
        mic = source + np.array([dist, 0.0, 0.0])
        h = image_rir(room, source, mic, RATE)
        peak = np.argmax(np.abs(h))
        assert peak == 100
        assert h[peak] == pytest.approx(1.0 / (4 * np.pi * dist), rel=1e-6)
        # all energy concentrated within the kernel span of the arrival
        outside = np.concatenate([h[: peak - KERNEL_HALF], h[peak + KERNEL_HALF + 1:]])
        assert np.max(np.abs(outside)) < 1e-12

    def test_fractional_delay_centers_energy(self):
        room = RoomSpec(dims=(8.0, 9.0, 4.0), beta=0.0)
        source = np.array([2.0, 3.0, 1.5])
        dist = 100.37 * 343.0 / RATE
        mic = source + np.array([dist, 0.0, 0.0])
        h = image_rir(room, source, mic, RATE)
        lags = np.arange(len(h))
        centroid = np.sum(lags * h * h) / np.sum(h * h)
        assert centroid == pytest.approx(100.37, abs=0.2)

    def test_reverberant_energy_grows_with_beta(self):
        room_a = RoomSpec(dims=(6.0, 5.0, 3.0), beta=0.3)
        room_b = RoomSpec(dims=(6.0, 5.0, 3.0), beta=0.6)
        source, mic = [2.0, 2.5, 1.4], [4.0, 3.0, 1.6]
        e_a = np.sum(image_rir(room_a, source, mic, RATE) ** 2)
        e_b = np.sum(image_rir(room_b, source, mic, RATE) ** 2)
        e_0 = np.sum(image_rir(RoomSpec(dims=(6.0, 5.0, 3.0), beta=0.0), source, mic, RATE) ** 2)
        assert e_b > e_a > e_0

    def test_outside_positions_rejected(self):
        room = RoomSpec(dims=(5.0, 5.0, 3.0), beta=0.0)
        with pytest.raises(ConfigurationError):
            image_rir(room, [6.0, 1.0, 1.0], [1.0, 1.0, 1.0], RATE)
        with pytest.raises(ConfigurationError):
            image_rir(room, [1.0, 1.0, 1.0], [1.0, -0.1, 1.0], RATE)

    @pytest.mark.parametrize("kwargs", [
        dict(rate=0), dict(rate=-16000), dict(rate=float("nan")),
        dict(speed=0.0), dict(speed=-343.0), dict(speed=float("nan")),
        dict(source=[1.0, float("nan"), 1.0]), dict(mic=[float("nan"), 1.0, 1.0]),
    ])
    def test_bad_physics_rejected(self, kwargs):
        args = dict(room=RoomSpec(dims=(5.0, 5.0, 3.0), beta=0.3), source=[1.0, 1.0, 1.0],
                    mic=[3.0, 2.0, 1.5], rate=RATE)
        with pytest.raises(ConfigurationError):
            image_rir(**{**args, **kwargs})

    @pytest.mark.parametrize("beta", [0.0, 0.6])
    @pytest.mark.parametrize("kwargs", [dict(rate=np.inf), dict(speed=np.inf)])
    def test_infinite_rate_or_speed_rejected(self, kwargs, beta):
        """An infinite rate or speed is no response to render: the check raises
        before the image orders are cast to int, so no warning comes first."""
        args = dict(room=RoomSpec(dims=(5.0, 5.0, 3.0), beta=beta), source=[1.0, 1.0, 1.0],
                    mic=[3.0, 2.0, 1.5], rate=RATE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="positive and finite"):
                image_rir(**{**args, **kwargs})

    @pytest.mark.parametrize("beta", [0.0, 0.6])
    def test_render_rejects_infinite_rate(self, beta):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            render(_tiny_scenario(beta=beta), np.ones(1000), rate=np.inf, length=512)


def _per_tap_rir(room, source, mic, rate, length, speed=343.0):
    """Oracle: the earlier renderer, np.sinc and np.cos on every tap and a masked bincount."""
    dims = np.asarray(room.dims, dtype=np.float64)
    source = np.asarray(source, dtype=np.float64)
    mic = np.asarray(mic, dtype=np.float64)
    max_dist = (length + KERNEL_HALF) * speed / rate
    orders = np.ceil(max_dist / (2.0 * dims)).astype(int)
    rx, ry, rz = np.meshgrid(*[np.arange(-o, o + 1) for o in orders], indexing="ij")
    r_all = np.stack([rx.ravel(), ry.ravel(), rz.ravel()], axis=1).astype(np.float64)
    h = np.zeros(length)
    offs = np.arange(-KERNEL_HALF, KERNEL_HALF + 1)
    for p in range(8):
        pv = np.array([(p >> 2) & 1, (p >> 1) & 1, p & 1], dtype=np.float64)
        pos = (1.0 - 2.0 * pv) * source + 2.0 * r_all * dims
        dist = np.maximum(np.linalg.norm(pos - mic, axis=1), 1e-6)
        refl = np.abs(r_all + pv).sum(axis=1) + np.abs(r_all).sum(axis=1)
        amp = room.beta**refl / (4.0 * np.pi * dist)
        delay = dist * rate / speed
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


def _category(dims):
    return "large" if dims[0] == 20.0 else "medium" if dims[0] >= 10.0 else "small"


def _assert_matches_oracle(room, source, mic, length, **kwargs):
    h = image_rir(room, source, mic, RATE, length, **kwargs)
    ref = _per_tap_rir(room, source, mic, RATE, length, **kwargs)
    assert np.max(np.abs(h - ref)) <= 1e-15 * np.max(np.abs(ref))
    return h


def _assert_prefix_of_full(room, source, mic, length):
    """The response is the first `length` samples of the full one, which matches the oracle.

    For a response that holds only kernel tails (the direct arrival rounds past
    its end) this replaces the oracle check: its peak is then a tap ~30 samples
    from its image, where np.sinc's sin(pi*t) loses ~|t| ulp and the oracle is
    the less accurate side.
    """
    full = _assert_matches_oracle(room, source, mic, RIR_LENGTH)
    h = image_rir(room, source, mic, RATE, length)
    assert np.array_equal(h, full[:length])
    return h


class TestImageRirOracle:
    """The per-image kernel agrees with the per-tap formula to 1e-15 of the peak."""

    def test_random_scenarios(self):
        length, direct_inside, seen = 1024, 0, set()
        for i in range(200):
            sc = random_scenario((0.0, 0.3, 0.6)[i % 3], None, 0.05, (71, i))
            seen.add(_category(sc.room.dims))
            for mic in (sc.mic_a, sc.mic_b):
                direct = np.linalg.norm(np.subtract(sc.source, mic)) * RATE / 343.0
                if round_half_away(direct) < length:
                    direct_inside += 1
                    _assert_matches_oracle(sc.room, sc.source, mic, length)
                else:
                    _assert_prefix_of_full(sc.room, sc.source, mic, length)
        assert seen == set(CATEGORIES)
        assert direct_inside >= 380  # nearly every mic takes the direct oracle check

    def test_one_full_length_scenario_per_category(self):
        todo, i = set(CATEGORIES), 0
        while todo:
            sc = random_scenario(0.6, None, 0.05, (72, i))
            i += 1
            if _category(sc.room.dims) in todo:
                todo.remove(_category(sc.room.dims))
                for mic in (sc.mic_a, sc.mic_b):
                    _assert_matches_oracle(sc.room, sc.source, mic, RIR_LENGTH)

    def test_integer_delay_places_exactly_amp_without_warning(self):
        room = RoomSpec(dims=(8.0, 9.0, 4.0), beta=0.0)
        # 2 m at 320 m/s is exactly 100 samples
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = _assert_matches_oracle(room, [2.0, 3.0, 1.5], [4.0, 3.0, 1.5], 1024, speed=320.0)
        assert h[100] == 1.0 / (4.0 * np.pi * 2.0)
        assert np.count_nonzero(h) == 1

    def test_direct_path_inside_kernel_half_clips_at_zero(self):
        room = RoomSpec(dims=(6.0, 5.0, 3.0), beta=0.3)
        source = np.array([2.0, 2.5, 1.4])
        mic = source + np.array([10.3 * 343.0 / RATE, 0.0, 0.0])
        h = _assert_matches_oracle(room, source, mic, RIR_LENGTH)
        assert np.argmax(np.abs(h)) == 10 and h[0] != 0.0

    @pytest.mark.parametrize("direct", [50.4, 80.4])
    def test_short_response_clips_kernels_at_end(self, direct):
        room = RoomSpec(dims=(6.0, 5.0, 3.0), beta=0.6)
        source = np.array([2.0, 2.5, 1.4])
        mic = source + np.array([0.0, direct * 343.0 / RATE, 0.0])
        h = _assert_prefix_of_full(room, source, mic, 64)
        if direct < 64:
            _assert_matches_oracle(room, source, mic, 64)
            assert np.argmax(np.abs(h)) == 50
        else:
            assert np.count_nonzero(h) == 64 - (80 - KERNEL_HALF)  # the direct kernel's tail

    def test_anechoic_taps_only_around_direct_arrival(self):
        room = RoomSpec(dims=(8.0, 9.0, 4.0), beta=0.0)
        source = np.array([2.0, 3.0, 1.5])
        mic = source + np.array([137.3 * 343.0 / RATE, 0.0, 0.0])
        h = _assert_matches_oracle(room, source, mic, RIR_LENGTH)
        assert np.array_equal(np.flatnonzero(h), np.arange(137 - KERNEL_HALF, 137 + KERNEL_HALF + 1))


def _bincount_rir(room, source, mic, rate, length):
    """Oracle: the earlier accumulation, every kept image of a parity at once into
    one bincount. Returns the response and, per parity, its kept images' delays in
    the order they are added."""
    dims, source, mic = (np.asarray(a, dtype=np.float64) for a in (room.dims, source, mic))
    if room.beta == 0.0:
        grids, parities = [np.zeros(1)] * 3, (0,)
    else:
        orders = np.ceil((length + KERNEL_HALF) * 343.0 / rate / (2.0 * dims)).astype(int)
        grids, parities = [np.arange(-o, o + 1, dtype=np.float64) for o in orders], range(8)
    h, kept = np.zeros(length), {}
    for p in parities:
        pv = ((p >> 2) & 1, (p >> 1) & 1, p & 1)
        sq = [((1.0 - 2.0 * q) * s + 2.0 * r * d - m) ** 2
              for q, s, r, d, m in zip(pv, source, grids, dims, mic)]
        dist = np.maximum(np.sqrt(simulator._lattice_sum(sq)), 1e-6)
        delay = dist * rate / 343.0
        keep = delay < length + KERNEL_HALF
        if not np.any(keep):
            continue
        dist, delay = dist[keep], delay[keep]
        kept[p] = delay
        refl = simulator._lattice_sum([np.abs(r + q) + np.abs(r) for q, r in zip(pv, grids)])[keep]
        amp = room.beta**refl / (4.0 * np.pi * dist)
        base = round_half_away(delay).astype(np.int64)
        taps = simulator._kernel_taps(delay - base, amp)
        idx = base[:, None] + (np.arange(-KERNEL_HALF, KERNEL_HALF + 1) + KERNEL_HALF)
        h += np.bincount(idx.ravel(), weights=taps.ravel(),
                         minlength=length + 2 * KERNEL_HALF + 1)[KERNEL_HALF:KERNEL_HALF + length]
    return h, kept


_SMALL_ROOM = RoomSpec(dims=(7.5, 7.5, 4.0), beta=0.6)
_SMALL_SOURCE, _SMALL_MIC = (2.2, 4.6, 1.6), (5.1, 3.3, 2.4)


class TestBlockAccumulation:
    """Adding a parity's taps one block of images at a time gives the bits of
    one bincount over all of them, and memory no longer grows with the images."""

    def _assert_bits(self, room, source, mic, length=RIR_LENGTH):
        ref, kept = _bincount_rir(room, source, mic, RATE, length)
        assert np.array_equal(image_rir(room, source, mic, RATE, length), ref)
        return {p: delay.size for p, delay in kept.items()}

    def test_parities_of_several_blocks(self):
        kept = self._assert_bits(_SMALL_ROOM, _SMALL_SOURCE, _SMALL_MIC)
        assert min(kept.values()) > 2 * simulator._IMAGE_BLOCK, kept

    @pytest.mark.parametrize("extra", [0, 1])
    def test_one_block_and_one_block_plus_one(self, monkeypatch, extra):
        length = 512
        _, kept = _bincount_rir(_SMALL_ROOM, _SMALL_SOURCE, _SMALL_MIC, RATE, length)
        for p in (0, 5):
            # parity p's kept images fill one block exactly, or one block and one image
            monkeypatch.setattr(simulator, "_IMAGE_BLOCK", kept[p].size - extra)
            self._assert_bits(_SMALL_ROOM, _SMALL_SOURCE, _SMALL_MIC, length)

    def test_anechoic_single_image(self):
        room = dataclasses.replace(_SMALL_ROOM, beta=0.0)
        assert self._assert_bits(room, _SMALL_SOURCE, _SMALL_MIC) == {0: 1}

    def test_short_length_drops_images(self):
        kept = self._assert_bits(_SMALL_ROOM, _SMALL_SOURCE, _SMALL_MIC, 200)
        _, kept_full = _bincount_rir(_SMALL_ROOM, _SMALL_SOURCE, _SMALL_MIC, RATE, RIR_LENGTH)
        assert all(kept[p] < kept_full[p].size for p in kept)

    @pytest.mark.parametrize("below", [0.25, 0.75])
    def test_direct_delay_just_below_the_cutoff(self, below):
        """A delay of length + KERNEL_HALF - 0.25 rounds up to the cutoff, so its
        last tap is the buffer's last sample; - 0.75 puts a tap in the response."""
        length = 256
        room = RoomSpec(dims=(8.0, 9.0, 4.0), beta=0.0)
        source = np.array([1.0, 3.0, 1.5])
        mic = source + [(length + KERNEL_HALF - below) * 343.0 / RATE, 0.0, 0.0]
        delay = np.linalg.norm(mic - source) * RATE / 343.0
        assert delay < length + KERNEL_HALF
        assert round_half_away(delay) == length + KERNEL_HALF - (below > 0.5)
        self._assert_bits(room, source, mic, length)
        assert (image_rir(room, source, mic, RATE, length)[-1] != 0.0) == (below > 0.5)

    def test_added_image_just_below_the_cutoff(self, monkeypatch):
        """An image that rounds up to the cutoff and is not its parity's first is
        added into the buffer, whose last sample its last tap then reaches."""
        _, full = _bincount_rir(_SMALL_ROOM, _SMALL_SOURCE, _SMALL_MIC, RATE, 1024)
        length = min(int(round_half_away(d)) - KERNEL_HALF for delay in full.values()
                     for d in delay[1:] if d - np.floor(d) >= 0.5 and d > delay[0] + 1.0)
        _, kept = _bincount_rir(_SMALL_ROOM, _SMALL_SOURCE, _SMALL_MIC, RATE, length)
        cut = [delay for delay in kept.values()
               if delay.size > 1 and round_half_away(delay[1:]).max() == length + KERNEL_HALF]
        assert cut
        monkeypatch.setattr(simulator, "_IMAGE_BLOCK", 1)
        self._assert_bits(_SMALL_ROOM, _SMALL_SOURCE, _SMALL_MIC, length)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(dims=st.tuples(*[st.floats(1.5, 9.0)] * 3),
           src=st.tuples(*[st.floats(0.01, 0.99)] * 3), mic=st.tuples(*[st.floats(0.01, 0.99)] * 3),
           beta=st.sampled_from([0.0, 0.3, 0.6, 0.9]), length=st.integers(16, 600),
           block=st.sampled_from([7, 64, 256]))
    def test_property_any_room_and_positions(self, dims, src, mic, beta, length, block):
        room = RoomSpec(dims=dims, beta=beta)
        src, mic = np.multiply(src, dims), np.multiply(mic, dims)
        with mock.patch.object(simulator, "_IMAGE_BLOCK", block):
            self._assert_bits(room, src, mic, length)

    def test_traced_memory_is_bounded_by_the_block(self):
        """The tracemalloc peak, which sees numpy's buffers, of one response in the
        7.5 m room stays within 4x of the 20 m room's, which keeps ~13x fewer
        images: ~0.78 against ~0.46 MB, where a bincount over each parity's
        images at once read ~4.5 against ~0.49 MB."""
        rooms = {"small": (_SMALL_ROOM, _SMALL_SOURCE, _SMALL_MIC),
                 "large": (RoomSpec(dims=(20.0, 20.0, 7.5), beta=0.6), (6.1, 13.2, 2.3),
                           (14.4, 7.9, 4.6))}
        peaks = {}
        tracemalloc.start()
        try:
            for name, (room, source, mic) in rooms.items():
                image_rir(room, source, mic, RATE)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                image_rir(room, source, mic, RATE)
                peaks[name] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peaks["small"] <= 4 * peaks["large"], peaks


class TestSpeechLikeSource:
    def test_unit_power_and_finite(self):
        x = speech_like_source(1.0, RATE, np.random.default_rng(4))
        assert np.all(np.isfinite(x))
        assert np.mean(x * x) == pytest.approx(1.0, rel=1e-9)
        assert len(x) == RATE

    def test_spectral_centroid_is_low(self):
        x = speech_like_source(2.0, RATE, np.random.default_rng(5))
        spec = np.abs(np.fft.rfft(x))
        freqs = np.fft.rfftfreq(len(x), 1 / RATE)
        centroid = np.sum(freqs * spec) / np.sum(spec)
        assert centroid < RATE / 4

    def test_seeds_differ_but_share_envelope(self):
        x1 = speech_like_source(3.0, RATE, np.random.default_rng(6))
        x2 = speech_like_source(3.0, RATE, np.random.default_rng(7))
        assert not np.allclose(x1, x2)
        edges = [125, 250, 500, 1000, 2000, 4000]
        freqs = np.fft.rfftfreq(len(x1), 1 / RATE)
        for lo, hi in zip(edges[:-1], edges[1:]):
            band = (freqs >= lo) & (freqs < hi)
            p1 = np.mean(np.abs(np.fft.rfft(x1))[band] ** 2)
            p2 = np.mean(np.abs(np.fft.rfft(x2))[band] ** 2)
            assert abs(10 * np.log10(p1 / p2)) < 3.0

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            speech_like_source(0.0, RATE, np.random.default_rng(0))


def _tiny_scenario(beta=0.0, snr_db=None, seed=(77,)):
    room = RoomSpec(dims=(6.0, 5.0, 3.5), beta=beta)
    return Scenario(room=room, mic_a=(2.0, 2.0, 1.5), mic_b=(2.05, 2.0, 1.5),
                    source=(2.025, 4.0, 1.5), theta0=0.0, snr_db=snr_db, seed=seed)


class TestRender:
    def test_noise_free_is_pure_convolution(self):
        sc = _tiny_scenario()
        rng = np.random.default_rng(8)
        sig = rng.standard_normal(4000)
        pair = render(sc, sig, RATE, length=1024)
        h1 = image_rir(sc.room, sc.source, sc.mic_a, RATE, 1024)
        assert pair.ch1 == pytest.approx(fftconvolve(sig, h1), abs=1e-12)
        assert len(pair.ch1) == len(pair.ch2) == 4000 + 1024 - 1

    def test_snr_zero_balances_powers(self):
        sc = _tiny_scenario(snr_db=0.0)
        sig = speech_like_source(1.0, RATE, np.random.default_rng(9))
        clean = render(_tiny_scenario(snr_db=None, seed=sc.seed), sig, RATE, length=1024)
        noisy = render(sc, sig, RATE, length=1024)
        for ch_n, ch_c in ((noisy.ch1, clean.ch1), (noisy.ch2, clean.ch2)):
            p_sig = np.mean(ch_c**2)
            p_noise = np.mean((ch_n - ch_c) ** 2)
            assert abs(10 * np.log10(p_sig / p_noise)) < 0.1

    def test_rendering_is_deterministic(self):
        sc = _tiny_scenario(snr_db=20.0)
        sig = speech_like_source(0.5, RATE, np.random.default_rng(10))
        a = render(sc, sig, RATE, length=512)
        b = render(sc, sig, RATE, length=512)
        assert np.array_equal(a.ch1, b.ch1) and np.array_equal(a.ch2, b.ch2)

    def test_silent_source_rejected(self):
        with pytest.raises(ConfigurationError):
            render(_tiny_scenario(), np.zeros(1000), RATE)

    def test_empty_source_rejected_as_silent(self):
        with pytest.raises(ConfigurationError, match="source signal is silent"):
            render(_tiny_scenario(), np.zeros(0), RATE)

    def test_broadside_pair_correlates_at_zero_lag(self):
        sc = _tiny_scenario()  # source on the bisector plane, beta = 0
        sig = speech_like_source(0.5, RATE, np.random.default_rng(11))
        pair = render(sc, sig, RATE, length=1024)
        corr = fftconvolve(pair.ch1, pair.ch2[::-1])
        lag = np.argmax(corr) - (len(pair.ch2) - 1)
        assert abs(lag) <= 1


class TestFftConvolve:
    """render's numpy convolution gives the bits of scipy.signal.fftconvolve."""

    @pytest.mark.parametrize("la,lb", [
        (24000, 4096), (4000, 1024), (8000, 4096), (4800, 512), (16001, 4096),
        (12345, 4096), (4096, 24000), (2, 4096), (4096, 2), (2, 2), (3, 7)])
    def test_equals_scipy(self, la, lb):
        rng = np.random.default_rng(la * 7919 + lb)
        a, b = rng.standard_normal(la), rng.standard_normal(lb)
        got = simulator._fftconvolve(a, b)
        assert np.array_equal(got, fftconvolve(a, b))
        assert got.shape == (la + lb - 1,)

    @pytest.mark.parametrize("la,lb", [(1, 4096), (24000, 1), (1, 1)])
    def test_one_sample_input_is_the_direct_product(self, la, lb):
        rng = np.random.default_rng(la + lb)
        a, b = rng.standard_normal(la), rng.standard_normal(lb)
        assert np.array_equal(simulator._fftconvolve(a, b), fftconvolve(a, b))

    def test_fast_len_equals_scipy_up_to_5000(self):
        got = [simulator._fast_len(n) for n in range(1, 5001)]
        assert got == [scipy.fft.next_fast_len(n, True) for n in range(1, 5001)]

    @given(st.integers(min_value=5001, max_value=10**15))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_fast_len_equals_scipy_above_5000(self, n):
        assert simulator._fast_len(n) == scipy.fft.next_fast_len(n, True)

    @pytest.mark.parametrize("beta", [0.0, 0.6])
    def test_render_equals_scipy_per_channel(self, beta):
        sc = _tiny_scenario(beta=beta)
        sig = speech_like_source(1.5, RATE, np.random.default_rng(12))
        pair = render(sc, sig, RATE)
        for mic, ch in ((sc.mic_a, pair.ch1), (sc.mic_b, pair.ch2)):
            h = image_rir(sc.room, sc.source, mic, RATE)
            assert np.array_equal(ch, fftconvolve(sig, h))


class TestRandomScenario:
    def test_deterministic_and_complete(self):
        a = random_scenario(0.3, 25.0, 0.05, (42, 0))
        b = random_scenario(0.3, 25.0, 0.05, (42, 0))
        assert a == b
        assert a.room.beta == 0.3 and a.snr_db == 25.0
        assert np.linalg.norm(np.subtract(a.mic_b, a.mic_a)) == pytest.approx(0.05, abs=1e-9)

    def test_different_seeds_differ(self):
        assert random_scenario(0.0, None, 0.05, (42, 0)) != random_scenario(0.0, None, 0.05, (42, 1))

    def test_all_categories_appear(self):
        vols = []
        for i in range(60):
            sc = random_scenario(0.0, None, 0.05, (9, i))
            vols.append(np.prod(sc.room.dims))
        vols = np.array(vols)
        # small rooms are < 500 m^3, large ones >= 2000 m^3
        assert np.sum(vols < 500) > 0
        assert np.sum(vols > 2000) > 0

    def test_stream_rngs_are_independent(self):
        a = stream_rng((5, 1), 0).standard_normal(4)
        b = stream_rng((5, 1), 1).standard_normal(4)
        assert not np.allclose(a, b)


class TestManifest:
    def test_json_round_trip(self):
        sc = random_scenario(0.6, 15.0, 0.05, (3, 14))
        assert scenario_from_json(scenario_to_json(sc)) == sc

    def test_file_round_trip(self, tmp_path):
        scenarios = [random_scenario(0.0, None, 0.05, (4, i)) for i in range(5)]
        path = tmp_path / "scenarios.jsonl"
        write_manifest(scenarios, path)
        assert read_manifest(path) == scenarios

    def test_null_snr_survives(self):
        sc = _tiny_scenario(snr_db=None)
        assert scenario_from_json(scenario_to_json(sc)).snr_db is None


class TestMalformedManifest:
    """A line that is not a scenario record raises FormatError, not a bare decode or lookup error."""

    def _record(self, **changes):
        rec = json.loads(scenario_to_json(_tiny_scenario()))
        rec.update(changes)
        return rec

    def test_line_that_is_not_json(self):
        with pytest.raises(FormatError, match="not JSON"):
            scenario_from_json(scenario_to_json(_tiny_scenario())[:-1])

    @pytest.mark.parametrize("value", [[], [1.0, 2.0], "scenario", 3.5, None])
    def test_json_value_that_is_not_an_object(self, value):
        with pytest.raises(FormatError, match="not a scenario record"):
            scenario_from_json(json.dumps(value))

    @pytest.mark.parametrize("field,value", [
        ("dims", 6.0), ("beta", "0.3"), ("mic_a", None), ("snr_db", "20"), ("seed", 77)])
    def test_field_of_the_wrong_type(self, field, value):
        with pytest.raises(FormatError, match="not a scenario record"):
            scenario_from_json(json.dumps(self._record(**{field: value})))

    @pytest.mark.parametrize("field", ["dims", "beta", "theta0", "snr_db", "seed"])
    def test_missing_field(self, field):
        rec = self._record()
        del rec[field]
        with pytest.raises(FormatError, match=f"missing field '{field}'"):
            scenario_from_json(json.dumps(rec))

    def test_rejected_value_stays_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="reflection coefficient"):
            scenario_from_json(json.dumps(self._record(beta=1.5)))

    def test_read_manifest_names_the_line(self, tmp_path):
        path = tmp_path / "scenarios.jsonl"
        good = scenario_to_json(_tiny_scenario())
        path.write_text(f"{good}\n\n{good}\n{good[:-1]}\n")
        with pytest.raises(FormatError, match=r"scenarios\.jsonl, line 4: not JSON"):
            read_manifest(path)
        path.write_text(f"{good}\n{json.dumps(self._record(snr_db=-1e999))}\n")
        with pytest.raises(ConfigurationError, match=r"line 2: SNR must be"):
            read_manifest(path)


class TestManifestFieldTypes:
    """Each field of a manifest line holds its JSON type or raises FormatError naming
    the field; a real number is an int or float, never a bool."""

    _POINTS = ["abc", [8.0, 9.0], [1, 2, 3, 4], [1.0, "2", 3.0], [1.0, True, 3.0], None, 6.0]
    _REALS = ["x", "0.3", True, None, [0.3], {"value": 0.3}]

    def _check(self, field, value):
        rec = json.loads(scenario_to_json(_tiny_scenario()))
        rec[field] = value
        with pytest.raises(FormatError, match=f"not a scenario record \\({field} must be"):
            scenario_from_json(json.dumps(rec))

    @pytest.mark.parametrize("value", _POINTS)
    def test_dims_hold_three_real_numbers(self, value):
        self._check("dims", value)

    @pytest.mark.parametrize("value", _POINTS)
    def test_mic_a_holds_three_real_numbers(self, value):
        self._check("mic_a", value)

    @pytest.mark.parametrize("value", _POINTS)
    def test_mic_b_holds_three_real_numbers(self, value):
        self._check("mic_b", value)

    @pytest.mark.parametrize("value", _POINTS)
    def test_source_holds_three_real_numbers(self, value):
        self._check("source", value)

    @pytest.mark.parametrize("value", _REALS)
    def test_theta0_is_a_real_number(self, value):
        self._check("theta0", value)

    @pytest.mark.parametrize("value", _REALS)
    def test_beta_is_a_real_number(self, value):
        self._check("beta", value)

    @pytest.mark.parametrize("value", [v for v in _REALS if v is not None])
    def test_snr_db_is_a_real_number_or_null(self, value):
        self._check("snr_db", value)

    @pytest.mark.parametrize("value", ["12", 12, [1, "2"], [1, 2.0], [True], None])
    def test_seed_is_a_list_of_integers(self, value):
        self._check("seed", value)

    def test_integer_fields_still_load(self):
        rec = json.loads(scenario_to_json(_tiny_scenario()))
        rec.update(dims=[6, 5, 3], theta0=0, beta=0, snr_db=20, seed=[])
        sc = scenario_from_json(json.dumps(rec))
        assert sc.room.dims == (6, 5, 3) and sc.seed == () and sc.snr_db == 20

    def test_read_manifest_names_the_line_and_the_field(self, tmp_path):
        path = tmp_path / "scenarios.jsonl"
        rec = json.loads(scenario_to_json(_tiny_scenario()))
        rec["seed"] = "12"
        path.write_text(f"{scenario_to_json(_tiny_scenario())}\n{json.dumps(rec)}\n")
        with pytest.raises(FormatError, match=r"scenarios\.jsonl, line 2: .*seed must be a list"):
            read_manifest(path)


class TestNegativeSeedPath:
    """numpy's SeedSequence takes no negative entry: a seed path holding one raises
    ConfigurationError where the path is given, not numpy's ValueError at render."""

    @pytest.mark.parametrize("seed", [(-1, 2), (3, -1), (-5,)])
    def test_scenario_rejects_it(self, seed):
        with pytest.raises(ConfigurationError, match="seed path entries must be non-negative"):
            _tiny_scenario(seed=seed)
        assert _tiny_scenario(seed=(0, 0)).seed == (0, 0)

    def test_generator_and_draw_reject_it(self):
        with pytest.raises(ConfigurationError, match="seed path entries must be non-negative"):
            stream_rng((4, -1), 0)
        with pytest.raises(ConfigurationError, match="seed path entries must be non-negative"):
            random_scenario(0.0, None, 0.05, (-1, 0))

    def test_manifest_line_fails_at_load_naming_its_line(self, tmp_path):
        path = tmp_path / "scenarios.jsonl"
        rec = json.loads(scenario_to_json(_tiny_scenario()))
        rec["seed"] = [-1, 2]
        path.write_text(f"{scenario_to_json(_tiny_scenario())}\n{json.dumps(rec)}\n")
        with pytest.raises(ConfigurationError,
                           match=r"scenarios\.jsonl, line 2: seed path entries must be non-negative"):
            read_manifest(path)


class TestSeedPathHoldsIntegers:
    """A seed path is a tuple of ints, so a scenario's manifest line reads back
    as the same scenario and the scenario stays hashable."""

    @pytest.mark.parametrize("seed", [(1.5,), (3, 2.0), (np.float64(4.0),), ("12",), "12"])
    def test_float_or_string_entry_rejected(self, seed):
        for make in (lambda: _tiny_scenario(seed=seed), lambda: stream_rng(seed, 0),
                     lambda: random_scenario(0.0, None, 0.05, seed)):
            with pytest.raises(ConfigurationError, match="seed path entries must be integers"):
                make()

    @pytest.mark.parametrize("seed", [(np.int64(5), 2), [5, 2], (np.uint8(5), np.int32(2))])
    def test_integer_entries_stored_as_a_tuple_of_ints(self, seed):
        for sc in (_tiny_scenario(seed=seed), random_scenario(0.3, 20.0, 0.05, seed)):
            assert sc.seed == (5, 2) and all(type(s) is int for s in sc.seed)
            back = scenario_from_json(scenario_to_json(sc))
            assert back == sc and hash(back) == hash(sc)

    def test_draw_reads_a_one_shot_path_once(self):
        assert random_scenario(0.3, 20.0, 0.05, iter((5, 2))) == random_scenario(0.3, 20.0, 0.05, (5, 2))


class TestNonFiniteInputsRejected:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_room_dimensions(self, bad):
        for dims in ((bad, 5.0, 3.0), (5.0, bad, 3.0), (5.0, 5.0, bad)):
            with pytest.raises(ConfigurationError):
                RoomSpec(dims=dims, beta=0.3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_render_source_signal(self, bad):
        sig = np.random.default_rng(12).standard_normal(1000)
        sig[500] = bad
        with pytest.raises(InputError):
            render(_tiny_scenario(), sig, RATE, length=512)

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf, -1.0])
    def test_speech_like_source_duration(self, duration):
        with pytest.raises(ConfigurationError):
            speech_like_source(duration, RATE, np.random.default_rng(0))

    @pytest.mark.parametrize("rate", [0, -16000, np.nan, np.inf])
    def test_speech_like_source_rate(self, rate):
        with pytest.raises(ConfigurationError):
            speech_like_source(1.0, rate, np.random.default_rng(0))

    @pytest.mark.parametrize("d", [np.nan, np.inf, 0.0, -0.05])
    def test_random_scenario_spacing(self, d):
        with pytest.raises(ConfigurationError):
            random_scenario(0.3, 25.0, d, (42, 0))

    def test_place_pair_and_source_spacing(self):
        room = RoomSpec(dims=(6.0, 5.0, 3.5), beta=0.0)
        with pytest.raises(ConfigurationError):
            place_pair_and_source(room, -0.05, np.random.default_rng(0))

    @pytest.mark.parametrize("snr", [np.nan, -np.inf])
    def test_random_scenario_snr(self, snr):
        with pytest.raises(ConfigurationError, match="SNR must be"):
            random_scenario(0.3, snr, 0.05, (42, 0))

    @pytest.mark.parametrize("snr", [np.nan, -np.inf])
    def test_render_snr(self, snr):
        """A Scenario is checked when it is made, so render and a manifest never meet such an SNR."""
        sc = _tiny_scenario(snr_db=20.0)
        with pytest.raises(ConfigurationError, match="SNR must be"):
            render(dataclasses.replace(sc, snr_db=snr), np.ones(1000), RATE, length=512)
        with pytest.raises(ConfigurationError, match="SNR must be"):
            scenario_from_json(scenario_to_json(sc).replace("20.0", json.dumps(snr)))

    def test_positive_infinite_snr_is_noise_free(self):
        sig = speech_like_source(0.5, RATE, np.random.default_rng(13))
        clean = render(_tiny_scenario(snr_db=None), sig, RATE, length=512)
        inf = render(_tiny_scenario(snr_db=np.inf), sig, RATE, length=512)
        assert np.array_equal(clean.ch1, inf.ch1) and np.array_equal(clean.ch2, inf.ch2)


def test_empty_rir_rejected():
    with pytest.raises(ConfigurationError, match="RIR length must be positive"):
        image_rir(RoomSpec(dims=(5.0, 5.0, 3.0), beta=0.3), [1.0, 1.0, 1.0], [3.0, 2.0, 1.5],
                  RATE, length=0)


def test_source_at_the_pair_midpoint_has_no_doa():
    with pytest.raises(ConfigurationError, match="midpoint"):
        pair_doa([0.0, 0.0, 0.0], [0.05, 0.0, 0.0], [0.025, 0.0, 0.0])


class TestPositiveAndFiniteMessages:
    """Each check names the one value that fails, with the same wording everywhere."""

    @staticmethod
    def _raises(message, call, *args, **kwargs):
        with pytest.raises(ConfigurationError) as exc:
            call(*args, **kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("d", [0.0, -0.05, np.nan, np.inf])
    def test_place_pair_and_source(self, d):
        room = RoomSpec(dims=(5.0, 5.0, 3.0), beta=0.3)
        self._raises(f"microphone spacing must be positive and finite, got {d}",
                     place_pair_and_source, room, d, np.random.default_rng(0))

    @pytest.mark.parametrize("beta", [0.0, 0.6])
    @pytest.mark.parametrize("rate, speed, message", [
        (0, 343.0, "sample rate must be positive and finite, got 0"),
        (np.nan, 343.0, "sample rate must be positive and finite, got nan"),
        (RATE, -1.0, "speed of sound must be positive and finite, got -1.0"),
        (RATE, np.inf, "speed of sound must be positive and finite, got inf"),
        # both bad: the rate is checked first
        (-5, 0.0, "sample rate must be positive and finite, got -5")])
    def test_image_rir_names_the_value_that_fails(self, beta, rate, speed, message):
        room = RoomSpec(dims=(5.0, 5.0, 3.0), beta=beta)
        self._raises(message, image_rir, room, [1.0, 1.0, 1.0], [3.0, 2.0, 1.5], rate,
                     length=64, speed=speed)

    @pytest.mark.parametrize("duration, rate, message", [
        (0.0, RATE, "duration must be positive and finite, got 0.0"),
        (np.inf, RATE, "duration must be positive and finite, got inf"),
        (1.0, np.nan, "sample rate must be positive and finite, got nan"),
        (1.0, -16000, "sample rate must be positive and finite, got -16000")])
    def test_speech_like_source(self, duration, rate, message):
        self._raises(message, speech_like_source, duration, rate, np.random.default_rng(0))


class TestRenderSpeed:
    """render builds both RIRs at its speed of sound, 343 m/s unless told otherwise."""

    @pytest.mark.parametrize("beta", [0.0, 0.6])
    def test_rirs_are_built_at_the_given_speed(self, beta):
        sc = _tiny_scenario(beta=beta)
        sig = speech_like_source(0.5, RATE, np.random.default_rng(13))
        pair = render(sc, sig, RATE, 1024, 300.0)
        for mic, ch in ((sc.mic_a, pair.ch1), (sc.mic_b, pair.ch2)):
            assert np.array_equal(ch, fftconvolve(sig, image_rir(sc.room, sc.source, mic, RATE,
                                                                  1024, speed=300.0)))
