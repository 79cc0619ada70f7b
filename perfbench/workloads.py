"""The three workloads, their inputs, their timed rounds and their checks.

Every workload reports four timed variants, v1..v4, so that the same metric
names exist in each (see README.md):

- stream: one live caller, closed loop, feeding one hop at a time; per hop and
  back-end it times ``stft_frames`` on the newest window of each channel,
  ``cross_spectrum`` and ``estimate``. Variants are the back-ends.
- file: ``gccdoa estimate`` through ``gccdoa.cli.main`` on a stereo WAV of
  rendered scenes with digital silence between them; per-frame wall time of
  one call. Variants are the back-ends.
- sweep: ``run_accuracy_sweep`` with the ``gccdoa evaluate`` default methods;
  wall time per configuration. Variants are the four default (beta, SNR) cells.

A round runs every variant once, in a fixed order, so that a burst of host
activity hits all of them alike; a run is a whole number of rounds.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import wave
from pathlib import Path
from time import perf_counter_ns

import numpy as np

import gccdoa
from gccdoa import cli, estimators, evaluation, factorization, simulator, stft

import reference as ref

BACKENDS = {"v1": "mm", "v2": "svd", "v3": "fft02-qi", "v4": "fft32-qi"}
CELLS = {"v1": (0.0, 40.0), "v2": (0.0, 10.0), "v3": (0.6, 40.0), "v4": (0.6, 10.0)}
SETUP_METHODS = ("mm", "svd", "fft01", "fft02-qi", "fft32-qi")
SWEEP_METHODS = ("mm", "fft01", "fft02-qi")

SCENE_SNR_DB = 30.0
# scenes are broadside-ish sources close to the pair, so that reverberant
# scenes keep a clear direct path, in 20 m x 20 m rooms, whose image-method
# RIRs need little memory: the recording's make-up does not set the peak RSS
SCENE_MAX_DEG = 60.0
SCENE_MAX_DIST_M = 2.0
SCENE_ROOM_M = 20.0
SCENE_PEAK = 0.5         # full scale of each scene in the 16-bit recording

# a scene or a silence that is a whole number of hops puts every frame edge on
# a hop boundary, so each frame that touches a scene holds >= 32 of its samples
STREAM_SCENES, STREAM_SCENE_S = 6, 1.2
FILE_SCENES, FILE_SCENE_S, FILE_GAP_S = 8, 2.4, 0.5
# each round evaluates one configuration in a room near each of these, the
# centres of the simulator's small, medium and large room categories
SWEEP_ROOMS = ((7.5, 7.5, 4.0), (15.0, 15.0, 4.0), (20.0, 20.0, 7.5))
ROOM_TOL = 0.1


class SetUp:
    """The program's set-up: ``gccdoa factorize``, the factor load, and
    ``build_estimator`` for every back-end any workload uses."""

    def __init__(self, workdir: Path):
        self.factors_path = workdir / "factors.gsvd"
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["factorize", "--out", str(self.factors_path)]) != 0:
                raise RuntimeError("gccdoa factorize failed")
        self.factors = factorization.load_factors(self.factors_path)
        params = gccdoa.GccParams()
        self.estimators = {m: estimators.build_estimator(m, params,
                                                         self.factors if m == "svd" else None)
                           for m in SETUP_METHODS}


def _scene_accepted(sc) -> bool:
    mid = 0.5 * (np.asarray(sc.mic_a) + np.asarray(sc.mic_b))
    return (min(sc.room.dims[:2]) >= SCENE_ROOM_M
            and abs(ref.geometric_doa_deg(sc.mic_a, sc.mic_b, sc.source)) <= SCENE_MAX_DEG
            and np.linalg.norm(np.asarray(sc.source) - mid) <= SCENE_MAX_DIST_M)


def recording(seed: int, stream_id: int, scenes: int, scene_s: float, gap_s: float):
    """16-bit stereo recording of rendered scenes, alternately anechoic and
    beta=0.6, with ``gap_s`` of digital silence between them.

    Returns the (2, samples) int16 array and, per scene, (first sample,
    end sample, geometric angle in degrees, beta).
    """
    parts, bounds, pos = [], [], 0
    gap = np.zeros((2, round(gap_s * ref.RATE)), dtype=np.int16)
    for j in range(scenes):
        beta = 0.0 if j % 2 == 0 else 0.6
        for i in itertools.count():
            sc = simulator.random_scenario(beta, SCENE_SNR_DB, ref.DIST, (seed, stream_id, j, i))
            if _scene_accepted(sc):
                break
        sig = simulator.speech_like_source(scene_s, ref.RATE,
                                           simulator.stream_rng(sc.seed, simulator.SOURCE_STREAM))
        pair = simulator.render(sc, sig, ref.RATE)
        chans = np.stack([pair.ch1[:sig.size], pair.ch2[:sig.size]])
        pcm = np.rint(chans * (SCENE_PEAK * 32768.0 / np.abs(chans).max())).astype(np.int16)
        if j:
            parts.append(gap)
            pos += gap.shape[1]
        parts.append(pcm)
        bounds.append((pos, pos + sig.size, ref.geometric_doa_deg(sc.mic_a, sc.mic_b, sc.source), beta))
        pos += sig.size
    return np.concatenate(parts, axis=1), bounds


def _scene_frames(starts: np.ndarray, bounds):
    """(label, frame indices wholly inside the scene, angle, tolerance) for the scene check."""
    return [(f"scene {j} (beta={beta:g})", np.flatnonzero((starts >= b0) & (starts + ref.N <= b1)),
             truth, ref.SCENE_TOL_DEG[beta]) for j, (b0, b1, truth, beta) in enumerate(bounds)]


class Workload:
    variants: dict

    def __init__(self):
        self.times = {v: [] for v in self.variants}
        self.attempted = 0
        self.errors: list[str] = []

    def reset_times(self) -> None:
        self.times = {v: [] for v in self.variants}

    def use(self, setup: SetUp) -> None:
        """Take the estimators and factor file of a set-up."""


class OnRecording(Workload):
    """A workload fed by a recording of scenes: frame ``starts`` and scene ``bounds``."""

    def counts(self, tracer) -> dict:
        per_scene = [len(s[1]) for s in _scene_frames(self.starts, self.bounds)]
        return {"frames": len(self.starts), "scenes": len(self.bounds),
                "frames_per_scene": float(np.median(per_scene))}


class Stream(OnRecording):
    variants = BACKENDS
    describe = {v: f"hop latency, {m}" for v, m in BACKENDS.items()}

    def __init__(self, seed: int, workdir: Path, setup: SetUp):
        super().__init__()
        pcm, self.bounds = recording(seed, 1, STREAM_SCENES, STREAM_SCENE_S, 0.0)
        self.ch1, self.ch2 = pcm / 32768.0
        self.starts = np.arange(0, self.ch1.size - ref.N + 1, ref.HOP)
        self.first = {}  # estimates of the first round, which later rounds must repeat
        self.use(setup)

    def use(self, setup: SetUp) -> None:
        self.ests = [(v, setup.estimators[m]) for v, m in self.variants.items()]

    def round(self, tracer) -> None:
        frames, cross = stft.stft_frames, stft.cross_spectrum
        n, hop = ref.N, ref.HOP
        out = {v: ([], [], []) for v in self.variants}
        for s in self.starts:
            w1, w2 = self.ch1[s:s + n], self.ch2[s:s + n]
            for v, est in self.ests:
                root = tracer.open("op", v) if tracer else None
                t0 = perf_counter_ns()
                e = est.estimate(cross(frames(w1, n, hop), frames(w2, n, hop))[0])
                t1 = perf_counter_ns()
                if tracer:
                    tracer.close(root)
                self.times[v].append(t1 - t0)
                q, theta, energy = out[v]
                q.append(e.q_max)
                theta.append(e.theta_est)
                energy.append(e.energy)
        self.attempted += len(self.starts) * len(self.ests)
        for v, (q, theta, energy) in out.items():
            got = (np.array(q), np.array(theta), np.array(energy))
            first = self.first.setdefault(v, got)
            if not all(np.array_equal(a, b) for a, b in zip(first, got)):
                self.errors.append(f"{self.variants[v]}: a round gave other estimates than the first")

    def check(self) -> int:
        curves = ref.frame_curves(self.ch1, self.ch2, self.starts)
        scenes = _scene_frames(self.starts, self.bounds)
        for v, m in self.variants.items():
            q, theta, energy = self.first[v]
            if m == "mm":
                bad = ref.exact_mismatches(q, energy, curves)
                self.errors += [f"mm hop {i}: q={q[i]} is not the reference peak" for i in bad[:5]]
            self.errors += [f"{m} {e}" for e in ref.scene_errors(np.degrees(theta), energy, scenes)]
        return 0


class File(OnRecording):
    variants = BACKENDS
    describe = {v: f"gccdoa estimate per frame, {m}" for v, m in BACKENDS.items()}

    def __init__(self, seed: int, workdir: Path, setup: SetUp):
        super().__init__()
        pcm, self.bounds = recording(seed, 2, FILE_SCENES, FILE_SCENE_S, FILE_GAP_S)
        self.wav = workdir / "scenes.wav"
        with wave.open(str(self.wav), "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(ref.RATE)
            wf.writeframes(pcm.T.astype("<i2").tobytes())
        self.ch1, self.ch2 = pcm / 32768.0
        self.starts = np.arange(0, self.ch1.size - ref.N + 1, ref.HOP)
        self.silent = ref.silent(self.ch1, self.ch2, self.starts)
        gap = round(FILE_GAP_S * ref.RATE)
        expected = (FILE_SCENES - 1) * ((gap - ref.N) // ref.HOP + 1)
        if self.silent.sum() != expected:
            raise RuntimeError(f"recording has {self.silent.sum()} silent frames, "
                               f"its layout gives {expected}")
        self.outs = {v: workdir / f"estimates_{m}.ndjson" for v, m in self.variants.items()}
        self.first: dict = {}
        self.calls = {v: 0 for v in self.variants}
        self.sink = io.StringIO()
        self.use(setup)

    def use(self, setup: SetUp) -> None:
        self.factors_path = setup.factors_path

    def round(self, tracer) -> None:
        frames = len(self.starts)
        for v, m in self.variants.items():
            argv = ["estimate", str(self.wav), "--method", m, "--out", str(self.outs[v])]
            if m == "svd":
                argv += ["--factors", str(self.factors_path)]
            with contextlib.redirect_stdout(self.sink):
                root = tracer.open("op", v) if tracer else None
                t0 = perf_counter_ns()
                rc = cli.main(argv)
                t1 = perf_counter_ns()
                if tracer:
                    tracer.close(root)
            self.sink.seek(0)
            self.sink.truncate()
            if rc != 0:
                raise RuntimeError(f"gccdoa {' '.join(argv)} exited {rc}")
            self.times[v].append((t1 - t0) / frames)
            data = self.outs[v].read_bytes()
            if self.first.setdefault(v, data) != data:
                self.errors.append(f"{m}: call {self.calls[v]} wrote other estimates than the first")
            self.calls[v] += 1
            self.attempted += frames

    def check(self) -> int:
        """Checks the first call of each back-end (later calls wrote the same
        bytes) and returns the failed frames of all calls."""
        curves = ref.frame_curves(self.ch1, self.ch2, self.starts)
        scenes = _scene_frames(self.starts, self.bounds)
        failed = 0
        for v, m in self.variants.items():
            rows = [json.loads(line) for line in self.first[v].splitlines()]
            if [r["frame"] for r in rows] != list(range(len(self.starts))):
                self.errors.append(f"{m}: {len(rows)} NDJSON rows for {len(self.starts)} frames")
                continue
            theta = np.array([np.nan if r["theta_deg"] is None else r["theta_deg"] for r in rows])
            energy = np.array([np.nan if r["energy"] is None else r["energy"] for r in rows])
            # a silent frame has no direction: any angle reported for it is the
            # known fault (a plausible-looking -90 deg) and counts as failed
            failed += int(np.sum(self.silent & ~np.isnan(theta))) * self.calls[v]
            voiced = ~self.silent
            if np.isnan(theta[voiced]).any():
                self.errors.append(f"{m}: no estimate for a frame that holds signal")
                continue
            if m == "mm":
                idx = np.flatnonzero(voiced)
                bad = ref.exact_mismatches(ref.q_of_deg(theta[idx]), energy[idx], curves[idx])
                self.errors += [f"mm frame {idx[i]}: {theta[idx[i]]} deg is not the reference peak"
                                for i in bad[:5]]
            self.errors += [f"{m} {e}" for e in ref.scene_errors(theta, energy, scenes)]
        return failed


def _near(dims, target) -> bool:
    return all(abs(d - t) <= ROOM_TOL * t for d, t in zip(dims, target))


class Sweep(Workload):
    variants = CELLS
    describe = {v: f"sweep per configuration, beta={b:g} snr={s:g} dB" for v, (b, s) in CELLS.items()}
    # looked up here, before a traced run patches the module, so that choosing
    # seeds records no spans
    _peek = staticmethod(simulator.random_scenario)

    def __init__(self, seed: int, workdir: Path, setup: SetUp):
        super().__init__()
        self.rng = np.random.default_rng([seed, 3])
        self.sq_err = {}
        self.configs = {}
        self.failed = 0

    def _seed_for(self, room) -> int:
        """A sweep seed whose configuration is drawn in a room within ROOM_TOL
        of ``room`` in every dimension. The room fixes most of the cost of a
        configuration (the image lattice and the number of images kept), and
        the geometry does not depend on the cell."""
        while True:
            s = int(self.rng.integers(2**31))
            if _near(self._peek(0.0, None, ref.DIST, (s, 0, 0)).room.dims, room):
                return s

    def round(self, tracer) -> None:
        seeds = [self._seed_for(room) for room in SWEEP_ROOMS]
        for v, cell in self.variants.items():
            root = tracer.open("op", v) if tracer else None
            t0 = perf_counter_ns()
            reports = [r for s in seeds
                       for r in evaluation.run_accuracy_sweep(SWEEP_METHODS, [cell], 1, s)]
            t1 = perf_counter_ns()
            if tracer:
                tracer.close(root)
            self.times[v].append((t1 - t0) / len(seeds))
            for r in reports:
                key = (r.method, r.beta, r.snr_db)
                self.sq_err[key] = self.sq_err.get(key, 0.0) + r.rmse_deg**2 * r.configurations
                self.configs[key] = self.configs.get(key, 0) + r.configurations
                # an excluded (degenerate) configuration is a failed operation
                self.failed += 1 - r.configurations
            self.attempted += len(reports)

    def check(self) -> int:
        rmse = {k: float(np.sqrt(self.sq_err[k] / self.configs[k])) if self.configs[k] else np.nan
                for k in self.sq_err}
        self.errors += ref.sweep_errors(rmse)
        return self.failed

    def counts(self, tracer) -> dict:
        per_config = float(np.median([c for n, r, c in zip(tracer.name, tracer.root, tracer.count)
                                      if n == "stft.cross" and tracer.name[r] == "op"]))
        return {"frames": len(SWEEP_ROOMS) * per_config, "scenes": len(SWEEP_ROOMS),
                "frames_per_scene": per_config}


WORKLOADS = {"stream": Stream, "file": File, "sweep": Sweep}
