"""End-to-end CLI runs through main(argv); exit codes and file artifacts."""
import json
import os
import subprocess
import sys
import tracemalloc
import wave
from pathlib import Path

import numpy as np
import pytest

import gccdoa
from gccdoa import audio, cli, factorization
from gccdoa.cli import main
from gccdoa.core import GccParams, steering_matrix, theta_grid
from gccdoa.errors import FormatError
from gccdoa.estimators import build_estimator
from gccdoa.stft import cross_spectrum, stft_frames


def _write_wav(path, ch1, ch2, rate=16000):
    audio.write_stereo_wav(path, ch1, ch2, rate)


@pytest.fixture
def broadside_wav(tmp_path):
    """Identical channels: every frame's cross-spectrum has zero phase."""
    rng = np.random.default_rng(21)
    sig = rng.standard_normal(16000) * 0.2
    path = tmp_path / "broadside.wav"
    _write_wav(path, sig, sig)
    return path


class TestFactorize:
    def test_writes_loadable_factors(self, tmp_path, capsys):
        out = tmp_path / "w.gsvd"
        assert main(["factorize", "--out", str(out)]) == 0
        factors = factorization.load_factors(out)
        assert factors.k_r >= 1 and factors.k_i >= 1
        printed = capsys.readouterr().out
        assert f"K_R={factors.k_r}" in printed and f"K_I={factors.k_i}" in printed

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.gsvd", tmp_path / "b.gsvd"
        assert main(["factorize", "--out", str(a)]) == 0
        assert main(["factorize", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_prints_the_ratios_it_checked_without_measuring_again(self, tmp_path, monkeypatch,
                                                                   capsys):
        calls = []
        monkeypatch.setattr(factorization, "reconstruction_ratios",
                            lambda *a: calls.append(a) or (0.0, 0.0))
        out = tmp_path / "w.gsvd"
        assert main(["factorize", "--out", str(out)]) == 0
        assert calls == []
        assert capsys.readouterr().out == (
            f"K_R=5 K_I=4 recon_ratio_R=8.069e-08 recon_ratio_I=2.829e-06 -> {out}\n")


class TestEstimate:
    def test_broadside_ndjson(self, tmp_path, broadside_wav):
        out = tmp_path / "est.ndjson"
        rc = main(["estimate", str(broadside_wav), "--method", "mm", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == (16000 - 512) // 160 + 1
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert list(rec) == ["frame", "theta_deg", "energy"]
            assert rec["frame"] == i
            assert rec["theta_deg"] == pytest.approx(0.0, abs=1e-9)
            assert rec["energy"] > 0.0

    def test_svd_needs_factor_file(self, tmp_path, broadside_wav, capsys):
        rc = main(["estimate", str(broadside_wav), "--method", "svd",
                   "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert "factorize" in capsys.readouterr().err

    def test_svd_with_stale_factors_is_clean_error(self, tmp_path, broadside_wav, capsys):
        fac = tmp_path / "d005.gsvd"
        assert main(["factorize", "--dist", "0.05", "--out", str(fac)]) == 0
        capsys.readouterr()
        out = tmp_path / "svd.ndjson"
        rc = main(["estimate", str(broadside_wav), "--dist", "0.1", "--method", "svd",
                   "--factors", str(fac), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_svd_with_factors_of_another_grid_size_is_clean_error(self, tmp_path, broadside_wav,
                                                                  capsys):
        fac = tmp_path / "w.gsvd"
        assert main(["factorize", "--out", str(fac)]) == 0
        capsys.readouterr()
        out = tmp_path / "svd.ndjson"
        rc = main(["estimate", str(broadside_wav), "--q", "91", "--method", "svd",
                   "--factors", str(fac), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: factors are 181 x 257, the steering matrix is 91 x 257\n"
        assert not out.exists()

    def test_silent_frames_have_no_angle(self, tmp_path, capsys):
        rng = np.random.default_rng(22)
        sig = rng.standard_normal(16000) * 0.2
        sig[4000:8000] = 0.0  # digital silence in both channels
        wav = tmp_path / "gap.wav"
        _write_wav(wav, sig, sig)
        out = tmp_path / "est.ndjson"
        assert main(["estimate", str(wav), "--out", str(out)]) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        silent = [r["frame"] for r in recs if r["theta_deg"] is None]
        # frames that lie wholly inside the gap: start in [4000, 7488]
        assert silent == [f for f in range(len(recs)) if 4000 <= 160 * f <= 8000 - 512]
        for r in recs:
            assert list(r) == ["frame", "theta_deg", "energy"]
            if r["theta_deg"] is None:
                assert r["energy"] == 0.0
            else:
                assert r["theta_deg"] == pytest.approx(0.0, abs=1e-9) and r["energy"] > 0.0
        assert f"({len(silent)} silent)" in capsys.readouterr().out

    def test_svd_with_factors_agrees_with_mm(self, tmp_path, broadside_wav):
        fac = tmp_path / "w.gsvd"
        assert main(["factorize", "--out", str(fac)]) == 0
        out = tmp_path / "svd.ndjson"
        rc = main(["estimate", str(broadside_wav), "--method", "svd",
                   "--factors", str(fac), "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines():
            assert json.loads(line)["theta_deg"] == pytest.approx(0.0, abs=1e-9)

    def test_mono_wav_rejected(self, tmp_path, capsys):
        path = tmp_path / "mono.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(16000)
            wf.writeframes(np.zeros(16000, dtype="<i2").tobytes())
        rc = main(["estimate", str(path), "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert "2 channels" in capsys.readouterr().err

    def test_wrong_rate_names_expectation(self, tmp_path, capsys):
        path = tmp_path / "slow.wav"
        _write_wav(path, np.zeros(8000), np.zeros(8000), rate=8000)
        rc = main(["estimate", str(path), "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "8000" in err and "16000" in err

    @pytest.mark.parametrize("flag", [["--dist", "nan"], ["--speed", "inf"]])
    def test_non_finite_param_exits_2_and_writes_nothing(self, tmp_path, broadside_wav, flag,
                                                         capsys):
        out = tmp_path / "est.ndjson"
        assert main(["estimate", str(broadside_wav), *flag, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive and finite" in err
        assert err.count("\n") == 1 and not out.exists()

    def test_unknown_method_rejected(self, tmp_path, broadside_wav, capsys):
        rc = main(["estimate", str(broadside_wav), "--method", "fft03",
                   "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert "fft03" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        rc = main(["estimate", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestBlockedEstimate:
    """`gccdoa estimate` walks the recording in blocks of cli._BLOCK frames."""

    FRAMES = 2 * cli._BLOCK + 37

    @pytest.fixture(scope="class")
    def gap_wav(self, tmp_path_factory):
        """Noise with a 2-sample inter-channel delay, and digital silence over
        the frames around the first block boundary."""
        rng = np.random.default_rng(23)
        sig = rng.standard_normal((self.FRAMES - 1) * 160 + 512 + 2) * 0.2
        boundary = 160 * cli._BLOCK
        sig[boundary - 1500:boundary + 2500] = 0.0
        path = tmp_path_factory.mktemp("blocked") / "gap.wav"
        _write_wav(path, sig[2:], sig[:-2])
        return path

    @staticmethod
    def _whole_recording_lines(wav, method, factors=None):
        """The NDJSON of one whole-recording batch and a json.dumps per frame."""
        params = GccParams()
        est = build_estimator(method, params, factors)
        ch1, ch2 = audio.read_stereo_wav(wav, params.rate)
        frames = cross_spectrum(stft_frames(ch1, 512, 160), stft_frames(ch2, 512, 160))
        lines = []
        for i, frame in enumerate(frames):
            e = est.estimate(frame)
            theta = None if not frame.any() else float(np.degrees(e.theta_est))
            lines.append(json.dumps({"frame": i, "theta_deg": theta, "energy": e.energy}) + "\n")
        return "".join(lines)

    @pytest.mark.parametrize("method", ["mm", "svd", "fft02-qi", "fft32-qi"])
    def test_equals_whole_recording_json_dumps(self, tmp_path, gap_wav, method, capsys):
        argv = ["estimate", str(gap_wav), "--method", method, "--out", str(tmp_path / "e.ndjson")]
        factors = None
        if method == "svd":
            assert main(["factorize", "--out", str(tmp_path / "w.gsvd")]) == 0
            factors = factorization.load_factors(tmp_path / "w.gsvd")
            argv += ["--factors", str(tmp_path / "w.gsvd")]
        capsys.readouterr()
        assert main(argv) == 0
        got = (tmp_path / "e.ndjson").read_text()
        expected = self._whole_recording_lines(gap_wav, method, factors)
        assert got == expected
        rows = [json.loads(line) for line in expected.splitlines()]
        silent = [r["frame"] for r in rows if r["theta_deg"] is None]
        assert len(rows) == self.FRAMES
        assert cli._BLOCK - 1 in silent and cli._BLOCK in silent
        assert capsys.readouterr().out == (
            f"{self.FRAMES} frames ({len(silent)} silent) -> {tmp_path / 'e.ndjson'}\n")

    @pytest.mark.parametrize("block", [1, 37, 10_000])
    def test_output_does_not_depend_on_block_size(self, tmp_path, gap_wav, block, monkeypatch):
        reference = tmp_path / "ref.ndjson"
        assert main(["estimate", str(gap_wav), "--method", "fft02-qi", "--out", str(reference)]) == 0
        monkeypatch.setattr(cli, "_BLOCK", block)
        out = tmp_path / "e.ndjson"
        assert main(["estimate", str(gap_wav), "--method", "fft02-qi", "--out", str(out)]) == 0
        assert out.read_bytes() == reference.read_bytes()

    def test_chunk_after_the_samples_changes_nothing(self, tmp_path, gap_wav):
        data = gap_wav.read_bytes()
        info = b"INFOISFT" + (4).to_bytes(4, "little") + b"gcc\0"
        chunk = b"LIST" + len(info).to_bytes(4, "little") + info
        riff = int.from_bytes(data[4:8], "little") + len(chunk)
        listed = tmp_path / "listed.wav"
        listed.write_bytes(data[:4] + riff.to_bytes(4, "little") + data[8:] + chunk)
        outs = []
        for wav in (gap_wav, listed):
            out = tmp_path / f"{wav.stem}.ndjson"
            assert main(["estimate", str(wav), "--method", "fft02-qi", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_traced_memory_does_not_grow_with_the_recording(self, tmp_path, capsys):
        """The tracemalloc peak, which sees numpy's buffers, of a 150 s recording
        is within 10 % of a 30 s one's: only the block's samples are decoded."""
        rng = np.random.default_rng(29)
        argvs = {}
        for seconds in (30, 150):
            path = tmp_path / f"noise{seconds}.wav"
            with wave.open(str(path), "wb") as wf:
                wf.setnchannels(2)
                wf.setsampwidth(2)
                wf.setframerate(16000)
                wf.writeframes(rng.integers(-3000, 3000, (seconds * 16000, 2), dtype="<i2").tobytes())
            # hop = n keeps the test short; the blocks' size does not depend on the length
            argvs[seconds] = ["estimate", str(path), "--method", "fft02-qi", "--hop", "512",
                              "--out", str(tmp_path / "e.ndjson")]
        peaks = {}
        tracemalloc.start()
        try:
            assert main(argvs[30]) == 0  # fills the one-time caches (window, parser)
            for seconds, argv in argvs.items():
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                assert main(argv) == 0
                peaks[seconds] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peaks[150] <= 1.1 * peaks[30], peaks

    @pytest.mark.parametrize("samples", [1, 511])
    def test_recording_shorter_than_a_frame(self, tmp_path, samples, capsys):
        wav = tmp_path / "short.wav"
        _write_wav(wav, np.full(samples, 0.1), np.full(samples, 0.1))
        out = tmp_path / "e.ndjson"
        assert main(["estimate", str(wav), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: signal has {samples} samples, need at least n=512\n"
        assert not out.exists()


class TestReusedWorkspace:
    """Every block reuses one workspace: no block may see another block's values."""

    FRAMES = 3 * cli._BLOCK + 5  # the partial last block follows a full one

    @pytest.fixture(scope="class")
    def silent_block_wav(self, tmp_path_factory):
        """Noise with a 2-sample inter-channel delay and digital silence over
        frames in the middle of block 1."""
        rng = np.random.default_rng(37)
        sig = rng.standard_normal((self.FRAMES - 1) * 160 + 512 + 2) * 0.2
        first = cli._BLOCK + 40
        sig[first * 160:(first + 20) * 160 + 512] = 0.0
        path = tmp_path_factory.mktemp("workspace") / "silent_block.wav"
        _write_wav(path, sig[2:], sig[:-2])
        return path

    @pytest.mark.parametrize("method", ["mm", "svd", "fft02-qi", "fft32-qi"])
    def test_equals_whole_recording_json_dumps(self, tmp_path, silent_block_wav, method):
        argv = ["estimate", str(silent_block_wav), "--method", method,
                "--out", str(tmp_path / "e.ndjson")]
        factors = None
        if method == "svd":
            assert main(["factorize", "--out", str(tmp_path / "w.gsvd")]) == 0
            factors = factorization.load_factors(tmp_path / "w.gsvd")
            argv += ["--factors", str(tmp_path / "w.gsvd")]
        assert main(argv) == 0
        got = (tmp_path / "e.ndjson").read_text()
        assert got == TestBlockedEstimate._whole_recording_lines(silent_block_wav, method, factors)
        rows = [json.loads(line) for line in got.splitlines()]
        silent = [r["frame"] for r in rows if r["theta_deg"] is None]
        assert len(rows) == self.FRAMES
        assert silent and cli._BLOCK < min(silent) and max(silent) < 2 * cli._BLOCK


def test_import_loads_no_scipy():
    """The package runs on numpy alone: importing it and its CLI loads no scipy module."""
    env = {**os.environ, "PYTHONPATH": str(Path(gccdoa.__file__).parents[1])}
    code = ("import sys, gccdoa, gccdoa.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    run = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, env=env)
    assert run.stdout == "[]\n"


class TestSimulate:
    def test_manifests_are_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        args = ["simulate", "--configs", "4", "--seed", "11", "--beta", "0.3", "--snr", "20"]
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        m1 = (d1 / "scenarios.jsonl").read_bytes()
        assert m1 == (d2 / "scenarios.jsonl").read_bytes()
        assert len(m1.splitlines()) == 4

    def test_write_wavs_produces_readable_pairs(self, tmp_path):
        d = tmp_path / "wavs"
        rc = main(["simulate", "--configs", "2", "--seed", "3", "--duration", "0.3",
                   "--write-wavs", "--out-dir", str(d)])
        assert rc == 0
        paths = sorted(d.glob("scenario_*.wav"))
        assert len(paths) == 2
        for p in paths:
            ch1, ch2 = audio.read_stereo_wav(p, 16000)
            assert len(ch1) == len(ch2) > 0
            assert np.max(np.abs(ch1)) > 0.0


    @pytest.mark.parametrize("wavs", [[], ["--write-wavs"]])
    def test_bad_rate_exits_2_with_or_without_wavs(self, tmp_path, wavs, capsys):
        d = tmp_path / "out"
        assert main(["simulate", "--rate", "0", "--configs", "1", "--out-dir", str(d), *wavs]) == 2
        assert capsys.readouterr().err == "error: sample rate must be positive and finite, got 0\n"
        assert not d.exists()

    @pytest.mark.parametrize("wavs", [[], ["--write-wavs"]])
    @pytest.mark.parametrize("configs", ["0", "-3"])
    def test_configs_below_one_exit_2(self, tmp_path, wavs, configs, capsys):
        d = tmp_path / "out"
        assert main(["simulate", f"--configs={configs}", "--out-dir", str(d), *wavs]) == 2
        assert capsys.readouterr().err == (
            f"error: need at least one configuration, got {configs}\n")
        assert not d.exists()

    @pytest.mark.parametrize("wavs", [[], ["--write-wavs"]])
    @pytest.mark.parametrize("duration", ["-1", "0", "nan", "inf"])
    def test_bad_duration_exits_2_with_or_without_wavs(self, tmp_path, wavs, duration, capsys):
        d = tmp_path / "out"
        assert main(["simulate", f"--duration={duration}", "--configs", "1", "--out-dir", str(d),
                     *wavs]) == 2
        assert capsys.readouterr().err == (
            f"error: duration must be positive and finite, got {float(duration)}\n")
        assert not d.exists()

    @pytest.mark.parametrize("wavs", [[], ["--write-wavs"]])
    def test_negative_seed_exits_2(self, tmp_path, wavs, capsys):
        d = tmp_path / "out"
        assert main(["simulate", "--seed=-1", "--configs", "2", "--out-dir", str(d), *wavs]) == 2
        assert capsys.readouterr().err == (
            "error: seed path entries must be non-negative integers, got [-1, 0]\n")
        assert not d.exists()


class TestEvaluate:
    def test_smoke_writes_csv(self, tmp_path):
        out = tmp_path / "acc.csv"
        rc = main(["evaluate", "--methods", "mm,fft01", "--betas", "0", "--snrs", "40",
                   "--configs", "2", "--seed", "5", "--duration", "0.3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,beta,snr_db,rmse_deg,configs"
        assert len(lines) == 3  # 2 methods x 1 cell

    def test_check_exit_code_matches_verdicts(self, tmp_path, capsys):
        out = tmp_path / "acc.csv"
        rc = main(["evaluate", "--configs", "2", "--seed", "5", "--duration", "0.3",
                   "--out", str(out), "--check"])
        printed = capsys.readouterr().out
        verdicts = [ln for ln in printed.splitlines() if ln.startswith("check ")]
        assert len(verdicts) == 4
        assert rc == (1 if any("FAIL" in v for v in verdicts) else 0)

    @pytest.mark.parametrize("snr", ["nan", "-inf"])
    def test_snr_that_is_no_number_of_db_exits_2(self, tmp_path, snr, capsys):
        out = tmp_path / "acc.csv"
        assert main(["evaluate", "--methods", "mm", "--betas", "0", f"--snrs={snr}", "--configs", "1",
                     "--duration", "0.3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: SNR must be finite dB, +inf or None")
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "acc.csv"
        assert main(["evaluate", "--methods", "mm", "--betas", "0", "--snrs", "40", "--configs", "1",
                     "--seed=-2", "--duration", "0.3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: seed path entries must be non-negative integers, got [-2, 0, 0]\n")
        assert not out.exists()


class TestBench:
    def test_csv_has_row_per_method(self, tmp_path):
        out = tmp_path / "timing.csv"
        rc = main(["bench", "--methods", "mm,svd,fft01", "--frames", "30",
                   "--warmup", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,mean_us_per_frame,median_us_per_frame,frames_timed,params"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["mm", "svd", "fft01"]

    def test_bad_method_list_rejected(self, tmp_path, capsys):
        rc = main(["bench", "--methods", "mm,bogus", "--frames", "5",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "bogus" in capsys.readouterr().err

    def test_negative_warmup_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["bench", "--methods", "mm", "--frames", "5", "--warmup=-7",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: warm-up must be >= 0 frames, got -7\n"
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["bench", "--methods", "mm", "--frames", "5", "--seed=-1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: seed path entries must be non-negative integers, got [-1]\n")
        assert not out.exists()


# the GccParams fields each subcommand reads, and so takes as flags
PARAM_FLAGS = {
    "factorize": {"q", "n", "dist", "speed", "rate", "delta"},
    "estimate": {"q", "n", "hop", "dist", "speed", "rate"},
    "simulate": {"dist", "rate"},
    "evaluate": {"q", "n", "hop", "dist", "speed", "rate", "delta"},
    "bench": {"q", "n", "hop", "dist", "speed", "rate", "delta"},
}
PARAM_FIELDS = PARAM_FLAGS["evaluate"]


class TestParamFlags:
    """Each subcommand takes only the signal-chain flags it reads, with the
    types and defaults of GccParams()."""

    @pytest.mark.parametrize("command", sorted(PARAM_FLAGS))
    def test_defaults_are_gccparams(self, command):
        argv = [command] + (["x.wav"] if command == "estimate" else [])
        args = cli.build_parser().parse_args(argv)
        taken = PARAM_FIELDS & set(vars(args))
        assert taken == PARAM_FLAGS[command]
        defaults = GccParams()
        for name in taken:
            value = getattr(args, name)
            assert value == getattr(defaults, name) and type(value) is type(getattr(defaults, name))

    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command in sorted(PARAM_FLAGS)
        for flag in sorted(PARAM_FIELDS - PARAM_FLAGS[command])])
    def test_removed_flag_exits_2(self, command, flag, capsys):
        argv = [command] + (["x.wav"] if command == "estimate" else [])
        with pytest.raises(SystemExit) as info:
            main(argv + [f"--{flag}", "1e-3" if flag == "delta" else "64"])
        assert info.value.code == 2
        assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err

    def test_factorize_ignores_the_default_hop(self, tmp_path, broadside_wav):
        """factorize reads no hop, so --n 128 works, and its file drives svd at n=128."""
        fac = tmp_path / "n128.gsvd"
        assert main(["factorize", "--n", "128", "--out", str(fac)]) == 0
        assert factorization.load_factors(fac).t_r.shape[1] == 65
        out = tmp_path / "svd.ndjson"
        assert main(["estimate", str(broadside_wav), "--n", "128", "--hop", "64",
                     "--method", "svd", "--factors", str(fac), "--out", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == (16000 - 128) // 64 + 1
        assert all(r["theta_deg"] == pytest.approx(0.0, abs=1e-9) for r in rows)

    def test_simulate_takes_spacing_and_rate(self, tmp_path):
        d = tmp_path / "sim"
        assert main(["simulate", "--configs", "1", "--dist", "0.1", "--rate", "8000", "--duration",
                     "0.2", "--write-wavs", "--out-dir", str(d)]) == 0
        ch1, _ = audio.read_stereo_wav(d / "scenario_0000.wav", 8000)
        assert len(ch1) > 0
        assert len((d / "scenarios.jsonl").read_text().splitlines()) == 1
        assert main(["simulate", "--configs", "1", "--dist", "-0.1", "--out-dir", str(d)]) == 2

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path, broadside_wav):
        """Two calls in one process, the second without --hop, write what two
        fresh processes write."""
        assert cli.build_parser() is cli.build_parser()
        argvs = [["--hop", "80"], []]
        in_process, fresh = [], []
        env = {**os.environ, "PYTHONPATH": str(Path(gccdoa.__file__).parents[1])}
        for i, extra in enumerate(argvs):
            a, b = tmp_path / f"a{i}.ndjson", tmp_path / f"b{i}.ndjson"
            argv = ["estimate", str(broadside_wav), "--method", "fft02-qi", *extra]
            assert main(argv + ["--out", str(a)]) == 0
            subprocess.run([sys.executable, "-m", "gccdoa.cli", *argv, "--out", str(b)],
                           check=True, capture_output=True, env=env)
            in_process.append(a.read_bytes())
            fresh.append(b.read_bytes())
        assert in_process == fresh
        assert len(fresh[0].splitlines()) == (16000 - 512) // 80 + 1
        assert len(fresh[1].splitlines()) == (16000 - 512) // 160 + 1


class TestBadInputFailsCleanly:
    @pytest.mark.parametrize("content", [b"", b"RIFF\x00", b"\x00" * 64],
                             ids=["empty", "5-bytes", "64-bytes-no-riff"])
    def test_non_wav_is_format_error(self, tmp_path, content, capsys):
        path = tmp_path / "in.wav"
        path.write_bytes(content)
        with pytest.raises(FormatError):
            audio.read_stereo_wav(path, 16000)
        out = tmp_path / "e.ndjson"
        assert main(["estimate", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("cut", [1, 3, 4])
    def test_wav_cut_inside_its_samples_is_format_error(self, tmp_path, cut, capsys):
        path = tmp_path / "cut.wav"
        _write_wav(path, np.full(2000, 0.1), np.full(2000, 0.1))
        path.write_bytes(path.read_bytes()[:-cut])
        out = tmp_path / "e.ndjson"
        assert main(["estimate", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: cut short, {8000 - cut} of 8000 sample bytes\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["evaluate", "--betas", "0,x"], "--betas"),
        (["evaluate", "--snrs", "40,ten"], "--snrs"),
        (["evaluate", "--betas", "", "--check"], "--betas"),
        (["evaluate", "--snrs", " , "], "--snrs"),
        (["evaluate", "--methods", ","], "--methods"),
        (["bench", "--methods", ""], "--methods"),
    ])
    def test_bad_comma_list_is_input_error(self, tmp_path, argv, flag, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert not out.exists()

    def test_comma_list_entries_are_stripped(self, tmp_path):
        out = tmp_path / "acc.csv"
        assert main(["evaluate", "--methods", " mm , ", "--betas", " 0 ,, ", "--snrs", "40, 10 ",
                     "--configs", "1", "--seed", "5", "--duration", "0.3", "--out", str(out)]) == 0
        rows = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
        assert rows == [["mm", "0.000000", "40.000000"], ["mm", "0.000000", "10.000000"]]


def test_estimate_takes_no_window_option(capsys):
    """estimate frames with the periodic Hann window, as evaluate does; there is no choice."""
    with pytest.raises(SystemExit) as info:
        main(["estimate", "x.wav", "--window", "hann"])
    assert info.value.code == 2
    assert "unrecognized arguments: --window" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["mm", "fft02-qi"])
def test_estimate_refuses_factors_for_a_method_that_reads_none(tmp_path, broadside_wav, method,
                                                               capsys):
    """--factors is read by svd alone; with any other method it is refused, not ignored."""
    out = tmp_path / "est.ndjson"
    rc = main(["estimate", str(broadside_wav), "--method", method,
               "--factors", str(tmp_path / "missing.gsvd"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: --factors is read by method 'svd' only, not by {method!r}\n")
    assert not out.exists()


class TestEvaluateCheckNeedsTwoBetasAndTwoSnrs:
    """--check compares cells; with one beta or one SNR it exits 2 after writing the CSV."""

    @pytest.mark.parametrize("betas, snrs, missing", [("0", "40", "betas, got [0.0]"),
                                                      ("0,0.6", "40", "SNRs, got [40.0]")])
    def test_exits_2_after_the_csv(self, tmp_path, capsys, betas, snrs, missing):
        out = tmp_path / "acc.csv"
        assert main(["evaluate", "--betas", betas, "--snrs", snrs, "--configs", "1",
                     "--duration", "0.3", "--out", str(out), "--check"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: the accuracy check needs reports at two or more {missing}\n"
        assert "check " not in captured.out
        assert len(out.read_text().splitlines()) == 1 + 3 * len(betas.split(","))
