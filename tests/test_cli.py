"""End-to-end CLI runs through main(argv); exit codes and file artifacts."""
import json
import wave

import numpy as np
import pytest

from gccdoa import audio, factorization
from gccdoa.cli import main


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

    def test_unknown_method_rejected(self, tmp_path, broadside_wav, capsys):
        rc = main(["estimate", str(broadside_wav), "--method", "fft03",
                   "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert "fft03" in capsys.readouterr().err

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        rc = main(["estimate", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "x.ndjson")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


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
