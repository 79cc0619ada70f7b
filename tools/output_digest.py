"""Print one ``sha256  name`` line per output of a fixed set of gccdoa runs, so
that two checkouts compare with one ``diff``.

    python3 tools/output_digest.py [CHECKOUT] > digest.txt

CHECKOUT (default: the checkout holding this script) is a repository root whose
``src/`` is run. Outputs go to a temporary directory, never into a checkout:

- ``gccdoa factorize`` at the defaults, ``--q 180``, ``--n 1024`` and ``--dist 0.3``
  (file, stdout)
- ``gccdoa simulate --configs 2 --seed 5 --beta 0.6 --snr 20 --write-wavs``
  (both WAVs, the manifest, stdout)
- ``gccdoa estimate`` with all 14 methods of the checkout's ``method_names()``
  (NDJSON, stdout) on the first simulated WAV with stretches of digital silence
  cut into it; ``svd`` reads the default factor file
- the same 14 ``gccdoa estimate`` runs at ``--dist 0.3``, where fft01..fft04(-qi)
  read their lags through the padded irfft and fft08..fft32(-qi) through chirp-z
  (at the defaults every fftNN takes the lag operator); ``svd`` reads the
  ``--dist 0.3`` factor file
- the live hop that a streaming caller runs, for all 14 methods: every n-sample
  window of each channel of that WAV, one hop apart, framed with ``stft_frames``,
  then ``cross_spectrum`` and ``estimate`` (one ``q_max theta_est energy`` repr
  line per hop in ``live/METHOD.txt``); ``svd`` reads the default factor file
- the default ``gccdoa evaluate`` CSV and stdout, and the same sweep over all 14
  methods (``--methods all``), the accuracy columns of ``tools/paper_table.py``

Nothing is timed. Run it on two checkouts and ``diff`` the two listings.
"""
import hashlib
import os
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
# (first, stop) seconds of the source WAV set to digital silence in both channels
SILENCES = ((0.0, 0.1), (0.4, 0.7), (1.2, 1.3))

# run in the checkout's package from the work directory; argv holds the methods
LIVE_HOP = """
import sys
from pathlib import Path
from gccdoa import audio, estimators, factorization
from gccdoa.core import GccParams
from gccdoa.stft import cross_spectrum, stft_frames

params = GccParams()
n, hop = params.n, params.hop
ch1, ch2 = audio.read_stereo_wav("gaps.wav", params.rate)
factors = factorization.load_factors("factors.gsvd")
Path("live").mkdir()
for method in sys.argv[1:]:
    est = estimators.build_estimator(method, params, factors)
    with open(f"live/{method}.txt", "w") as fh:
        for s in range(0, ch1.size - n + 1, hop):
            e = est.estimate(cross_spectrum(stft_frames(ch1[s:s + n], n, hop),
                                            stft_frames(ch2[s:s + n], n, hop))[0])
            fh.write(f"{e.q_max!r} {e.theta_est!r} {e.energy!r}\\n")
"""

if len(sys.argv) > 2 or not (ROOT / "src" / "gccdoa").is_dir():
    sys.exit(__doc__)
sys.path.insert(0, str(ROOT / "src"))
from gccdoa.estimators import method_names  # noqa: E402


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def with_silences(source: Path, destination: Path) -> None:
    """A copy of a 16-bit stereo WAV with the SILENCES stretches zeroed."""
    with wave.open(str(source), "rb") as r:
        params, pcm = r.getparams(), bytearray(r.readframes(r.getnframes()))
    size = params.nchannels * params.sampwidth
    for first, stop in SILENCES:
        a, b = (min(round(t * params.framerate), params.nframes) * size for t in (first, stop))
        pcm[a:b] = bytes(b - a)
    with wave.open(str(destination), "wb") as w:
        w.setparams(params)
        w.writeframes(bytes(pcm))


with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    lines = []

    def gccdoa(label: str, *args: str) -> None:
        run = subprocess.run([sys.executable, "-m", "gccdoa.cli", *args], cwd=work, env=env,
                             capture_output=True, check=True)
        lines.append(f"{sha256(run.stdout)}  stdout:{label}")

    gccdoa("factorize", "factorize", "--out", "factors.gsvd")
    gccdoa("factorize-q180", "factorize", "--q", "180", "--out", "factors_q180.gsvd")
    gccdoa("factorize-n1024", "factorize", "--n", "1024", "--out", "factors_n1024.gsvd")
    gccdoa("factorize-dist0.3", "factorize", "--dist", "0.3", "--out", "factors_dist0.3.gsvd")
    gccdoa("simulate", "simulate", "--configs", "2", "--seed", "5", "--beta", "0.6", "--snr", "20",
           "--write-wavs", "--out-dir", "sim")
    with_silences(work / "sim" / "scenario_0000.wav", work / "gaps.wav")
    for tag, dist in (("", ()), ("_dist0.3", ("--dist", "0.3"))):
        for method in method_names():
            extra = ["--factors", f"factors{tag}.gsvd"] if method == "svd" else []
            gccdoa(f"estimate-{method}{tag}", "estimate", "gaps.wav", "--method", method, *dist,
                   *extra, "--out", f"estimates_{method}{tag}.ndjson")
    subprocess.run([sys.executable, "-c", LIVE_HOP, *method_names()], cwd=work, env=env, check=True)
    gccdoa("evaluate", "evaluate", "--out", "accuracy.csv")
    gccdoa("evaluate-all", "evaluate", "--methods", "all", "--out", "accuracy_all.csv")
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        lines.append(f"{sha256(path.read_bytes())}  {path.relative_to(work)}")
    print("\n".join(lines))
