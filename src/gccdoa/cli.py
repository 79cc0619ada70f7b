"""Command-line interface: factorize, estimate, simulate, evaluate, bench."""
from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import audio, evaluation, factorization, simulator
from .core import GccParams, _check_positive_finite, steering_matrix, theta_grid
from .errors import ConfigurationError, DimensionError, FormatError, InputError, NumericalError
from .estimators import build_estimator, method_names, parse_method
from .stft import cross_spectrum, stft_frames


# help text of the GccParams fields a subcommand may take as flags; type and default: GccParams()
_PARAM_HELP = {"q": "grid angle count", "n": "STFT frame size", "hop": "hop size in samples",
               "dist": "microphone spacing (m)", "speed": "speed of sound (m/s)",
               "rate": "sample rate (Hz)", "delta": "SVD reconstruction tolerance"}


def _add_param_flags(p: argparse.ArgumentParser, names) -> None:
    """Flags for the GccParams fields that the subcommand reads, and no others."""
    defaults = GccParams()
    for name in names:
        value = getattr(defaults, name)
        p.add_argument(f"--{name}", type=type(value), default=value, help=_PARAM_HELP[name])


def _params(args, **fixed) -> GccParams:
    """GccParams from the subcommand's flags and ``fixed``; the rest keep their defaults."""
    return GccParams(**{k: v for k, v in vars(args).items() if k in _PARAM_HELP}, **fixed)


def _split(spec: str, flag: str, item=str) -> list:
    """Stripped, non-blank entries of a comma-separated flag value, each passed through item."""
    try:
        items = [item(x.strip()) for x in spec.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"{flag} {spec!r}: every entry must be a number") from None
    if not items:
        raise InputError(f"{flag} {spec!r}: empty list")
    return items


def _method_list(spec: str) -> list[str]:
    names = method_names() if spec == "all" else _split(spec, "--methods")
    for name in names:
        parse_method(name)
    return names


def cmd_factorize(args) -> int:
    # nothing here reads the hop; hop = n is valid for every n
    params = _params(args, hop=args.n)
    w = steering_matrix(params, theta_grid(params))
    factors = factorization.factorize(w, params.delta)
    factorization.save_factors(factors, args.out)
    rr, ri = factors.measured_ratios()
    print(f"K_R={factors.k_r} K_I={factors.k_i} "
          f"recon_ratio_R={rr:.3e} recon_ratio_I={ri:.3e} -> {args.out}")
    return 0


# frames per block of `gccdoa estimate`: it reads and decodes only the block's
# samples into one workspace that every block reuses, its arrays are
# (_BLOCK x n/2+1) however long the recording is, and each block's NDJSON
# lines go out in one write
_BLOCK = 128


def _ndjson_block(est, wav, first, count, n, hop, pcm, spectra) -> tuple[str, int]:
    """NDJSON lines of frames [first, first + count) of wav, and how many of them are silent.

    Only the block's samples are read and decoded, into pcm (2 x samples);
    spectra (3 x frames x bins, complex) holds both channels' spectra and
    their cross-spectrum. Each line is what json.dumps({"frame", "theta_deg",
    "energy"}) writes: every value is a finite float (``estimate`` raises on
    any other), and json.dumps writes a finite float as its repr.
    """
    ch1, ch2 = wav.read(first * hop, (first + count - 1) * hop + n, out=pcm)
    x1, x2, x12 = spectra[:, :count]
    frames = cross_spectrum(stft_frames(ch1, n, hop, out=x1),
                            stft_frames(ch2, n, hop, out=x2), out=x12)
    estimates = [est.estimate(frame) for frame in frames]
    # an all-zero PHAT frame (digital silence) has no direction: theta_deg is null
    silent = (~frames.any(axis=1)).tolist()
    lines = [f'{{"frame": {i}, "theta_deg": {"null" if quiet else repr(math.degrees(e.theta_est))}, '
             f'"energy": {e.energy!r}}}\n'
             for i, e, quiet in zip(range(first, first + count), estimates, silent)]
    return "".join(lines), sum(silent)


def cmd_estimate(args) -> int:
    params = _params(args)
    if args.method == "svd" and not args.factors:
        raise InputError("method 'svd' needs --factors FILE (run factorize first)")
    if args.factors and args.method != "svd":
        raise InputError(f"--factors is read by method 'svd' only, not by {args.method!r}")
    factors = factorization.load_factors(args.factors) if args.factors else None
    est = build_estimator(args.method, params, factors)
    n, hop = params.n, params.hop
    with audio.StereoWavReader(args.wav, params.rate) as wav:
        # a recording shorter than n still makes one block, whose stft_frames call
        # raises; it does so before the output file is opened
        total = max((wav.frames - n) // hop + 1, 1)
        # one workspace for every block, so no block's arrays go back to the
        # allocator and are paged in again for the next
        size = min(_BLOCK, total)
        pcm = np.empty((2, (size - 1) * hop + n))
        spectra = np.empty((3, size, n // 2 + 1), np.complex128)
        blocks = (_ndjson_block(est, wav, b0, min(_BLOCK, total - b0), n, hop, pcm, spectra)
                  for b0 in range(0, total, _BLOCK))
        text, silent = next(blocks)
        with open(args.out, "w") as fh:
            fh.write(text)
            for text, quiet in blocks:
                fh.write(text)
                silent += quiet
    print(f"{total} frames ({silent} silent) -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    # checked before anything is written, not only when rendering: without
    # --write-wavs nothing reads the rate or the duration
    if args.configs < 1:
        raise ConfigurationError(f"need at least one configuration, got {args.configs}")
    _check_positive_finite("sample rate", args.rate)
    _check_positive_finite("duration", args.duration)
    scenarios = [simulator.random_scenario(args.beta, args.snr, args.dist, (args.seed, i))
                 for i in range(args.configs)]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, sc in enumerate(scenarios if args.write_wavs else []):
        signal = simulator.speech_like_source(
            args.duration, args.rate, simulator.stream_rng(sc.seed, simulator.SOURCE_STREAM))
        pair = simulator.render(sc, signal, args.rate)
        audio.write_stereo_wav(out_dir / f"scenario_{i:04d}.wav", pair.ch1, pair.ch2, args.rate)
    manifest = out_dir / "scenarios.jsonl"
    simulator.write_manifest(scenarios, manifest)
    print(f"{len(scenarios)} scenarios -> {manifest}")
    return 0


def cmd_evaluate(args) -> int:
    methods = _method_list(args.methods)
    cells = [(b, s) for b in _split(args.betas, "--betas", float)
             for s in _split(args.snrs, "--snrs", float)]
    reports = evaluation.run_accuracy_sweep(methods, cells, args.configs, args.seed,
                                            params=_params(args), duration_s=args.duration)
    evaluation.emit_reports(reports, args.out)
    print(f"{len(reports)} rows -> {args.out}")
    verdicts = evaluation.check_accuracy_reports(reports) if args.check else []
    for name, passed, detail in verdicts:
        print(f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    return 0 if all(passed for _, passed, _ in verdicts) else 1


def cmd_bench(args) -> int:
    reports = evaluation.run_bench(_method_list(args.methods), args.frames, params=_params(args),
                                   warmup=args.warmup, seed=args.seed)
    evaluation.emit_reports(reports, args.out)
    for r in reports:
        print(f"{r.method}: mean {r.mean_us_per_frame:.2f} us, median {r.median_us_per_frame:.2f} us")
    print(f"{len(reports)} rows -> {args.out}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gccdoa parser, built once per process; parse_args keeps no state in it."""
    parser = argparse.ArgumentParser(prog="gccdoa", description="Two-microphone GCC-PHAT DOA toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="build and save low-rank steering factors")
    _add_param_flags(p, ("q", "n", "dist", "speed", "rate", "delta"))
    p.add_argument("--out", default="factors.gsvd", help="factor file destination")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("estimate", help="per-frame DOA estimates from a stereo WAV")
    _add_param_flags(p, ("q", "n", "hop", "dist", "speed", "rate"))
    p.add_argument("wav", help="2-channel 16-bit PCM WAV at --rate")
    p.add_argument("--method", default="mm", help="one of: " + ", ".join(method_names()))
    p.add_argument("--factors", default=None, help="factor file (svd only, and required for it)")
    p.add_argument("--out", default="estimates.ndjson", help="NDJSON destination")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="generate random scenarios (and optional WAVs)")
    _add_param_flags(p, ("dist", "rate"))
    p.add_argument("--configs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--beta", type=float, default=0.0, help="wall reflection coefficient")
    p.add_argument("--snr", type=float, default=None, help="per-channel SNR in dB (omit for none)")
    p.add_argument("--duration", type=float, default=evaluation.DEFAULT_DURATION_S)
    p.add_argument("--write-wavs", action="store_true")
    p.add_argument("--out-dir", default="scenarios")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="accuracy sweep over (beta, SNR) cells")
    _add_param_flags(p, _PARAM_HELP)
    p.add_argument("--methods", default="mm,fft01,fft02-qi")
    p.add_argument("--betas", default="0,0.6")
    p.add_argument("--snrs", default="40,10")
    p.add_argument("--configs", type=int, default=50)
    p.add_argument("--seed", type=int, default=evaluation.DEFAULT_EVAL_SEED)
    p.add_argument("--duration", type=float, default=evaluation.DEFAULT_DURATION_S)
    p.add_argument("--out", default="accuracy.csv")
    p.add_argument("--check", action="store_true",
                   help="verify the replication properties; nonzero exit on failure")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="per-frame execution time of the back-ends")
    _add_param_flags(p, _PARAM_HELP)
    p.add_argument("--methods", default="all")
    p.add_argument("--frames", type=int, default=2000)
    p.add_argument("--warmup", type=int, default=100)
    p.add_argument("--seed", type=int, default=evaluation.DEFAULT_BENCH_SEED)
    p.add_argument("--out", default="timing.csv")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DimensionError, FormatError, InputError, NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
