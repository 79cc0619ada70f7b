"""Command-line interface: factorize, estimate, simulate, evaluate, bench."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import audio, evaluation, factorization, simulator
from .core import GccParams, steering_matrix, theta_grid
from .errors import (ConfigurationError, DimensionError, FormatError,
                     InputError, NumericalError)
from .estimators import build_estimator, method_names, parse_method
from .stft import cross_spectrum, stft_frames


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=int, default=181, help="grid angle count")
    p.add_argument("--n", type=int, default=512, help="STFT frame size")
    p.add_argument("--hop", type=int, default=160, help="hop size in samples")
    p.add_argument("--dist", type=float, default=0.05, help="microphone spacing (m)")
    p.add_argument("--speed", type=float, default=343.0, help="speed of sound (m/s)")
    p.add_argument("--rate", type=int, default=16000, help="sample rate (Hz)")
    p.add_argument("--delta", type=float, default=1e-5, help="SVD reconstruction tolerance")


def _params(args) -> GccParams:
    return GccParams(q=args.q, n=args.n, hop=args.hop, dist=args.dist,
                     speed=args.speed, rate=args.rate, delta=args.delta)


def _method_list(spec: str) -> list[str]:
    names = [m.strip() for m in spec.split(",") if m.strip()] if spec != "all" else method_names()
    if not names:
        raise InputError("empty method list")
    for name in names:
        parse_method(name)
    return names


def cmd_factorize(args) -> int:
    params = _params(args)
    w = steering_matrix(params, theta_grid(params))
    factors = factorization.factorize(w, args.delta)
    factorization.save_factors(factors, args.out)
    rr, ri = factorization.reconstruction_ratios(factors, w)
    print(f"K_R={factors.k_r} K_I={factors.k_i} "
          f"recon_ratio_R={rr:.3e} recon_ratio_I={ri:.3e} -> {args.out}")
    return 0


def cmd_estimate(args) -> int:
    params = _params(args)
    factors = None
    if args.method == "svd":
        if not args.factors:
            raise InputError("method 'svd' needs --factors FILE (run factorize first)")
        factors = factorization.load_factors(args.factors)
    est = build_estimator(args.method, params, factors)
    ch1, ch2 = audio.read_stereo_wav(args.wav, params.rate)
    x1 = stft_frames(ch1, params.n, params.hop, args.window)
    x2 = stft_frames(ch2, params.n, params.hop, args.window)
    frames = cross_spectrum(x1, x2)
    # an all-zero PHAT frame (digital silence) has no direction: theta_deg is null
    silent = ~frames.any(axis=1)
    with open(args.out, "w") as fh:
        for i, (frame, quiet) in enumerate(zip(frames, silent)):
            e = est.estimate(frame)
            theta = None if quiet else float(np.degrees(e.theta_est))
            fh.write(json.dumps({"frame": i, "theta_deg": theta, "energy": e.energy}) + "\n")
    print(f"{len(frames)} frames ({int(silent.sum())} silent) -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    params = _params(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scenarios = []
    for i in range(args.configs):
        sc = simulator.random_scenario(args.beta, args.snr, params.dist, (args.seed, i))
        scenarios.append(sc)
        if args.write_wavs:
            signal = simulator.speech_like_source(
                args.duration, params.rate, simulator.stream_rng(sc.seed, simulator.SOURCE_STREAM))
            pair = simulator.render(sc, signal, params.rate)
            audio.write_stereo_wav(out_dir / f"scenario_{i:04d}.wav", pair.ch1, pair.ch2, params.rate)
    manifest = out_dir / "scenarios.jsonl"
    simulator.write_manifest(scenarios, manifest)
    print(f"{len(scenarios)} scenarios -> {manifest}")
    return 0


def _float_list(spec: str) -> list[float]:
    return [float(x) for x in spec.split(",") if x.strip()]


def cmd_evaluate(args) -> int:
    params = _params(args)
    methods = _method_list(args.methods)
    cells = [(b, s) for b in _float_list(args.betas) for s in _float_list(args.snrs)]
    reports = evaluation.run_accuracy_sweep(methods, cells, args.configs, args.seed,
                                            params=params, duration_s=args.duration)
    evaluation.emit_reports(reports, args.out)
    print(f"{len(reports)} rows -> {args.out}")
    if args.check:
        failures = 0
        for name, passed, detail in evaluation.check_accuracy_reports(reports, cells):
            print(f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})")
            failures += 0 if passed else 1
        return 1 if failures else 0
    return 0


def cmd_bench(args) -> int:
    params = _params(args)
    methods = _method_list(args.methods)
    reports = evaluation.run_bench(methods, args.frames, params=params,
                                   warmup=args.warmup, seed=args.seed)
    evaluation.emit_reports(reports, args.out)
    for r in reports:
        print(f"{r.method}: mean {r.mean_us_per_frame:.2f} us, median {r.median_us_per_frame:.2f} us")
    print(f"{len(reports)} rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gccdoa",
                                     description="Two-microphone GCC-PHAT DOA toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="build and save low-rank steering factors")
    _add_param_flags(p)
    p.add_argument("--out", default="factors.gsvd", help="factor file destination")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("estimate", help="per-frame DOA estimates from a stereo WAV")
    _add_param_flags(p)
    p.add_argument("wav", help="2-channel 16-bit PCM WAV at --rate")
    p.add_argument("--method", default="mm", help="one of: " + ", ".join(method_names()))
    p.add_argument("--factors", default=None, help="factor file (required for svd)")
    p.add_argument("--window", default="hann", choices=("hann", "rect"))
    p.add_argument("--out", default="estimates.ndjson", help="NDJSON destination")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("simulate", help="generate random scenarios (and optional WAVs)")
    _add_param_flags(p)
    p.add_argument("--configs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--beta", type=float, default=0.0, help="wall reflection coefficient")
    p.add_argument("--snr", type=float, default=None, help="per-channel SNR in dB (omit for none)")
    p.add_argument("--duration", type=float, default=evaluation.DEFAULT_DURATION_S)
    p.add_argument("--write-wavs", action="store_true")
    p.add_argument("--out-dir", default="scenarios")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", help="accuracy sweep over (beta, SNR) cells")
    _add_param_flags(p)
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
    _add_param_flags(p)
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
    except (ConfigurationError, DimensionError, FormatError, InputError,
            NumericalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
