"""Benchmark of the gccdoa package, run from the root of a checkout:

    python3 perfbench/run.py --workload stream|file|sweep --seed N --seconds S --trace 0|1

It imports the package from the checkout's ``src/`` and nowhere else. It prints
a report, then as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Scratch files go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15


def load_package():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import gccdoa
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gccdoa from {src}: {exc}") from None
    if Path(gccdoa.__file__).resolve().parent != src / "gccdoa":
        raise SystemExit(f"error: imported gccdoa from {gccdoa.__file__}, not from {src}")
    return gccdoa


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, asked through its own API."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return str(fn())
    return "unknown"


def host() -> str:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"host: cores={os.cpu_count()} usable={len(os.sched_getaffinity(0))} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} blas_threads={blas_threads()}")


def timing_line(label: str, samples_ns, unit_ns: float, unit: str) -> str:
    """Median, and the highest percentile with at least ten samples beyond it
    (a reference figure only; none with fewer than forty samples)."""
    values = sorted(samples_ns)
    n = len(values)
    line = f"{label}: p50 {statistics.median(values) / unit_ns:.3f} {unit}"
    for p in (99.99, 99.9, 99.0, 90.0):
        if n >= 40 and n * (1 - p / 100) >= 10:
            line += f", p{p:g} {values[min(n - 1, int(n * p / 100))] / unit_ns:.3f} {unit}"
            break
    return line + f" (n={n})"


def untraced(W, name, seed, seconds, workdir, report):
    """Whole rounds for ``seconds``, each after one timed set-up, so that the
    set-ups sample the host over the whole run as the rounds do."""
    wl = W.WORKLOADS[name](seed, workdir, W.SetUp(workdir))
    wl.round(None)  # warm-up: caches and lazy set-up, checked but not timed
    wl.reset_times()
    setup_ns = []
    end = perf_counter_ns() + seconds * 1e9
    while not setup_ns or perf_counter_ns() < end:
        t0 = perf_counter_ns()
        W.SetUp(workdir)
        setup_ns.append(perf_counter_ns() - t0)
        wl.round(None)
    report.append(f"{len(setup_ns)} timed rounds after one warm-up round")
    for v, label in wl.describe.items():
        report.append(timing_line(f"p50_us.{v} ({label})", wl.times[v], 1e3, "us"))
    report.append(timing_line("setup_s", setup_ns, 1e9, "s"))
    metrics = {"setup_s": (statistics.median(setup_ns) / 1e9, "s"),
               "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")}
    metrics.update({f"p50_us.{v}": (statistics.median(t) / 1e3, "us") for v, t in wl.times.items()})
    return wl, metrics


def traced(W, spans, gccdoa, name, seed, seconds, workdir, report):
    """Untraced and traced rounds alternate, so that host noise hits both alike;
    per-layer figures come from the traced ones."""
    plain = W.SetUp(workdir)
    tracer = spans.Tracer()
    with spans.patched(tracer, gccdoa):
        for _ in range(SETUP_REPEATS):
            root = tracer.open("setup")
            setup = W.SetUp(workdir)
            tracer.close(root)
        root = tracer.open("input")
        wl = W.WORKLOADS[name](seed, workdir, setup)
        tracer.close(root)
    wl.use(plain)
    wl.round(None)
    times = {False: {v: [] for v in wl.variants}, True: {v: [] for v in wl.variants}}
    end = perf_counter_ns() + seconds * 1e9
    rounds = 0
    while rounds == 0 or perf_counter_ns() < end:
        for on in (False, True):
            wl.use(setup if on else plain)
            wl.reset_times()
            with spans.patched(tracer, gccdoa) if on else contextlib.nullcontext():
                wl.round(tracer if on else None)
            for v, t in wl.times.items():
                times[on][v] += t
        rounds += 1
    ratios = {v: statistics.median(times[True][v]) / statistics.median(times[False][v])
              for v in wl.variants}
    report.append(f"{rounds} untraced and {rounds} traced rounds, alternating; "
                  "traced/untraced p50 per variant: "
                  + " ".join(f"{v}={r:.3f}" for v, r in ratios.items()))
    layers = spans.layer_metrics(tracer, wl.variants)
    read_ms = layers.pop("audio.read_ms", None)
    if read_ms is not None:
        report.append(f"audio.read_ms: {read_ms:.3f} ms per read of the WAV")
    metrics = {k: (v, "ms" if k.endswith("_ms") or "_ms." in k else "us") for k, v in layers.items()}
    metrics["factorization.rank_R"] = (setup.factors.k_r, "count")
    metrics["factorization.rank_I"] = (setup.factors.k_i, "count")
    metrics.update({f"counts.{k}": (v, "count") for k, v in wl.counts(tracer).items()})
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios.values()) - 1.0), "%")
    return wl, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stream", "file", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    gccdoa = load_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import spans
    import workloads as W

    workdir = ROOT / "perfbench" / "out" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    report = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}", host()]
    if args.trace:
        wl, metrics = traced(W, spans, gccdoa, args.workload, args.seed, args.seconds, workdir, report)
    else:
        wl, metrics = untraced(W, args.workload, args.seed, args.seconds, workdir, report)
    failed = wl.check()
    correct = not wl.errors
    for name, (value, unit) in metrics.items():
        report.append(f"{name} {value:.6g} {unit}")
    report.append(f"attempted {wl.attempted} failed {failed} correct {correct}")
    report += [f"check failed: {e}" for e in wl.errors[:20]]
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": wl.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
