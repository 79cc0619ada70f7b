"""Spans around the package's layers, recorded from outside the package.

``patched`` replaces each layer's public function at the place where its
caller looks it up (``gccdoa.cli.stft_frames``, ``gccdoa.evaluation.render``,
``gccdoa.simulator.image_rir``, ...) with a wrapper that records a span, and
wraps ``estimate`` on every estimator that ``build_estimator`` returns. It
restores every name on exit. Spans live in memory; ``layer_metrics`` derives
the per-layer figures from them. An untraced run never calls into this module.
"""
from __future__ import annotations

import contextlib
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Spans kept as parallel columns of plain values: no per-span object for
    the garbage collector to track, which would tax the run being traced."""

    def __init__(self):
        self.name: list[str] = []
        self.tag: list = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.root: list[int] = []
        self.count: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str, tag=None) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(name)
        self.tag.append(tag)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        self.end.append(0)
        self.count.append(1)
        stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int, count: int = 1) -> None:
        self.end[idx] = perf_counter_ns()
        self.count[idx] = count
        self._stack.pop()

    def wrap(self, name: str, fn, tag_of=None, count_of=None):
        def traced(*args, **kwargs):
            idx = self.open(name, tag_of(args) if tag_of else None)
            result = fn(*args, **kwargs)
            self.close(idx, count_of(result) if count_of else 1)
            return result
        return traced


def _frames(result) -> int:
    return result.shape[0] if result.ndim == 2 else 1


def _cell(beta) -> str:
    return "anechoic" if beta == 0.0 else "reverb"


@contextlib.contextmanager
def patched(tracer: Tracer, gccdoa):
    """Trace every layer boundary the benchmark's workloads cross."""
    cli, est, ev, fac, sim, stft, audio = (gccdoa.cli, gccdoa.estimators, gccdoa.evaluation,
                                          gccdoa.factorization, gccdoa.simulator, gccdoa.stft,
                                          gccdoa.audio)

    def build(fn):
        def traced(name, *args, **kwargs):
            idx = tracer.open("estimators.build", name)
            estimator = fn(name, *args, **kwargs)
            tracer.close(idx)
            estimator.estimate = tracer.wrap("estimators.estimate", estimator.estimate)
            return estimator
        return traced

    frames = dict(count_of=_frames)
    targets = [
        # (module where the caller looks the name up, name, span name, options)
        *[(m, "theta_grid", "core.grid", {}) for m in (cli, est)],
        *[(m, "steering_matrix", "core.steering", {}) for m in (cli, est)],
        (fac, "factorize", "factorization.factorize", {}),
        (fac, "load_factors", "factorization.load", {}),
        (audio, "read_stereo_wav", "audio.read", {}),
        *[(m, "stft_frames", "stft.frames", frames) for m in (cli, ev, stft)],
        *[(m, "cross_spectrum", "stft.cross", frames) for m in (cli, ev, stft)],
        *[(m, "random_scenario", "simulator.scenario", {}) for m in (ev, sim)],
        *[(m, "speech_like_source", "simulator.source", {}) for m in (ev, sim)],
        *[(m, "render", "simulator.render", dict(tag_of=lambda a: _cell(a[0].room.beta)))
          for m in (ev, sim)],
        (sim, "image_rir", "simulator.image_rir", dict(tag_of=lambda a: _cell(a[0].beta))),
    ]
    saved = []
    try:
        for module, attr, span_name, options in targets:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, tracer.wrap(span_name, saved[-1][2], **options))
        for module in (cli, ev, est):
            saved.append((module, "build_estimator", module.build_estimator))
            module.build_estimator = build(saved[-1][2])
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _median(values, scale: float, metric: str) -> float:
    if len(values) == 0:
        raise RuntimeError(f"the traced run recorded no spans for {metric}")
    return float(np.median(values)) * scale


def layer_metrics(tracer: Tracer, variants) -> dict[str, float]:
    """Per-layer figures: medians over spans, in the unit their names end in.

    ``op`` spans are the benchmark's own operations (tag = variant) and
    ``setup`` spans its set-ups; everything else is a wrapped package call.
    A span's self time is its duration minus that of its children.
    """
    name = np.array(tracer.name, dtype=object)
    tag = np.array(tracer.tag, dtype=object)
    ns = np.array(tracer.end, dtype=np.int64) - np.array(tracer.start, dtype=np.int64)
    parent = np.array(tracer.parent, dtype=np.int64)
    root = np.array(tracer.root, dtype=np.int64)
    count = np.array(tracer.count, dtype=np.int64)
    nested = parent >= 0
    self_ns = ns - np.bincount(parent[nested], weights=ns[nested], minlength=len(ns))
    in_op = name[root] == "op"

    def sel(span_name, span_tag=None):
        mask = name == span_name
        return mask if span_tag is None else mask & (tag == span_tag)

    m: dict[str, float] = {}
    core = np.array([n.startswith("core.") for n in name], dtype=bool) & (name[root] == "setup")
    per_setup = np.bincount(root[core], weights=ns[core], minlength=len(ns))[sel("setup")]
    m["core.steering_ms"] = _median(per_setup, 1e-6, "core")
    m["factorization.factorize_ms"] = _median(ns[sel("factorization.factorize")], 1e-6, "factorize")
    m["factorization.load_ms"] = _median(ns[sel("factorization.load")], 1e-6, "load")
    for method in ("mm", "svd", "fft01", "fft02-qi", "fft32-qi"):
        m[f"estimators.build_ms.{method}"] = _median(
            ns[sel("estimators.build", method)], 1e-6, f"build {method}")
    for v in variants:
        mask = sel("estimators.estimate") & in_op & (tag[root] == v)
        m[f"estimators.estimate_us.{v}"] = _median(ns[mask], 1e-3, f"estimate {v}")
    for layer in ("frames", "cross"):
        mask = sel(f"stft.{layer}") & in_op
        m[f"stft.{layer}_us"] = _median(ns[mask] / count[mask], 1e-3, f"stft.{layer}")
    cross = sel("stft.cross") & in_op
    frames = np.bincount(root[cross], weights=count[cross], minlength=len(ns))
    ops = sel("op")
    m["caller.self_us_per_frame"] = _median(self_ns[ops] / frames[ops], 1e-3, "caller")
    m["simulator.scenario_ms"] = _median(ns[sel("simulator.scenario")], 1e-6, "scenario")
    m["simulator.source_ms"] = _median(ns[sel("simulator.source")], 1e-6, "source")
    for cell in ("anechoic", "reverb"):
        m[f"simulator.image_rir_ms.{cell}"] = _median(
            ns[sel("simulator.image_rir", cell)], 1e-6, f"image_rir {cell}")
        m[f"simulator.render_self_ms.{cell}"] = _median(
            self_ns[sel("simulator.render", cell)], 1e-6, f"render {cell}")
    reads = ns[sel("audio.read")]
    if reads.size:
        m["audio.read_ms"] = float(np.median(reads)) * 1e-6
    return m
