"""Print the paper's table: one markdown row per back-end with its accuracy, its
time, its arithmetic and its exact worst-case gap to mm.

    python3 tools/paper_table.py [CHECKOUT]

CHECKOUT (default: the checkout holding this script) is a repository root whose
``src/`` is run. Every column is taken at the default ``GccParams``:

- the RMSE in degrees of each (beta, SNR dB) cell of ``DEFAULT_CELLS``, from
  ``run_accuracy_sweep(method_names(), DEFAULT_CELLS, DEFAULT_CONFIGS, DEFAULT_EVAL_SEED)``:
  the default ``gccdoa evaluate`` sweep, over all 14 methods;
- the median µs per ``estimate()`` call from ``run_bench`` (``DEFAULT_BENCH_FRAMES``
  frames, as ``gccdoa bench``), the one column that depends on the host;
- real multiply-adds per frame, from the shapes of each back-end's operator:
  mm 4·Q·(N/2+1) for its complex product, svd (K_R+K_I)·(Q + 2(N/2+1)) for
  its two stacked real products, fftNN its lag operator's rows × 2(N/2+1),
  plus 3·Q for the three weighted lags per angle of a -qi readout;
- max r_m, the largest |curve - mm's curve| that any angle can reach on a
  PHAT frame (|X12[k]| <= 1), from ``_curve_operator`` and ``_gap_bound``.

The first line names the host and the date. It takes about 10 s on two
cores, and nothing is written.
"""
import datetime
import os
import sys
from pathlib import Path

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent).resolve()
if len(sys.argv) > 2 or not (ROOT / "src" / "gccdoa").is_dir():
    sys.exit(__doc__)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gccdoa.core import GccParams  # noqa: E402
from gccdoa.estimators import _curve_operator, _gap_bound, build_estimator, method_names  # noqa: E402
from gccdoa.evaluation import (DEFAULT_BENCH_FRAMES, DEFAULT_CELLS, DEFAULT_CONFIGS,  # noqa: E402
                               DEFAULT_EVAL_SEED, run_accuracy_sweep, run_bench)


def multiply_adds(est) -> int:
    q, bins = est.params.q, est.params.half_bins
    if est.name == "mm":
        return 4 * q * bins
    if est.name == "svd":
        return (est.factors.k_r + est.factors.k_i) * (q + 2 * bins)
    return est._op.size + 3 * q * est.qi  # at the defaults every fftNN reads its lags by operator


params = GccParams()
methods = method_names()
rmse = {(r.method, r.beta, r.snr_db): r.rmse_deg
        for r in run_accuracy_sweep(methods, DEFAULT_CELLS, DEFAULT_CONFIGS, DEFAULT_EVAL_SEED)}
median_us = {r.method: r.median_us_per_frame for r in run_bench(methods, DEFAULT_BENCH_FRAMES)}
ests = {name: build_estimator(name, params) for name in methods}
a_mm = _curve_operator(ests["mm"])

blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(f"host: cores={os.cpu_count()} numpy={np.__version__} blas={blas.get('name')} "
      f"{blas.get('version')}; {datetime.date.today().isoformat()}")
cells = " | ".join(f"RMSE° β={beta:g}, {snr:g} dB" for beta, snr in DEFAULT_CELLS)
print(f"| method | {cells} | µs/frame | real MACs/frame | max r_m |")
print("|---" * (len(DEFAULT_CELLS) + 4) + "|")
for name, est in ests.items():
    accuracy = " | ".join(f"{rmse[name, beta, snr]:.3f}" for beta, snr in DEFAULT_CELLS)
    gap = float(_gap_bound(_curve_operator(est), a_mm).max())
    print(f"| {name} | {accuracy} | {median_us[name]:.1f} | {multiply_adds(est):,} | {gap:.3g} |")
