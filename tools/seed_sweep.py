"""Run the default accuracy sweep at seeds 1..S and print how often each
replication property holds and how each cell's RMSE spreads across seeds.

    python3 tools/seed_sweep.py [CHECKOUT] [--seeds S]

CHECKOUT (default: the checkout holding this script) is a repository root whose
``src/`` is run. The sweep is ``gccdoa evaluate``'s default: methods
``mm,fft01,fft02-qi``, the four ``DEFAULT_CELLS``, 50 configurations per cell,
at the default parameters. S defaults to 30; one seed takes about 3 s on two
cores. Nothing is written.
"""
import argparse
import sys
from pathlib import Path

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("checkout", nargs="?", default=Path(__file__).resolve().parent.parent, type=Path)
parser.add_argument("--seeds", type=int, default=30)
args = parser.parse_args()
if args.seeds < 1 or not (args.checkout / "src" / "gccdoa").is_dir():
    sys.exit(__doc__)
sys.path.insert(0, str(args.checkout.resolve() / "src"))

import numpy as np  # noqa: E402

from gccdoa.evaluation import DEFAULT_CELLS, check_accuracy_reports, run_accuracy_sweep  # noqa: E402

METHODS = ("mm", "fft01", "fft02-qi")
CONFIGS = 50

seeds = range(1, args.seeds + 1)
failed: dict[str, list[int]] = {}
rmse: dict[tuple[str, float, float], list[float]] = {}
for seed in seeds:
    reports = run_accuracy_sweep(METHODS, DEFAULT_CELLS, CONFIGS, seed)
    for name, passed, _ in check_accuracy_reports(reports):
        failed.setdefault(name, [])
        if not passed:
            failed[name].append(seed)
    for r in reports:
        rmse.setdefault((r.method, r.beta, r.snr_db), []).append(r.rmse_deg)

print(f"seeds 1..{args.seeds}, methods {','.join(METHODS)}, {CONFIGS} configurations per cell")
print(f"{'property':<30} passed  failed at seeds")
for name, seeds_failed in failed.items():
    print(f"{name:<30} {args.seeds - len(seeds_failed):>2}/{args.seeds}   "
          f"{' '.join(map(str, seeds_failed)) or '-'}")
print(f"{'method':<9} {'beta':>4} {'snr_db':>6}   RMSE deg min / median / max")
for (method, beta, snr), values in rmse.items():
    print(f"{method:<9} {beta:>4g} {snr:>6g}   "
          f"{min(values):.3f} / {float(np.median(values)):.3f} / {max(values):.3f}")
