"""Record one BENCH file: the benchmark's host line, the measured code, and the
final JSON object of one untraced and one traced run of every workload.

    python3 tools/record_bench.py BENCH_<n>.json

Every run lasts 30 s at seed 1, so BENCH files compare with each other. Stage
the change first: the file records HEAD and ``git write-tree`` (the staged
tree; the commit differs from it only in the BENCH file), and the script
refuses tracked files that differ from the index. It runs ``perfbench/run.py`` of this checkout and
exits 1 if a run is not correct or fails any operation. A run that exits non-zero stops it at
once: it prints the workload, the trace flag, the exit code and the end of the run's stderr,
and writes no file.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS, SEED = "30", "1"
STDERR_LINES = 20  # of a failed run, printed before exiting


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


if len(sys.argv) != 2:
    sys.exit(__doc__)
if git("diff", "--name-only"):
    sys.exit("error: unstaged changes to tracked files; `git add` them first")
bench = {"commit": git("rev-parse", "HEAD").strip(), "tree": git("write-tree").strip(),
         "seed": int(SEED), "seconds": float(SECONDS), "runs": {}}
ok = True
for workload in ("stream", "file", "sweep"):
    for trace in ("0", "1"):
        run = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", SEED,
                              "--seconds", SECONDS, "--trace", trace], cwd=ROOT,
                             capture_output=True, text=True)
        if run.returncode != 0:
            tail = "\n".join(run.stderr.splitlines()[-STDERR_LINES:])
            sys.exit(f"error: {workload} trace {trace} exited with {run.returncode}; "
                     f"no BENCH file written. Last lines of its stderr:\n{tail}")
        lines = run.stdout.splitlines()
        bench["host"] = next(line for line in lines if line.startswith("host: "))
        result = bench["runs"].setdefault(workload, {})[f"trace{trace}"] = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        print(f"{workload} trace {trace}: correct={result['correct']} failed={result['failed']}")
Path(sys.argv[1]).write_text(json.dumps(bench, indent=1) + "\n")
sys.exit(0 if ok else 1)
