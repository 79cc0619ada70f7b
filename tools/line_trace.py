"""Run the tier-1 suite under a line tracer and list the package lines no test ran.

    python3 tools/line_trace.py [CHECKOUT] [PYTEST_ARGS...]

CHECKOUT (default: the checkout holding this script) is a repository root. Its
tier-1 suite (``tests/`` and ``perfbench/``, with its pyproject.toml settings) runs in
this process under ``sys.settrace`` and ``threading.settrace``; only frames of
``CHECKOUT/src/gccdoa/*.py`` are traced. Subprocesses the tests start are not.

For each executable line of those modules (a line of ``code.co_lines()``) that
no test ran, one ``module:line  source`` line is printed, then a count per
module. The exit status is pytest's. Nothing is written into the checkout: no
bytecode, no ``.pytest_cache`` and no hypothesis database (pytest runs from a
temporary directory). Needs only the standard library and pytest.

``tests/test_acceptance.py::test_criterion_7_timing_orderings`` is deselected:
it compares per-frame medians of the back-ends, and under the tracer the
per-line cost of Python code swamps the arithmetic those orderings are about,
so it can fail with no fault in the code. The plain tier-1 suite runs it.
"""
import os
import sys
import tempfile
import threading
from pathlib import Path

if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
    checkout = Path(sys.argv.pop(1)).resolve()
else:
    checkout = Path(__file__).resolve().parent.parent
package = checkout / "src" / "gccdoa"
if not package.is_dir():
    sys.exit(__doc__)

# set before pytest and the package load, and passed on to the tests' subprocesses
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.path.insert(0, str(checkout / "src"))

import pytest  # noqa: E402

modules = {str(p): p for p in sorted(package.glob("*.py"))}
ran: dict[str, set[int]] = {name: set() for name in modules}


def _local(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename not in ran:
        return None
    # the entry line, which no "line" event reports (line 0 for a module's code)
    ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def executable_lines(path: Path) -> set[int]:
    """Line numbers that some instruction of the module or its nested code maps to."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


args = ["-q", "-p", "no:cacheprovider", f"--rootdir={checkout}", "-c", str(checkout / "pyproject.toml"),
        "--deselect", "tests/test_acceptance.py::test_criterion_7_timing_orderings",
        *sys.argv[1:], str(checkout / "tests"), str(checkout / "perfbench")]
with tempfile.TemporaryDirectory() as workdir:
    os.chdir(workdir)
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)

loaded = sys.modules.get("gccdoa")
if loaded is None or Path(loaded.__file__).resolve().parent != package:
    sys.exit(f"the suite did not import gccdoa from {package}")

counts = {}
for name, path in modules.items():
    source = path.read_text().splitlines()
    missed = sorted(executable_lines(path) - ran[name])
    counts[path.name] = len(missed)
    for line in missed:
        print(f"{path.name}:{line}  {source[line - 1].strip()}")
print("lines no test ran, per module:")
for module, count in counts.items():
    print(f"  {module:<18} {count}")
print(f"  {'total':<18} {sum(counts.values())}")
sys.exit(int(status))
