"""Cold-start cost of two checkouts, in fresh interpreters, interleaved.

    python3 tools/cold_start.py PARENT_DIR CHANGE_DIR [RUNS]

Starts RUNS (default 10, at least 2) fresh interpreters per checkout and
case, one pair at a time after one pair that is not kept, each with its own
``src/`` on the path; the side that starts first switches each pair, so a
drift in the machine's speed falls on both:

- ``import``: ``python -c "import cyclecover"``;
- ``analyze``: ``python -m cyclecover analyze - --json --no-timing`` on the
  Petersen graph, given on stdin.

Both cases run first without a bytecode cache (the ``__pycache__``
directories under each checkout's ``src/`` and ``perfbench/`` are removed
and none are written, as ``tools/bench_pairs.py`` runs the benchmark), then
with one (``compileall`` of ``src/``).  Each child's wall time and its own
peak resident set size (``ru_maxrss`` from ``os.wait4``) are read.  The
tool prints, per case and side, the median and the interquartile range
(IQR) of both, and the share of pairs in which the change reads lower.

Without a cache the compiler can set a process's peak, so the tool then
prints, for each module of either side's ``src/cyclecover``, its compile
peak: the median over RUNS fresh interpreters, the sides interleaved, of
how far ``compile`` of the module's source raises the interpreter's
``ru_maxrss``, after importing the checkout's ``perfbench/run.py`` with no
bytecode cache, as the benchmark starts (a module that compiles inside the
heap's existing slack reads 0).
It writes nothing outside the two checkouts.  The exit status is 1 when a
child fails.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_pairs import clear_bytecode

PETERSEN = "IheA@GUAo\n"
CASES = {"import": (["-c", "import cyclecover"], ""),
         "analyze": (["-m", "cyclecover", "analyze", "-", "--json", "--no-timing"], PETERSEN)}
# the KiB that compiling the source file argv[1] adds to the peak RSS of an
# interpreter that has imported perfbench's modules, as the benchmark does
# before it imports the package
COMPILE_PEAK = """
import resource, sys
sys.path.insert(0, "perfbench")
import run
source = open(sys.argv[1], encoding="utf-8").read()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
compile(source, sys.argv[1], "exec")
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def measure(checkout: Path, args, stdin: str, cached: bool) -> tuple:
    """(wall ms, peak RSS in MB) of one fresh interpreter in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not cached:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=checkout, env=env, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    proc.stdin.write(stdin)
    proc.stdin.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"cold_start: {' '.join(args)} exited {proc.returncode} in {checkout}")
    return 1000 * wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def compile_peak(module: Path) -> float:
    """The MB that compiling ``module`` adds to a fresh interpreter's peak."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", COMPILE_PEAK, str(module)],
                          cwd=module.parents[2], env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"cold_start: compiling {module} exited {proc.returncode}")
    return int(proc.stdout) / 1024


def compile_peaks(sides: dict, runs: int):
    """Print each module's median compile peak on both sides, interleaved."""
    for checkout in sides.values():
        clear_bytecode(checkout)
    package = {side: checkout / "src" / "cyclecover" for side, checkout in sides.items()}
    names = sorted({path.name for root in package.values() for path in root.glob("*.py")})
    print(f"\ncompile peak, MB above the interpreter's (median of {runs} fresh interpreters)")
    print(f"{'module':<18} {'parent':>7} {'change':>7}")
    for name in names:
        got = {side: [] for side in sides}
        for i in range(runs):
            for side in (("parent", "change") if i % 2 else ("change", "parent")):
                if (package[side] / name).exists():
                    got[side].append(compile_peak(package[side] / name))
        cells = [f"{statistics.median(got[side]):7.2f}" if got[side] else f"{'-':>7}"
                 for side in sides]
        print(f"{name:<18} {' '.join(cells)}", flush=True)


def spread(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):9.2f} {q3 - q1:8.2f}"


def main(argv) -> int:
    runs = argv[2] if len(argv) == 3 else "10"
    if len(argv) not in (2, 3) or not runs.isdigit() or int(runs) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    runs = int(runs)
    sides = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    for checkout in sides.values():
        clear_bytecode(checkout)
    print(f"parent {sides['parent']}\nchange {sides['change']}\n{runs} pairs a row")
    print(f"{'bytecode cache':<15} {'case':<8} {'side':<7} {'wall ms':>9} {'IQR':>8} "
          f"{'RSS MB':>9} {'IQR':>8}  change lower (wall, RSS)")
    for cached in (False, True):
        if cached:
            for checkout in sides.values():
                subprocess.run([sys.executable, "-m", "compileall", "-q", str(checkout / "src")],
                               check=True, stdout=subprocess.DEVNULL)
        for case, (args, stdin) in CASES.items():
            got = {side: [] for side in sides}
            for i in range(-1, runs):  # pair -1 warms the file cache and is not kept
                for side in (("parent", "change") if i % 2 else ("change", "parent")):
                    row = measure(sides[side], args, stdin, cached)
                    if i >= 0:
                        got[side].append(row)
            lower = [sum(c[k] < p[k] for p, c in zip(got["parent"], got["change"])) / runs
                     for k in (0, 1)]
            for side, rows in got.items():
                walls, rss = zip(*rows)
                tail = f"  {lower[0]:.0%}, {lower[1]:.0%}" if side == "change" else ""
                print(f"{'with' if cached else 'without':<15} {case:<8} {side:<7} "
                      f"{spread(walls)} {spread(rss)}{tail}", flush=True)
    compile_peaks(sides, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
