"""Interleaved benchmark pairs of two checkouts, judged metric by metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD PAIRS

Runs ``perfbench/run.py --workload WORKLOAD --seed S --seconds 45`` in the
two checkouts by turns, one pair a seed: PAIRS is a count N (seeds 1..N) or
a range FIRST-LAST (seeds FIRST..LAST, so a claim can be checked on seeds
not used while building), at least two seeds either way.  The side that
runs first switches each pair, so a drift in the machine's speed falls on
both.
Every run goes without a bytecode cache: the ``__pycache__`` directories
under each checkout's ``src/`` and ``perfbench/`` are removed before the
first run and none are written (``PYTHONDONTWRITEBYTECODE``), because a
cached import takes a fraction of the set-up that a fresh checkout pays.

For each end-to-end metric of ``BENCHMARK.json`` (read from CHANGE_DIR) it
prints both medians, the parent's interquartile range (IQR), the share of
pairs the change wins (ties count for neither side) and a verdict against
the metric's bound, by the rules of a simplicity review:

- ``unresolved``: the parent's IQR, relative to its median, is wider than
  the bound, and not every run of the change reads better than every run of
  the parent;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound;
- ``gain``: the change wins at least nine tenths of the pairs and its median
  is better than the parent's by more than the parent's IQR;
- ``no regression`` otherwise.

The failed share of the jobs of each side is printed too.  The exit status
is 1 when a run prints no result, and, after a verdict line, when the
change fails a larger share of its jobs than the parent or any run of either
side reports ``correct: false``.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 45


def clear_bytecode(checkout: Path):
    for top in ("src", "perfbench"):
        for cache in sorted((checkout / top).rglob("__pycache__")):
            shutil.rmtree(cache)


def run(checkout: Path, workload: str, seed: int) -> dict:
    """The JSON result line of one untraced run in ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines or not lines[-1].startswith("{"):
        sys.exit(f"bench_pairs: no result from {checkout} (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def verdict(parent, change, iqr, wins, sign, bound) -> str:
    """The verdict on one metric, from both sides' runs, the parent's IQR
    and the change's pair-win share; ``sign * (a - b) > 0`` when a reads
    worse than b.  The relative tests multiply by the parent's median
    rather than divide, so a parent median of 0 (``jobs_per_s`` when every
    job fails) calls any spread unresolved and any worsening a regression."""
    p, c = statistics.median(parent), statistics.median(change)
    scale = bound * abs(p)
    if iqr > scale and not all(sign * (x - y) < 0 for x in change for y in parent):
        return "unresolved"
    if sign * (c - p) > scale:
        return "regressed"
    if wins >= 0.9 and sign * (p - c) > iqr:
        return "gain"
    return "no regression"


def seed_range(text: str):
    """The seeds of a PAIRS argument, ``N`` (1..N) or ``FIRST-LAST``; None
    unless that names at least two seeds."""
    first, last = text.split("-", 1) if "-" in text else ("1", text)
    if not (first.isdigit() and last.isdigit()):
        return None
    seeds = range(int(first), int(last) + 1)
    return seeds if len(seeds) >= 2 else None


def main(argv) -> int:
    seeds = seed_range(argv[3]) if len(argv) == 4 else None
    if seeds is None:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, pairs = argv[2], len(seeds)
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    for checkout in (parent, change):
        clear_bytecode(checkout)
    results = {"parent": [], "change": []}
    for seed in seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            res = run(parent if side == "parent" else change, workload, seed)
            results[side].append(res)
            values = ", ".join(f"{m['name']} {res['metrics'][m['name']]['value']:.4g}"
                               for m in metrics)
            print(f"pair {seed} {side}: {values}", flush=True)
    print(f"\n{workload}: {pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, --seconds {SECONDS}, "
          f"no bytecode cache")
    print(f"  parent {parent}\n  change {change}")
    print(f"{'metric':<12} {'parent p50':>11} {'parent IQR':>11} {'change p50':>11} "
          f"{'wins':>5}  verdict (bound)")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        a = [r["metrics"][name]["value"] for r in results["parent"]]
        b = [r["metrics"][name]["value"] for r in results["change"]]
        sign = 1 if m["better"] == "lower" else -1
        wins = sum(sign * (x - y) > 0 for x, y in zip(a, b)) / pairs
        q1, _, q3 = statistics.quantiles(a, n=4)
        print(f"{name:<12} {statistics.median(a):>11.4g} {q3 - q1:>11.4g} "
              f"{statistics.median(b):>11.4g} {wins:>5.0%}  "
              f"{verdict(a, b, q3 - q1, wins, sign, bound)} ({bound:.0%})")
    share = {}
    for side, runs in results.items():
        failed, attempted = sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)
        share[side] = failed / attempted if attempted else 0.0
        print(f"failed jobs, {side}: {failed} of {attempted}")
    wrong = [f"{side} seed {seed}" for side, runs in results.items()
             for seed, r in zip(seeds, runs) if not r["correct"]]
    if share["change"] > share["parent"] or wrong:
        print(f"verdict: failed (failed share {share['parent']:.2%} -> {share['change']:.2%}; "
              f"correct: false in {', '.join(wrong) or 'no run'})")
        return 1
    print("verdict: no failed share added, every run correct")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
