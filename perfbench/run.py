"""Benchmark of the cyclecover toolkit, run from the root of a checkout.

    python3 perfbench/run.py --workload analyze_stream --seed 1 --seconds 45 --trace 0

Imports the program from ``src/`` of the checkout, makes the inputs from the
seed, sets the workload up several times, runs its jobs in ``PASSES``
passes, checks every output, and prints the metrics; the last line of
standard output is one JSON object.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it makes one untraced and one
traced pass, reports the per-layer metrics, and writes the spans to
``perfbench/work/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import types
from pathlib import Path

import bench_trace
import bench_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# each job runs once per pass; the timings pool the job times of all passes
PASSES = 3
# a pass after the first is skipped when, judged by the longest pass so far,
# the run would last longer than this many times --seconds, so that a much
# slower program still ends in time
OVERRUN = 1.6
# a traced run: one untraced and one traced pass, both always made
TRACE_PASSES = ("untraced", "traced")
# set-ups before each pass; setup_s is the median of all of them
SETUP_REPS = 6

WORKLOADS = ("analyze_stream", "certify")

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SELF_TIMED = (
    "cli.main",
    "families.parse_graph6",
    "graphs.cyclic_connectivity_at_least",
    "solvers.enumerate_perfect_matchings",
    "solvers.oddness",
    "solvers.perfect_matching_index",
    "solvers.circumference",
    "solvers.edge_colouring_3",
    "solvers.shortest_cycle_cover",
    "solvers.edge_weight_spectrum",
    "solvers.find_cdc",
    "covers.validate",
    "covers.decompose_even_subgraph",
    "constructions.cover_via_oddness2",
    "constructions.scc_cover_from_tau4",
    "constructions.cover_via_circumference",
    "pcolour.find_petersen_colouring",
    "pcolour.best_pullback_cover",
)
_CALL_COUNTED = (
    "families.parse_graph6",
    "solvers.enumerate_perfect_matchings",
    "covers.validate",
    "covers.decompose_even_subgraph",
)
# name -> unit; the order is the order of BENCHMARK.json
PER_LAYER = {
    **{f"{fn}.self_ms": "ms" for fn in _SELF_TIMED},
    **{f"{fn}.calls": "count" for fn in _CALL_COUNTED},
    "solvers.enumerate_perfect_matchings.matchings": "count",
    "solvers.shortest_cycle_cover.nodes": "count",
    "solvers.shortest_cycle_cover.excess0_share": "share",
    "solvers.edge_weight_spectrum.covers": "count",
    **{f"{mod}.self_ms": "ms" for mod in bench_trace.MODULES},
    "trace.jobs_per_s_untraced": "1/s",
    "trace.jobs_per_s_traced": "1/s",
    "trace.overhead_jobs_per_s": "1/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be between 1 and 600")
    return args


def program_paths():
    """(src directory, test data directory) of the checkout, or exit."""
    src, data = ROOT / "src", ROOT / "tests" / "data"
    if not (src / "cyclecover" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}; run from a full checkout")
    if not (data / "snarks18.g6").is_file():
        sys.exit(f"perfbench: no test data under {data}; run from a full checkout")
    return src, data


def import_program(src: Path):
    """A fresh import of the package and its modules, from ``src`` only."""
    for name in [n for n in sys.modules if n == "cyclecover" or n.startswith("cyclecover.")]:
        del sys.modules[name]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("cyclecover")
    if Path(pkg.__file__).resolve().parent != (src / "cyclecover").resolve():
        sys.exit(f"perfbench: imported cyclecover from {pkg.__file__}, not from {src}")
    mods = {m: importlib.import_module(f"cyclecover.{m}") for m in bench_trace.MODULES}
    return types.SimpleNamespace(package=pkg, **mods)


def set_up(args, src, data, inputs, rundir):
    """Import the program, hand it the inputs and warm its lazy caches, SETUP_REPS times.

    Returns the modules and workload of the last set-up and each set-up time.
    """
    times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        mods = import_program(src)
        workload = bench_workloads.make_workload(args.workload, mods, inputs, rundir, data)
        times.append(time.perf_counter() - t0)
    return mods, workload, times


def jobs_per_s(passes) -> float:
    """Runs of jobs that never failed, per second of job time, over all passes."""
    failed = set().union(*(p.failed_jobs for p in passes))
    total = sum(job_times(passes))
    return len(passes) * (passes[0].attempted - len(failed)) / total if total else 0.0


def job_times(passes):
    """The time of every job in every pass."""
    return [t for p in passes for t in p.job_s]


def end_to_end(passes, setup_rounds):
    ms = [1000.0 * t for t in job_times(passes)]
    if len(ms) < 2:  # the program failed before a second job finished
        ms = [0.0, 0.0]
    return {
        "jobs_per_s": jobs_per_s(passes),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": statistics.quantiles(ms, n=10)[-1],
        "setup_s": statistics.median(t for ts in setup_rounds for t in ts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer):
    """The per-layer metrics of one traced pass, but for the trace.* ones."""
    calls, self_ms = tracer.summary()
    counts = tracer.counts
    scc_calls = calls["solvers.shortest_cycle_cover"]
    values = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        base, _, kind = name.rpartition(".")
        if kind == "self_ms":
            values[name] = self_ms[base]
        elif kind == "calls":
            values[name] = calls[base]
        elif name == "solvers.shortest_cycle_cover.excess0_share":
            solved = counts["solvers.shortest_cycle_cover.excess0"]
            values[name] = solved / scc_calls if scc_calls else 0.0
        else:
            values[name] = counts[name]
    return values


def traced_metrics(tracer, untraced, traced):
    """The per-layer metrics of the traced pass, each pass's rate, and the
    tracing overhead.

    The overhead is the untraced rate less that rate divided by the median,
    over the jobs, of a job's traced time over its untraced time: a burst of
    load that slows some jobs of one pass moves the median ratio little,
    where it moves the plain difference of the two rates as much as it
    slows that pass."""
    values = per_layer(tracer)
    rate = jobs_per_s([untraced])
    ratios = [t / u for u, t in zip(untraced.job_s, traced.job_s) if u > 0]
    values["trace.jobs_per_s_untraced"] = rate
    values["trace.jobs_per_s_traced"] = jobs_per_s([traced])
    values["trace.overhead_jobs_per_s"] = rate - rate / statistics.median(ratios) if ratios else 0.0
    return values


def report(res, label):
    """Human-readable lines ahead of the JSON line."""
    line = (f"{label}: {res.attempted} jobs attempted, {len(res.failed_jobs)} failed, "
            f"{res.wrong} wrong answers")
    if res.job_s:
        line += (f"; {len(res.job_s)} job times, {sum(res.job_s):.3f} s in jobs, "
                 f"{jobs_per_s([res]):.4f} jobs/s")
    print(line)
    for problem in res.problems:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src, data = program_paths()
    workdir = HERE / "work"
    rundir = workdir / f"run-{args.workload}-seed{args.seed}-pid{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, src, data, workdir, rundir)
    finally:
        shutil.rmtree(rundir)


def measure(args, src, data, workdir, rundir) -> int:
    inputs = bench_workloads.make_inputs(args.workload, args.seed, args.seconds, rundir)
    kinds = TRACE_PASSES if args.trace else ("untraced",) * PASSES
    required = len(TRACE_PASSES) if args.trace else 1
    setup_rounds, passes, tracer = [], {"untraced": [], "traced": []}, None
    spent = longest = 0.0  # seconds in set-ups and passes, and the longest of those
    for k, kind in enumerate(kinds):
        if k >= required and spent + longest > OVERRUN * args.seconds:
            print(f"pass {k + 1} skipped: it would end after {OVERRUN} x --seconds")
            break
        t0 = time.perf_counter()
        # fresh set-ups before every pass spread them over the run
        mods, workload, times = set_up(args, src, data, inputs, rundir)
        setup_rounds.append(times)
        gc.collect()
        if kind == "traced":
            namespaces = [mods.package] + [getattr(mods, m) for m in bench_trace.MODULES]
            with bench_trace.Tracer(namespaces) as tracer:
                passes[kind].append(workload.run(tracer))
        else:
            passes[kind].append(workload.run())
        report(passes[kind][-1], f"{args.workload} seed {args.seed} pass {k + 1} ({kind})")
        took = time.perf_counter() - t0
        spent += took
        longest = max(longest, took)
    print("set-up times (s), a line a pass:")
    for times in setup_rounds:
        print("  " + ", ".join(f"{t:.4f}" for t in times))
    checks = workload.check_once()
    if checks.attempted:
        report(checks, f"{args.workload} untimed checks")
    if args.trace:
        spans = workdir / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans)
        print(f"{len(tracer.spans)} spans of the traced pass written to "
              f"{spans.relative_to(ROOT)}")
        values = traced_metrics(tracer, passes["untraced"][0], passes["traced"][0])
        metrics = {k: (values[k], unit) for k, unit in PER_LAYER.items()}
    else:
        values = end_to_end(passes["untraced"], setup_rounds)
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        print(f"samples: setup_s median of {len(setup_rounds) * SETUP_REPS} set-ups and "
              f"jobs_per_s, job_ms_p50 and job_ms_p90 over {passes['untraced'][0].attempted} "
              f"jobs in each of {len(passes['untraced'])} passes, all job times pooled")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    results = passes["untraced"] + passes["traced"] + [checks]
    failed = sum(len(r.failed_jobs) for r in results)
    print(json.dumps({
        # a failed job is an exception, a wrong answer or an abort
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
