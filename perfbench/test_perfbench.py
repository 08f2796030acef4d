"""Checks on the benchmark itself: its declared metrics match what it prints,
its checks pass on small inputs, and the named work counters of two traced
runs of one seed agree exactly."""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

REPEATING = (
    "solvers.enumerate_perfect_matchings.calls",
    "solvers.shortest_cycle_cover.nodes",
    "solvers.edge_weight_spectrum.covers",
)


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.fixture(autouse=True)
def _keep_program_modules():
    """The benchmark re-imports the package; give other tests their modules back."""
    saved = {n: m for n, m in sys.modules.items() if n == "cyclecover" or n.startswith("cyclecover.")}
    yield
    for name in [n for n in sys.modules if n == "cyclecover" or n.startswith("cyclecover.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def _traced_counters(make, rundir):
    src, data = run.program_paths()
    mods = run.import_program(src)
    workload = make(mods, data, rundir)
    namespaces = [mods.package] + [getattr(mods, m) for m in bench_trace.MODULES]
    with bench_trace.Tracer(namespaces) as tracer:
        res = workload.run(tracer)
    assert not res.failed_jobs, res.problems
    values = run.per_layer(tracer)
    return {name: values[name] for name in REPEATING}


def _small_analyze(mods, data, rundir):
    population = bench_workloads.stratified_graphs(random.Random(7), per_order=2)
    graphs = bench_workloads.labelled_stream(population, random.Random(7))
    bench_workloads.write_stream(graphs, rundir)
    return bench_workloads.AnalyzeStream(mods, graphs, rundir)


def _small_certify(mods, data, rundir):
    rng = random.Random(7)
    perms = [bench_inputs.random_odd_permutation(bench_workloads.PERMUTATION_LENGTH, rng)
             for _ in range(3)]
    workload = bench_workloads.Certify(mods, (perms, 0), data)
    # the larger flower snarks take up to seconds a job
    workload.jobs = [j for j in workload.jobs if not j.label.endswith(("J7", "J9"))]
    return workload


def test_counters_repeat_exactly(tmp_path):
    analyze = _traced_counters(_small_analyze, tmp_path)
    certify = _traced_counters(_small_certify, tmp_path)
    assert analyze["solvers.enumerate_perfect_matchings.calls"] > 0
    assert analyze["solvers.shortest_cycle_cover.nodes"] > 0
    assert certify["solvers.edge_weight_spectrum.covers"] > 0
    assert _traced_counters(_small_analyze, tmp_path) == analyze
    assert _traced_counters(_small_certify, tmp_path) == certify
