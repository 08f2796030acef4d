"""The workloads: inputs made from a seed, the jobs, and a check on every output.

A job is one graph analysed, one spectrum, or one certificate.  The
benchmark's own inputs (``make_inputs``) are made once per run; a workload
object (``make_workload``) hands them to the program once per set-up and then
runs one pass over all its jobs per call of ``run``.  ``--seconds`` sets how
many inputs a run holds, through nominal rates measured on a 2-core x86 VM at
the commit that added this benchmark; the same seed and seconds always give
the same jobs, so the work counters of two runs agree.

The random graphs and permutations are a population drawn once from
``POPULATION_SEED``; the run's seed gives each member a random labelling
(an isomorphic copy) and the jobs a random order.  Every seed so measures
the same intrinsic work: with graphs drawn afresh for each seed, two seeds'
100 graphs differed by 7 % in total analysis time and by 15 % in
``job_ms_p90``, measured back to back.

The random graphs of ``analyze_stream`` are stratified: each order in
``ORDERS`` gets the same number of graphs, three quarters of them with a
triangle and one quarter without (about the share the pairing model gives).
A triangle gives a cyclic 3-edge-cut, which ends the costliest analysis step
early, so the mix sets much of the cost of a pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field

import bench_inputs

ORDERS = (24, 26, 28, 30, 32)
PETERSEN_G6 = "IheA@GUAo"
PERMUTATION_LENGTH = 7
POPULATION_SEED = 1306

# inputs per second of --seconds, so that three passes take about as long on
# a 2-core x86 VM at the commit that added the benchmark; they only size the runs
ANALYZE_GRAPHS_PER_S = 1.33
CERTIFY_PERMUTATIONS_PER_S = 1.0


@dataclass
class RunResult:
    """One pass: the time of each job in job order, and what went wrong."""

    attempted: int
    job_s: list = field(default_factory=list)
    failed_jobs: set = field(default_factory=set)  # exceptions, wrong answers, aborts
    wrong: int = 0  # wrong answers alone
    problems: list = field(default_factory=list)

    def fail(self, index, label, why, wrong):
        self.failed_jobs.add(index)
        self.wrong += wrong
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {why}")


def stratified_graphs(rng: random.Random, per_order: int):
    """(n, edges, has_triangle) for per_order graphs of each order."""
    with_triangle = per_order * 3 // 4
    out = []
    for n in ORDERS:
        want = {True: with_triangle, False: per_order - with_triangle}
        while want[True] or want[False]:
            edges = bench_inputs.random_cubic_edges(n, rng)
            tri = bench_inputs.has_triangle(n, edges)
            if want[tri]:
                want[tri] -= 1
                out.append((n, edges, tri))
    return out


def labelled_stream(population, rng: random.Random):
    """(graph6, n, has_triangle) of each graph, randomly relabelled, in random order."""
    out = [(bench_inputs.graph6(n, bench_inputs.relabelled(n, edges, rng)), n, tri)
           for n, edges, tri in population]
    rng.shuffle(out)
    return out


def make_inputs(name, seed, seconds, rundir):
    """The benchmark's inputs for a run of about ``seconds`` at the reference commit.

    For ``analyze_stream`` the graphs, whose stream is written to ``rundir``;
    for ``certify`` the permutations and which of the two 18-vertex snarks has
    its spectrum checked against the golden file (each takes about 4 s).
    """
    population, rng = random.Random(POPULATION_SEED), random.Random(seed)
    if name == "analyze_stream":
        step = 4 * len(ORDERS)  # whole strata: 3 of every 4 graphs of an order have a triangle
        count = step * math.ceil(seconds * ANALYZE_GRAPHS_PER_S / step)
        graphs = labelled_stream(stratified_graphs(population, count // len(ORDERS)), rng)
        write_stream(graphs, rundir)
        return graphs
    count = max(1, round(seconds * CERTIFY_PERMUTATIONS_PER_S))
    perms = [bench_inputs.random_odd_permutation(PERMUTATION_LENGTH, population)
             for _ in range(count)]
    perms = [bench_inputs.rotated_permutation(p, rng) for p in perms]
    rng.shuffle(perms)
    return perms, seed % 2


def make_workload(name, mods, inputs, rundir, data):
    """Hand the inputs to the program and warm its lazy caches: one set-up."""
    if name == "analyze_stream":
        return AnalyzeStream(mods, inputs, rundir)
    return Certify(mods, inputs, data)


# --------------------------------------------------------------------------
# analyze_stream: one `analyze --json` call over a graph6 stream per pass
# --------------------------------------------------------------------------

STREAM = "analyze_stream.g6"
WARM_STREAM = "analyze_warm.g6"  # Petersen alone, analysed in every set-up


def write_stream(graphs, rundir):
    """The graph6 stream of ``graphs`` and the warm-up stream, in ``rundir``."""
    (rundir / STREAM).write_text("".join(g6 + "\n" for g6, _, _ in graphs), encoding="ascii")
    (rundir / WARM_STREAM).write_text(PETERSEN_G6 + "\n", encoding="ascii")


class _LineClock(io.TextIOBase):
    """Stands in for stdout: keeps each line with the time it was completed."""

    def __init__(self, tracer=None):
        self.lines = []
        self.stamps = []
        self._part = []
        self._tracer = tracer

    def writable(self):
        return True

    def write(self, s):
        size = len(s)
        while "\n" in s:
            head, s = s.split("\n", 1)
            self._part.append(head)
            self.stamps.append(time.perf_counter())
            self.lines.append("".join(self._part))
            self._part = []
            if self._tracer is not None:
                self._tracer.job += 1
        if s:
            self._part.append(s)
        return size


class AnalyzeStream:
    """Batch screening: ``cyclecover analyze FILE --json --no-timing``.

    A job's time is the gap between consecutive report lines on stdout.
    """

    def __init__(self, mods, graphs, rundir):
        self.mods = mods
        self.graphs = graphs
        self.path = rundir / STREAM
        with contextlib.redirect_stdout(io.StringIO()):
            mods.cli.main(["analyze", str(rundir / WARM_STREAM), "--json", "--no-timing"])

    def run(self, tracer=None) -> RunResult:
        res = RunResult(attempted=len(self.graphs))
        clock = _LineClock(tracer)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(clock):
                code = self.mods.cli.main(["analyze", str(self.path), "--json", "--no-timing"])
        except Exception as exc:  # the run goes on: every missing report counts as failed
            code = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.active = False
        prev = t0
        for stamp in clock.stamps[:len(self.graphs)]:
            res.job_s.append(stamp - prev)
            prev = stamp
        for idx, (g6, n, tri) in enumerate(self.graphs):
            if idx >= len(clock.lines):
                res.fail(idx, f"graph {idx}", f"no report (exit {code})", wrong=False)
                continue
            why = _analyze_problem(clock.lines[idx], idx, n, tri)
            if why:
                res.fail(idx, f"graph {idx} {g6}", why, wrong=True)
        if len(clock.lines) > len(self.graphs):
            res.fail(-1, "stream", "more reports than graphs", wrong=True)
        if code != 0:
            res.fail(-1, "stream", f"exit code {code}", wrong=False)
        return res

    def check_once(self) -> RunResult:
        return RunResult(attempted=0)  # every report is checked in its pass


def _analyze_problem(line, idx, n, tri):
    try:
        rep = json.loads(line)
    except ValueError:
        return "report is not JSON"
    if not isinstance(rep, dict):
        return "report is not a JSON object"
    checks = [
        (rep.get("index") == idx and rep.get("n") == n and rep.get("m") == 3 * n // 2,
         "index, n or m differ from the input"),
        ("timings_ms" not in rep, "timings present under --no-timing"),
        (rep.get("bridgeless") is True, "bridgeless input reported bridged"),
        (rep.get("consistent") is True, "report not consistent"),
        (rep.get("tau") in (3, 4, 5, None), "tau outside {3, 4, 5, null}"),
        (isinstance(rep.get("oddness"), int) and rep["oddness"] % 2 == 0, "oddness not even"),
        (isinstance(rep.get("circumference"), int) and 0 < rep["circumference"] <= n,
         "circumference outside 1..n"),
        (isinstance(rep.get("scc"), int) and rep["scc"] >= 2 * n, "scc below 4m/3"),
        # perfect matching index at most 4 gives a cover of length exactly 4m/3
        (rep.get("tau") not in (3, 4) or rep.get("scc") == 2 * n, "tau <= 4 but scc > 4m/3"),
        ((rep.get("oddness") == 0) == (rep.get("three_edge_colourable") is True),
         "oddness 0 disagrees with 3-edge-colourability"),
        ((rep.get("girth") == 3) == tri, "girth disagrees with the generator's triangle"),
        # a triangle's three outer edges cut off a circuit when n >= 8
        (not tri or rep.get("cyclically_4_edge_connected") is False,
         "graph with a triangle reported cyclically 4-edge-connected"),
    ]
    for ok, why in checks:
        if not ok:
            return why
    return None


# --------------------------------------------------------------------------
# certify: spectra and certificate pipelines, one library call per job
# --------------------------------------------------------------------------

@dataclass
class Job:
    label: str
    call: object  # () -> result; looks the program function up at call time
    check: object  # result -> problem text or None
    expected_error: str | None = None  # a proven negative that is the right answer


class Certify:
    """Exact answers with proofs, through the library.

    Timed, in each pass: the certificate pipelines on the classical snarks
    and the edge-weight spectra of seeded permutation graphs.  Once per run,
    after the passes and untimed: the spectrum of one of the two 18-vertex
    snarks, the seed's choice, checked exactly against the golden file.
    """

    def __init__(self, mods, inputs, data):
        permutations, self.golden_index = inputs
        self.mods = mods
        fam = mods.families
        self.golden = json.loads((data / "spectrum18_golden.json").read_text(encoding="ascii"))
        lines = (data / "snarks18.g6").read_text(encoding="ascii").split()
        if [w["graph6"] for w in self.golden] != lines:
            raise ValueError("golden spectra do not match the snarks18 graphs")
        self.snarks18 = [fam.parse_graph6(line) for line in lines]

        self.jobs = []
        fixed = [("petersen", fam.petersen()), ("J5", fam.flower(5)), ("J7", fam.flower(7)),
                 ("J9", fam.flower(9))]
        fixed += [(f"snark18-{i}", g) for i, g in enumerate(self.snarks18)]
        for name, g in fixed:
            for pipe in ("oddness2", "pullback", "tau4", "circumference", "cdc5"):
                if name == "J9" and pipe in ("circumference", "cdc5"):
                    continue  # each takes 10 s or more on J9
                self.jobs.append(self._certificate(f"{pipe} {name}", pipe, g,
                                                   negative=name == "petersen"))
        for perm in permutations:
            g = fam.permutation_snark(perm)
            self.jobs.append(Job(f"spectrum permutation {perm}", self._spectrum(g),
                                 lambda out, g=g: _spectrum_problem(out, g)))

        p = fam.petersen()
        mods.pcolour.best_pullback_cover(p, mods.pcolour.find_petersen_colouring(p))
        mods.solvers.edge_weight_spectrum(p)

    def _spectrum(self, g):
        return lambda: self.mods.solvers.edge_weight_spectrum(g)

    def _certificate(self, label, pipe, g, negative):
        """A certificate job; ``negative`` marks Petersen, whose perfect matching
        index is 5: its tau4 pipeline must raise TauTooLarge and it has no
        5-class CDC with a 2-factor class, and those proven negatives are the
        right answers."""
        m = self.mods
        if pipe == "cdc5":
            return Job(label, lambda: m.solvers.find_cdc(g, k=5, two_factor_class=True),
                       lambda out: _cdc5_problem(m, out, g, negative))
        calls = {
            "oddness2": lambda: m.constructions.cover_via_oddness2(g),
            "tau4": lambda: m.constructions.scc_cover_from_tau4(g),
            "circumference": lambda: m.constructions.cover_via_circumference(g),
            "pullback": lambda: _pullback(m, g),
        }
        expected = "TauTooLarge" if negative and pipe == "tau4" else None
        return Job(label, calls[pipe], lambda out: _certificate_problem(m, out, g, pipe == "tau4"),
                   expected)

    def check_once(self) -> RunResult:
        """The chosen golden spectrum, outside the timed passes."""
        res = RunResult(attempted=1)
        i = self.golden_index
        try:
            why = _golden_problem(self.mods.solvers.edge_weight_spectrum(self.snarks18[i]),
                                  self.golden[i])
        except Exception as exc:  # reported as a failed job
            res.fail(i, f"golden spectrum {i}", f"{type(exc).__name__}: {exc}", wrong=False)
            return res
        if why:
            res.fail(i, f"golden spectrum {i}", why, wrong=True)
        return res

    def run(self, tracer=None) -> RunResult:
        res = RunResult(attempted=len(self.jobs))
        for i, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = i
                tracer.active = True
            t0 = time.perf_counter()
            try:
                outcome = job.call()
            except Exception as exc:  # a job boundary: record the failure and go on
                outcome = exc
            res.job_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.active = False
            if isinstance(outcome, Exception):
                name = type(outcome).__name__
                if name != job.expected_error:
                    res.fail(i, job.label, f"{name}: {outcome}", wrong=False)
            elif job.expected_error is not None:
                res.fail(i, job.label, f"expected {job.expected_error}, got a result", wrong=True)
            else:
                try:
                    why = job.check(outcome)
                except Exception as exc:  # a malformed result is a wrong answer
                    why = f"unreadable result: {type(exc).__name__}: {exc}"
                if why:
                    res.fail(i, job.label, why, wrong=True)
        return res


def _golden_problem(spec, want):
    got = {
        "optimal_length": spec.optimal_length,
        "n_optimal_covers": spec.n_optimal_covers,
        "per_edge": [sorted(s) for s in spec.per_edge],
        "forced_weight_one_edges": [e for e, s in enumerate(spec.per_edge) if s == frozenset({1})],
    }
    for key, value in got.items():
        if value != want[key]:
            return f"{key} differs from the golden spectrum"
    return None


def _spectrum_problem(spec, g):
    if len(spec.per_edge) != g.m:
        return "one weight set per edge expected"
    if any(not s or not s <= {1, 2} for s in spec.per_edge):
        return "an edge weight set is empty or outside {1, 2}"
    if spec.n_optimal_covers < 1 or spec.optimal_length < 2 * g.n:
        return "no optimal cover, or one shorter than 4m/3"
    low = sum(min(s) for s in spec.per_edge)
    high = sum(max(s) for s in spec.per_edge)
    if not low <= spec.optimal_length <= high:
        return "optimal length outside the per-edge weight range"
    return None


def _pullback(m, g):
    colouring = m.pcolour.find_petersen_colouring(g)
    if colouring is None:
        return None
    return m.pcolour.best_pullback_cover(g, colouring)


def _certificate_problem(m, res, g, exact):
    if res is None:
        return "no certificate"
    report = m.covers.validate(res.cover, g)
    if not report.ok:
        return "cover fails validation: " + "; ".join(report.problems)
    if report.length != res.length or res.length > res.claimed_bound:
        return f"length {res.length} against claimed bound {res.claimed_bound}"
    if res.length < 2 * g.n or (exact and res.length != 2 * g.n):
        return f"length {res.length} impossible for n = {g.n}"
    return None


def _cdc5_problem(m, cdc, g, negative):
    if negative:
        return None if cdc is None else "a 5-class CDC with a 2-factor class where none exists"
    if cdc is None:
        return "no 5-class CDC with a 2-factor class"
    report = m.covers.validate(cdc, g)
    if not report.ok or not report.is_cdc or cdc.k != 5:
        return "not a 5-class cycle double cover"
    degree = [0] * g.n
    for e in cdc.classes[-1]:
        for v in g.edges[e]:
            degree[v] += 1
    if any(d != 2 for d in degree):
        return "last class is not a 2-factor"
    return None
