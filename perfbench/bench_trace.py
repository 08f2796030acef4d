"""Spans around every public function of the program, recorded from outside.

``Tracer`` replaces each public function of the seven program modules with a
wrapper in every namespace that binds it (``cli`` and ``constructions``
import solver and graph functions by name, and the package re-exports
them), so calls are caught whichever name the caller uses.  A span is
(job, name, start, end, parent); spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children, which nest inside it because the program is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "families", "graphs", "covers", "solvers", "constructions", "pcolour")


def _count_matchings(g, result, counts):
    counts["solvers.enumerate_perfect_matchings.matchings"] += len(result)


def _count_scc(g, result, counts):
    counts["solvers.shortest_cycle_cover.nodes"] += result.nodes
    # 2n = 4m/3 for a cubic graph: solved by the first structural stage
    counts["solvers.shortest_cycle_cover.excess0"] += result.length == 2 * g.n


def _count_spectrum(g, result, counts):
    counts["solvers.edge_weight_spectrum.covers"] += result.n_optimal_covers


# work counts read off the graph argument and the result, at the span's boundary
RESULT_COUNTERS = {
    "solvers.enumerate_perfect_matchings": _count_matchings,
    "solvers.shortest_cycle_cover": _count_scc,
    "solvers.edge_weight_spectrum": _count_spectrum,
}


class Tracer:
    """Install with ``with Tracer(namespaces):``; the originals come back on exit."""

    def __init__(self, namespaces):
        self.namespaces = namespaces
        self.spans = []  # [job, name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.job = 0
        self.active = True
        self._stack = []
        self._patched = []

    def __enter__(self):
        wrappers = {}
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                if not _traceable(obj):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((ns, attr, obj))
                setattr(ns, attr, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()
        return False

    def _wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        counter = RESULT_COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([self.job, name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()
            if counter is not None:
                counter(args[0] if args else kwargs["g"], result, self.counts)
            return result

        return traced

    def summary(self):
        """Per function and per module: calls and self time in milliseconds."""
        child_time = [0.0] * len(self.spans)
        for job, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        self_ms = defaultdict(float)
        for i, (job, name, start, end, parent) in enumerate(self.spans):
            own = 1000.0 * (end - start - child_time[i])
            calls[name] += 1
            self_ms[name] += own
            self_ms[name.split(".", 1)[0]] += own
        return calls, self_ms

    def write(self, path):
        """Spans as tab-separated lines, times in ms from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tparent\tjob\tname\tstart_ms\tend_ms\n")
            for i, (job, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{job}\t{name}\t"
                         f"{1000 * (start - t0):.4f}\t{1000 * (end - t0):.4f}\n")


def _traceable(obj) -> bool:
    return (inspect.isfunction(obj)
            and obj.__module__.startswith("cyclecover.")
            and obj.__module__.rsplit(".", 1)[-1] in MODULES
            and not obj.__name__.startswith("_"))
