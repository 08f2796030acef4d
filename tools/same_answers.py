"""Check that two checkouts give the same answers, byte for byte.

    python3 tools/same_answers.py PARENT_DIR CHANGE_DIR

Runs the same command lines through ``python -m cyclecover`` in both
checkouts, each with its own ``src/`` on the path and without a bytecode
cache (the ``__pycache__`` directories under ``src/`` and ``perfbench/`` are
removed first and none are written), and compares stdout, stderr and the
exit code of every run:

- ``generate`` of the Petersen graph P, the flower snarks J5, J7, J9, the
  Goldberg snark G5 and ``perm5``, the permutation graph of (0, 2, 4, 1, 3);
- ``analyze --json --no-timing`` on ``tests/data/analyze_golden.g6``,
  ``tests/data/analyze_snarks_golden.g6`` and the ``analyze_stream``
  benchmark streams of seeds 3, 7 and 11, written by PARENT_DIR's
  ``perfbench/bench_workloads.make_inputs``;
- ``generate --format adj`` of the same graphs;
- ``scc``, ``scc --cap 3 --json``, ``tau``, ``tau --limit 4``,
  ``oddness``, ``circ --json``, ``cdc --json``, ``cdc --k 5
  --two-factor-class --json``, ``construct --via`` each construction and
  ``construct --via oddness2 --force-base`` on K4, the prism and every
  generated graph, and both graphs of ``tests/data/snarks18.g6``;
- on each of those graphs, ``pcolour find``, then ``pcolour verify`` and
  ``pcolour pullback --json`` of the colouring that PARENT_DIR's ``find``
  printed, and ``analyze --verify-cover`` of PARENT_DIR's ``construct
  --via circumference --json`` certificate;
- ``spectrum --json`` on the graphs whose covers are listed in well under
  a second: K4, the prism, P, J5 and ``perm5`` (J9 has 143,534), and
  ``spectrum --cap 3 --json`` on K4, P and J5;
- on P+P, ``two_cut_join(petersen(), 0, petersen(), 0)``, whose cap-2
  optimum 4m/3 + 2 sends a cap above 2 to the cover engine: ``scc --cap 4
  --json``, and ``spectrum --cap 3 --node-limit N`` at the limits of
  ``JOIN_LIMITS``, past the transition nodes, so that both sides abort
  inside the engine (the unlimited run takes over a minute);
- two refusals: ``scc`` of a missing file, and ``cdc --contains 0,1`` on
  P, a walk that takes one edge twice;
- ``analyze --json --no-timing --node-limit N`` on J5, P and G5 at the
  limits of ``ANALYZE_LIMITS``, which fall on both sides of the nodes of
  each stage and of their sum;
- ``tau``, ``oddness`` and ``analyze --json --no-timing`` on the prism
  C_92 x K2, whose perfect matchings outnumber ``sys.maxsize``.

Every run takes well under a second, but for the engine runs on P+P (about
2 and 12 seconds).  The graph inputs are PARENT_DIR's: its data files, its
``generate`` output and the colourings and certificates above, and the
graph6 lines of K4, the prism and P+P below.  Every run that differs is
listed, with the first differing line of each field, and the exit status
is 1 on any difference, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import clear_bytecode

STREAM_SEEDS = (3, 7, 11)
STREAM_SECONDS = 45
GENERATED = {"P": ["petersen"], "J5": ["flower", "5"], "J7": ["flower", "7"],
             "J9": ["flower", "9"], "G5": ["goldberg", "5"],
             "perm5": ["permutation", "0,2,4,1,3"]}
FIXED = {"K4": "C~", "prism": "E{Sw"}
COMMANDS = (["scc"], ["scc", "--cap", "3", "--json"], ["tau"], ["tau", "--limit", "4"],
            ["oddness"], ["circ", "--json"], ["cdc", "--json"],
            ["cdc", "--k", "5", "--two-factor-class", "--json"],
            *(["construct", "--via", via]
              for via in ("circumference", "oddness2", "tau4", "petersen")),
            ["construct", "--via", "oddness2", "--force-base"])
SPECTRUM = ("K4", "prism", "P", "J5", "perm5")
SPECTRUM_CAP3 = ("K4", "P", "J5")
JOIN = "SHeA@GUAs?G??@??_@G?O?@??AO?Ao?@W"  # P+P
JOIN_LIMITS = (200_000, 1_000_000)
ANALYZE_LIMITS = (50, 100, 150, 200, 1000, 1200, 10000)
PRISM_K = 92


def run(checkout: Path, argv) -> tuple:
    """(exit code, stdout, stderr) of ``python -m cyclecover argv`` in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "cyclecover", *argv], cwd=checkout, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_inputs(parent: Path, tmp: Path):
    """The graph files and the analyze inputs, each as {label: path}, and
    the files of the prism C_92 x K2 and of P+P."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(parent / "perfbench"))
    import bench_workloads

    graphs = {}
    for name, line in FIXED.items():
        graphs[name] = tmp / f"{name}.g6"
        graphs[name].write_text(line + "\n", encoding="ascii")
    for name, spec in GENERATED.items():
        code, out, err = run(parent, ["generate", *spec])
        if code:
            sys.exit(f"same_answers: generate {' '.join(spec)} failed in {parent}:\n{err}")
        graphs[name] = tmp / f"{name}.g6"
        graphs[name].write_text(out, encoding="ascii")
    data = parent / "tests" / "data"
    snarks = [ln for ln in (data / "snarks18.g6").read_text().splitlines() if ln.strip()]
    for i, line in enumerate(snarks):
        graphs[f"snarks18[{i}]"] = tmp / f"snarks18_{i}.g6"
        graphs[f"snarks18[{i}]"].write_text(line + "\n", encoding="ascii")
    for name, path in list(graphs.items()):
        for suffix, argv in (("col", ["pcolour", "find", str(path)]),
                             ("cert", ["construct", str(path), "--via", "circumference",
                                       "--json"])):
            code, out, err = run(parent, argv)
            if code:
                sys.exit(f"same_answers: {argv[0]} {name} failed in {parent}:\n{err}")
            path.with_suffix(f".{suffix}").write_text(out, encoding="ascii")
    k, large = PRISM_K, tmp / "prism92.adj"
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    large.write_text("".join(f"{u} {v}\n" for u, v in edges + [(i, k + i) for i in range(k)]))
    streams = {name: data / name for name in ("analyze_golden.g6", "analyze_snarks_golden.g6")}
    for seed in STREAM_SEEDS:
        rundir = tmp / f"stream{seed}"
        rundir.mkdir()
        bench_workloads.make_inputs("analyze_stream", seed, STREAM_SECONDS, rundir)
        streams[f"analyze_stream seed {seed}"] = rundir / bench_workloads.STREAM
    join = tmp / "join.g6"
    join.write_text(JOIN + "\n", encoding="ascii")
    return graphs, streams, large, join


def cases(graphs, streams, large, join):
    """(label, argv) of every compared run."""
    out = [(f"generate {' '.join(spec)}{fmt}", ["generate", *spec, *fmt.split()])
           for fmt in ("", " --format adj") for spec in GENERATED.values()]
    out += [(f"analyze {name}", ["analyze", str(path), "--json", "--no-timing"])
            for name, path in streams.items()]
    out += [(f"{' '.join(cmd)} {name}", [cmd[0], str(path), *cmd[1:]])
            for name, path in graphs.items() for cmd in COMMANDS]
    for name, path in graphs.items():
        col, cert = str(path.with_suffix(".col")), str(path.with_suffix(".cert"))
        out += [(f"pcolour find {name}", ["pcolour", "find", str(path)]),
                (f"pcolour verify {name}", ["pcolour", "verify", str(path), "--colouring", col]),
                (f"pcolour pullback --json {name}",
                 ["pcolour", "pullback", str(path), "--colouring", col, "--json"]),
                (f"analyze --verify-cover {name}", ["analyze", str(path), "--verify-cover", cert])]
    out += [(f"spectrum --json {name}", ["spectrum", str(graphs[name]), "--json"])
            for name in SPECTRUM]
    out += [(f"spectrum --cap 3 --json {name}",
             ["spectrum", str(graphs[name]), "--cap", "3", "--json"]) for name in SPECTRUM_CAP3]
    out += [("scc --cap 4 --json P+P", ["scc", str(join), "--cap", "4", "--json"])]
    out += [(f"spectrum --cap 3 --node-limit {limit} P+P",
             ["spectrum", str(join), "--cap", "3", "--node-limit", str(limit)])
            for limit in JOIN_LIMITS]
    missing = graphs["P"].with_name("missing.g6")
    out += [("scc of a missing file", ["scc", str(missing)]),
            ("cdc --contains 0,1 P", ["cdc", str(graphs["P"]), "--contains", "0,1"])]
    out += [(f"analyze --node-limit {limit} {name}",
             ["analyze", str(graphs[name]), "--json", "--no-timing", "--node-limit", str(limit)])
            for name in ("J5", "P", "G5") for limit in ANALYZE_LIMITS]
    out += [(f"{' '.join(cmd)} C_92 x K2", [cmd[0], str(large), *cmd[1:]])
            for cmd in (["tau"], ["oddness"], ["analyze", "--json", "--no-timing"])]
    return out


def first_difference(a: str, b: str) -> str:
    for i, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return f"line {i}:\n  parent {x!r}\n  change {y!r}"
    n = min(len(a.splitlines()), len(b.splitlines())) + 1
    return f"line {n} on one side only (parent {len(a)} chars, change {len(b)} chars)"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    for checkout in (parent, change):
        clear_bytecode(checkout)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        todo = cases(*write_inputs(parent, Path(tmp)))
        for label, args in todo:
            a, b = run(parent, args), run(change, args)
            fields = [(field, x, y) for field, x, y in zip(("exit code", "stdout", "stderr"), a, b)
                      if x != y]
            for field, x, y in fields:
                detail = f"{x} != {y}" if field == "exit code" else first_difference(x, y)
                print(f"differ: {label}: {field}: {detail}", flush=True)
            if not fields:
                print(f"same: {label} (exit {a[0]})", flush=True)
            differ += bool(fields)
    if differ:
        print(f"different answers: {differ} of {len(todo)} runs, parent {parent}, change {change}")
        return 1
    print(f"same answers: {len(todo)} runs, parent {parent}, change {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
