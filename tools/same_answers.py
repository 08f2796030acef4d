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
  a second: K4, the prism, P, J5 and ``perm5`` (J9 has 143,534);
- two refusals: ``scc`` of a missing file, and ``cdc --contains 0,1`` on
  P, a walk that takes one edge twice.

Every run takes well under a second.  The graph inputs are PARENT_DIR's:
its data files, its ``generate`` output and the colourings and
certificates above.  The first difference is printed, and the exit status
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


def run(checkout: Path, argv) -> tuple:
    """(exit code, stdout, stderr) of ``python -m cyclecover argv`` in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "cyclecover", *argv], cwd=checkout, env=env,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_inputs(parent: Path, tmp: Path):
    """The graph files and the analyze inputs, each as {label: path}."""
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
    streams = {name: data / name for name in ("analyze_golden.g6", "analyze_snarks_golden.g6")}
    for seed in STREAM_SEEDS:
        rundir = tmp / f"stream{seed}"
        rundir.mkdir()
        bench_workloads.make_inputs("analyze_stream", seed, STREAM_SECONDS, rundir)
        streams[f"analyze_stream seed {seed}"] = rundir / bench_workloads.STREAM
    return graphs, streams


def cases(graphs, streams):
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
    missing = graphs["P"].with_name("missing.g6")
    out += [("scc of a missing file", ["scc", str(missing)]),
            ("cdc --contains 0,1 P", ["cdc", str(graphs["P"]), "--contains", "0,1"])]
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
    with tempfile.TemporaryDirectory() as tmp:
        todo = cases(*write_inputs(parent, Path(tmp)))
        for label, args in todo:
            a, b = run(parent, args), run(change, args)
            for field, x, y in zip(("exit code", "stdout", "stderr"), a, b):
                if x != y:
                    detail = f"{x} != {y}" if field == "exit code" else first_difference(x, y)
                    print(f"differ: {label}: {field}: {detail}")
                    return 1
            print(f"same: {label} (exit {a[0]})", flush=True)
    print(f"same answers: {len(todo)} runs, parent {parent}, change {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
