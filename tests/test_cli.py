import argparse
import io
import json
import os
import subprocess
import sys

import pytest

import cyclecover
from conftest import DATA, load_snarks18
from cyclecover import build_graph, cover_via_oddness2, flower, goldberg, pcolour, petersen, solvers
from cyclecover.cli import build_parser, main
from cyclecover.errors import HypothesisViolated
from cyclecover.families import parse_adjacency, parse_graph6, write_adjacency, write_graph6
from cyclecover.graphs import Multigraph

# the child runs the package under test, installed or not
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(cyclecover.__file__)), os.environ.get("PYTHONPATH")))))


def run_cli(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "cyclecover.cli", *args],
        input=stdin_text, capture_output=True, text=True, timeout=600, env=_ENV)
    return proc.returncode, proc.stdout, proc.stderr


def test_generate_petersen_analyze_pipe():
    code, g6, _ = run_cli(["generate", "petersen"])
    assert code == 0
    code, out, _ = run_cli(["analyze", "-", "--json", "--no-timing"], stdin_text=g6)
    assert code == 0
    report = json.loads(out)
    assert report["scc"] == 21
    assert report["tau"] == 5
    assert report["oddness"] == 2
    assert report["circumference"] == 9
    assert report["consistent"] is True


def test_generate_goldberg_scc_pipe():
    code, g6, _ = run_cli(["generate", "goldberg", "5"])
    assert code == 0
    code, out, _ = run_cli(["scc", "-", "--json"], stdin_text=g6)
    assert code == 0
    assert json.loads(out)["scc"] == 80


def test_analyze_json_byte_deterministic():
    code, g6, _ = run_cli(["generate", "petersen"])
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(["analyze", "-", "--json", "--no-timing"], stdin_text=g6)
        outs.add(out)
    assert len(outs) == 1


def test_construct_tau4_flower():
    code, g6, _ = run_cli(["generate", "flower", "5"])
    assert code == 0
    code, out, _ = run_cli(["construct", "--via", "tau4", "-", "--json"], stdin_text=g6)
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 40
    assert payload["valid"] and payload["is_one_two_cover"]


def test_construct_exit_code_hypothesis(tmp_path):
    _, g6, _ = run_cli(["generate", "petersen"])
    code, _, err = run_cli(["construct", "--via", "tau4", "-"], stdin_text=g6)
    assert code == 2
    assert "hypothesis" in err


def test_scc_exit_code_on_bridge(tmp_path):
    from test_graphs import _bridged_cubic

    path = tmp_path / "bridged.adj"
    path.write_text(write_adjacency(_bridged_cubic()))
    code, _, err = run_cli(["scc", str(path)])
    assert code == 2

    code, out, _ = run_cli(["analyze", str(path), "--json", "--no-timing"])
    assert code == 0
    assert json.loads(out)["bridgeless"] is False


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("definitely not graph6 \x01\n")
    code, _, _ = run_cli(["scc", str(path)])
    assert code == 1


@pytest.mark.parametrize("args", [["tau"], ["scc", "-", "--bogus"],
                                  ["construct", "-", "--via", "nope"]])
def test_usage_error_exit_code(args):
    # 2 is kept for hypothesis violations, so a typo must not exit 2
    code, out, err = run_cli(args, stdin_text="")
    assert code == 1 and out == "" and "error:" in err
    assert main(["--help"]) == 0


@pytest.mark.parametrize("command", [["scc"], ["tau"], ["oddness"], ["circ"], ["cdc"],
                                     ["spectrum"], ["construct", "--via", "tau4"],
                                     ["pcolour", "find"]])
def test_empty_input_exit_code(command, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main([*command, "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: no graph in input\n"


def test_empty_stream_analyze(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    assert main(["analyze", "-", "--json"]) == 0
    assert capsys.readouterr().out == ""


def test_non_cubic_input_exit_code(tmp_path, capsys):
    path = tmp_path / "triangle.adj"
    path.write_text("0 1\n1 2\n2 0\n")
    for command in (["scc"], ["analyze"], ["spectrum"], ["pcolour", "find"]):
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: vertex 0 has degree 2, not 3\n"
    # the library still reads subcubic adjacency text
    assert type(parse_adjacency(path.read_text())) is Multigraph


def test_node_limit_abort_exit_code():
    _, g6, _ = run_cli(["generate", "flower", "5"])
    code, _, err = run_cli(["scc", "-", "--node-limit", "1"], stdin_text=g6)
    assert code == 3
    _, g6, _ = run_cli(["generate", "flower", "7"])
    code, out, err = run_cli(["pcolour", "find", "-", "--node-limit", "5"], stdin_text=g6)
    assert code == 3 and out == "" and "search aborted" in err
    # Petersen has no such CDC (exit 2 without a limit), but an abort is no proof
    _, g6, _ = run_cli(["generate", "petersen"])
    code, out, err = run_cli(["cdc", "-", "--k", "5", "--two-factor-class", "--node-limit", "1"],
                             stdin_text=g6)
    assert code == 3 and out == "" and "search aborted" in err


def test_pcolour_find_node_limit_counts_the_cut_search(tmp_path, capsys):
    # J9 read back from graph6 takes 10 labelling nodes under the matching
    # cut; filling the matching store first is not counted
    g6 = write_graph6(flower(9))
    path = tmp_path / "j9.g6"
    path.write_text(g6 + "\n")
    assert main(["pcolour", "find", str(path), "--node-limit", "10"]) == 0
    g = parse_graph6(g6)
    colouring = pcolour.parse_colouring(g, capsys.readouterr().out)
    assert pcolour.verify_petersen_colouring(g, colouring) == (True, None)
    assert main(["pcolour", "find", str(path), "--node-limit", "9"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "search aborted: node limit exceeded in labelling after 10 nodes\n"


def test_spectrum_node_limit_aborts(tmp_path, capsys):
    g6 = write_graph6(flower(5))
    path = tmp_path / "j5.g6"
    path.write_text(g6 + "\n")
    # the graph6 round trip renumbers the edges, so count on the parsed graph
    needed = solvers.edge_weight_spectrum(parse_graph6(g6)).nodes
    for limit in (50, needed - 1):
        assert main(["spectrum", str(path), "--node-limit", str(limit), "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "search aborted" in captured.err
    assert main(["spectrum", str(path), "--node-limit", str(needed), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_optimal_covers"] == 182


def test_cdc_infeasible_exit_code():
    _, g6, _ = run_cli(["generate", "petersen"])
    code, out, _ = run_cli(["cdc", "-", "--k", "5", "--two-factor-class", "--json"],
                           stdin_text=g6)
    assert code == 2
    assert json.loads(out)["proven_infeasible"] is True


def test_cdc_with_contains():
    _, g6, _ = run_cli(["generate", "petersen"])
    # a 9-circuit of the reference Petersen graph, as a vertex list
    code, out, _ = run_cli(["cdc", "-", "--contains", "0,1,6,8,5,7,2,3,4", "--json"],
                           stdin_text=g6)
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] and payload["is_cdc"]


def test_cdc_contains_rejects_a_walk_that_is_no_circuit(tmp_path, capsys):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    # edge 0-1 twice, then a walk that repeats its vertices
    for walk in ("0,1", "0,1,0,1"):
        assert main(["cdc", str(path), "--contains", walk, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--contains is not a circuit" in captured.err
    assert main(["cdc", str(path), "--contains", "0,1,2,3,4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["is_cdc"]
    assert [0, 1, 2, 3, 4] in payload["circuits"]


# the options of each command, all of which it reads (in some mode)
_GRAPH_OPTIONS = ("--format", "--json")
_OPTIONS = {
    "analyze": (*_GRAPH_OPTIONS, "--cap", "--node-limit", "--no-timing", "--verify-cover"),
    "scc": (*_GRAPH_OPTIONS, "--cap", "--node-limit"),
    "spectrum": (*_GRAPH_OPTIONS, "--cap", "--node-limit"),
    "circ": (*_GRAPH_OPTIONS, "--node-limit"),
    "cdc": (*_GRAPH_OPTIONS, "--node-limit", "--contains", "--k", "--two-factor-class"),
    "construct": (*_GRAPH_OPTIONS, "--node-limit", "--via", "--force-base"),
    "pcolour": (*_GRAPH_OPTIONS, "--node-limit", "--colouring"),
    "tau": (*_GRAPH_OPTIONS, "--node-limit", "--limit"),
    "oddness": _GRAPH_OPTIONS,
    "generate": ("--format",),
}


def test_each_command_registers_only_the_options_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in p._actions for s in a.option_strings if s not in ("-h", "--help"))
           for name, p in sub.choices.items()}
    assert got == {name: sorted(opts) for name, opts in _OPTIONS.items()}
    assert sum(len(opts) for opts in got.values()) == 39


@pytest.mark.parametrize("command", [
    ["oddness", "--cap", "3"],
    ["tau", "--cap", "3"],
    ["circ", "--no-timing"],
    ["scc", "--seed-order", "1"],
])
def test_a_flag_the_command_does_not_take_is_a_usage_error(command, tmp_path, capsys):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    assert main([command[0], str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


# the 4-circuit 0-1-3-2 with the edges 0-1 and 2-3 doubled: two digons
_DIGONS = [(0, 1), (0, 1), (0, 2), (1, 3), (2, 3), (2, 3)]


def test_cdc_contains_a_digon(tmp_path, capsys):
    path = tmp_path / "digons.adj"
    path.write_text(write_adjacency(build_graph(_DIGONS)))
    assert main(["cdc", str(path), "--contains", "0,1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["valid"] and payload["is_cdc"]
    assert [0, 1] in payload["circuits"]


def test_verify_cover_walks_parallel_edges(tmp_path, capsys):
    path = tmp_path / "digons.adj"
    path.write_text(write_adjacency(build_graph(_DIGONS)))
    assert main(["scc", str(path), "--json"]) == 0
    cert = tmp_path / "cert.json"
    cert.write_text(capsys.readouterr().out)
    assert main(["analyze", str(path), "--verify-cover", str(cert), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] and payload["matches_claimed_length"]


@pytest.mark.parametrize("cert", [{"length": 3}, [], {"circuits": [[0, "1", 2]]},
                                  {"circuits": [[]]}, {"circuits": [[0, 1, 2]], "circuit_edges": 7}])
def test_verify_cover_rejects_a_malformed_certificate(cert, tmp_path, capsys):
    gfile, cfile = tmp_path / "p.g6", tmp_path / "cert.json"
    gfile.write_text(write_graph6(petersen()) + "\n")
    cfile.write_text(json.dumps(cert))
    assert main(["analyze", str(gfile), "--verify-cover", str(cfile)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err


def test_verify_cover_reads_edge_ids(tmp_path, capsys):
    # two circuits with the same vertex walk over different parallel edges:
    # a valid cover of length 8 = 4m/3, whose weight-1 edges are the digons
    path = tmp_path / "digons.adj"
    path.write_text(write_adjacency(build_graph(_DIGONS)))
    walks = [[1, 0, 2, 3], [1, 0, 2, 3]]
    cert = tmp_path / "cert.json"
    for ids, code in (([[0, 2, 4, 3], [1, 2, 5, 3]], 0), (None, 2),
                      ([[0, 2, 4, 3], [1, 2, 5, 4]], 1), ([[0, 2, 4, 3]], 1),
                      ([[0, 2, 4, 3], 7], 1), (7, 1)):
        payload = {"length": 8, "circuits": walks}
        if ids is not None:
            payload["circuit_edges"] = ids
        cert.write_text(json.dumps(payload))
        assert main(["analyze", str(path), "--verify-cover", str(cert), "--json"]) == code
        captured = capsys.readouterr()
        if code == 0:
            out = json.loads(captured.out)
            assert out["valid"] and out["matches_claimed_length"] and out["is_one_two_cover"]
            assert out["circuit_edges"] == ids
        elif code == 2:
            # a walk-only certificate keeps the least-edge mapping, which
            # reads both circuits as one and the cover as invalid
            assert not json.loads(captured.out)["valid"]
        else:
            assert captured.out == ""
            assert "do not follow" in captured.err or "every circuit" in captured.err


@pytest.mark.parametrize("command, search", [
    (["scc"], "transitions"), (["spectrum"], "transitions"), (["tau"], "labelling"),
    (["circ"], "circumference"), (["construct", "--via", "oddness2"], "cover engine")])
def test_abort_names_the_search_that_stopped(command, search, tmp_path, capsys):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    assert main([command[0], str(path), *command[1:], "--node-limit", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"search aborted: node limit exceeded in {search} after 2 nodes\n"


def test_scc_and_spectrum_json_name_the_stage(tmp_path, capsys):
    path = tmp_path / "g.g6"
    for g, stage in ((petersen(), "4m/3+1"), (flower(5), "4m/3")):
        path.write_text(write_graph6(g) + "\n")
        for command in ("scc", "spectrum"):
            assert main([command, str(path), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["stage"] == stage


def test_generate_formats_and_seed_order_stability():
    code, adj, _ = run_cli(["generate", "flower", "5", "--format", "adj"])
    assert code == 0
    assert all(len(line.split()) == 2 for line in adj.strip().splitlines())


def test_spectrum_cli(tmp_path):
    _, g6, _ = run_cli(["generate", "petersen"])
    code, out, _ = run_cli(["spectrum", "-", "--json"], stdin_text=g6)
    assert code == 0
    payload = json.loads(out)
    assert payload["optimal_length"] == 21
    assert payload["n_optimal_covers"] == 20
    assert payload["forced_weight_one_edges"] == []


def test_pcolour_find_verify_pullback(tmp_path):
    _, g6, _ = run_cli(["generate", "petersen"])
    code, colouring, _ = run_cli(["pcolour", "find", "-"], stdin_text=g6)
    assert code == 0
    cfile = tmp_path / "col.txt"
    cfile.write_text(colouring)
    gfile = tmp_path / "p.g6"
    gfile.write_text(g6)
    code, out, _ = run_cli(["pcolour", "verify", str(gfile), "--colouring", str(cfile), "--json"])
    assert code == 0
    assert json.loads(out)["valid"] is True
    code, out, _ = run_cli(["pcolour", "pullback", str(gfile), "--colouring", str(cfile), "--json"])
    assert code == 0
    assert json.loads(out)["length"] <= 21


@pytest.mark.parametrize("action, flag", [
    ("find", "--colouring"),
    ("verify", "--node-limit"),
    ("pullback", "--node-limit"),
])
def test_a_pcolour_flag_the_action_does_not_read_is_a_usage_error(action, flag, tmp_path, capsys):
    gfile = tmp_path / "p.g6"
    gfile.write_text(write_graph6(petersen()) + "\n")
    assert main(["pcolour", "find", str(gfile)]) == 0
    cfile = tmp_path / "col.txt"
    cfile.write_text(capsys.readouterr().out)
    reads = [] if action == "find" else ["--colouring", str(cfile)]
    assert main(["pcolour", action, str(gfile), *reads]) == 0
    capsys.readouterr()
    value = str(cfile) if flag == "--colouring" else "1000"
    assert main(["pcolour", action, str(gfile), *reads, flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"pcolour {action} does not take {flag}" in captured.err


def test_verify_cover_roundtrip(tmp_path):
    _, g6, _ = run_cli(["generate", "flower", "5"])
    gfile = tmp_path / "j5.g6"
    gfile.write_text(g6)
    code, cert, _ = run_cli(["construct", "--via", "tau4", str(gfile), "--json"])
    assert code == 0
    cfile = tmp_path / "cert.json"
    cfile.write_text(cert)
    code, out, _ = run_cli(["analyze", str(gfile), "--verify-cover", str(cfile), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] and payload["matches_claimed_length"]


def test_analyze_batch_stream_order():
    _, p, _ = run_cli(["generate", "petersen"])
    _, j, _ = run_cli(["generate", "flower", "5"])
    code, out, _ = run_cli(["analyze", "-", "--json", "--no-timing"], stdin_text=p + j)
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [r["n"] for r in lines] == [10, 20]
    assert [r["index"] for r in lines] == [0, 1]


def test_main_callable_directly():
    assert main(["generate", "petersen"]) == 0


def test_analyze_enumerates_matchings_once_per_graph(monkeypatch, capsys, tmp_path):
    # scc, tau and oddness of one report share one enumeration
    calls = []
    original = solvers.enumerate_perfect_matchings

    def counting(g):
        calls.append(g.n)
        return original(g)

    monkeypatch.setattr(solvers, "enumerate_perfect_matchings", counting)
    path = tmp_path / "two.g6"
    path.write_text(write_graph6(petersen()) + "\n" + write_graph6(flower(5)) + "\n")
    assert main(["analyze", str(path), "--json", "--no-timing"]) == 0
    reports = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [r["oddness"] for r in reports] == [2, 2]
    assert calls == [10, 20]


def test_analyze_counts_few_two_factors(monkeypatch, capsys):
    # oddness stops at the first Hamiltonian 2-factor and tau at the first
    # even one, so the golden graphs count 25 of their 1,189 2-factors
    counted = []
    original = solvers._Matchings._count

    def counting(store, pm):
        counted.append(pm)
        return original(store, pm)

    monkeypatch.setattr(solvers._Matchings, "_count", counting)
    assert main(["analyze", os.path.join(DATA, "analyze_golden.g6"), "--json", "--no-timing"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert len(counted) == 25


def test_analyze_golden(monkeypatch, capsys):
    # reports on random cubic graphs (n 24 to 32, with and without triangles)
    monkeypatch.chdir(DATA)
    assert main(["analyze", "analyze_golden.g6", "--json", "--no-timing"]) == 0
    with open(os.path.join(DATA, "analyze_golden.jsonl"), encoding="ascii") as fh:
        assert capsys.readouterr().out == fh.read()


def test_construct_golden(tmp_path, capsys):
    # the circumference and oddness-2 certificates on the classic snarks,
    # as the CLI prints them, with exit codes and error output
    first, second = load_snarks18()
    graphs = [("petersen", petersen()), ("J5", flower(5)), ("J7", flower(7)),
              ("J9", flower(9)), ("G5", goldberg(5)), ("snarks18[0]", first),
              ("snarks18[1]", second)]
    lines = []
    for name, g in graphs:
        path = tmp_path / "g.g6"
        path.write_text(write_graph6(g) + "\n")
        for via in (["circumference"], ["oddness2"], ["oddness2", "--force-base"]):
            code = main(["construct", str(path), "--via", *via, "--json"])
            out, err = capsys.readouterr()
            lines.append(json.dumps({"graph": name, "via": via, "exit": code,
                                     "stdout": out, "stderr": err}) + "\n")
    with open(os.path.join(DATA, "construct_golden.jsonl"), encoding="ascii") as fh:
        assert "".join(lines) == fh.read()


def _error_cases(tmp_path):
    """(case, argv) pairs: each way a command fails on its input."""
    from test_graphs import _bridged_cubic

    p = petersen()
    block = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (4, 3)]
    nopm = [(u + 5 * i, v + 5 * i) for i in range(3) for u, v in block]
    nopm += [(4 + 5 * i, 15) for i in range(3)]
    identity = [f"{u} {v} -> {u} {v}" for u, v in p.edges]
    files = {
        "p.g6": write_graph6(p) + "\n",
        "bridged.adj": write_adjacency(_bridged_cubic()),
        "nopm.adj": write_adjacency(build_graph(nopm)),
        "k33.adj": "0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n",
        "prism.adj": "0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n0 3\n1 4\n2 5\n",
        "theta.adj": "0 1\n0 1\n0 1\n",
        "triangle.adj": "0 1\n1 2\n2 0\n",
        "comments.adj": "# nothing\n",
        "loop.adj": "0 0\n",
        "three.adj": "0 1 2\n",
        "word.adj": "0 x\n",
        "negative.adj": "-1 2\n",
        "degree4.adj": "0 1\n0 1\n0 1\n0 1\n",
        "short.g6": "I??\n",
        "size.g6": "~~\n",
        "byte.g6": "I???????\x7f\n",
        "padding.g6": "I???????@\n",
        "isolated.g6": "D??\n",
        "triangle.g6": "Cw\n",
        "cert.json": "not json\n",
        "star.col": "\n".join(["0 1 -> 1 2"] + identity[1:]) + "\n",
        "partial.col": "\n".join(identity[:-1]) + "\n",
        "fields.col": "0 1 -> 2\n",
        "word.col": "0 1 -> a b\n",
        "nonedge.col": "0 2 -> 0 1\n",
        "nonref.col": "0 1 -> 0 2\n",
    }
    path = {}
    for name, text in files.items():
        path[name] = str(tmp_path / name)
        (tmp_path / name).write_text(text, encoding="ascii")
    adj = ["--format", "adj"]
    return [
        # exit 1: the input or a parameter is bad
        ("generate flower 4", ["generate", "flower", "4"]),
        ("generate goldberg 6", ["generate", "goldberg", "6"]),
        ("generate flower x", ["generate", "flower", "x"]),
        ("generate even permutation", ["generate", "permutation", "0,1,2,3"]),
        ("generate no permutation", ["generate", "permutation", "0,0,1"]),
        ("cdc --k 1", ["cdc", path["p.g6"], "--k", "1"]),
        ("cdc --two-factor-class", ["cdc", path["p.g6"], "--two-factor-class"]),
        ("cdc --contains --k 5", ["cdc", path["p.g6"], "--contains", "0,1,2,3,4", "--k", "5"]),
        ("graph6 short", ["scc", path["short.g6"]]),
        ("graph6 size", ["scc", path["size.g6"]]),
        ("graph6 byte", ["scc", path["byte.g6"]]),
        ("graph6 padding", ["scc", path["padding.g6"]]),
        ("graph6 isolated vertices", ["scc", path["isolated.g6"]]),
        ("graph6 non-cubic", ["scc", path["triangle.g6"]]),
        ("adj loop", ["scc", path["loop.adj"], *adj]),
        ("adj three fields", ["scc", path["three.adj"], *adj]),
        ("adj non-integer", ["scc", path["word.adj"], *adj]),
        ("adj negative", ["scc", path["negative.adj"], *adj]),
        ("adj no edges", ["scc", path["comments.adj"], *adj]),
        ("adj degree 4", ["scc", path["degree4.adj"], *adj]),
        ("adj subcubic", ["scc", path["triangle.adj"], *adj]),
        ("no graph", ["scc", path["comments.adj"]]),
        ("certificate not json", ["analyze", path["p.g6"], "--verify-cover", path["cert.json"]]),
        ("colouring partial", ["pcolour", "verify", path["p.g6"], "--colouring", path["partial.col"]]),
        ("colouring fields", ["pcolour", "verify", path["p.g6"], "--colouring", path["fields.col"]]),
        ("colouring non-integer", ["pcolour", "verify", path["p.g6"], "--colouring", path["word.col"]]),
        ("colouring non-edge", ["pcolour", "verify", path["p.g6"], "--colouring", path["nonedge.col"]]),
        ("colouring non-edge of P", ["pcolour", "verify", path["p.g6"], "--colouring", path["nonref.col"]]),
        ("colouring multigraph", ["pcolour", "pullback", path["theta.adj"], "--colouring", path["partial.col"]]),
        # exit 2: a hypothesis fails
        ("scc bridged", ["scc", path["bridged.adj"]]),
        ("spectrum bridged", ["spectrum", path["bridged.adj"]]),
        ("oddness no perfect matching", ["oddness", path["nopm.adj"]]),
        ("circumference bridged", ["construct", path["bridged.adj"], "--via", "circumference"]),
        ("oddness2 bridged", ["construct", path["bridged.adj"], "--via", "oddness2"]),
        ("oddness2 prism", ["construct", path["prism.adj"], "--via", "oddness2"]),
        ("oddness2 K33", ["construct", path["k33.adj"], "--via", "oddness2"]),
        ("tau4 petersen", ["construct", path["p.g6"], "--via", "tau4"]),
        ("petersen bridged", ["construct", path["bridged.adj"], "--via", "petersen"]),
        ("pullback star", ["pcolour", "pullback", path["p.g6"], "--colouring", path["star.col"]]),
        # exit 3: a search aborts
        ("tau node limit", ["tau", path["p.g6"], "--node-limit", "1"]),
        ("circ node limit", ["circ", path["p.g6"], "--node-limit", "1"]),
    ]


def test_error_golden(tmp_path, capsys):
    # every failing outcome above with its exit code and full output
    lines = []
    for case, argv in _error_cases(tmp_path):
        code = main(argv)
        out, err = capsys.readouterr()
        lines.append(json.dumps({"case": case, "exit": code, "stdout": out, "stderr": err}) + "\n")
    with open(os.path.join(DATA, "error_golden.jsonl"), encoding="ascii") as fh:
        assert "".join(lines) == fh.read()


def test_hypothesis_exit_codes(tmp_path, capsys):
    from test_graphs import _bridged_cubic

    # three blocks of _bridged_cubic at one centre vertex: deleting the centre
    # leaves three odd components, so there is no perfect matching
    block = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4), (4, 3)]
    edges = [(u + 5 * i, v + 5 * i) for i in range(3) for u, v in block]
    edges += [(4 + 5 * i, 15) for i in range(3)]
    path = tmp_path / "nopm.adj"
    path.write_text(write_adjacency(build_graph(edges)))
    assert main(["oddness", str(path)]) == 2
    assert "no perfect matching" in capsys.readouterr().err

    path = tmp_path / "bridged.adj"
    path.write_text(write_adjacency(_bridged_cubic()))
    assert main(["construct", "--via", "circumference", str(path)]) == 2
    assert "2-connected" in capsys.readouterr().err

    with pytest.raises(HypothesisViolated, match="need three distinct connecting edges"):
        cover_via_oddness2(petersen(), links=[5, 5, 6])


def test_construct_circumference_abort_exit_code(tmp_path, capsys):
    # --node-limit bounds the circumference search too, and finding Petersen's
    # 9-circuit takes 10 nodes
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    assert main(["construct", "--via", "circumference", str(path), "--node-limit", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "search aborted: node limit exceeded" in captured.err


def test_construct_cdc_abort_exit_code(tmp_path, capsys):
    # the CDC search through Petersen's two 5-circuits needs more than one node
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    assert main(["construct", "--via", "oddness2", str(path), "--node-limit", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "search aborted: node limit exceeded" in captured.err


def test_tau_node_limit_exit_code(tmp_path, capsys):
    # Petersen has no even 2-factor, so tau = 5 comes from the labelling
    # search, which needs more than one node; J5's tau = 4 does too
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    for command in (["tau"], ["construct", "--via", "tau4"]):
        assert main([*command, str(path), "--node-limit", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "search aborted: node limit exceeded" in captured.err
    assert main(["tau", str(path), "--node-limit", "10000", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tau"] == 5
    assert payload["nodes"] == solvers.perfect_matching_index(petersen()).nodes > 1
    path.write_text(write_graph6(flower(5)) + "\n")
    assert main(["construct", "--via", "tau4", str(path), "--node-limit", "1"]) == 3
    assert "search aborted" in capsys.readouterr().err


def test_circ_node_limit_exit_code(tmp_path, capsys):
    path = tmp_path / "j5.g6"
    path.write_text(write_graph6(flower(5)) + "\n")
    assert main(["circ", str(path), "--node-limit", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "search aborted: node limit exceeded" in captured.err
    assert main(["circ", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["circumference"] == 19


def test_broken_colouring_exit_codes(tmp_path, capsys):
    # send two edges at vertex 0 to one edge of P: no star of P is hit there
    g = petersen()
    gfile = tmp_path / "p.g6"
    gfile.write_text(write_graph6(g) + "\n")
    assert main(["pcolour", "find", str(gfile)]) == 0
    lines = capsys.readouterr().out.splitlines()
    g = parse_graph6(write_graph6(g))
    e, f = g.incident_edges[0][:2]
    lines[f] = lines[f].split("->")[0] + "->" + lines[e].split("->")[1]
    cfile = tmp_path / "broken.txt"
    cfile.write_text("\n".join(lines) + "\n")
    assert main(["pcolour", "verify", str(gfile), "--colouring", str(cfile), "--json"]) == 2
    assert json.loads(capsys.readouterr().out)["valid"] is False
    assert main(["pcolour", "pullback", str(gfile), "--colouring", str(cfile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "star condition" in captured.err


@pytest.mark.parametrize("command", ["circ", "oddness"])
def test_recursion_limit_is_an_abort(command, tmp_path):
    # on the prism C_1200 x K2 these searches recurse deeper than Python allows
    k = 1200
    edges = [(i, (i + 1) % k) for i in range(k)] + [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    path = tmp_path / "prism.adj"
    path.write_text(write_adjacency(build_graph(edges)))
    code, out, err = run_cli([command, str(path)])
    assert code == 3 and out == ""
    assert "search aborted: recursion limit exceeded" in err and "Traceback" not in err
