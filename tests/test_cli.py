import argparse
import io
import json
import os
import subprocess
import sys

import pytest

import cyclecover
from conftest import DATA, load_snarks18, relabelled
from substrate import disjoint_union
from cyclecover import (
    _sweep, build_graph, constructions, cover_via_oddness2, covers, families, flower, goldberg,
    pcolour, petersen, solvers, two_cut_join,
)
from cyclecover.cli import build_parser, main
from cyclecover.errors import GraphError, HypothesisViolated
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


def test_python_dash_m_runs_the_command_line(tmp_path):
    # ``python -m cyclecover`` is the command line, exit codes included
    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "cyclecover", *args], capture_output=True,
                              text=True, timeout=600, env=_ENV)
        return proc.returncode, proc.stdout, proc.stderr

    assert run("generate", "petersen") == (0, write_graph6(petersen()) + "\n", "")
    code, out, err = run("scc", str(tmp_path / "missing.g6"))
    assert (code, out) == (1, "") and err.startswith("error: ")


def test_non_ascii_graph6_input_exits_1():
    # stdin is read in the locale's encoding; the character was read as "?"
    # and the line as a non-cubic graph
    proc = subprocess.run([sys.executable, "-m", "cyclecover", "analyze", "-"],
                          input="IheA@GUA\u00e9\n".encode(), capture_output=True, timeout=600,
                          env=dict(_ENV, PYTHONIOENCODING="utf-8"))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == "error: non-ASCII character '\u00e9' in graph6 line\n"


def test_generate_petersen_refuses_extra_words(capsys):
    assert main(["generate", "petersen", "5"]) == 1
    assert capsys.readouterr() == ("", "usage: generate petersen\n")


@pytest.mark.parametrize("spec", [
    ["flower", "64513"],  # 258,052 vertices; 64,511 is the last K written
    ["goldberg", "32257"],
    ["permutation", ",".join(map(str, range(129025)))],
], ids=["flower", "goldberg", "permutation"])
@pytest.mark.parametrize("fmt", ["g6", "adj"])
def test_generate_refuses_unreadable_sizes_before_building(spec, fmt, capsys, monkeypatch):
    # neither format is read back beyond families._MAX_N vertices, so such a
    # family member is refused before its graph is built (the sizes stay
    # near the limit, so a regression costs an edge list, not the machine)
    def build(*args):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(families, "CubicGraph", build)
    assert main(["generate", *spec, "--format", fmt]) == 1
    assert capsys.readouterr() == ("", "error: graph too large for the supported graph6 sizes\n")


def test_generate_size_limit_is_the_readers_limit():
    families._check_order(families._MAX_N)
    with pytest.raises(GraphError, match="graph too large"):
        families._check_order(families._MAX_N + 1)


def test_oversized_adjacency_input_exits_1(tmp_path, capsys):
    path = tmp_path / "big.adj"
    path.write_text("0 5000000\n")
    assert main(["scc", str(path), "--format", "adj"]) == 1
    assert capsys.readouterr() == (
        "", "error: line 1: vertex 5000000 needs more than the 258047 vertices supported\n")


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


@pytest.mark.parametrize("line, message", [("4", "bad byte in graph6 size field"),
                                           ("?", "graph6 line encodes an empty graph"),
                                           ("~?", "truncated graph6 size field")])
def test_graph6_size_field_exit_code(line, message, tmp_path, capsys):
    # a size byte below 63, an empty graph and a long-form size field cut
    # short are bad input, for every command
    path = tmp_path / "size.g6"
    path.write_text(line + "\n")
    for command in (["tau"], ["analyze"]):
        assert main([*command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


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


@pytest.mark.parametrize("text, limit", [("0", 0), ("+5", 5), (" 5", 5), ("1_000", 1000)])
def test_node_limit_reads_any_whole_number(text, limit):
    # only a negative count or a non-number is refused (error_golden.jsonl)
    assert build_parser().parse_args(["scc", "-", "--node-limit", text]).node_limit == limit


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
    # Petersen settles at 4m/3 + 1: one budget spans the search that finds no
    # cover at 4m/3 and the star levels after it
    g6 = write_graph6(petersen())
    path.write_text(g6 + "\n")
    spec = solvers.edge_weight_spectrum(parse_graph6(g6))
    assert spec.stage == "4m/3+1"
    assert main(["spectrum", str(path), "--node-limit", str(spec.nodes - 1), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"search aborted: node limit exceeded in transitions after {spec.nodes} nodes\n")
    assert main(["spectrum", str(path), "--node-limit", str(spec.nodes), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_optimal_covers"] == 20


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


def test_cdc_without_contains_on_j7(tmp_path, capsys):
    # over every circuit this search did not finish in 90 s
    path = tmp_path / "j7.g6"
    path.write_text(write_graph6(flower(7)) + "\n")
    assert main(["cdc", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["is_cdc"]


def test_cdc_contains_rejects_a_walk_that_is_no_circuit(tmp_path, capsys):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    # edge 0-1 twice, a walk that repeats its vertices, two lists that are
    # not all vertex numbers, and walks that close on themselves, which are
    # refused before any edge 0-0 is looked up
    for walk in ("0,1", "0,1,0,1", "a,b", "0,,1", "0", "0,0", "0,1,0"):
        assert main(["cdc", str(path), "--contains", walk, "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--contains is not a circuit" in captured.err
    assert main(["cdc", str(path), "--contains", "0,1,2,3,4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["found"] and payload["is_cdc"]
    assert [0, 1, 2, 3, 4] in payload["circuits"]


def test_cdc_contains_refuses_an_empty_list(tmp_path, capsys):
    # an empty --contains was taken for no --contains
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    assert main(["cdc", str(path), "--contains", "", "--json"]) == 1
    assert capsys.readouterr() == ("", "--contains is not a circuit: '' is not a comma-separated "
                                       "list of vertex numbers\n")


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


# under a node limit, circ refutes or finds a 3-edge-colouring before its DFS
@pytest.mark.parametrize("command, search", [
    (["scc"], "labelling"), (["spectrum"], "transitions"), (["tau"], "labelling"),
    (["circ"], "labelling"), (["construct", "--via", "oddness2"], "transitions")])
def test_abort_names_the_search_that_stopped(command, search, tmp_path, capsys):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    assert main([command[0], str(path), *command[1:], "--node-limit", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"search aborted: node limit exceeded in {search} after 2 nodes\n"


def test_out_of_memory_is_an_abort(monkeypatch, tmp_path, capsys):
    # a listing too large for memory (tau, oddness and analyze on J25 list
    # its 2^25 perfect matchings) exits 3 with the reason, not a traceback
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(solvers, "oddness", exhausted)
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    assert main(["oddness", str(path)]) == 3
    assert capsys.readouterr() == ("", "search aborted: out of memory\n")


def test_scc_of_j25_under_a_node_limit(tmp_path, capsys):
    # J25's cover needs no listing of its 2^25 perfect matchings
    path = tmp_path / "j25.g6"
    path.write_text(write_graph6(flower(25)) + "\n")
    assert main(["scc", str(path), "--node-limit", "1000", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["scc"], out["stage"], out["valid"]) == (200, "4m/3", True)


def test_scc_and_spectrum_json_name_the_stage(tmp_path, capsys):
    # and one node less than a search took aborts it (exit 3), never
    # reporting that no cover exists (exit 2)
    path = tmp_path / "g.g6"
    p = petersen()
    for g, stage in ((p, "4m/3+1"), (flower(5), "4m/3"), (two_cut_join(p, 0, p, 0), "4m/3+2")):
        path.write_text(write_graph6(g) + "\n")
        for command, solve in (("scc", solvers.shortest_cycle_cover),
                               ("spectrum", solvers.edge_weight_spectrum)):
            assert main([command, str(path), "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["stage"] == stage
            nodes = solve(parse_graph6(write_graph6(g))).nodes
            assert main([command, str(path), "--node-limit", str(nodes - 1)]) == 3
            assert capsys.readouterr().err == (
                f"search aborted: node limit exceeded in transitions after {nodes} nodes\n")


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


def test_analyze_streams_past_a_disconnected_graph(capsys, tmp_path):
    # 2xK4 is bridgeless, so it has covers (those of its two K4s) and a report
    k4 = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    p = write_graph6(petersen())
    path = tmp_path / "stream.g6"
    path.write_text(f"{p}\n{write_graph6(disjoint_union(k4, k4))}\n{p}\n")
    assert main(["analyze", str(path), "--json", "--no-timing"]) == 0
    reports = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [(r["index"], r["n"], r["scc"]) for r in reports] == [(0, 10, 21), (1, 8, 16), (2, 10, 21)]


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
    # the store's one walk to its least 2-factor stops at the first
    # Hamiltonian one, so the golden graphs count 25 of their 1,189 2-factors
    counted = []
    original = _sweep._Matchings._count

    def counting(store, pm):
        counted.append(pm)
        return original(store, pm)

    monkeypatch.setattr(_sweep._Matchings, "_count", counting)
    assert main(["analyze", os.path.join(DATA, "analyze_golden.g6"), "--json", "--no-timing"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert len(counted) == 25


def test_analyze_builds_no_holder_masks_and_traces_no_circuit(monkeypatch, capsys):
    # every golden graph is 3-edge-colourable, so no search builds the
    # per-edge holder masks (the transposition of every stored matching),
    # and each cover circuit comes from the decode's own walk
    calls = {"holders": 0, "trace_circuit": 0}
    holders, trace = _sweep._Matchings.__dict__["holders"], covers.trace_circuit

    def reading(store):
        calls["holders"] += store._holders is None
        return holders.__get__(store)

    def tracing(*args):
        calls["trace_circuit"] += 1
        return trace(*args)

    monkeypatch.setattr(_sweep._Matchings, "holders", property(reading))
    for module in (cyclecover, covers, solvers, constructions, pcolour):
        if getattr(module, "trace_circuit", None) is trace:
            monkeypatch.setattr(module, "trace_circuit", tracing)
    assert main(["analyze", os.path.join(DATA, "analyze_golden.g6"), "--json", "--no-timing"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert calls == {"holders": 0, "trace_circuit": 0}


def test_analyze_golden(monkeypatch, capsys):
    # reports on random cubic graphs (n 24 to 32, with and without triangles)
    monkeypatch.chdir(DATA)
    assert main(["analyze", "analyze_golden.g6", "--json", "--no-timing"]) == 0
    with open(os.path.join(DATA, "analyze_golden.jsonl"), encoding="ascii") as fh:
        assert capsys.readouterr().out == fh.read()


def test_analyze_snarks_golden(monkeypatch, capsys):
    # reports on P, J5, J7, the two 18-vertex snarks and a bridged graph,
    # none of them 3-edge-colourable
    monkeypatch.chdir(DATA)
    assert main(["analyze", "analyze_snarks_golden.g6", "--json", "--no-timing"]) == 0
    with open(os.path.join(DATA, "analyze_snarks_golden.jsonl"), encoding="ascii") as fh:
        assert capsys.readouterr().out == fh.read()


def test_analyze_colours_snarks_without_a_search(monkeypatch, capsys, tmp_path):
    # scc's colouring search, capped at 4m nodes, runs once on every graph.
    # The colouring of edge_colouring_3 comes after scc, tau and oddness: on
    # a snark their counted store refutes it, and on a colourable graph it
    # reads the colouring scc kept, so its own uncapped search never runs
    calls = []  # (graph, whether the search was capped)
    original = solvers._label_search

    def counting(g, stars, budget, *args, **kwargs):
        if stars == [{0, 1, 2}]:
            calls.append((g, budget.limit < float("inf")))
        return original(g, stars, budget, *args, **kwargs)

    monkeypatch.setattr(solvers, "_label_search", counting)
    path = tmp_path / "snarks.g6"
    path.write_text("".join(write_graph6(g) + "\n"
                            for g in (petersen(), flower(5), *load_snarks18())))
    assert main(["analyze", str(path), "--json", "--no-timing"]) == 0
    reports = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [r["three_edge_colourable"] for r in reports] == [False] * 4
    assert len(calls) == len({id(g) for g, _ in calls}) == 4
    assert all(capped for _, capped in calls)
    calls.clear()
    assert main(["analyze", os.path.join(DATA, "analyze_golden.g6"), "--json", "--no-timing"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 10
    assert len(calls) == len({id(g) for g, _ in calls}) == 10
    assert all(capped for _, capped in calls)


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


def test_scc_golden(tmp_path, capsys):
    # the shortest covers as the CLI prints them, so that a changed witness
    # shows: settled at 4m/3 + 1 (Petersen, P+K4 and a relabelled Petersen),
    # at 4m/3 (J5), at 4m/3 + 2 (P+P) and at 4m/3 + 3 (P+P+P, 30 vertices)
    p, k4 = petersen(), build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    pp = two_cut_join(p, 0, p, 0)
    graphs = [("petersen", p), ("P+K4", two_cut_join(p, 0, k4, 0)), ("J5", flower(5)),
              ("P+P", pp), ("relabelled(petersen, 1)", relabelled(p, 1)),
              ("P+P+P", two_cut_join(pp, 0, p, 0))]
    lines = []
    for name, g in graphs:
        path = tmp_path / "g.g6"
        path.write_text(write_graph6(g) + "\n")
        code = main(["scc", str(path), "--json"])
        out, err = capsys.readouterr()
        lines.append(json.dumps({"graph": name, "exit": code, "stdout": out, "stderr": err}) + "\n")
    with open(os.path.join(DATA, "scc_golden.jsonl"), encoding="ascii") as fh:
        assert "".join(lines) == fh.read()


# the runs of every graph, each plain or JSON, then the forced circuits of
# ``cdc --contains`` on the graphs named
_COMMANDS = (["tau"], ["tau", "--limit", "4", "--json"], ["oddness"], ["oddness", "--json"],
             ["circ"], ["circ", "--json"], ["cdc"], ["cdc", "--k", "5", "--json"],
             ["cdc", "--k", "5", "--two-factor-class"], ["spectrum"], ["spectrum", "--json"],
             ["construct", "--via", "tau4"], ["construct", "--via", "petersen", "--json"])
_CONTAINS = {"petersen": "0,1,2,3,4", "J5": "5,0,10,11,1,6"}


def _command_lines(tmp_path, capsys):
    """One golden line per run: its argv (the files named), exit code,
    stdout and stderr.  ``pcolour verify`` and ``pullback`` read the
    colouring that ``find`` printed just before, and ``analyze
    --verify-cover`` the ``construct --json`` certificate, as printed and
    with its bound lowered below its length."""
    first, second = load_snarks18()
    graphs = [("K4", parse_graph6("C~")), ("prism", parse_graph6("E{Sw")),
              ("petersen", petersen()), ("J5", flower(5)), ("snarks18[0]", first),
              ("snarks18[1]", second)]
    files = {name: str(tmp_path / name) for name in ("colouring", "certificate", "over_bound")}
    names = {path: name for name, path in files.items()}
    gfile = str(tmp_path / "graph")
    lines = []

    def run(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        shown = [names.get(arg, arg) for arg in argv]
        lines.append(json.dumps({"argv": shown, "exit": code, "stdout": out, "stderr": err}) + "\n")
        return out

    def write(path, text):
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)

    for spec in (["petersen"], ["flower", "5"], ["goldberg", "5"], ["permutation", "0,2,4,1,3"]):
        run("generate", *spec, "--format", "adj")
    for name, g in graphs:
        write(gfile, write_graph6(g) + "\n")
        names[gfile] = name
        for cmd in _COMMANDS:
            run(cmd[0], gfile, *cmd[1:])
        if name in _CONTAINS:
            run("cdc", gfile, "--contains", _CONTAINS[name])
        write(files["colouring"], run("pcolour", "find", gfile))
        for action, flags in (("verify", []), ("verify", ["--json"]), ("pullback", ["--json"])):
            run("pcolour", action, gfile, "--colouring", files["colouring"], *flags)
        cert = json.loads(run("construct", gfile, "--via", "circumference", "--json"))
        write(files["certificate"], json.dumps(cert))
        write(files["over_bound"], json.dumps(dict(cert, claimed_bound=cert["length"] - 1)))
        for which in ("certificate", "over_bound"):
            run("analyze", gfile, "--verify-cover", files[which])
    return lines


def test_command_golden(tmp_path, capsys):
    # the output of every command that succeeds, as the CLI prints it, and
    # the refusal of a certificate over its claimed bound (exit 2)
    with open(os.path.join(DATA, "command_golden.jsonl"), encoding="ascii") as fh:
        assert "".join(_command_lines(tmp_path, capsys)) == fh.read()


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
        "p_then_bad.g6": write_graph6(p) + "\nA_\n",
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
        ("generate permutation word", ["generate", "permutation", "0,,1"]),
        ("generate flower too large", ["generate", "flower", "64512"]),
        ("generate goldberg too large", ["generate", "goldberg", "32256", "--format", "adj"]),
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
        # a bad graph6 line after the first graph: a single-graph command
        # reads only that graph, and analyze reports the graphs before it
        ("scc graph6 bad line", ["scc", path["p_then_bad.g6"]]),
        ("analyze graph6 bad line", ["analyze", path["p_then_bad.g6"]]),
        # exit 1: a negative node limit is a usage error, not an abort
        ("scc negative node limit", ["scc", path["p.g6"], "--node-limit", "-1"]),
        ("pcolour find negative node limit", ["pcolour", "find", path["p.g6"], "--node-limit", "-1"]),
    ]


def test_error_golden(tmp_path, capsys, monkeypatch):
    # every failing outcome above with its exit code and full output; argparse
    # wraps its usage lines to the terminal width, so the width is fixed
    monkeypatch.setenv("COLUMNS", "80")
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
    # 9-circuit takes 18 nodes
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


def test_tau_above_any_limit_on_a_bridged_graph(tmp_path, capsys):
    # an edge beside the bridge lies in no perfect matching, so tau is above
    # the limit with no labelling search, however high the limit
    from test_graphs import _bridged_cubic

    path = tmp_path / "bridged.adj"
    path.write_text(write_adjacency(_bridged_cubic()))
    assert main(["tau", str(path), "--limit", "30", "--node-limit", "100", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["above_limit"] is True and payload["nodes"] == 0


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
