import io
import json
import os
import subprocess
import sys

import pytest

import cyclecover
from conftest import DATA
from cyclecover import build_graph, cover_via_oddness2, flower, petersen, solvers
from cyclecover.cli import main
from cyclecover.errors import LinksNotDisjoint
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


def test_generate_formats_and_seed_order_stability():
    code, adj, _ = run_cli(["generate", "flower", "5", "--format", "adj"])
    assert code == 0
    assert all(len(line.split()) == 2 for line in adj.strip().splitlines())
    _, g6, _ = run_cli(["generate", "flower", "5"])
    _, a, _ = run_cli(["scc", "-", "--json"], stdin_text=g6)
    _, b, _ = run_cli(["scc", "-", "--json", "--seed-order", "99"], stdin_text=g6)
    assert a == b


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


def test_analyze_golden(monkeypatch, capsys):
    # reports on random cubic graphs (n 24 to 32, with and without triangles)
    monkeypatch.chdir(DATA)
    assert main(["analyze", "analyze_golden.g6", "--json", "--no-timing"]) == 0
    with open(os.path.join(DATA, "analyze_golden.jsonl"), encoding="ascii") as fh:
        assert capsys.readouterr().out == fh.read()


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

    with pytest.raises(LinksNotDisjoint):
        cover_via_oddness2(petersen(), links=[5, 5, 6])


def test_construct_circumference_abort_exit_code(tmp_path, capsys):
    # the CDC search through a 9-circuit of Petersen needs more than one node
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n")
    assert main(["construct", "--via", "circumference", str(path), "--node-limit", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "search failed: CDC search aborted" in captured.err


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
