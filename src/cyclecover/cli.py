"""Command-line front end: ingest graphs, run solvers, emit reports.

Exit codes: 0 success, 1 parse/usage errors, 2 hypothesis violations
(including proven infeasibility of a required search), 3 search aborts.
JSON output is schema-stable and byte-deterministic for fixed inputs and
flags; wall-clock timing fields are suppressed with ``--no-timing``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import constructions, families, pcolour as pcol, solvers
from .covers import CycleCover, circuit_from_walk, validate
from .errors import GraphError, HypothesisViolated, NodeLimitExceeded, StrongCdcNotFound
from .graphs import CubicGraph, cyclic_connectivity_at_least, girth, is_bridgeless

SCHEMA = "cyclecover/report-v1"


class _Refused(Exception):
    """A command's refusal of its input: ``main`` prints the message and
    returns the exit code (1, or 2 for a proven negative)."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_graphs(path: str, fmt: str | None):
    """Cubic graphs from a file or stdin; graph6 streams carry one graph per
    line, each parsed only when the caller asks for it, so a bad line fails
    after the graphs before it."""
    text = _read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if fmt is None:
        fmt = "adj" if lines and len(lines[0].split()) == 2 else "g6"
    if fmt == "g6":
        yield from map(families.parse_graph6, lines)
        return
    g = families.parse_adjacency(text)
    if not isinstance(g, CubicGraph):
        v = next(v for v in range(g.n) if g.degree(v) != 3)
        raise GraphError(f"vertex {v} has degree {g.degree(v)}, not 3")
    yield g


def _emit(obj, as_json: bool):
    if isinstance(obj, str):  # a file's text, as it is written
        sys.stdout.write(obj)
    elif as_json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for key in sorted(obj):
            print(f"{key}: {obj[key]}")


def _cover_payload(g, cover: CycleCover):
    """A cover certificate: each circuit as its vertex walk, and as its edge
    ids in walk order, which tell parallel edges apart."""
    report = validate(cover, g)
    return {
        "length": cover.length,
        "circuits": [list(c.vertices) for c in cover.circuits],
        "circuit_edges": [list(c.edges) for c in cover.circuits],
        "valid": report.ok,
        "is_cdc": report.is_cdc,
        "is_one_two_cover": report.is_one_two_cover,
        "weight_histogram": {str(k): v for k, v in sorted(report.weight_histogram.items())},
    }


def _run(args) -> int:
    """A graph command: ``args.report`` of the first graph of the input (the
    lines after it are not read) and ``args``, printed by ``_emit``.  The
    report comes alone (exit 0) or with its exit code."""
    g = next(_load_graphs(args.graph, args.format), None)
    if g is None:
        raise GraphError("no graph in input")
    out = args.report(g, args)
    report, code = out if isinstance(out, tuple) else (out, 0)
    _emit(report, args.json)
    return code


def cmd_analyze(args) -> int:
    if args.verify_cover:
        return _run(args)
    for idx, g in enumerate(_load_graphs(args.graph, args.format)):
        report = {"schema": SCHEMA, "source": args.graph, "index": idx,
                  "n": g.n, "m": g.m, "girth": girth(g)}
        timings = {}

        def run(name, fn):
            t0 = time.perf_counter()
            out = fn()
            timings[name] = round(1000 * (time.perf_counter() - t0), 3)
            return out

        report["bridgeless"] = run("bridgeless", lambda: is_bridgeless(g))
        report["cyclically_4_edge_connected"] = run(
            "cyclic_connectivity", lambda: cyclic_connectivity_at_least(g, 4))
        budget = solvers._Budget(args.node_limit)  # one for every search of this graph
        if report["bridgeless"]:
            scc = run("scc", lambda: solvers.shortest_cycle_cover(
                g, cap=args.cap, node_limit=budget))
            report["scc"] = scc.length
            tau = run("tau", lambda: solvers.perfect_matching_index(g, node_limit=budget))
            report["tau"] = tau.tau
            odd = run("oddness", lambda: solvers.oddness(g))
            report["oddness"] = odd[0]
        else:
            report["scc"] = None
            report["tau"] = None
            report["oddness"] = None
        # after oddness, so that a snark's least 2-factor settles it
        colouring = run("edge_colouring_3", lambda: solvers.edge_colouring_3(g))
        report["three_edge_colourable"] = colouring is not None
        circ = run("circumference", lambda: solvers.circumference(g, node_limit=budget))
        report["circumference"] = circ[0]
        ok = True
        if report["three_edge_colourable"] and report["bridgeless"]:
            ok = report["tau"] == 3 and report["scc"] == 4 * g.m // 3
        report["consistent"] = ok
        if not args.no_timing:
            report["timings_ms"] = timings
        if args.json:
            print(json.dumps(report, sort_keys=True, separators=(",", ":")))
        else:
            print(f"graph {idx}: n={g.n} m={g.m} girth={report['girth']}")
            for key in ("bridgeless", "cyclically_4_edge_connected", "three_edge_colourable",
                        "scc", "tau", "oddness", "circumference", "consistent"):
                print(f"  {key}: {report[key]}")
    return 0


def _edge_index(g):
    """Ascending edge ids per vertex pair (either order)."""
    index = {}
    for e, (u, v) in enumerate(g.edges):
        index.setdefault((u, v), []).append(e)
        index.setdefault((v, u), []).append(e)
    return index


def _walk_edges(index, verts, missing: str):
    """Edge ids along the closed vertex walk; the first pair with no edge is
    refused with ``missing``, formatted with its two ends.

    Each step takes the least id of its pair that the walk has not used yet,
    or the least id once all are used, so a walk round a digon takes both of
    its edges.
    """
    edges, used = [], set()
    for i, u in enumerate(verts):
        v = verts[(i + 1) % len(verts)]
        ids = index.get((u, v))
        if ids is None:
            raise _Refused(missing.format(u, v))
        e = next((e for e in ids if e not in used), ids[0])
        used.add(e)
        edges.append(e)
    return edges


def _ints(value):
    """Whether a certificate field is a nonempty list of integers."""
    return isinstance(value, list) and value and all(type(v) is int for v in value)


def _verify_cover(g, args):
    """Re-validate a certificate.  Its edge ids, when it lists them, must
    join the steps of their walks; a walk without them takes the edges of
    ``_walk_edges``."""
    cert = json.loads(_read_text(args.verify_cover))
    index = _edge_index(g)
    walks = cert.get("circuits") if isinstance(cert, dict) else None
    if not isinstance(walks, list) or not all(_ints(w) for w in walks):
        raise _Refused("a certificate lists its circuits as nonempty lists of vertices")
    listed = cert.get("circuit_edges", [None] * len(walks))
    if not isinstance(listed, list) or len(listed) != len(walks):
        raise _Refused("circuit_edges must list the edge ids of every circuit")
    circuits = []
    for verts, ids in zip(walks, listed):
        edges = _walk_edges(index, verts, "no edge {}-{} in the graph")
        if ids is not None:
            steps = zip(verts, verts[1:] + verts[:1])
            if (not _ints(ids) or len(ids) != len(verts)
                    or any(e not in index[uv] for e, uv in zip(ids, steps))):
                raise _Refused(f"edge ids {ids} do not follow the walk {verts}")
            edges = ids
        circuits.append(circuit_from_walk(edges, verts))
    cover = CycleCover.of(circuits)
    payload = _cover_payload(g, cover)
    payload["matches_claimed_length"] = cover.length == cert.get("length")
    bound = cert.get("claimed_bound")
    payload["within_claimed_bound"] = bound is None or cover.length <= bound
    return payload, 0 if payload["valid"] and payload["within_claimed_bound"] else 2


def cmd_scc(g, args):
    res = solvers.shortest_cycle_cover(g, cap=args.cap, node_limit=args.node_limit)
    return {"scc": res.length, "optimal": res.optimal, "cap": res.weight_cap_used,
            "nodes": res.nodes, "stage": res.stage, **_cover_payload(g, res.cover)}


def cmd_tau(g, args):
    res = solvers.perfect_matching_index(g, limit=args.limit, node_limit=args.node_limit)
    return {"tau": res.tau, "above_limit": res.above_limit,
            "matchings": [sorted(mm) for mm in res.matchings], "nodes": res.nodes}


def cmd_oddness(g, args):
    odd, factor = solvers.oddness(g)
    return {"oddness": odd, "two_factor": sorted(factor)}


def cmd_circ(g, args):
    length, circ = solvers.circumference(g, node_limit=args.node_limit)
    return {"circumference": length, "circuit": list(circ.vertices) if circ else None}


def _forced_circuit(g, text):
    """The circuit that ``cdc --contains`` names as a closed vertex walk; one
    vertex, or a repeated one, is refused before any edge is looked up."""
    try:
        verts = [int(x) for x in text.split(",")]
    except ValueError:
        raise _Refused(f"--contains is not a circuit: {text!r} is not a comma-separated "
                       "list of vertex numbers") from None
    if len(verts) < 2:
        raise _Refused("--contains is not a circuit: it names one vertex")
    repeats = "--contains is not a circuit: it repeats a vertex or an edge"
    if len(set(verts)) != len(verts):
        raise _Refused(repeats)
    edges = _walk_edges(_edge_index(g), verts, "--contains names a missing edge {}-{}")
    if len(set(edges)) != len(edges):  # a digon's walk round one edge
        raise _Refused(repeats)
    return circuit_from_walk(edges, verts)


def cmd_cdc(g, args):
    must = [] if args.contains is None else [_forced_circuit(g, args.contains)]
    res = solvers.find_cdc(g, must_contain=must, k=args.k,
                           two_factor_class=args.two_factor_class,
                           node_limit=args.node_limit)
    if res is None:
        return {"found": False, "proven_infeasible": True}, 2
    if args.k is None:
        return {"found": True, **_cover_payload(g, res)}
    return {"found": True, "k": res.k, "classes": [sorted(cls) for cls in res.classes]}


def cmd_spectrum(g, args):
    res = solvers.edge_weight_spectrum(g, cap=args.cap, node_limit=args.node_limit)
    return {"optimal_length": res.optimal_length, "n_optimal_covers": res.n_optimal_covers,
            "per_edge": [sorted(s) for s in res.per_edge], "stage": res.stage,
            "forced_weight_one_edges": [e for e in range(g.m) if res.per_edge[e] == {1}]}


def _petersen_colouring(g, args):
    """A Petersen colouring of g, or the refusal (exit 2) when none exists."""
    colouring = pcol.find_petersen_colouring(g, node_limit=args.node_limit)
    if colouring is None:
        raise _Refused("no Petersen colouring exists", 2)
    return colouring


# ``construct --via``: each construction, in the order of the parser's choices
_CONSTRUCTIONS = {
    "circumference": lambda g, args: constructions.cover_via_circumference(
        g, node_limit=args.node_limit),
    "oddness2": lambda g, args: constructions.cover_via_oddness2(
        g, node_limit=args.node_limit, force_base=args.force_base),
    "tau4": lambda g, args: constructions.scc_cover_from_tau4(g, node_limit=args.node_limit),
    "petersen": lambda g, args: pcol.best_pullback_cover(g, _petersen_colouring(g, args)),
}


def cmd_construct(g, args):
    res = _CONSTRUCTIONS[args.via](g, args)
    return {"via": args.via, "length": res.length, "claimed_bound": res.claimed_bound,
            "theorem": res.theorem, **_cover_payload(g, res.cover)}


# each indexed family with its vertices per unit of K
_INDEXED_FAMILIES = {"flower": (families.flower, 4), "goldberg": (families.goldberg, 8)}
# each family's usage line, for words after its name that name no member
_USAGE = {"petersen": "petersen", "flower": "flower K, with K an integer",
          "goldberg": "goldberg K, with K an integer",
          "permutation": "permutation 0,2,4,1,3 (comma-separated integers)"}


def cmd_generate(args) -> int:
    family, *words = args.spec
    try:  # the integers of one comma-separated word
        ints = tuple(int(x) for x in words[0].split(",")) if len(words) == 1 else None
    except ValueError:
        ints = None
    if family == "petersen" and not words:
        g = families.petersen()
    elif family in _INDEXED_FAMILIES and ints and len(ints) == 1:
        build, per_k = _INDEXED_FAMILIES[family]
        families._check_order(per_k * ints[0])
        g = build(ints[0])
    elif family == "permutation" and ints:
        families._check_order(2 * len(ints))
        g = families.permutation_snark(ints)
    else:
        raise _Refused(f"usage: generate {_USAGE[family]}" if family in _USAGE
                       else f"unknown family {family!r}")
    adj = args.format == "adj"
    _emit(families.write_adjacency(g) if adj else families.write_graph6(g) + "\n", False)
    return 0


def _pcolour_flags(args) -> int:
    """``pcolour``, whose flags are checked before the graph is read: find
    reads --node-limit, verify and pullback read --colouring."""
    find = args.action == "find"
    unread, value = ("--colouring", args.colouring) if find else ("--node-limit", args.node_limit)
    if value is not None:
        raise _Refused(f"pcolour {args.action} does not take {unread}")
    if not find and not args.colouring:
        raise _Refused("--colouring FILE is required")
    return _run(args)


def cmd_pcolour(g, args):
    if args.action == "find":
        return pcol.format_colouring(g, _petersen_colouring(g, args))
    colouring = pcol.parse_colouring(g, _read_text(args.colouring))
    if args.action == "verify":
        ok, bad = pcol.verify_petersen_colouring(g, colouring)
        out = {"valid": ok, "balanced": pcol.is_balanced(colouring, g.m),
               "fiber_sizes": list(colouring.fiber_sizes())}
        if not ok:
            out["violating_vertex"] = bad
        return out, 0 if ok else 2
    res = pcol.best_pullback_cover(g, colouring)
    return {"length": res.length, "claimed_bound": res.claimed_bound,
            "balanced": res.certificate["balanced"], **_cover_payload(g, res.cover)}


def _node_count(text: str) -> int:
    """The ``--node-limit`` type: a whole number of nodes, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"not a node count (0 or more): {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cyclecover",
                                  description="exact cycle-cover toolkit for cubic graphs")
    sub = top.add_subparsers(dest="command", required=True)

    # the flags that only some commands read
    optional = {"--cap": {"type": int, "default": 2},
                "--node-limit": {"type": _node_count, "default": None},
                "--no-timing": {"action": "store_true"}}

    def common(p, report, *flags):
        """A graph command, which ``_run`` runs on ``report``."""
        p.add_argument("graph", help="input file or - for stdin")
        p.add_argument("--format", choices=("g6", "adj"), default=None)
        for flag in flags:
            p.add_argument(flag, **optional[flag])
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=_run, report=report)

    p = sub.add_parser("analyze", help="full structural report")
    common(p, _verify_cover, "--cap", "--node-limit", "--no-timing")
    p.add_argument("--verify-cover", metavar="CERT",
                   help="re-validate a construct certificate (JSON) instead")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("scc", help="shortest cycle cover")
    common(p, cmd_scc, "--cap", "--node-limit")

    p = sub.add_parser("tau", help="perfect matching index")
    common(p, cmd_tau, "--node-limit")
    p.add_argument("--limit", type=int, default=5)

    p = sub.add_parser("oddness", help="minimum odd components over 2-factors")
    common(p, cmd_oddness)

    p = sub.add_parser("circ", help="circumference")
    common(p, cmd_circ, "--node-limit")

    p = sub.add_parser("cdc", help="cycle double cover search")
    common(p, cmd_cdc, "--node-limit")
    p.add_argument("--contains", help="comma-separated vertex circuit to force")
    p.add_argument("--k", type=int, default=None, help="number of colour classes")
    p.add_argument("--two-factor-class", action="store_true")

    p = sub.add_parser("spectrum", help="edge weights over all optimal covers")
    common(p, cmd_spectrum, "--cap", "--node-limit")

    p = sub.add_parser("construct", help="build a short cover from a theorem")
    common(p, cmd_construct, "--node-limit")
    p.add_argument("--via", required=True, choices=tuple(_CONSTRUCTIONS))
    p.add_argument("--force-base", action="store_true",
                   help="skip the oddness-2 consecutive-vertices refinement")

    p = sub.add_parser("generate", help="emit a named family member")
    p.add_argument("spec", nargs="+",
                   help="petersen | flower K | goldberg K | permutation 0,2,4,1,3")
    p.add_argument("--format", choices=("g6", "adj"), default="g6")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("pcolour", help="Petersen colouring front end")
    p.add_argument("action", choices=("find", "verify", "pullback"))
    common(p, cmd_pcolour, "--node-limit")
    p.add_argument("--colouring", help="colouring file (for verify/pullback)")
    p.set_defaults(fn=_pcolour_flags)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a hypothesis violation
        return 1 if exc.code == 2 else exc.code
    try:
        return args.fn(args)
    except _Refused as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except HypothesisViolated as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except StrongCdcNotFound as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 2
    except NodeLimitExceeded as exc:
        print(f"search aborted: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        # the recursive searches go about n deep, and a listing (a snark's
        # perfect matchings) may not fit in memory; running out of either is
        # an abort, never a proof that no answer exists
        why = "out of memory" if isinstance(exc, MemoryError) else "recursion limit exceeded"
        print(f"search aborted: {why}", file=sys.stderr)
        return 3
    except (GraphError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
