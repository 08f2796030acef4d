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
from .errors import (
    Bridged,
    GraphError,
    HypothesisViolated,
    LinksNotDisjoint,
    NodeLimitExceeded,
    NoThreePaths,
    NoTwoFactor,
    NotCubic,
    NotTwoConnectedReduced,
    PreimageNotEven,
    StrongCdcNotFound,
    TauTooLarge,
)
from .graphs import CubicGraph, cyclic_connectivity_at_least, girth, is_bridgeless

SCHEMA = "cyclecover/report-v1"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_graphs(path: str, fmt: str | None):
    """Cubic graphs from a file or stdin; graph6 streams carry one graph per line."""
    text = _read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    if fmt is None:
        fmt = "adj" if lines and len(lines[0].split()) == 2 else "g6"
    if fmt == "g6":
        return [families.parse_graph6(ln) for ln in lines]
    g = families.parse_adjacency(text)
    if not isinstance(g, CubicGraph):
        v = next(v for v in range(g.n) if g.degree(v) != 3)
        raise NotCubic(f"vertex {v} has degree {g.degree(v)}, not 3")
    return [g]


def _load_graph(path: str, fmt: str | None):
    """The first graph of the input."""
    graphs = _load_graphs(path, fmt)
    if not graphs:
        raise GraphError("no graph in input")
    return graphs[0]


def _emit(obj, as_json: bool):
    if as_json:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        for key in sorted(obj):
            print(f"{key}: {obj[key]}")


def _circuits_out(cover: CycleCover):
    return [list(c.vertices) for c in cover.circuits]


def _cover_payload(g, cover: CycleCover):
    report = validate(cover, g)
    return {
        "length": cover.length,
        "circuits": _circuits_out(cover),
        "valid": report.ok,
        "is_cdc": report.is_cdc,
        "is_one_two_cover": report.is_one_two_cover,
        "weight_histogram": {str(k): v for k, v in sorted(report.weight_histogram.items())},
    }


def cmd_analyze(args) -> int:
    if args.verify_cover:
        return _verify_cover(_load_graph(args.graph, args.format), args)
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
        colouring = run("edge_colouring_3", lambda: solvers.edge_colouring_3(g))
        report["three_edge_colourable"] = colouring is not None
        if report["bridgeless"]:
            scc = run("scc", lambda: solvers.shortest_cycle_cover(
                g, cap=args.cap, node_limit=args.node_limit, seed_order=args.seed_order))
            report["scc"] = scc.length
            tau = run("tau", lambda: solvers.perfect_matching_index(g))
            report["tau"] = tau.tau
            odd = run("oddness", lambda: solvers.oddness(g))
            report["oddness"] = odd[0]
        else:
            report["scc"] = None
            report["tau"] = None
            report["oddness"] = None
        circ = run("circumference", lambda: solvers.circumference(g))
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
    """Edge id per vertex pair (either order); the lowest id of a parallel class."""
    index = {}
    for e, (u, v) in enumerate(g.edges):
        index.setdefault((u, v), e)
        index.setdefault((v, u), e)
    return index


def _walk_edges(index, verts):
    """Edge ids along the closed vertex walk, or the first missing pair."""
    edges = []
    for i, u in enumerate(verts):
        v = verts[(i + 1) % len(verts)]
        e = index.get((u, v))
        if e is None:
            return None, (u, v)
        edges.append(e)
    return edges, None


def _verify_cover(g, args) -> int:
    cert = json.loads(_read_text(args.verify_cover))
    index = _edge_index(g)
    circuits = []
    for verts in cert["circuits"]:
        edges, missing = _walk_edges(index, verts)
        if missing:
            print(f"no edge {missing[0]}-{missing[1]} in the graph", file=sys.stderr)
            return 1
        circuits.append(circuit_from_walk(edges, verts))
    cover = CycleCover.of(circuits)
    report = validate(cover, g)
    payload = _cover_payload(g, cover)
    payload["matches_claimed_length"] = cover.length == cert.get("length")
    bound = cert.get("claimed_bound")
    payload["within_claimed_bound"] = bound is None or cover.length <= bound
    _emit(payload, args.json)
    return 0 if report.ok and payload["within_claimed_bound"] else 2


def cmd_scc(args) -> int:
    g = _load_graph(args.graph, args.format)
    res = solvers.shortest_cycle_cover(g, cap=args.cap, node_limit=args.node_limit,
                                       seed_order=args.seed_order)
    out = {"scc": res.length, "optimal": res.optimal, "cap": res.weight_cap_used,
           "nodes": res.nodes}
    out.update(_cover_payload(g, res.cover))
    _emit(out, args.json)
    return 0


def cmd_tau(args) -> int:
    g = _load_graph(args.graph, args.format)
    res = solvers.perfect_matching_index(g, limit=args.limit)
    out = {"tau": res.tau, "above_limit": res.above_limit,
           "matchings": [sorted(mm) for mm in res.matchings]}
    _emit(out, args.json)
    return 0


def cmd_oddness(args) -> int:
    g = _load_graph(args.graph, args.format)
    odd, factor = solvers.oddness(g)
    _emit({"oddness": odd, "two_factor": sorted(factor)}, args.json)
    return 0


def cmd_circ(args) -> int:
    g = _load_graph(args.graph, args.format)
    length, circ = solvers.circumference(g)
    _emit({"circumference": length,
           "circuit": list(circ.vertices) if circ else None}, args.json)
    return 0


def cmd_cdc(args) -> int:
    g = _load_graph(args.graph, args.format)
    must = []
    if args.contains:
        verts = [int(x) for x in args.contains.split(",")]
        edges, missing = _walk_edges(_edge_index(g), verts)
        if missing:
            print(f"--contains names a missing edge {missing[0]}-{missing[1]}", file=sys.stderr)
            return 1
        must.append(circuit_from_walk(edges, verts))
    res = solvers.find_cdc(g, must_contain=must, k=args.k,
                           two_factor_class=args.two_factor_class,
                           node_limit=args.node_limit)
    if res is None:
        _emit({"found": False, "proven_infeasible": True}, args.json)
        return 2
    if args.k is None:
        out = {"found": True}
        out.update(_cover_payload(g, res))
    else:
        out = {"found": True, "k": res.k,
               "classes": [sorted(cls) for cls in res.classes]}
    _emit(out, args.json)
    return 0


def cmd_spectrum(args) -> int:
    g = _load_graph(args.graph, args.format)
    res = solvers.edge_weight_spectrum(g, cap=args.cap, node_limit=args.node_limit)
    forced = [e for e in range(g.m) if res.per_edge[e] == frozenset({1})]
    out = {"optimal_length": res.optimal_length,
           "n_optimal_covers": res.n_optimal_covers,
           "per_edge": [sorted(s) for s in res.per_edge],
           "forced_weight_one_edges": forced}
    _emit(out, args.json)
    return 0


def cmd_construct(args) -> int:
    g = _load_graph(args.graph, args.format)
    if args.via == "tau4":
        res = constructions.scc_cover_from_tau4(g, node_limit=args.node_limit)
    elif args.via == "circumference":
        res = constructions.cover_via_circumference(g, node_limit=args.node_limit)
    elif args.via == "oddness2":
        res = constructions.cover_via_oddness2(g, node_limit=args.node_limit,
                                               force_base=args.force_base)
    else:  # petersen
        colouring = pcol.find_petersen_colouring(g, node_limit=args.node_limit)
        if colouring is None:
            print("no Petersen colouring exists", file=sys.stderr)
            return 2
        res = pcol.best_pullback_cover(g, colouring)
    out = {"via": args.via, "length": res.length, "claimed_bound": res.claimed_bound,
           "theorem": res.theorem}
    out.update(_cover_payload(g, res.cover))
    _emit(out, args.json)
    return 0


def cmd_generate(args) -> int:
    spec = args.spec
    if spec[0] == "petersen":
        g = families.petersen()
    elif spec[0] in ("flower", "goldberg"):
        if len(spec) != 2:
            print(f"usage: generate {spec[0]} K", file=sys.stderr)
            return 1
        g = families.generate(families.FamilySpec(spec[0], parameter=int(spec[1])))
    elif spec[0] == "permutation":
        if len(spec) != 2:
            print("usage: generate permutation 0,2,4,1,3", file=sys.stderr)
            return 1
        perm = tuple(int(x) for x in spec[1].split(","))
        g = families.permutation_snark(perm)
    else:
        print(f"unknown family {spec[0]!r}", file=sys.stderr)
        return 1
    if args.format == "adj":
        sys.stdout.write(families.write_adjacency(g))
    else:
        print(families.write_graph6(g))
    return 0


def cmd_pcolour(args) -> int:
    g = _load_graph(args.graph, args.format)
    if args.action == "find":
        colouring = pcol.find_petersen_colouring(g, node_limit=args.node_limit)
        if colouring is None:
            print("no Petersen colouring exists", file=sys.stderr)
            return 2
        sys.stdout.write(pcol.format_colouring(g, colouring))
        return 0
    if not args.colouring:
        print("--colouring FILE is required", file=sys.stderr)
        return 1
    colouring = pcol.parse_colouring(g, _read_text(args.colouring))
    if args.action == "verify":
        ok, bad = pcol.verify_petersen_colouring(g, colouring)
        out = {"valid": ok, "balanced": pcol.is_balanced(colouring, g.m),
               "fiber_sizes": list(colouring.fiber_sizes())}
        if not ok:
            out["violating_vertex"] = bad
        _emit(out, args.json)
        return 0 if ok else 2
    # pullback
    res = pcol.best_pullback_cover(g, colouring)
    out = {"length": res.length, "claimed_bound": res.claimed_bound,
           "balanced": res.certificate["balanced"]}
    out.update(_cover_payload(g, res.cover))
    _emit(out, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cyclecover",
                                  description="exact cycle-cover toolkit for cubic graphs")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, graph=True):
        if graph:
            p.add_argument("graph", help="input file or - for stdin")
        p.add_argument("--format", choices=("g6", "adj"), default=None)
        p.add_argument("--cap", type=int, default=2)
        p.add_argument("--node-limit", type=int, default=None)
        p.add_argument("--seed-order", type=int, default=None,
                       help="shuffle exploration order (results unchanged)")
        p.add_argument("--json", action="store_true")
        p.add_argument("--no-timing", action="store_true")

    p = sub.add_parser("analyze", help="full structural report")
    common(p)
    p.add_argument("--verify-cover", metavar="CERT",
                   help="re-validate a construct certificate (JSON) instead")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("scc", help="shortest cycle cover")
    common(p)
    p.set_defaults(fn=cmd_scc)

    p = sub.add_parser("tau", help="perfect matching index")
    common(p)
    p.add_argument("--limit", type=int, default=5)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("oddness", help="minimum odd components over 2-factors")
    common(p)
    p.set_defaults(fn=cmd_oddness)

    p = sub.add_parser("circ", help="circumference")
    common(p)
    p.set_defaults(fn=cmd_circ)

    p = sub.add_parser("cdc", help="cycle double cover search")
    common(p)
    p.add_argument("--contains", help="comma-separated vertex circuit to force")
    p.add_argument("--k", type=int, default=None, help="number of colour classes")
    p.add_argument("--two-factor-class", action="store_true")
    p.set_defaults(fn=cmd_cdc)

    p = sub.add_parser("spectrum", help="edge weights over all optimal covers")
    common(p)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("construct", help="build a short cover from a theorem")
    common(p)
    p.add_argument("--via", required=True,
                   choices=("circumference", "oddness2", "tau4", "petersen"))
    p.add_argument("--force-base", action="store_true",
                   help="skip the oddness-2 consecutive-vertices refinement")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("generate", help="emit a named family member")
    p.add_argument("spec", nargs="+",
                   help="petersen | flower K | goldberg K | permutation 0,2,4,1,3")
    p.add_argument("--format", choices=("g6", "adj"), default="g6")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("pcolour", help="Petersen colouring front end")
    p.add_argument("action", choices=("find", "verify", "pullback"))
    common(p)
    p.add_argument("--colouring", help="colouring file (for verify/pullback)")
    p.set_defaults(fn=cmd_pcolour)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a hypothesis violation
        return 1 if exc.code == 2 else exc.code
    try:
        return args.fn(args)
    except (Bridged, HypothesisViolated, TauTooLarge, NotTwoConnectedReduced,
            NoThreePaths, NoTwoFactor, LinksNotDisjoint, PreimageNotEven) as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except StrongCdcNotFound as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 3 if exc.aborted else 2
    except NodeLimitExceeded as exc:
        print(f"search aborted: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # the recursive searches go about n deep; running out of stack is an
        # abort, never a proof that no answer exists
        print("search aborted: recursion limit exceeded", file=sys.stderr)
        return 3
    except (GraphError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
