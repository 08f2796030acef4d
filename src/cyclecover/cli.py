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


def _load_graph(path: str, fmt: str | None):
    """The first graph of the input; the lines after it are not read."""
    g = next(_load_graphs(path, fmt), None)
    if g is None:
        raise GraphError("no graph in input")
    return g


def _emit(obj, as_json: bool):
    if as_json:
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
        if report["bridgeless"]:
            scc = run("scc", lambda: solvers.shortest_cycle_cover(
                g, cap=args.cap, node_limit=args.node_limit))
            report["scc"] = scc.length
            tau = run("tau", lambda: solvers.perfect_matching_index(g, node_limit=args.node_limit))
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
        circ = run("circumference", lambda: solvers.circumference(g, node_limit=args.node_limit))
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


def _walk_edges(index, verts):
    """Edge ids along the closed vertex walk, or the first missing pair.

    Each step takes the least id of its pair that the walk has not used yet,
    or the least id once all are used, so a walk round a digon takes both of
    its edges.
    """
    edges, used = [], set()
    for i, u in enumerate(verts):
        v = verts[(i + 1) % len(verts)]
        ids = index.get((u, v))
        if ids is None:
            return None, (u, v)
        e = next((e for e in ids if e not in used), ids[0])
        used.add(e)
        edges.append(e)
    return edges, None


def _ints(value):
    """Whether a certificate field is a nonempty list of integers."""
    return isinstance(value, list) and value and all(type(v) is int for v in value)


def _verify_cover(g, args) -> int:
    """Re-validate a certificate.  Its edge ids, when it lists them, must
    join the steps of their walks; a walk without them takes the edges of
    ``_walk_edges``."""
    cert = json.loads(_read_text(args.verify_cover))
    index = _edge_index(g)
    walks = cert.get("circuits") if isinstance(cert, dict) else None
    if not isinstance(walks, list) or not all(_ints(w) for w in walks):
        print("a certificate lists its circuits as nonempty lists of vertices", file=sys.stderr)
        return 1
    listed = cert.get("circuit_edges", [None] * len(walks))
    if not isinstance(listed, list) or len(listed) != len(walks):
        print("circuit_edges must list the edge ids of every circuit", file=sys.stderr)
        return 1
    circuits = []
    for verts, ids in zip(walks, listed):
        edges, missing = _walk_edges(index, verts)
        if missing:
            print(f"no edge {missing[0]}-{missing[1]} in the graph", file=sys.stderr)
            return 1
        if ids is not None:
            steps = zip(verts, verts[1:] + verts[:1])
            if (not _ints(ids) or len(ids) != len(verts)
                    or any(e not in index[uv] for e, uv in zip(ids, steps))):
                print(f"edge ids {ids} do not follow the walk {verts}", file=sys.stderr)
                return 1
            edges = ids
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
    res = solvers.shortest_cycle_cover(g, cap=args.cap, node_limit=args.node_limit)
    out = {"scc": res.length, "optimal": res.optimal, "cap": res.weight_cap_used,
           "nodes": res.nodes, "stage": res.stage}
    out.update(_cover_payload(g, res.cover))
    _emit(out, args.json)
    return 0


def cmd_tau(args) -> int:
    g = _load_graph(args.graph, args.format)
    res = solvers.perfect_matching_index(g, limit=args.limit, node_limit=args.node_limit)
    out = {"tau": res.tau, "above_limit": res.above_limit,
           "matchings": [sorted(mm) for mm in res.matchings], "nodes": res.nodes}
    _emit(out, args.json)
    return 0


def cmd_oddness(args) -> int:
    g = _load_graph(args.graph, args.format)
    odd, factor = solvers.oddness(g)
    _emit({"oddness": odd, "two_factor": sorted(factor)}, args.json)
    return 0


def cmd_circ(args) -> int:
    g = _load_graph(args.graph, args.format)
    length, circ = solvers.circumference(g, node_limit=args.node_limit)
    _emit({"circumference": length,
           "circuit": list(circ.vertices) if circ else None}, args.json)
    return 0


def cmd_cdc(args) -> int:
    g = _load_graph(args.graph, args.format)
    must = []
    if args.contains is not None:
        try:
            verts = [int(x) for x in args.contains.split(",")]
        except ValueError:
            print(f"--contains is not a circuit: {args.contains!r} is not a comma-separated "
                  "list of vertex numbers", file=sys.stderr)
            return 1
        edges, missing = _walk_edges(_edge_index(g), verts)
        if missing:
            print(f"--contains names a missing edge {missing[0]}-{missing[1]}", file=sys.stderr)
            return 1
        if len(set(verts)) != len(verts) or len(set(edges)) != len(edges):
            print("--contains is not a circuit: it repeats a vertex or an edge", file=sys.stderr)
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
           "forced_weight_one_edges": forced, "stage": res.stage}
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


# each indexed family with its vertices per unit of K
_INDEXED_FAMILIES = {"flower": (families.flower, 4), "goldberg": (families.goldberg, 8)}


def cmd_generate(args) -> int:
    spec = args.spec
    if spec[0] == "petersen":
        if len(spec) != 1:
            print("usage: generate petersen", file=sys.stderr)
            return 1
        g = families.petersen()
    elif spec[0] in _INDEXED_FAMILIES:
        try:
            k = int(spec[1]) if len(spec) == 2 else None
        except ValueError:
            k = None
        if k is None:
            print(f"usage: generate {spec[0]} K, with K an integer", file=sys.stderr)
            return 1
        build, per_k = _INDEXED_FAMILIES[spec[0]]
        families._check_order(per_k * k)
        g = build(k)
    elif spec[0] == "permutation":
        try:
            perm = tuple(int(x) for x in spec[1].split(",")) if len(spec) == 2 else None
        except ValueError:
            perm = None
        if perm is None:
            print("usage: generate permutation 0,2,4,1,3 (comma-separated integers)",
                  file=sys.stderr)
            return 1
        families._check_order(2 * len(perm))
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
    # find reads --node-limit, verify and pullback read --colouring
    find = args.action == "find"
    unread, value = ("--colouring", args.colouring) if find else ("--node-limit", args.node_limit)
    if value is not None:
        print(f"pcolour {args.action} does not take {unread}", file=sys.stderr)
        return 1
    if not find and not args.colouring:
        print("--colouring FILE is required", file=sys.stderr)
        return 1
    g = _load_graph(args.graph, args.format)
    if find:
        colouring = pcol.find_petersen_colouring(g, node_limit=args.node_limit)
        if colouring is None:
            print("no Petersen colouring exists", file=sys.stderr)
            return 2
        sys.stdout.write(pcol.format_colouring(g, colouring))
        return 0
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

    def common(p, *flags):
        p.add_argument("graph", help="input file or - for stdin")
        p.add_argument("--format", choices=("g6", "adj"), default=None)
        for flag in flags:
            p.add_argument(flag, **optional[flag])
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("analyze", help="full structural report")
    common(p, "--cap", "--node-limit", "--no-timing")
    p.add_argument("--verify-cover", metavar="CERT",
                   help="re-validate a construct certificate (JSON) instead")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("scc", help="shortest cycle cover")
    common(p, "--cap", "--node-limit")
    p.set_defaults(fn=cmd_scc)

    p = sub.add_parser("tau", help="perfect matching index")
    common(p, "--node-limit")
    p.add_argument("--limit", type=int, default=5)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("oddness", help="minimum odd components over 2-factors")
    common(p)
    p.set_defaults(fn=cmd_oddness)

    p = sub.add_parser("circ", help="circumference")
    common(p, "--node-limit")
    p.set_defaults(fn=cmd_circ)

    p = sub.add_parser("cdc", help="cycle double cover search")
    common(p, "--node-limit")
    p.add_argument("--contains", help="comma-separated vertex circuit to force")
    p.add_argument("--k", type=int, default=None, help="number of colour classes")
    p.add_argument("--two-factor-class", action="store_true")
    p.set_defaults(fn=cmd_cdc)

    p = sub.add_parser("spectrum", help="edge weights over all optimal covers")
    common(p, "--cap", "--node-limit")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("construct", help="build a short cover from a theorem")
    common(p, "--node-limit")
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
    common(p, "--node-limit")
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
