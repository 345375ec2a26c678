"""Command line front end.

Exit codes: 0 success (YES for decisions), 1 NO, 2 invalid input
(malformed files, invalid trees, bad rotation edges), 3 disconnected
graph, 4 size cap exceeded, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
import traceback

from . import elimtree, flip, fpt, graphs
from .errors import (
    DisconnectedGraph,
    InstanceTooLarge,
    InvalidOrdering,
    InvalidParameter,
    InvalidTree,
    InvalidVertex,
    NotATreeEdge,
    SelfLoop,
)

_INVALID_INPUT = (InvalidTree, NotATreeEdge, InvalidOrdering, InvalidVertex,
                  SelfLoop, InvalidParameter, OSError)


def _load_connected_graph(path: str) -> graphs.Graph:
    g = graphs.load_graph(path)
    if not graphs.is_connected(g):
        raise DisconnectedGraph(f"graph in {path} is not connected")
    return g


def _check_tree(g: graphs.Graph, path: str, t: elimtree.ElimTree) -> None:
    """Raise InvalidTree, listing why, when t is no elimination tree of g."""
    problems = elimtree.validity_violations(g, t)
    if problems:
        lines = [f"{path} is not an elimination tree"] + [f"  {p}" for p in problems]
        raise InvalidTree("\n".join(lines))


def _parse_edge(token: str) -> tuple[int, int]:
    try:
        left, right = token.split("->")
        return int(left), int(right)
    except ValueError as exc:
        raise InvalidParameter(f"bad edge {token!r}, expected U->V") from exc


def _format_witness(seq) -> str:
    return " ".join(f"{u}->{v}" for u, v in seq)


def _load_witness(path: str) -> list[tuple[int, int]]:
    d = graphs.read_json(path)
    edges = d.get("edges") if isinstance(d, dict) else None
    if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 and all(type(x) is int for x in e)
            for e in edges):
        raise InvalidParameter(f"malformed witness file {path}: "
                               "needs 'edges', a list of integer pairs")
    return [(u, v) for u, v in edges]


def cmd_validate(args) -> int:
    g = _load_connected_graph(args.graph)
    rc = 0
    paths = [args.source] + ([args.target] if args.target else [])
    for path in paths:
        t = elimtree.load_tree(path)
        problems = elimtree.validity_violations(g, t)
        if problems:
            rc = 2
            print(f"{path}: INVALID")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"{path}: valid")
    return rc


def cmd_rotate(args) -> int:
    g = _load_connected_graph(args.graph)
    t = elimtree.load_tree(args.source)
    _check_tree(g, args.source, t)
    seq = [_parse_edge(tok) for tok in args.edge or []]
    if args.replay:
        seq = _load_witness(args.replay) + seq
    if not seq:
        raise InvalidParameter("nothing to apply, give -e or --replay")
    result = elimtree.apply_sequence(g, t, seq)
    if args.out:
        elimtree.save_tree(result, args.out)
    print(json.dumps(elimtree.to_json_dict(result)))
    return 0


def cmd_distance(args) -> int:
    if args.k is not None and args.k < 0:
        raise InvalidParameter(f"k must be nonnegative, got {args.k}")
    g = _load_connected_graph(args.graph)
    src = elimtree.load_tree(args.source)
    dst = elimtree.load_tree(args.target)
    _check_tree(g, args.source, src)
    _check_tree(g, args.target, dst)

    if args.replay:
        seq = _load_witness(args.replay)
        reached = elimtree.apply_sequence(g, src, seq)
        ok = reached == dst and (args.k is None or len(seq) <= args.k)
        print(f"verdict: {'YES' if ok else 'NO'}")
        print(f"length: {len(seq)}")
        print("method: replay")
        return 0 if ok else 1

    if args.k is None:
        raise InvalidParameter("-k is required unless --replay is given")
    method = args.method
    if method == "auto":
        method = "bfs" if g.n <= 8 else "fpt"
    t0 = time.perf_counter()
    if method == "bfs":
        # no search over M ran; a NO proves the distance above k
        dist, seq = flip.bfs_witness(g, src, dst, cap=args.k)
        yes = dist is not None
        dec = fpt.Decision(k=args.k, n=g.n, yes=yes, witness=tuple(seq) if yes else None,
                           lower_bound=dist if yes else args.k + 1, stats={})
    else:
        dec = fpt.fpt_decide(g, src, dst, args.k)
    ms = (time.perf_counter() - t0) * 1000.0

    if args.witness_out and dec.yes:
        graphs.write_json({"edges": [list(e) for e in dec.witness]}, args.witness_out)
    if args.explain:
        dump = dec.to_json_dict()
        dump["method"] = method
        dump["time_ms"] = round(ms, 3)
        print(json.dumps(dump, indent=2))
    else:
        print(f"verdict: {'YES' if dec.yes else 'NO'}")
        if dec.yes:
            print(f"length: {len(dec.witness)}")
            print(f"witness: {_format_witness(dec.witness)}")
        print(f"method: {method}")
        print(f"time_ms: {ms:.3f}")
    return 0 if dec.yes else 1


def cmd_enumerate(args) -> int:
    g = _load_connected_graph(args.graph)
    fg = flip.enumerate_all(g, cap=args.cap)
    print(f"{len(fg)} elimination trees")
    if args.out_dot:
        flip.save_dot(fg, args.out_dot)
    if args.out_json:
        flip.save_json(fg, args.out_json)
    return 0


def cmd_diameter(args) -> int:
    g = _load_connected_graph(args.graph)
    print(flip.diameter(g, cap=args.cap))
    return 0


def cmd_gen(args) -> int:
    g = graphs.generate(args.family, args.n, seed=args.seed, p=args.p,
                        clique=args.clique)
    if args.out:
        graphs.save_graph(g, args.out)
    else:
        print(json.dumps(graphs.to_json_dict(g)))
    return 0


def _bench_instance(family: str, n: int, k: int, seed: int):
    g = graphs.generate(family, n, seed=seed, p=0.2)
    t = elimtree.from_ordering(g, list(range(n)))
    rng = random.Random(seed * 1_000_003 + n)
    cur = t
    for _ in range(k):
        movable = [v for v in range(n) if cur.parent[v] != elimtree.ROOT]
        v = movable[rng.randrange(len(movable))]
        cur = elimtree.rotate(g, cur, (cur.parent[v], v))
    return g, t, cur


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError as exc:
        raise InvalidParameter(f"--sizes must list integers: {exc}") from exc
    if not sizes:
        raise InvalidParameter("--sizes must list at least one n")
    if min(sizes) < 2:
        raise InvalidParameter(f"--sizes needs every n >= 2, got {min(sizes)}: "
                               "a tree on one vertex has no rotation")
    if args.reps < 1:
        raise InvalidParameter(f"--reps must be at least 1, got {args.reps}")
    print("family,n,k,reps,median_ms,nodes_expanded,bound_cuts")
    for n in sizes:
        g, t, t2 = _bench_instance(args.family, n, args.k, args.seed)
        times = []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            dec = fpt.fpt_decide(g, t, t2, args.k)
            times.append((time.perf_counter() - t0) * 1000.0)
        print(f"{args.family},{n},{args.k},{args.reps},{statistics.median(times):.3f},"
              f"{dec.stats['nodes_expanded']},{dec.stats['bound_cuts']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rotdist",
        description="Elimination trees of a graph and rotation distances between them.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("-g", "--graph", required=True, help="graph JSON file")

    p = sub.add_parser("validate", help="check trees against a graph")
    add_graph(p)
    p.add_argument("-s", "--source", required=True, help="tree JSON file")
    p.add_argument("-t", "--target", help="optional second tree JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("rotate", help="apply rotations to a tree")
    add_graph(p)
    p.add_argument("-s", "--source", required=True)
    p.add_argument("-e", "--edge", action="append", help="rotation edge U->V, repeatable")
    p.add_argument("--replay", help="witness JSON file to apply")
    p.add_argument("-o", "--out", help="write resulting tree JSON here")
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("distance", help="decide whether two trees are within k rotations")
    add_graph(p)
    p.add_argument("-s", "--source", required=True)
    p.add_argument("-t", "--target", required=True)
    p.add_argument("-k", type=int, default=None, help="rotation budget")
    p.add_argument("--method", choices=("fpt", "bfs", "auto"), default="auto",
                   help="auto picks bfs for n <= 8, fpt otherwise")
    p.add_argument("--explain", action="store_true", help="emit a JSON diagnostic dump")
    p.add_argument("--witness-out", help="write the witness JSON here on YES")
    p.add_argument("--replay", help="verify a witness file instead of searching")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("enumerate", help="enumerate all elimination trees")
    add_graph(p)
    p.add_argument("--cap", type=int, default=flip.DEFAULT_ENUM_CAP,
                   help="refuse graphs with more vertices than this")
    p.add_argument("--out-dot", help="write the rotation graph as DOT")
    p.add_argument("--out-json", help="write the rotation graph as JSON")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("diameter", help="largest rotation distance between two trees")
    add_graph(p)
    p.add_argument("--cap", type=int, default=flip.DEFAULT_ENUM_CAP)
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("gen", help="generate a named graph family member")
    p.add_argument("--family", required=True, choices=graphs.FAMILIES)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--p", type=float, default=0.2, help="extra-edge probability")
    p.add_argument("--clique", type=int, default=None, help="clique size for complete_split")
    p.add_argument("-o", "--out", help="write graph JSON here (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time the bounded-distance decision across sizes")
    p.add_argument("--family", required=True, choices=graphs.FAMILIES)
    p.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    return ap


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # built once per process: building the parser takes about 1 ms, more
    # than ten times as long as parsing one command line with it
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except _INVALID_INPUT as exc:
        print(f"error: INVALID_INPUT: {exc}", file=sys.stderr)
        return 2
    except DisconnectedGraph as exc:
        print(f"error: DISCONNECTED_GRAPH: {exc}", file=sys.stderr)
        return 3
    except InstanceTooLarge as exc:
        print(f"error: INSTANCE_TOO_LARGE: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        # a fault of the program, reported apart from every verdict
        print(f"error: INTERNAL: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 5


if __name__ == "__main__":
    sys.exit(main())
