"""The benchmark's workloads: inputs built from a seed, operations, checks.

`build(name, seed, quick, workdir)` makes every input of one run and its
exact answer, and returns the run's fixed list of operations in a seeded
order.  An operation's `run()` calls the program; its `check(result)`
returns None when the result is right, else what is wrong.  Exact
answers come from `checker`, never from the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checker as C
from rotdist import cli, elimtree, flip, fpt, graphs

@dataclass(eq=False)
class Op:
    """One timed call into the program, made `passes` times per round."""

    family: str
    verdict: str          # the exact answer: "YES", "NO", or "TABLE"
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # For a NO: whether the answer came from the search rather than from
    # an early certificate.  CLI output does not say, so CLI instances are
    # built such that no certificate applies (see walk_target).
    searched: Callable[[object], bool] = lambda result: True
    passes: int = 1


def _verdict_of(dec) -> str:
    return "YES" if dec.yes else "NO"


def walk_target(adj, src: list[int], s: int, rng: random.Random) -> list[int]:
    """A target s rotations from src whose distance is exactly s.

    Walks are redrawn until the tube bound equals s, so s is exact, and
    until at most 3(s-1) vertices change their children, so that at
    k = s-1 the count certificate cannot answer NO before the search.
    The walk starts half-way down the tree, give or take two levels: far
    from the root, whose ball the decision also searches, and at one
    depth from seed to seed, since a rotation costs more the larger the
    subtree below it.
    """
    half = len(src) // 2
    depths = range(half - 2, half + 3)
    for _ in range(1000):
        dst = C.local_walk(adj, src, s, rng, depths)
        if (C.tube_distance_bound(src, dst) == s
                and C.children_bad_count(src, dst) <= 3 * (s - 1)):
            return dst
    raise RuntimeError("no exact-distance walk found in 1000 draws")


def star_target(n: int, j: int, rng: random.Random) -> list[int]:
    """j random leaves stacked above the centre 0, the smallest at the root.

    The search tries vertices in label order, so the order of the
    stacked leaves sets its node count (31 or 37 at j = 2, 315 or 422 at
    j = 3); in ascending order it is the same for every seed.
    """
    leaves = sorted(rng.sample(range(1, n), j))
    parent = [0] * n
    parent[0] = leaves[-1]
    for a, b in zip(leaves, leaves[1:]):
        parent[b] = a
    parent[leaves[0]] = C.ROOT
    return parent


# ---------------------------------------------------------------------------
# library decisions (chain, oracle)

def decide_ops(family: str, g, adj, src, dst, k: int, dist: int) -> list[Op]:
    """fpt_decide on one pair at one k, checked against the exact distance."""
    t, t2 = elimtree.ElimTree(src), elimtree.ElimTree(dst)
    verdict = "YES" if dist <= k else "NO"

    def run():
        return fpt.fpt_decide(g, t, t2, k)

    def check(dec) -> str | None:
        if _verdict_of(dec) != verdict:
            return f"{family}: k={k}, distance {dist}, answered {_verdict_of(dec)}"
        if dec.yes:
            return C.check_witness(adj, src, dst, [tuple(e) for e in dec.witness], dist)
        return None

    return [Op(family, verdict, run, check, lambda dec: dec.early_no is None)]


def chain_ops(seed: int, quick: bool, workdir: str) -> list[Op]:
    """Path, complete and random graphs whose trees are chains, s = 3.

    Each pair is asked at k = s (YES) and k = s - 1 (NO).  The search
    tries vertices in label order, so where the witness lies in that
    order sets the cost of a YES.  Path trees keep their labels in depth
    order, which makes that cost nearly the same for every seed; they
    are three pairs in four, so the medians fall among them.
    """
    rng = random.Random(seed)
    s = 3
    sizes = {"path": 30, "complete": 20, "random": 40} if quick else \
        {"path": 80, "complete": 60, "random": 100}
    ops: list[Op] = []
    for family, n in sizes.items():
        for _ in range(1 if quick else PER_FAMILY["chain"][family]):
            order = list(range(n))
            if family == "path":
                edges = [(i, i + 1) for i in range(n - 1)]
            elif family == "complete":
                edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
                rng.shuffle(order)
            else:
                edges = C.random_connected_edges(n, RANDOM_EXTRA["chain"], rng)
                rng.shuffle(order)
            adj = C.adjacency(n, edges)
            src = C.tree_from_ordering(adj, order)
            dst = walk_target(adj, src, s, rng)
            g = graphs.Graph(n, edges)
            for k in (s, s - 1):
                ops += decide_ops(family, g, adj, src, dst, k, s)
    return ops


# ---------------------------------------------------------------------------
# the command line (wide)

def _write(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))
    return path


def cli_ops(family: str, gpath: str, adj, src, dst, tag: str, s: int,
            workdir: str) -> list[Op]:
    """`rotdist distance` at k = s (YES) and k = s - 1 (NO), in-process."""
    spath = _write(os.path.join(workdir, f"{tag}-s.json"), {"parent": src})
    tpath = _write(os.path.join(workdir, f"{tag}-t.json"), {"parent": dst})
    ops = []
    for k in (s, s - 1):
        argv = ["distance", "-g", gpath, "-s", spath, "-t", tpath,
                "-k", str(k), "--method", "fpt"]
        verdict = "YES" if k >= s else "NO"

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            return rc, out.getvalue()

        def check(result, k=k, verdict=verdict) -> str | None:
            rc, text = result
            lines = dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)
            want_rc = 0 if verdict == "YES" else 1
            if rc != want_rc or lines.get("verdict") != verdict:
                return f"{family}: k={k}, distance {s}, exit {rc}, output {text!r}"
            if verdict == "NO":
                return None
            try:
                witness = [tuple(int(x) for x in tok.split("->"))
                           for tok in lines.get("witness", "").split()]
            except ValueError:
                return f"{family}: unreadable witness in {text!r}"
            return C.check_witness(adj, src, dst, witness, s)

        ops.append(Op(family, verdict, run, check))
    return ops


def wide_ops(seed: int, quick: bool, workdir: str) -> list[Op]:
    """Stars with j leaves moved above the centre, and sparse random graphs.

    n is large and the marked set small, so the O(n) work around the
    search dominates: JSON load, validation, stages, tree copies.  The
    medians of both verdicts fall among the j = 2 stars, four of seven
    pairs.  n stays at a few thousand so that a round takes about a
    second: each call then counts with its best of some fifty samples
    spread across the run, and the host's slow phases of 10 to 20 s,
    which slow every call by half, rarely cover all of them.
    """
    rng = random.Random(seed)
    n_star, n_rand = (300, 100) if quick else (3000, 1000)
    counts = {2: 1, 3: 1, "random": 1} if quick else PER_FAMILY["wide"]
    ops: list[Op] = []
    star_edges = [(0, i) for i in range(1, n_star)]
    star_adj = C.adjacency(n_star, star_edges)
    star_path = _write(os.path.join(workdir, "star.json"),
                       {"n": n_star, "edges": [list(e) for e in star_edges]})
    star_src = C.tree_from_ordering(star_adj, list(range(n_star)))
    for j in (2, 3):
        for i in range(counts[j]):
            dst = star_target(n_star, j, rng)
            if C.tube_distance_bound(star_src, dst) != j:
                raise RuntimeError("star target is not at its stated distance")
            ops += cli_ops(f"star{j}", star_path, star_adj, star_src, dst,
                           f"star{j}-{i}", j, workdir)
    for i in range(counts["random"]):
        edges = C.random_connected_edges(n_rand, RANDOM_EXTRA["wide"], rng)
        adj = C.adjacency(n_rand, edges)
        order = list(range(n_rand))
        rng.shuffle(order)
        src = C.tree_from_ordering(adj, order)
        dst = walk_target(adj, src, 2, rng)
        gpath = _write(os.path.join(workdir, f"random-{i}.json"),
                       {"n": n_rand, "edges": [list(e) for e in edges]})
        ops += cli_ops("random", gpath, adj, src, dst, f"random-{i}", 2, workdir)
    return ops


# ---------------------------------------------------------------------------
# the exact oracle (oracle)

def table_op(family: str, g, count: int, rows: dict) -> Op:
    """enumerate_all, then distances_from every tree; checked three ways.

    The tree count must match the subset recursion, the rows of the
    sampled sources must match the checker's own BFS, and the table must
    be symmetric.
    """

    def run():
        fg = flip.enumerate_all(g)
        return fg, {key: fg.distances_from(key) for key in fg.trees}

    def check(result) -> str | None:
        fg, table = result
        if len(fg) != count:
            return f"{family}: {len(fg)} trees, the subset recursion counts {count}"
        for key, row in rows.items():
            if table.get(key) != row:
                return f"{family}: distance row of {key} differs from the checker's BFS"
        for a, row in table.items():
            if len(row) != count:
                return f"{family}: row of {a} reaches {len(row)} of {count} trees"
            for b, d in row.items():
                if table[b][a] != d:
                    return f"{family}: d({a},{b})={d} but d({b},{a})={table[b][a]}"
        return None

    return Op(family, "TABLE", run, check)


def oracle_ops(seed: int, quick: bool, workdir: str) -> list[Op]:
    """Random connected graphs on 6 vertices with 8 edges.

    Graphs are redrawn until their tree count lies in TREE_COUNTS, so
    every seed enumerates about as many trees.  Per graph: one table
    operation, and fpt_decide from `sources` distinct source trees to
    `targets[d]` targets at each distance d from 1 to 4, each at
    k = 1, 2, 3, so every seed asks the same mix of questions.  Most YES
    answers come from distance 1, so the YES median falls inside the
    cluster of those decisions rather than on the edge between two
    clusters of different cost; the NO median likewise falls among the
    searches at k = 2.  A decision takes a fraction of a millisecond, a
    table a few hundred, so each decision is made `decision_passes`
    times per round, for a best time over many samples spread across
    the run.
    """
    rng = random.Random(seed)
    n = 6
    ops: list[Op] = []
    for i in range(2 if quick else ORACLE["graphs"]):
        while True:
            edges = C.random_connected_edges(n, 0.5, rng)
            adj = C.adjacency(n, edges)
            count = C.count_trees(adj)
            if count in TREE_COUNTS:
                rows = _oracle_sources(adj, rng)
                if rows:
                    break
        g = graphs.Graph(n, edges)
        for src, (row, by_dist) in rows.items():
            for d, per in ORACLE["targets"].items():
                for dst in rng.sample(by_dist[d], per):
                    for k in (1, 2, 3):
                        for op in decide_ops(f"g{i}", g, adj, list(src), list(dst), k, d):
                            op.passes = ORACLE["decision_passes"]
                            ops.append(op)
        ops.append(table_op(f"g{i}", g, count, {src: row for src, (row, _) in rows.items()}))
    return ops


def _oracle_sources(adj, rng: random.Random) -> dict:
    """ORACLE["sources"] distinct source trees, each with its distance row
    and enough targets at every distance 1 to 4; {} if 100 draws fail."""
    order = list(range(len(adj)))
    rows: dict[tuple[int, ...], tuple[dict, dict]] = {}
    for _ in range(100):
        rng.shuffle(order)
        src = tuple(C.tree_from_ordering(adj, order))
        if src in rows:
            continue
        row = C.bfs_distances(adj, list(src))
        by_dist: dict[int, list] = {}
        for key, d in sorted(row.items()):
            by_dist.setdefault(d, []).append(key)
        if all(len(by_dist.get(d, ())) >= per for d, per in ORACLE["targets"].items()):
            rows[src] = (row, by_dist)
            if len(rows) == ORACLE["sources"]:
                return rows
    return {}


# Instance counts: a round of chain or oracle takes about 6 s on one core
# of the machine in README.md and one of wide about 1 s, so a run of 60 s
# repeats it about ten or fifty times, and the median of each verdict
# falls inside the family whose cost moves least with the seed (path
# trees in chain, stars with j = 2 in wide).
PER_FAMILY = {"chain": {"path": 18, "complete": 3, "random": 3},
              "wide": {2: 4, 3: 1, "random": 2}}
RANDOM_EXTRA = {"chain": 10.0, "wide": 4.0}
ORACLE = {"graphs": 16, "sources": 3, "targets": {1: 3, 2: 1, 3: 1, 4: 2},
          "decision_passes": 10}
TREE_COUNTS = range(370, 411)


WORKLOADS = {"chain": chain_ops, "wide": wide_ops, "oracle": oracle_ops}


def build(name: str, seed: int, quick: bool, workdir: str) -> list[Op]:
    """One round of the run: every operation, each as many times as its
    `passes`, in the run's seeded interleaved order."""
    slots = [op for op in WORKLOADS[name](seed, quick, workdir) for _ in range(op.passes)]
    random.Random(seed ^ 0x5EED).shuffle(slots)
    return slots
