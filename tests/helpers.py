"""Shared utilities for the test suite."""

from __future__ import annotations

import itertools
import random

from rotdist import (
    ROOT,
    BadnessReport,
    ElimTree,
    Graph,
    RotDistError,
    TypeTable,
    classify_bad,
    components,
    compute_bcb,
    from_ordering,
    generate,
    is_connected,
    neighbors,
    rotate,
    want_parent,
)

# number of connected graphs on 1..5 labeled-iso-free vertices
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


class NotInComponent(RotDistError):
    """The vertex does not belong to the given component."""


class OrderViolation(RotDistError):
    """A vertex was typed before its children."""


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    perms = list(itertools.permutations(range(n)))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph(n, edges)
        if not is_connected(g):
            continue
        canon = min(
            tuple(sorted(tuple(sorted((p[u], p[v]))) for u, v in edges))
            for p in perms
        )
        if canon in seen:
            continue
        seen.add(canon)
        out.append(g)
    return out


def random_tree(g: Graph, rng: random.Random) -> ElimTree:
    order = list(range(g.n))
    rng.shuffle(order)
    return from_ordering(g, order)


def random_tree_edge(t: ElimTree, rng: random.Random) -> tuple[int, int]:
    v = rng.choice([v for v in range(t.n) if t.parent[v] != -1])
    return t.parent[v], v


def stacked_star(n: int, leaves: list[int]) -> tuple[Graph, ElimTree, ElimTree]:
    """The star on n vertices, its tree with the centre 0 at the root,
    and the target with `leaves` stacked above the centre in ascending
    order, the smallest at the root."""
    g = generate("star", n)
    parent = [0] * n
    parent[0] = leaves[-1]
    for a, b in zip(leaves, leaves[1:]):
        parent[b] = a
    parent[leaves[0]] = ROOT
    return g, from_ordering(g, list(range(n))), ElimTree(parent)


def descendants(t: ElimTree, v: int):
    """All vertices of the subtree of t rooted at v, preorder."""
    stack = [v]
    while stack:
        u = stack.pop()
        yield u
        stack.extend(t.children(u))


def preorder(t: ElimTree) -> list[int]:
    return list(descendants(t, t.root))


def tubes(parent) -> frozenset[frozenset[int]]:
    """The vertex sets of the non-root subtrees of a parent vector: the
    tubes of the maximal tubing the tree stands for."""
    below: list[set[int]] = [{v} for v in range(len(parent))]
    for v in range(len(parent)):
        u = parent[v]
        while u != -1:
            below[u].add(v)
            u = parent[u]
    return frozenset(frozenset(s) for v, s in enumerate(below) if parent[v] != -1)


def enumerate_orderings(g: Graph) -> set[tuple[int, ...]]:
    """The distinct trees over all n! elimination orderings: every
    elimination tree of g, found without any rotation."""
    return {from_ordering(g, perm).parent for perm in itertools.permutations(range(g.n))}


def restricted_bfs_distance(g: Graph, t: ElimTree, t2: ElimTree, allowed, cap=None):
    """The length of a shortest rotation sequence from t to t2 whose every
    rotated edge has both ends in `allowed`, or None when there is
    none within the cap (or at all).  A breadth-first search of its own
    over `neighbors`, apart from the one in `rotdist.flip`."""
    allowed = frozenset(allowed)
    target = t2.parent
    if t.parent == target:
        return 0
    seen = {t.parent}
    frontier = [t]
    depth = 0
    while frontier and (cap is None or depth < cap):
        depth += 1
        nxt = []
        for cur in frontier:
            for (u, v), t3 in neighbors(g, cur):
                key = t3.parent
                if u in allowed and v in allowed and key not in seen:
                    if key == target:
                        return depth
                    seen.add(key)
                    nxt.append(t3)
        frontier = nxt
    return None


def reference_search(g: Graph, t: ElimTree, t2: ElimTree, marked, k: int):
    """The FPT search without its lower bound: iterative deepening over
    rotations with both ends in `marked`, tried in the order of their
    lower end, with one memo per budget of the trees already searched at
    that budget or more.  Returns (the first shortest witness found or
    None, nodes expanded, memo hits)."""
    moves = sorted(marked)
    seq: list[tuple[int, int]] = []
    count = {"nodes": 0, "memo_hits": 0}

    def dfs(cur: ElimTree, budget: int, memo: dict) -> bool:
        count["nodes"] += 1
        if cur == t2:
            return True
        if budget == 0:
            return False
        if memo.get(cur.parent, 0) >= budget:
            count["memo_hits"] += 1
            return False
        for v in moves:
            u = cur.parent[v]
            if u == -1 or u not in marked:
                continue
            seq.append((u, v))
            if dfs(rotate(g, cur, (u, v)), budget - 1, memo):
                return True
            seq.pop()
        memo[cur.parent] = budget
        return False

    found = any(dfs(t, budget, {}) for budget in range(1, k + 1))
    return (tuple(seq) if found else None), count["nodes"], count["memo_hits"]


def reference_badness(t: ElimTree, t2: ElimTree) -> BadnessReport:
    """classify_bad by its definition: each vertex's child sets and
    parents compared between the trees."""
    return BadnessReport(
        frozenset(v for v in range(t.n) if set(t.children(v)) != set(t2.children(v))),
        frozenset(v for v in range(t.n) if t.parent[v] != t2.parent[v]))


def tree_distance_matrix(t: ElimTree) -> list[list[int]]:
    """All-pairs distances inside the tree itself (not the rotation graph)."""
    n = t.n
    adj = [[] for _ in range(n)]
    for v in range(n):
        p = t.parent[v]
        if p != -1:
            adj[v].append(p)
            adj[p].append(v)
    out = []
    for s in range(n):
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        out.append(dist)
    return out


def inversions_between(p: list[int], q: list[int]) -> int:
    """Pairs ordered one way in p and the other way in q."""
    pos = {v: i for i, v in enumerate(q)}
    count = 0
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if pos[p[i]] > pos[p[j]]:
                count += 1
    return count


def reference_violations(g: Graph, t: ElimTree, limit: int = 20) -> list[str]:
    """validity_violations as it was before the one-pass check: an Euler
    tour, child lists sorted by entry time and a binary search per
    G-neighbour.  Kept to compare messages against."""
    out: list[str] = []
    if t.n != g.n:
        return [f"tree has {t.n} vertices, graph has {g.n}"]
    count = sum(1 for _ in descendants(t, t.root))
    if count != t.n:
        return ["parent vector contains a cycle"]
    tin = [0] * t.n
    tout = [0] * t.n
    clock = 0
    stack: list[tuple[int, bool]] = [(t.root, False)]
    while stack:
        u, closing = stack.pop()
        if closing:
            tout[u] = clock
            continue
        tin[u] = clock
        clock += 1
        stack.append((u, True))
        for c in t.children(u):
            stack.append((c, False))
    for u, v in g.edges():
        if len(out) >= limit:
            break
        anc = (tin[u] <= tin[v] < tout[u]) or (tin[v] <= tin[u] < tout[v])
        if not anc:
            out.append(f"edge ({u},{v}) joins incomparable vertices")
    for v in range(t.n):
        if len(out) >= limit:
            break
        kids = t.children(v)
        if not kids:
            continue
        kids = sorted(kids, key=lambda c: tin[c])
        hit = set()
        for y in g.neighbors(v):
            if tin[v] <= tin[y] < tout[v]:
                lo, hi = 0, len(kids) - 1
                while lo < hi:
                    mid = (lo + hi + 1) // 2
                    if tin[kids[mid]] <= tin[y]:
                        lo = mid
                    else:
                        hi = mid - 1
                hit.add(kids[lo])
        for c in kids:
            if c not in hit:
                out.append(f"subtree at {c} has no edge to its parent {v}")
                if len(out) >= limit:
                    break
    return out


def is_elimination_tree(g: Graph, parent: list[int]) -> bool:
    """Whether the parent vector is an elimination tree of the connected
    graph g, by the definition: the root's removal splits the vertex set
    into components whose vertex sets are exactly the child subtrees,
    and each child subtree is in turn an elimination tree of its
    component."""
    n = g.n
    if len(parent) != n or parent.count(-1) != 1:
        return False
    children: list[list[int]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p != -1:
            children[p].append(v)

    def subtree(v: int) -> frozenset[int]:
        seen, stack = {v}, [v]
        while stack:
            for c in children[stack.pop()]:
                seen.add(c)
                stack.append(c)
        return frozenset(seen)

    def split(verts: frozenset[int]) -> set[frozenset[int]]:
        comps, left = set(), set(verts)
        while left:
            start = left.pop()
            comp, stack = {start}, [start]
            while stack:
                for w in g.neighbors(stack.pop()):
                    if w in left:
                        left.discard(w)
                        comp.add(w)
                        stack.append(w)
            comps.add(frozenset(comp))
        return comps

    root = parent.index(-1)
    if len(subtree(root)) != n:
        return False    # a cycle among the parents
    work = [(root, frozenset(range(n)))]
    while work:
        r, verts = work.pop()
        below = {c: subtree(c) for c in children[r]}
        if split(verts - {r}) != set(below.values()):
            return False
        work.extend(below.items())
    return True


# ---------------------------------------------------------------------------
# the marking scheme by its definitions, one vertex at a time, to test
# fpt's one-pass typing, premarking and marking against

def trace_of(g: Graph, t: ElimTree, z, v: int) -> tuple[int, ...]:
    """Adjacency fingerprint of v against its ancestors up to zroot.

    Bit i-1 is set when some vertex of the full subtree of v in t is a
    G-neighbor of the ancestor at tree-distance i from v.  The trace of
    zroot itself is empty.
    """
    if v not in z.vertices:
        raise NotInComponent(f"vertex {v} not in component of {z.zroot}")
    anc_index: dict[int, int] = {}
    cur = v
    i = 0
    while cur != z.zroot:
        cur = t.parent[cur]
        anc_index[cur] = i
        i += 1
    bits = [0] * i
    for w in descendants(t, v):
        for y in g.neighbors(w):
            j = anc_index.get(y)
            if j is not None:
                bits[j] = 1
    return tuple(bits)


def component_children(t: ElimTree, z, v: int) -> list[int]:
    """Children of v in t that lie in the component, ascending."""
    return [c for c in t.children(v) if c in z.vertices]


def type_of(g: Graph, t: ElimTree, t2: ElimTree, z, k: int, table: TypeTable, v: int) -> int:
    """Classify v, requiring its component children to be classified."""
    if v not in z.vertices:
        raise NotInComponent(f"vertex {v} not in component of {z.zroot}")
    counts: dict[int, int] = {}
    for c in component_children(t, z, v):
        tid = table.vertex_types.get(c)
        if tid is None:
            raise OrderViolation(f"child {c} of {v} has no type yet")
        counts[tid] = counts.get(tid, 0) + 1
    summary = tuple(sorted((tid, min(k + 1, c)) for tid, c in counts.items()))
    record = (want_parent(t, t2, v), trace_of(g, t, z, v), summary)
    tid = table.intern(record)
    table.vertex_types[v] = tid
    return tid


def reference_marking(g: Graph, t: ElimTree, t2: ElimTree, k: int):
    """(type table, premarked, marked per zroot) of every ball component,
    from type_of on the vertices sorted by (-depth, vertex), k+1
    lowest-numbered children kept per type, and the marked set grown
    top-down from zroot, then closed over children-bad vertices."""
    report = classify_bad(t, t2)
    table = TypeTable()
    premarked: set[int] = set()
    marked = {}
    for z in components(t, compute_bcb(t, report, k).vertices):
        for v in sorted(z.vertices, key=lambda x: (-t.depth(x), x)):
            type_of(g, t, t2, z, k, table, v)
        kept = {z.zroot}
        for v in z.vertices:
            groups: dict[int, list[int]] = {}
            for c in component_children(t, z, v):
                groups.setdefault(table.vertex_types[c], []).append(c)
            for members in groups.values():
                kept.update(members[:k + 1])
        mz = {z.zroot}
        stack = [z.zroot]
        while stack:
            for c in component_children(t, z, stack.pop()):
                if c in kept:
                    mz.add(c)
                    stack.append(c)
        for b in report.children_bad & z.vertices:
            while b not in mz:
                mz.add(b)
                b = t.parent[b]
        premarked |= kept
        marked[z.zroot] = frozenset(mz)
    return table, frozenset(premarked), marked
