"""Reference computations for the benchmark, written apart from rotdist.

Nothing here imports rotdist.  Graphs are adjacency lists of sets, trees
are parent lists with -1 at the root.  The benchmark builds its inputs
with these functions and checks every answer of the program against
them, so a fault shared by the program and its checker cannot hide.
"""

from __future__ import annotations

import random

ROOT = -1


def adjacency(n: int, edges) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def random_connected_edges(n: int, extra: float, rng: random.Random) -> list[tuple[int, int]]:
    """A random spanning tree plus about extra * n further random edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b))
             for a, b in ((order[i], order[rng.randrange(i)]) for i in range(1, n))}
    want = len(edges) + int(extra * n)
    while len(edges) < want:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def tree_from_ordering(adj: list[set[int]], order: list[int]) -> list[int]:
    """Elimination tree of the ordering, by union-find from its end.

    Every vertex becomes the parent of the roots of the already built
    pieces it touches, which is the classic construction; it differs
    from the program's recursive splitting into components.
    """
    n = len(adj)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    parent = [ROOT] * n
    up = list(range(n))

    def find(x: int) -> int:
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    for v in reversed(order):
        for w in adj[v]:
            if pos[w] > pos[v]:
                r = find(w)
                if r != v:
                    parent[r] = v
                    up[r] = v
    if sum(1 for p in parent if p == ROOT) != 1:
        raise ValueError("graph is not connected")
    return parent


def children_of(parent: list[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p != ROOT:
            kids[p].append(v)
    return kids


def rotate(adj: list[set[int]], parent: list[int], u: int, v: int) -> list[int]:
    """The rotation of tree edge (u, v), u the parent of v.

    v takes u's place and u hangs below v.  A child subtree of v moves
    under u when some G-neighbour of u lies in it; this is found by
    climbing from each neighbour of u up to v, not by searching subtrees.
    """
    if not (0 <= u < len(parent) and 0 <= v < len(parent)) or parent[v] != u:
        raise ValueError(f"({u},{v}) is not a tree edge")
    new = list(parent)
    new[v] = parent[u]
    new[u] = v
    for y in adj[u]:
        x, below = y, None
        while x != ROOT and x != v and x != u:
            below, x = x, parent[x]
        if x == v and below is not None:
            new[below] = u
    return new


def replay(adj: list[set[int]], parent: list[int], witness) -> list[int]:
    cur = parent
    for u, v in witness:
        cur = rotate(adj, cur, u, v)
    return cur


def tubes(parent: list[int]) -> set[tuple[int, int]]:
    """The vertex sets of all subtrees, each as (size, sum of vertex labels).

    Labels are fixed random 64-bit numbers, so two different sets share a
    key only by a negligible accident, and such an accident can only make
    tube_distance_bound smaller, never larger.
    """
    labels = _labels(len(parent))
    kids = children_of(parent)
    order = [parent.index(ROOT)]
    for x in order:
        order.extend(kids[x])
    size = [1] * len(parent)
    total = list(labels)
    for x in reversed(order):
        p = parent[x]
        if p != ROOT:
            size[p] += size[x]
            total[p] += total[x]
    return set(zip(size, total))


def _labels(n: int) -> list[int]:
    rng = random.Random(0x7B35)
    return [rng.getrandbits(64) for _ in range(n)]


def tube_distance_bound(parent: list[int], parent2: list[int]) -> int:
    """|tubes(t) minus tubes(t2)|, a lower bound on the rotation distance.

    A rotation exchanges exactly one tube, so no shorter sequence exists.
    A walk of s rotations whose bound is s has distance exactly s.
    """
    return len(tubes(parent) - tubes(parent2))


def children_bad_count(parent: list[int], parent2: list[int]) -> int:
    a, b = children_of(parent), children_of(parent2)
    return sum(1 for x, y in zip(a, b) if set(x) != set(y))


def check_witness(adj, source, target, witness, length: int) -> str | None:
    """None when the witness is a tree-edge walk of `length` to target."""
    if len(witness) != length:
        return f"witness has length {len(witness)}, expected {length}"
    try:
        reached = replay(adj, source, witness)
    except ValueError as exc:
        return f"witness does not replay: {exc}"
    if reached != list(target):
        return "witness does not reach the target"
    return None


def local_walk(adj, parent: list[int], steps: int, rng: random.Random,
               depths) -> list[int]:
    """`steps` rotations, each touching a vertex the walk touched before.

    The first rotation moves a random tree edge whose child's depth is
    in `depths`; later ones move a tree edge with an endpoint among the
    vertices already rotated or their tree neighbours.
    """
    depth = [0] * len(parent)
    kids = children_of(parent)
    stack = [parent.index(ROOT)]
    while stack:
        x = stack.pop()
        for c in kids[x]:
            depth[c] = depth[x] + 1
            stack.append(c)
    cur = list(parent)
    near: set[int] = set()
    for i in range(steps):
        if i == 0:
            pool = [v for v in range(len(cur)) if cur[v] != ROOT and depth[v] in depths]
        else:
            pool = sorted(v for v in range(len(cur)) if cur[v] != ROOT
                          and (v in near or cur[v] in near))
        if not pool:
            raise ValueError(f"no tree edge to rotate at step {i + 1}")
        v = pool[rng.randrange(len(pool))]
        u = cur[v]
        cur = rotate(adj, cur, u, v)
        near.update((u, v))
        if cur[v] != ROOT:
            near.add(cur[v])
    return cur


def count_trees(adj: list[set[int]]) -> int:
    """Number of elimination trees, by recursion over connected subsets.

    T(S) is the sum over roots r in S of the product of T(C) over the
    components C of S - r; subsets are bitmasks and memoised.
    """
    n = len(adj)
    nbr = [sum(1 << w for w in adj[v]) for v in range(n)]
    memo: dict[int, int] = {}

    def comps(mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            comp, frontier = low, low
            while frontier:
                grow = 0
                f = frontier
                while f:
                    b = f & -f
                    grow |= nbr[b.bit_length() - 1]
                    f ^= b
                frontier = grow & mask & ~comp
                comp |= frontier
            out.append(comp)
            mask &= ~comp
        return out

    def count(mask: int) -> int:
        if mask & (mask - 1) == 0:
            return 1
        got = memo.get(mask)
        if got is None:
            got = 0
            m = mask
            while m:
                b = m & -m
                prod = 1
                for c in comps(mask ^ b):
                    prod *= count(c)
                got += prod
                m ^= b
            memo[mask] = got
        return got

    return count((1 << n) - 1)


def bfs_distances(adj: list[set[int]], source: list[int]) -> dict[tuple[int, ...], int]:
    """Rotation distance from source to every elimination tree."""
    start = tuple(source)
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            d = dist[key] + 1
            cur = list(key)
            for v, u in enumerate(cur):
                if u == ROOT:
                    continue
                k2 = tuple(rotate(adj, cur, u, v))
                if k2 not in dist:
                    dist[k2] = d
                    nxt.append(k2)
        frontier = nxt
    return dist
