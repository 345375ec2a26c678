"""Brute-force machinery over the rotation graph of all elimination trees.

Nodes are parent-vector keys; arcs are single rotations.  Everything
here is exponential and exists to give exact ground truth on small
instances, so vertex-count caps guard each entry point.
"""

from __future__ import annotations

from .elimtree import ElimTree, RotationEdge, from_ordering, rotate
from .errors import InstanceTooLarge
from .graphs import Graph, write_json

TreeKey = tuple[int, ...]

DEFAULT_ENUM_CAP = 10
BFS_MAX_N = 12


def neighbors(g: Graph, t: ElimTree) -> list[tuple[RotationEdge, ElimTree]]:
    """All single-rotation successors, ordered by rotated child vertex."""
    return [((u, v), rotate(g, t, (u, v))) for v, u in enumerate(t.parent) if u >= 0]


class FlipGraph:
    """The full rotation graph of one input graph.

    trees maps each key to its tree; adj maps each key to its outgoing
    (edge, key) pairs in rotation order.  Each tree also has an integer
    id, its position in `trees`, and `nbrs[i]` lists the ids adjacent to
    id i, so that `distances_from` hashes keys only at its two ends.
    """

    def __init__(self, g: Graph, trees: dict[TreeKey, ElimTree],
                 adj: dict[TreeKey, tuple[tuple[RotationEdge, TreeKey], ...]]):
        self.g = g
        self.trees = trees
        self.adj = adj
        self.keys = list(trees)
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.nbrs = [[self.index[k2] for _, k2 in adj[k]] for k in self.keys]

    def __len__(self) -> int:
        return len(self.trees)

    def nodes(self) -> list[TreeKey]:
        return sorted(self.trees)

    def distances_from(self, key: TreeKey) -> dict[TreeKey, int]:
        """BFS distance map from one node to every node it reaches."""
        nbrs = self.nbrs
        dist = [-1] * len(nbrs)
        start = self.index[key]
        dist[start] = 0
        queue = [start]
        for i in queue:
            d = dist[i] + 1
            for j in nbrs[i]:
                if dist[j] < 0:
                    dist[j] = d
                    queue.append(j)
        if len(queue) == len(dist):
            return dict(zip(self.keys, dist))
        return {self.keys[i]: dist[i] for i in queue}


def enumerate_all(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> FlipGraph:
    """Breadth-first enumeration of every elimination tree of g."""
    if g.n > cap:
        raise InstanceTooLarge(f"refusing to enumerate trees for n={g.n} > cap={cap}")
    start = from_ordering(g, list(range(g.n)))
    trees: dict[TreeKey, ElimTree] = {start.parent: start}
    adj: dict[TreeKey, tuple[tuple[RotationEdge, TreeKey], ...]] = {}
    queue = [start]
    for t in queue:
        arcs = []
        for edge, t2 in neighbors(g, t):
            k2 = t2.parent
            arcs.append((edge, k2))
            if k2 not in trees:
                trees[k2] = t2
                queue.append(t2)
        adj[t.parent] = tuple(arcs)
    return FlipGraph(g, trees, adj)


def bfs_witness(g: Graph, t: ElimTree, t2: ElimTree, cap: int | None = None):
    """(distance, shortest rotation sequence) from t to t2 over
    `neighbors`, or (None, None) if above the given cap.  `pred` maps
    each tree reached to its predecessor and rotation (None at t), and
    the search stops after the node whose neighbours reach t2.  Refuses
    n > BFS_MAX_N whatever the cap: the trees within c rotations number
    up to about n^c, and each is kept."""
    if t.n > BFS_MAX_N:
        raise InstanceTooLarge(f"refusing bfs search for n={t.n} > {BFS_MAX_N}")
    target = t2.parent
    pred: dict[TreeKey, tuple[TreeKey, RotationEdge] | None] = {t.parent: None}
    frontier = [t]
    depth = 0
    while target not in pred:
        if not frontier or (cap is not None and depth >= cap):
            return None, None
        depth += 1
        nxt = []
        for cur in frontier:
            key = cur.parent
            for edge, t3 in neighbors(g, cur):
                k3 = t3.parent
                if k3 not in pred:
                    pred[k3] = (key, edge)
                    nxt.append(t3)
            if target in pred:
                break
        frontier = nxt
    seq: list[RotationEdge] = []
    step = pred[target]
    while step is not None:
        key, edge = step
        seq.append(edge)
        step = pred[key]
    seq.reverse()
    return depth, seq


def bfs_distance(g: Graph, t: ElimTree, t2: ElimTree, cap: int | None = None):
    """Exact rotation distance, or None if above the given cap."""
    return bfs_witness(g, t, t2, cap)[0]


def diameter(g: Graph, cap: int = DEFAULT_ENUM_CAP) -> int:
    """Largest rotation distance between any two elimination trees of g."""
    fg = enumerate_all(g, cap=cap)
    best = 0
    for key in fg.trees:
        dist = fg.distances_from(key)
        assert len(dist) == len(fg.trees), "rotation graph must be connected"
        best = max(best, max(dist.values()))
    return best


# ---------------------------------------------------------------------------
# exports

def to_dot(fg: FlipGraph) -> str:
    """GraphViz rendering of `to_json_dict(fg)`: one node per tree, one
    edge per rotation."""
    d = to_json_dict(fg)
    lines = ["graph rotations {"]
    for i, key in enumerate(d["nodes"]):
        label = ",".join(str(p) for p in key)
        lines.append(f'  t{i} [label="({label})"];')
    for a, b in d["edges"]:
        lines.append(f"  t{a} -- t{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json_dict(fg: FlipGraph) -> dict:
    nodes = fg.nodes()
    index = {k: i for i, k in enumerate(nodes)}
    edges = sorted(
        {(min(index[k], index[k2]), max(index[k], index[k2]))
         for k in nodes for _, k2 in fg.adj[k]}
    )
    return {
        "n": fg.g.n,
        "nodes": [list(k) for k in nodes],
        "edges": [list(e) for e in edges],
    }


def save_json(fg: FlipGraph, path: str) -> None:
    write_json(to_json_dict(fg), path)


def save_dot(fg: FlipGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_dot(fg))
