"""Undirected simple graphs on vertex set {0, ..., n-1}.

Vertices are dense integer ids.  Graphs are immutable once built; all
iteration orders (neighbors, edges) are sorted so that every algorithm
downstream is deterministic.
"""

from __future__ import annotations

import json
import random
from typing import Iterable

from .errors import InvalidParameter, InvalidVertex, SelfLoop

Edge = tuple[int, int]


class Graph:
    """An undirected simple graph with a fixed vertex count.

    Built once from its edges: `_sets[v]` holds the neighbours of v for
    membership tests and `_sorted[v]` the same neighbours ascending for
    iteration.  Neither is changed after construction.
    """

    __slots__ = ("n", "m", "_sets", "_sorted", "names", "_connected")

    def __init__(self, n: int, edges: Iterable[Edge], names: tuple[str, ...] | None = None):
        if n < 1:
            raise InvalidParameter(f"graph needs at least one vertex, got n={n}")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n) or not (0 <= v < n):
                raise InvalidVertex(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise SelfLoop(f"self-loop at vertex {u}")
            sets[u].add(v)
            sets[v].add(u)
        self.n = n
        self._sets = sets
        self.m = sum(map(len, sets)) // 2
        self._sorted = tuple(tuple(sorted(s)) for s in sets)
        self.names = names
        self._connected: bool | None = None

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v in ascending order."""
        self._check(v)
        return self._sorted[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        return v in self._sets[u]

    def edges(self) -> tuple[Edge, ...]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return tuple((u, v) for u in range(self.n) for v in self._sorted[u] if u < v)

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidVertex(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._sorted == other._sorted

    def __hash__(self) -> int:
        return hash((self.n, self._sorted))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def is_connected(g: Graph) -> bool:
    """True iff g has exactly one connected component.  The answer is
    kept on g, so each graph is walked once."""
    if g._connected is not None:
        return g._connected
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in g._sorted[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    g._connected = count == g.n
    return g._connected


# ---------------------------------------------------------------------------
# generators

FAMILIES = ("path", "cycle", "star", "complete", "complete_split", "random_connected")


def generate(family: str, n: int, *, seed: int | None = None, p: float = 0.2,
             clique: int | None = None) -> Graph:
    """Build a named family member on n vertices.

    `random_connected` draws a random spanning tree and keeps each extra
    edge with probability p; it requires a seed so runs are reproducible.
    `complete_split` is a clique on the first `clique` vertices (default
    (n+1)//2) joined completely to an independent set on the rest.
    """
    if n < 1:
        raise InvalidParameter(f"n must be positive, got {n}")
    if family == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        if n < 3:
            raise InvalidParameter(f"cycle needs n >= 3, got {n}")
        return Graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "star":
        return Graph(n, [(0, i) for i in range(1, n)])
    if family == "complete":
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if family == "complete_split":
        c = (n + 1) // 2 if clique is None else clique
        if not (1 <= c <= n):
            raise InvalidParameter(f"clique size {c} out of range for n={n}")
        edges = [(i, j) for i in range(c) for j in range(i + 1, c)]
        edges += [(i, j) for i in range(c) for j in range(c, n)]
        return Graph(n, edges)
    if family == "random_connected":
        if seed is None:
            raise InvalidParameter("random_connected requires a seed")
        rng = random.Random(seed)
        order = list(range(n))
        rng.shuffle(order)
        edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
        tree = set(frozenset(e) for e in edges)
        for u in range(n):
            for v in range(u + 1, n):
                if frozenset((u, v)) not in tree and rng.random() < p:
                    edges.append((u, v))
        return Graph(n, edges)
    raise InvalidParameter(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# JSON files: {"n": int, "edges": [[u, v], ...], "names": optional list}

def to_json_dict(g: Graph) -> dict:
    d: dict = {"n": g.n, "edges": [list(e) for e in g.edges()]}
    if g.names is not None:
        d["names"] = list(g.names)
    return d


def from_json_dict(d: dict) -> Graph:
    """A graph from its JSON object; anything malformed raises
    InvalidParameter (or InvalidVertex for an unknown vertex name).

    n and numeric vertices must be JSON integers, not floats or
    booleans; edges must be a list of pairs and names a list of n
    distinct labels.
    """
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise InvalidParameter("malformed graph object: needs keys 'n' and 'edges'")
    n, raw = d["n"], d["edges"]
    if type(n) is not int:
        raise InvalidParameter(f"malformed graph object: n must be an integer, got {n!r}")
    if not isinstance(raw, list):
        raise InvalidParameter(f"malformed graph object: edges must be a list, got {raw!r}")
    names = None
    index: dict[str, int] = {}
    if "names" in d:
        if not isinstance(d["names"], list):
            raise InvalidParameter(f"malformed graph object: names must be a list, got {d['names']!r}")
        names = tuple(str(x) for x in d["names"])
        if len(names) != n:
            raise InvalidParameter(f"malformed graph object: names lists {len(names)} labels for n={n}")
        index = {name: i for i, name in enumerate(names)}
        if len(index) != n:
            twice = next(x for i, x in enumerate(names) if index[x] != i)
            raise InvalidParameter(f"malformed graph object: name {twice!r} is listed twice")

    def resolve(x) -> int:
        if isinstance(x, str):
            if x not in index:
                raise InvalidVertex(f"unknown vertex name {x!r}")
            return index[x]
        if type(x) is not int:
            raise InvalidParameter(f"malformed graph object: vertex {x!r} is not an integer or a name")
        return x

    edges = []
    for e in raw:
        if not isinstance(e, list) or len(e) != 2:
            raise InvalidParameter(f"malformed graph object: edge {e!r} is not a pair")
        u, v = e
        if names is not None or type(u) is not int or type(v) is not int:
            u, v = resolve(u), resolve(v)
        edges.append((u, v))
    return Graph(n, edges, names)


def read_json(path: str):
    """The JSON document in the file at path.  A file that is not UTF-8,
    not JSON, or nests deeper than the parser can follow raises
    InvalidParameter naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise InvalidParameter(f"{path} is not UTF-8 text: {exc}") from None
        except ValueError as exc:
            # malformed JSON, or an integer too long to convert
            raise InvalidParameter(f"{path}: {exc}") from None
        except RecursionError:
            raise InvalidParameter(f"{path} nests too deeply to read as JSON") from None


def write_json(obj, path: str) -> None:
    """Write obj to the file at path as indented JSON ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def load_graph(path: str) -> Graph:
    """The graph in the JSON file at path; errors name the path."""
    d = read_json(path)
    try:
        return from_json_dict(d)
    except (InvalidParameter, InvalidVertex, SelfLoop) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def save_graph(g: Graph, path: str) -> None:
    write_json(to_json_dict(g), path)
