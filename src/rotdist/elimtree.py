"""Elimination trees of a connected graph, and the rotation move on them.

An elimination tree of a connected graph G is a rooted tree on V(G);
removing the root must split G into the components hanging below it,
recursively.  Equivalently: every G-edge joins an ancestor-descendant
pair, and every subtree induces a connected subgraph of G.

Trees are stored as immutable parent vectors (-1 marks the root), so
the parent tuple doubles as a tree's hashable key.  Each tree is walked
at most once, when first asked for its preorder or depths: the cycle
check of `from_parent_vector`, `validity_violations`, `depth` and the
typing stage of `fpt` all read that one kept walk.  `from_ordering`
builds a tree in one back-to-front pass over the order.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    DisconnectedGraph,
    InvalidOrdering,
    InvalidParameter,
    InvalidTree,
    InvalidVertex,
    NotATreeEdge,
)
from .graphs import Graph, is_connected, read_json, write_json

ROOT = -1

RotationEdge = tuple[int, int]


class ElimTree:
    """A rooted spanning tree encoded by its parent vector."""

    __slots__ = ("parent", "root", "_children", "_walked")

    def __init__(self, parent: Sequence[int]):
        par = tuple(parent)
        n = len(par)
        buckets: list[list[int]] = [[] for _ in range(n)]
        root = ROOT
        for v, p in enumerate(par):
            if p == ROOT:
                if root != ROOT:
                    raise InvalidTree(f"two roots: {root} and {v}")
                root = v
            elif 0 <= p < n:
                buckets[p].append(v)
            else:
                raise InvalidTree(f"parent {p} of vertex {v} out of range")
        if root == ROOT:
            raise InvalidTree("no root (-1 entry) in parent vector")
        self.parent = par
        self.root = root
        self._children = tuple(tuple(b) for b in buckets)
        self._walked: tuple[tuple[int, ...], tuple[int, ...]] | None = None

    @classmethod
    def _of(cls, parent: tuple[int, ...], root: int,
            children: tuple[tuple[int, ...], ...]) -> "ElimTree":
        """A tree from parts known to be consistent, without checks."""
        t = object.__new__(cls)
        t.parent = parent
        t.root = root
        t._children = children
        t._walked = None
        return t

    @property
    def n(self) -> int:
        return len(self.parent)

    def children(self, v: int) -> tuple[int, ...]:
        """Children of v in ascending order."""
        return self._children[v]

    def depth(self, v: int) -> int:
        return self._walk()[1][v]

    def _walk(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The vertices reached from the root in depth-first preorder,
        and the depth of every vertex (0 where the walk never reaches it,
        which happens only when the parents form a cycle).  Walked on the
        first call and kept on the tree."""
        if self._walked is None:
            children = self._children
            depth = [0] * len(children)
            order = []
            stack = [self.root]
            while stack:
                u = stack.pop()
                order.append(u)
                below = children[u]
                if below:
                    d = depth[u] + 1
                    for c in below:
                        depth[c] = d
                    stack.extend(below)
            self._walked = (tuple(order), tuple(depth))
        return self._walked

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElimTree):
            return NotImplemented
        return self.parent == other.parent

    def __hash__(self) -> int:
        return hash(self.parent)

    def __repr__(self) -> str:
        return f"ElimTree({list(self.parent)!r})"


def from_parent_vector(parent: Sequence[int]) -> ElimTree:
    """Build a tree from an untrusted parent vector.

    Beyond the single-root check done by the constructor, verify that
    the walk from the root reaches every vertex (no cycles among
    parents).  The walk stays on the tree for its later readers.
    """
    t = ElimTree(parent)
    if len(t._walk()[0]) != t.n:
        raise InvalidTree("parent vector contains a cycle")
    return t


def from_ordering(g: Graph, order: Sequence[int]) -> ElimTree:
    """Elimination tree produced by eliminating vertices in `order`.

    The first vertex of the order within each recursive component
    becomes that component's root.  Built in one back-to-front pass
    (Liu's algorithm): the trees built so far span the components of
    the graph induced by the vertices after v, so when v is added, the
    root of each tree holding a G-neighbour of v becomes a child of v.
    Roots are found by union-find with path halving, so the pass costs
    about O(m log n).
    """
    n = g.n
    if sorted(order) != list(range(n)):
        raise InvalidOrdering(f"order is not a permutation of 0..{n - 1}")
    if not is_connected(g):
        raise DisconnectedGraph("elimination trees are defined for connected graphs")
    parent = [ROOT] * n
    added = [False] * n
    # top[x] leads towards the root of the tree holding x; top[r] == r at a root
    top = list(range(n))
    for v in reversed(order):
        for w in g._sorted[v]:
            if added[w]:
                r = w
                while top[r] != r:
                    top[r] = top[top[r]]
                    r = top[r]
                if r != v:
                    parent[r] = v
                    top[r] = v
        added[v] = True
    return ElimTree(parent)


def validity_violations(g: Graph, t: ElimTree, limit: int = 20) -> list[str]:
    """Everything wrong with t as an elimination tree of g.

    Two conditions are checked on top of the structural ones: every
    G-edge joins an ancestor-descendant pair, and every non-root subtree
    has a G-edge to its parent.  Given the first condition, the second
    is equivalent to every subtree inducing a connected subgraph.

    One pass over the tree's kept walk settles both.  It keeps the path
    from the root to the visited vertex x in `path`, indexed by depth:
    the walk is a depth-first preorder, so every vertex visited between
    an ancestor of x and x lies below that ancestor and cannot overwrite
    its entry.  A G-neighbour y of x with depth[y] < depth[x] is then a
    proper ancestor exactly when path[depth[y]] == y, and the child of y
    whose subtree holds x is path[depth[y] + 1]; one with depth[y] ==
    depth[x] is never comparable to x.  The pass meets every edge from
    its deeper end, or from both ends when the depths are equal, so the
    edges it puts in `incomparable` are exactly those that join no
    ancestor-descendant pair, and a valid tree builds no message.
    The messages, the first `limit` of them, are the incomparable edges
    in sorted order, then the subtrees with no edge to their parent, by
    parent.  A limit below 1 raises InvalidParameter, since it would
    hide every message.
    """
    if limit < 1:
        raise InvalidParameter(f"limit must be at least 1, got {limit}")
    if t.n != g.n:
        return [f"tree has {t.n} vertices, graph has {g.n}"]
    order, depth = t._walk()
    if len(order) != t.n:
        return ["parent vector contains a cycle"]
    adj = g._sorted
    path = [0] * t.n
    hit = [False] * t.n
    hit[t.root] = True
    incomparable: set[tuple[int, int]] = set()
    for x in order:
        d = depth[x]
        path[d] = x
        for y in adj[x]:
            dy = depth[y]
            if dy < d and path[dy] == y:
                hit[path[dy + 1]] = True
            elif dy <= d:
                incomparable.add((y, x) if y < x else (x, y))
    if not incomparable and False not in hit:
        return []
    out = [f"edge ({u},{v}) joins incomparable vertices"
           for u, v in sorted(incomparable)[:limit]]
    for v in range(t.n):
        # the messages of one parent follow the visiting order of the pass
        for c in reversed(t._children[v]):
            if len(out) >= limit:
                return out
            if not hit[c]:
                out.append(f"subtree at {c} has no edge to its parent {v}")
    return out


def validate(g: Graph, t: ElimTree) -> bool:
    """True iff t is an elimination tree of g."""
    return not validity_violations(g, t)


# The touch test: which old children of v a rotation of (u, v) moves
# under u.  `rotate`, the search's first pass and `MutableTree.rotate`
# all call the one test, `moved_children`, which keeps nothing between
# calls.  Two scans give the same answer at different costs; they run
# in lockstep under a step budget that starts at _FIRST_BUDGET and
# doubles, so one test costs within a constant factor of the cheaper
# scan.  Walking the child subtrees of v is cheap when they are small;
# climbing from the G-neighbours of u is cheap when u has few neighbours
# close to it, as a leaf of a star whose centre has thousands of children.

_FIRST_BUDGET = 16


def _walk_subtrees(g: Graph, children, u: int, v: int, budget: int) -> list[int] | None:
    """Children of v whose subtree holds a G-neighbour of u, found by
    walking each child subtree; None when that takes more than `budget`
    visited vertices."""
    adj_u = g._sets[u]
    out = []
    for w in children[v]:
        stack = [w]
        while stack:
            budget -= 1
            if budget < 0:
                return None
            x = stack.pop()
            if x in adj_u:
                out.append(w)
                break
            stack.extend(children[x])
    return out


def _climb_from_neighbours(g: Graph, parent, u: int, v: int, budget: int) -> set[int] | None:
    """The same children, found by climbing from each G-neighbour y of u;
    None when that takes more than `budget` steps.

    Every G-neighbour of u is an ancestor or a descendant of u.  A climb
    from y that reaches v passes through the child of v holding y; one
    that reaches u, or an ancestor of u, shows y is not below v.  The
    ancestors of u are found by a second climb from u, one step per step
    of the first, so telling an ancestor apart costs its distance to u,
    not its depth.
    """
    above = {u, ROOT}
    top = u
    out = set()
    for y in g._sorted[u]:
        x, below = y, ROOT
        while True:
            if x == v:
                if below != ROOT:
                    out.add(below)
                break
            if x in above or y in above:
                break
            budget -= 1
            if budget < 0:
                return None
            below, x = x, parent[x]
            if top != ROOT:
                top = parent[top]
                above.add(top)
    return out


def moved_children(g: Graph, parent, children, u: int, v: int):
    """Children of v whose subtree has a G-edge to u: the ones a rotation
    of the tree edge (u, v) moves under u.

    `parent` maps each vertex to its parent and `children` each vertex
    to its children, as tuples or sets; neither is changed.
    """
    if not children[v]:
        return ()
    budget = _FIRST_BUDGET
    while True:
        found = _walk_subtrees(g, children, u, v, budget)
        if found is None:
            found = _climb_from_neighbours(g, parent, u, v, budget)
        if found is not None:
            return found
        budget *= 2


def rotate(g: Graph, t: ElimTree, edge: RotationEdge) -> ElimTree:
    """Rotate the tree edge (u, v), where u is the parent of v.

    v takes u's place (u's old parent, or the root); u becomes a child
    of v; u keeps its other children; each old child subtree of v moves
    under u exactly when it has a G-edge to u, otherwise it stays under
    v.  The move is an involution: rotating (v, u) afterwards undoes it.
    """
    u, v = edge
    n = t.n
    if not (0 <= u < n and 0 <= v < n):
        raise InvalidVertex(f"rotation edge ({u},{v}) out of range for n={n}")
    if t.parent[v] != u:
        raise NotATreeEdge(f"({u},{v}) is not a tree edge with parent {u}", edge=edge)
    parent = t.parent
    kids = list(t._children)
    moved = moved_children(g, parent, kids, u, v)
    pu = parent[u]
    newpar = list(parent)
    newpar[v] = pu
    newpar[u] = v
    # Only the child tuples of u, v and u's parent change; they stay sorted.
    if pu != ROOT:
        above = kids[pu]
        kids[pu] = (v,) if len(above) == 1 else tuple(sorted([v if c == u else c for c in above]))
    if moved:
        for w in moved:
            newpar[w] = u
        kids[u] = tuple(sorted([c for c in kids[u] if c != v] + list(moved)))
        kids[v] = tuple(sorted([c for c in kids[v] if c not in moved] + [u]))
    else:
        kids[u] = tuple([c for c in kids[u] if c != v])
        kids[v] = tuple(sorted(kids[v] + (u,)))
    return ElimTree._of(tuple(newpar), v if pu == ROOT else t.root, tuple(kids))


class MutableTree:
    """One elimination tree of g, changed in place by rotations.

    `parent` is a parent list (-1 at the root) and `children[x]` holds
    the children of x.  Only the vertices of `movable` may be rotated.
    A rotation of (u, v) changes the child sets of u, v and u's parent
    only, and u's parent is always movable or the parent in the first
    tree of a movable vertex; those vertices get mutable child sets, the
    others keep the tuples of the tree the state was built from.  Each
    rotation runs the same touch test as `rotate`, on this state.
    """

    __slots__ = ("g", "parent", "children")

    def __init__(self, g: Graph, t: ElimTree, movable: frozenset[int]):
        parent = t.parent
        children: list = list(t._children)
        for x in movable:
            children[x] = set(children[x])
            p = parent[x]
            if p != ROOT and p not in movable:
                children[p] = set(children[p])
        self.g = g
        self.parent = list(parent)
        self.children = children

    def rotate(self, u: int, v: int):
        """Rotate the tree edge (u, v), u the parent of v, both movable
        (not checked), as `rotate` would; return the children of v that
        moved under u.  Only the parents of u, v and those children
        change."""
        moved = moved_children(self.g, self.parent, self.children, u, v)
        self._apply(u, v, moved)
        return moved

    def undo(self, u: int, v: int, moved) -> None:
        """Undo `rotate(u, v)`, which returned `moved`, by the reverse
        rotation (v, u).  That rotation moves exactly `moved` back under
        v, since each of them has a G-edge to v and no other child of u
        has one, so it needs no touch test."""
        self._apply(v, u, moved)

    def _apply(self, u: int, v: int, moved) -> None:
        parent = self.parent
        children = self.children
        pu = parent[u]
        parent[v] = pu
        parent[u] = v
        if pu != ROOT:
            above = children[pu]
            above.discard(u)
            above.add(v)
        kids_u = children[u]
        kids_v = children[v]
        kids_u.discard(v)
        kids_v.add(u)
        for w in moved:
            parent[w] = u
            kids_v.discard(w)
            kids_u.add(w)


def apply_sequence(g: Graph, t: ElimTree, seq: Iterable[RotationEdge]) -> ElimTree:
    """Apply rotations left to right; report the failing step if any."""
    cur = t
    for i, edge in enumerate(seq, start=1):
        u, v = edge
        if not (0 <= u < cur.n and 0 <= v < cur.n) or cur.parent[v] != u:
            raise NotATreeEdge(
                f"step {i}: ({u},{v}) is not a tree edge", edge=edge, step=i
            )
        cur = rotate(g, cur, edge)
    return cur


# ---------------------------------------------------------------------------
# JSON files: {"parent": [p_0, ..., p_{n-1}]}, -1 for the root

def to_json_dict(t: ElimTree) -> dict:
    return {"parent": list(t.parent)}


def from_json_dict(d: dict) -> ElimTree:
    """A tree from its JSON object; the parents must be JSON integers,
    not floats or booleans, else InvalidTree."""
    if not isinstance(d, dict) or not isinstance(d.get("parent"), list):
        raise InvalidTree("malformed tree object: needs a 'parent' list")
    parent = d["parent"]
    for p in parent:
        if type(p) is not int:
            raise InvalidTree(f"malformed tree object: parent {p!r} is not an integer")
    return from_parent_vector(parent)


def load_tree(path: str) -> ElimTree:
    """The tree in the JSON file at path; errors name the path."""
    d = read_json(path)
    try:
        return from_json_dict(d)
    except InvalidTree as exc:
        raise InvalidTree(f"{path}: {exc}") from None


def save_tree(t: ElimTree, path: str) -> None:
    write_json(to_json_dict(t), path)
