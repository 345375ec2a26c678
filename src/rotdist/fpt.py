"""Fixed-parameter decision procedure for "rotation distance at most k".

Two elimination trees of the same graph can only disagree near vertices
whose child sets differ, so the search for a short rotation sequence is
confined to balls around those vertices.  Within each ball component,
vertices are classified by a (desired parent, trace, child multiset)
type; out of each sibling group of equal type only k+1 representatives
need to be kept.  The surviving marked set M has size independent of
vertex degrees, and an iterative-deepening search over rotations with
both endpoints in M decides the distance bound exactly.

The bad vertices are read off the two parent vectors alone.  Each
component is walked once, and keeps its members' child lists; typing,
premarking, marking and the diameter in the --explain dump read those
lists.  Types are computed in one bottom-up pass per component, deepest
level first, with depths from the source tree's one kept walk.  A
vertex's trace is read off an integer mask of the ancestor depths its
subtree touches, built from its own G-neighbours, its component
children's masks and one walk of each child subtree hanging outside
the ball.

The search is cut two ways.  An elimination tree is a maximal tubing
whose tubes are its non-root subtrees, and a rotation of (u, v) trades
exactly one tube, the subtree of v, for one (Carr and Devadoss,
Topology Appl. 2006).  So the number of tubes of the current tree that
the target lacks falls by at most one per rotation, and a node where it
exceeds the budget left is a dead end (IDA*).  And a shortest path never
removes a tube that its two ends share: Manneville and Pilaud show that
every graph associahedron has the non-leaving-face property, that each
geodesic between two vertices of a face stays in the face (Sem. Lothar.
Combin. 73, 2015; for the associahedron, Sleator, Tarjan and Thurston,
JAMS 1988).  So the search never rotates (u, v) when the subtree of v is
a subtree of the target: the face rule.  Both cuts keep every shortest
path and the search keeps no memo, so the witness is the first shortest
sequence in the order the plain search tries its moves.  Both read one
index of which subtrees are subtrees of the target (`_tube_index`),
set up over the marked vertices and the ancestors of the bad ones only:
exact, since the face rule must never skip a move a geodesic makes, and
additive, so that a rotation updates it at u and v only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .elimtree import ROOT, ElimTree, MutableTree, RotationEdge, moved_children
# rotate is not called here; the benchmark's tracer wraps fpt.rotate to count calls from fpt.
from .elimtree import rotate  # noqa: F401
from .errors import DisconnectedGraph, InvalidParameter
from .graphs import Graph, is_connected

SAME = "same"
WANT_ROOT = "root"

TypeId = int


@dataclass(frozen=True)
class BadnessReport:
    """Vertices whose child set or parent differs between two trees."""

    children_bad: frozenset[int]
    parent_bad: frozenset[int]

    @property
    def bad(self) -> frozenset[int]:
        return self.children_bad | self.parent_bad


@dataclass(frozen=True)
class Ball:
    """Vertices within `radius` tree-distance of the seed set."""

    vertices: frozenset[int]
    radius: int


def classify_bad(t: ElimTree, t2: ElimTree) -> BadnessReport:
    """Compare the two trees by their parent vectors alone.

    The parents are compared as values, with the root sentinel treated
    like any other parent.  The child set of x differs exactly when some
    vertex has x as its parent in one tree and not in the other, so the
    children-bad vertices are the old and new parents of the parent-bad
    ones, less the root sentinel.  children_bad is empty exactly when
    the trees are equal.
    """
    par, par2 = t.parent, t2.parent
    pb = [v for v in range(t.n) if par[v] != par2[v]]
    cb = {par[v] for v in pb}
    cb.update(par2[v] for v in pb)
    cb.discard(ROOT)
    return BadnessReport(frozenset(cb), frozenset(pb))


def want_parent(t: ElimTree, t2: ElimTree, v: int):
    """Where v wants its parent to move: SAME, WANT_ROOT, or a vertex."""
    if t.parent[v] == t2.parent[v]:
        return SAME
    if t2.parent[v] == ROOT:
        return WANT_ROOT
    return t2.parent[v]


def compute_bcb(t: ElimTree, report: BadnessReport, k: int) -> Ball:
    """Ball of radius 2k+1 in t around the children-bad set plus the root.

    Radius 2k+1 (rather than 2k) also covers the parents of vertices
    whose subtree content an optimal sequence may consult.
    """
    if k < 1:
        raise InvalidParameter(f"k must be at least 1, got {k}")
    radius = 2 * k + 1
    seen = set(report.children_bad)
    seen.add(t.root)
    frontier = list(seen)
    children = t._children
    parent = t.parent
    for _ in range(radius):
        if not frontier:
            break
        nxt = []
        for u in frontier:
            p = parent[u]
            if p != ROOT and p not in seen:
                seen.add(p)
                nxt.append(p)
            for c in children[u]:
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return Ball(frozenset(seen), radius)


class Component:
    """One connected piece of the ball, as a subtree of t.

    zroot is the unique member closest to the root of t; every other
    member lies strictly below it.  kids maps each member with children
    inside the component to those children, in ascending order.
    """

    __slots__ = ("vertices", "zroot", "tree", "kids")

    def __init__(self, tree: ElimTree, vertices: frozenset[int], zroot: int,
                 kids: dict[int, tuple[int, ...]]):
        self.tree = tree
        self.vertices = vertices
        self.zroot = zroot
        self.kids = kids

    def children(self, v: int) -> tuple[int, ...]:
        """Children of v that stay inside the component."""
        return self.kids.get(v, ())

    def __repr__(self) -> str:
        return f"Component(zroot={self.zroot}, size={len(self.vertices)})"


def components(t: ElimTree, ball_vertices: Iterable[int]) -> list[Component]:
    """Connected components of the ball inside t, sorted by zroot.

    One walk per component finds its members, its zroot (the member
    whose parent lies outside the ball) and each member's children
    inside the ball, which are all in its component.
    """
    inside = set(ball_vertices)
    parent, children = t.parent, t._children
    out = []
    seen: set[int] = set()
    for start in inside:
        if start in seen:
            continue
        comp = {start}
        kids: dict[int, tuple[int, ...]] = {}
        zroot = start
        stack = [start]
        while stack:
            u = stack.pop()
            p = parent[u]
            if p == ROOT or p not in inside:
                zroot = u
            elif p not in comp:
                comp.add(p)
                stack.append(p)
            below = children[u]
            if below:
                inner = [c for c in below if c in inside]
                if inner:
                    kids[u] = below if len(inner) == len(below) else tuple(inner)
                    for c in inner:
                        if c not in comp:
                            comp.add(c)
                            stack.append(c)
        seen |= comp
        out.append(Component(t, frozenset(comp), zroot, kids))
    out.sort(key=lambda z: z.zroot)
    return out


def check_early_no(report: BadnessReport, comps: list[Component], k: int) -> str | None:
    """Cheap certificates that the distance exceeds k, or None.

    A single rotation changes at most three child sets, so more than 3k
    children-bad vertices rule out k rotations.  And each component of
    the ball holding a bad vertex needs at least one rotation of its
    own, so more than k such components also rule them out.
    """
    if len(report.children_bad) > 3 * k:
        return (f"{len(report.children_bad)} vertices with differing child sets "
                f"exceed 3k={3 * k}")
    bad = report.bad
    dirty = sum(1 for z in comps if not bad.isdisjoint(z.vertices))
    if dirty > k:
        return f"{dirty} ball components contain differing vertices, more than k={k}"
    return None


class TypeTable:
    """Interning table mapping canonical type records to small ids.

    A record is (want-parent, trace, child summary), where the child
    summary lists (child type id, count capped at k+1) pairs sorted by
    id; leaves get an empty summary.  vertex_types holds the id assigned
    to each classified vertex.
    """

    def __init__(self):
        self._records: list[tuple] = []
        self._ids: dict[tuple, TypeId] = {}
        self.vertex_types: dict[int, TypeId] = {}

    def intern(self, record: tuple) -> TypeId:
        tid = self._ids.get(record)
        if tid is None:
            tid = len(self._records)
            self._records.append(record)
            self._ids[record] = tid
        return tid

    def record_of(self, tid: TypeId) -> tuple:
        return self._records[tid]

    def __len__(self) -> int:
        return len(self._records)


def compute_types(g: Graph, t: ElimTree, t2: ElimTree, z: Component, k: int,
                  table: TypeTable) -> None:
    """Classify every vertex of the component in one bottom-up pass.

    A vertex's record is (want-parent, trace, child summary).  Its trace
    has one bit per proper ancestor inside the component, nearest first:
    whether some vertex of its full subtree in t is a G-neighbour of that
    ancestor.  It is read off a mask whose bit j stands for the ancestor
    at component depth j: the OR of the depths of the vertex's own
    G-neighbours above it (in an elimination tree each is an ancestor),
    of its component children's masks less its own bit, and of one walk
    of its child subtrees outside the component, stopped once every bit
    is set.  Levels are visited deepest first and ascending within a
    level, so records are interned in (-depth, vertex) order.
    """
    depth = t._walk()[1]
    zd = depth[z.zroot]
    tkids, adj = t._children, g._sorted
    kids, verts, vertex_types = z.kids, z.vertices, table.vertex_types
    cap = k + 1
    levels = [[z.zroot]]
    while True:
        nxt = [c for v in levels[-1] for c in kids.get(v, ())]
        if not nxt:
            break
        nxt.sort()
        levels.append(nxt)
    masks: dict[int, int] = {}
    for d in range(len(levels) - 1, -1, -1):
        top = zd + d
        full = (1 << d) - 1
        traces: dict[int, tuple[int, ...]] = {}
        for v in levels[d]:
            mask = 0
            for y in adj[v]:
                dy = depth[y]
                if zd <= dy < top:
                    mask |= 1 << (dy - zd)
            inner = kids.get(v, ())
            summary = ()
            if inner:
                counts: dict[TypeId, int] = {}
                for c in inner:
                    mask |= masks[c]
                    tid = vertex_types[c]
                    counts[tid] = counts.get(tid, 0) + 1
                mask &= full
                summary = tuple(sorted((tid, min(cap, m)) for tid, m in counts.items()))
            if mask != full and len(inner) < len(tkids[v]):
                stack = [c for c in tkids[v] if c not in verts]
                while stack and mask != full:
                    w = stack.pop()
                    for y in adj[w]:
                        dy = depth[y]
                        if zd <= dy < top:
                            mask |= 1 << (dy - zd)
                    stack.extend(tkids[w])
            masks[v] = mask
            trace = traces.get(mask)
            if trace is None:
                trace = traces[mask] = tuple([mask >> j & 1 for j in range(d - 1, -1, -1)])
            vertex_types[v] = table.intern((want_parent(t, t2, v), trace, summary))


def premark(z: Component, types: Mapping[int, TypeId], k: int) -> frozenset[int]:
    """Keep at most k+1 children per type under every component vertex.

    Groups larger than k+1 keep their k+1 lowest-numbered members; zroot
    is always kept.
    """
    kept = {z.zroot}
    cap = k + 1
    for inner in z.kids.values():
        sizes: dict[TypeId, int] = {}
        for c in inner:
            tid = types[c]
            m = sizes.get(tid, 0)
            if m < cap:
                sizes[tid] = m + 1
                kept.add(c)
    return frozenset(kept)


def mark(z: Component, premarked: frozenset[int], report: BadnessReport) -> frozenset[int]:
    """Grow the marked set top-down, then close over bad vertices.

    Starting from zroot, a premarked vertex joins when its component
    parent has joined.  Afterwards every children-bad vertex of the
    component joins along with all its component ancestors, whether or
    not they were premarked.
    """
    kids = z.kids
    mz = {z.zroot}
    stack = [z.zroot]
    while stack:
        v = stack.pop()
        for c in kids.get(v, ()):
            if c in premarked and c not in mz:
                mz.add(c)
                stack.append(c)
    parent = z.tree.parent
    for b in report.children_bad:
        if b in z.vertices:
            cur = b
            while cur not in mz:
                mz.add(cur)
                cur = parent[cur]
    return frozenset(mz)


def compute_marking(g: Graph, t: ElimTree, t2: ElimTree, k: int) -> Decision:
    """Run the classification pipeline, stopping before the search.

    Returns a Decision with no verdict yet.  When an early NO certificate
    fires it holds the report, ball and components and names the
    certificate in `early_no`; otherwise it also holds the type table
    and the marked sets.
    """
    report = classify_bad(t, t2)
    bcb = compute_bcb(t, report, k)
    comps = components(t, bcb.vertices)
    dec = Decision(k=k, n=g.n, report=report, ball=bcb, comps=comps,
                   early_no=check_early_no(report, comps, k))
    if dec.early_no is not None:
        return dec
    table = TypeTable()
    premarked: set[int] = set()
    marked: set[int] = set()
    for z in comps:
        compute_types(g, t, t2, z, k, table)
        pz = premark(z, table.vertex_types, k)
        mz = mark(z, pz, report)
        premarked |= pz
        marked |= mz
        dec.marked_per_component[z.zroot] = mz
    dec.table = table
    dec.premarked = frozenset(premarked)
    dec.marked = frozenset(marked)
    return dec


@dataclass
class Decision:
    """Outcome of fpt_decide plus everything computed along the way.

    compute_marking fills the pipeline fields, from `report` to
    `marked_per_component`; fpt_decide and its search set `yes` and
    `witness`.
    """

    k: int
    n: int
    yes: bool = False
    witness: tuple[RotationEdge, ...] | None = None
    early_no: str | None = None
    report: BadnessReport | None = None
    ball: Ball | None = None
    comps: list[Component] = field(default_factory=list)
    table: TypeTable | None = None
    premarked: frozenset[int] = frozenset()
    marked: frozenset[int] = frozenset()
    marked_per_component: dict[int, frozenset[int]] = field(default_factory=dict)
    stats: dict = field(default_factory=lambda: {"nodes_expanded": 0, "bound_cuts": 0,
                                                  "face_cuts": 0})

    def to_json_dict(self) -> dict:
        comps = [
            {
                "zroot": z.zroot,
                "vertices": sorted(z.vertices),
                "diameter": _component_diameter(z),
            }
            for z in self.comps
        ]
        return {
            "n": self.n,
            "k": self.k,
            "verdict": "YES" if self.yes else "NO",
            "witness": [list(e) for e in self.witness] if self.witness is not None else None,
            "children_bad": sorted(self.report.children_bad) if self.report else [],
            "parent_bad": sorted(self.report.parent_bad) if self.report else [],
            "early_no": self.early_no,
            "ball_radius": self.ball.radius if self.ball else None,
            "ball": sorted(self.ball.vertices) if self.ball else [],
            "components": comps,
            "vertex_types": {str(v): tid for v, tid in sorted(self.table.vertex_types.items())}
            if self.table else {},
            "type_count": len(self.table) if self.table else 0,
            "premarked": sorted(self.premarked),
            "marked": sorted(self.marked),
            "marked_per_component": {str(z): sorted(m)
                                     for z, m in self.marked_per_component.items()},
            "search": dict(self.stats),
        }


def _component_diameter(z: Component) -> int:
    """Edges on the longest path inside the component: one bottom-up
    pass that joins, at each vertex, its two tallest child heights."""
    kids = z.kids
    order = [z.zroot]
    for v in order:
        order.extend(kids.get(v, ()))
    height: dict[int, int] = {}
    best = 0
    for v in reversed(order):
        first = second = 0
        for c in kids.get(v, ()):
            h = height[c] + 1
            if h > first:
                first, second = h, first
            elif h > second:
                second = h
        height[v] = first
        best = max(best, first + second)
    return best


def fpt_decide(g: Graph, t: ElimTree, t2: ElimTree, k: int) -> Decision:
    """Decide whether t2 is at most k rotations away from t.

    Both trees must be valid elimination trees of g (not re-checked
    here).  The verdict is exact; YES comes with a shortest rotation
    sequence over marked vertices.
    """
    if t.n != g.n or t2.n != g.n:
        raise InvalidParameter("graph and trees disagree on the vertex count")
    if k < 0:
        raise InvalidParameter(f"k must be nonnegative, got {k}")
    if not is_connected(g):
        raise DisconnectedGraph("rotation distance is defined over connected graphs")
    if t.parent == t2.parent:
        return Decision(k=k, n=g.n, yes=True, witness=())
    if k == 0:
        return Decision(k=k, n=g.n, early_no="trees differ and k=0 allows no rotations")
    dec = compute_marking(g, t, t2, k)
    if dec.early_no is None:
        _search(g, t, t2, dec)
    return dec




def _tube_index(t: ElimTree, t2: ElimTree, report: BadnessReport,
                marked: frozenset[int]):
    """An exact, additive index of which subtrees of t are subtrees of t2.

    Tracked are the vertices in keep, the marked ones with the bad ones
    and their ancestors; keep is closed upwards in both trees.  Any other
    subtree never changes in the search and is the same set in t and t2,
    so each one hanging from a kept vertex is one element, an atom, the
    same in both trees.  The elements are numbered in a preorder of t2
    with each kept vertex's atoms, in vertex order, right after it, so
    each kept subtree of t2 is a run of positions.  A set of elements is
    kept as its count, sum of positions and sum of squares, packed into
    one integer in fields too wide to carry, so sets add and subtract as
    integers.  For a given count and sum, distinct integers have the
    least sum of squares exactly when they form a run, so a kept subtree
    of t is a subtree of t2 exactly when its packed sums are in `target`,
    those of the kept subtrees of t2.

    Returns the packed sums of each kept subtree of t, by vertex;
    `target`; and `atom(w)`, the packed sums of the atom w, also stored
    under w.  An atom is numbered only when the search first moves it,
    so the set-up loops in Python over the kept vertices alone.
    """
    par, par2 = t.parent, t2.parent
    above: set[int] = set()
    for x in report.bad:
        while x != ROOT and x not in above:
            above.add(x)
            x = par[x]
    keep = above | marked
    below: dict[int, list[int]] = {x: [] for x in keep}
    below2: dict[int, list[int]] = {x: [] for x in keep}
    for x in keep:
        if par[x] != ROOT:
            below[par[x]].append(x)
        if par2[x] != ROOT:
            below2[par2[x]].append(x)
    tkids = t._children
    bits = 3 * t.n.bit_length()
    start: dict[int, int] = {}
    own: dict[int, int] = {}
    order = []
    pos = 0
    stack = [t2.root]
    while stack:
        x = stack.pop()
        order.append(x)
        start[x] = pos
        c = len(tkids[x]) - len(below[x]) + 1
        own[x] = _run(pos, c, bits)
        pos += c
        stack.extend(below2[x])
    target = own.copy()
    for x in reversed(order):
        if par2[x] != ROOT:
            target[par2[x]] += target[x]
    order = [t.root]
    for x in order:
        order.extend(below[x])
    sums = own.copy()
    for x in reversed(order):
        if par[x] != ROOT:
            sums[par[x]] += sums[x]

    def atom(w: int) -> int:
        x = par[w]
        p = start[x] + 1 + bisect_left(tkids[x], w) - sum(c < w for c in below[x])
        sums[w] = one = _run(p, 1, bits)
        return one

    return sums, set(target.values()), atom


def _run(p: int, c: int, bits: int) -> int:
    """The packed sums of the c positions from p: the count, the sum and
    the sum of squares, in fields of `bits` bits."""
    if c == 1:
        return (p * p << 2 * bits) + (p << bits) + 1
    s1 = c * p + c * (c - 1) // 2
    s2 = c * p * p + p * c * (c - 1) + (c - 1) * c * (2 * c - 1) // 6
    return (s2 << 2 * bits) + (s1 << bits) + c


def _search(g: Graph, t: ElimTree, t2: ElimTree, dec: Decision) -> None:
    """Iterative-deepening search over rotations inside the marked set,
    cut by the tube lower bound and the face rule; on success it sets
    `dec.yes` and a shortest `dec.witness`.

    The budget-1 pass needs no index: a rotation of (u, v) changes the
    parents of u, v and the moved children only, so it gives t2 exactly
    when t2 has v under u's parent, u under v, each moved child under u,
    and no other parent changed; the touch test runs only for a move
    whose u and v pass.  Deeper passes walk one mutable copy of t,
    applying each rotation in place and undoing it by the reverse
    rotation, so a node costs the rotation's touch test, not a copy of
    the tree.

    A rotation changes the subtrees of u and v only: v gets the old
    subtree of u, and u the old one less the old subtree of v plus those
    of the moved children, so it updates two packed sums of
    `_tube_index`.  h, the number of kept vertices whose subtree is no
    subtree of t2, counts the tubes of the current tree that t2 lacks,
    since every other subtree is the same in both.  h = 0 is the goal
    test, and a node whose h exceeds its budget is cut.  Under the face
    rule every rotation taken removes a tube t2 lacks, so h never rises
    along a branch; it falls by one when the new subtree of u is a
    subtree of t2.
    """
    marked, stats = dec.marked, dec.stats
    m_list = sorted(marked)
    par, par2 = t.parent, t2.parent
    parent_bad = dec.report.parent_bad

    stats["nodes_expanded"] += 1
    for v in m_list:
        u = par[v]
        if u == ROOT or u not in marked:
            continue
        stats["nodes_expanded"] += 1
        if par2[v] == par[u] and par2[u] == v:
            moved = moved_children(g, par, t._children, u, v)
            if len(moved) + 2 == len(parent_bad) and all(par2[w] == u for w in moved):
                dec.yes, dec.witness = True, ((u, v),)
                return
    if dec.k == 1:
        return

    tree = MutableTree(g, t, marked)
    parent = tree.parent
    sums, target, atom = _tube_index(t, t2, dec.report, marked)
    seq: list[RotationEdge] = []

    def dfs(budget: int, h: int) -> bool:
        stats["nodes_expanded"] += 1
        if h == 0:
            return True
        if h > budget:
            stats["bound_cuts"] += 1
            return False
        for v in m_list:
            u = parent[v]
            if u == ROOT or u not in marked:
                continue
            sv = sums[v]
            if sv in target:
                stats["face_cuts"] += 1
                continue
            moved = tree.rotate(u, v)
            su = sums[u]
            new = su - sv
            for w in moved:
                new += sums[w] if w in sums else atom(w)
            sums[v] = su
            sums[u] = new
            seq.append((u, v))
            if dfs(budget - 1, h - (new in target)):
                return True
            seq.pop()
            tree.undo(u, v, moved)
            sums[u] = su
            sums[v] = sv
        return False

    h = sum(1 for s in sums.values() if s not in target)
    for budget in range(2, dec.k + 1):
        if dfs(budget, h):
            dec.yes, dec.witness = True, tuple(seq)
            break
    # dfs refers to itself; without the cycle, the tree and the graph it
    # holds are freed now rather than at the next garbage collection
    del dfs
