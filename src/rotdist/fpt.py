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
component is walked once, down from its zroot level by level, and keeps
its levels and its members' child lists; typing, premarking, marking and
the diameter in the --explain dump read those and walk nothing again.
Types are computed in one bottom-up pass per component over its levels,
deepest first, with depths from the source tree's one kept walk.  A
vertex's trace is read off an integer mask of the ancestor depths its
subtree touches, built from its own G-neighbours, its component
children's masks and one walk of each child subtree hanging outside
the ball.

Before any of this, the certificate ladder of `fpt_decide`, the only
place a certificate is checked, settles from the two parent vectors
every answer that needs no marking: NO for too many
children-bad vertices, YES when t2 is one rotation of t, NO for too many
tubes of t missing from t2, and YES when a search over the bad vertices
finds exactly that many rotations.  An elimination tree is a maximal
tubing whose tubes are its non-root subtrees, and a rotation of (u, v)
trades exactly one tube, the subtree of v, for one (Carr and Devadoss,
Topology Appl. 2006), so each rotation lowers that count by at most one:
it is at most the distance, and a sequence that long is shortest.  The
marking runs only to give the search its set M, and certifies nothing.

The search is cut the same way, on every graph: a node where the count
exceeds the budget left is a dead end (IDA*), and so is every rotation
that removes a tube of the target from a node where the count equals
its budget, which is skipped unrotated.  The cut prunes dead branches
only and the search keeps no memo, so the witness is the first shortest
sequence in the order the plain search tries its moves.  It reads one
index of which subtrees are subtrees of the target (`_tube_index`), set
up over the vertices it rotates and the ancestors of the bad ones only:
exact, since a wrong answer would skip a live move, and additive, so
that a rotation updates it at u and v only.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import chain
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

    levels[d] lists the members d below zroot, ascending, so zroot is
    levels[0][0], the unique member closest to the root of t.  kids maps
    each member with children inside the component to those children,
    in ascending order.
    """

    __slots__ = ("levels", "vertices", "zroot", "tree", "kids")

    def __init__(self, tree: ElimTree, levels: list[list[int]],
                 kids: dict[int, tuple[int, ...]]):
        self.tree = tree
        self.levels = levels
        self.vertices = frozenset().union(*levels)
        self.zroot = levels[0][0]
        self.kids = kids

    def __repr__(self) -> str:
        return f"Component(zroot={self.zroot}, size={len(self.vertices)})"


def components(t: ElimTree, ball_vertices: Iterable[int]) -> list[Component]:
    """Connected components of the ball inside t, sorted by zroot.

    The zroots are the ball vertices whose parent lies outside the ball
    (the root sentinel never lies inside).  From each, in ascending
    order, one walk goes down level by level through the children
    inside the ball, and the component keeps its levels and each
    member's children inside the ball.
    """
    inside = set(ball_vertices)
    parent, children = t.parent, t._children
    out = []
    for zroot in sorted(v for v in inside if parent[v] not in inside):
        kids: dict[int, tuple[int, ...]] = {}
        levels = [[zroot]]
        while True:
            nxt = []
            for u in levels[-1]:
                if children[u]:
                    inner = tuple([c for c in children[u] if c in inside])
                    if inner:
                        kids[u] = inner
                        nxt += inner
            if not nxt:
                break
            nxt.sort()
            levels.append(nxt)
        out.append(Component(t, levels, kids))
    return out


def check_early_no(report: BadnessReport, k: int) -> str | None:
    """The count certificate: a single rotation changes at most three
    child sets, so more than 3k children-bad vertices rule out k
    rotations.  Returns its message, or None."""
    if len(report.children_bad) > 3 * k:
        return (f"{len(report.children_bad)} vertices with differing child sets "
                f"exceed 3k={3 * k}")
    return None


class TypeTable:
    """Interning table mapping canonical type records to small ids.

    A record is (want-parent, trace, child summary), where the child
    summary lists (child type id, count capped at k+1) pairs sorted by
    id; leaves get an empty summary.  `records` maps each record to its
    id, in id order, and vertex_types holds the id assigned to each
    classified vertex.
    """

    def __init__(self):
        self.records: dict[tuple, TypeId] = {}
        self.vertex_types: dict[int, TypeId] = {}

    def intern(self, record: tuple) -> TypeId:
        return self.records.setdefault(record, len(self.records))

    def __len__(self) -> int:
        return len(self.records)


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
    is set.  The component's levels are visited deepest first and
    ascending within a level, so records are interned in (-depth, vertex)
    order.
    """
    depth = t._walk()[1]
    zd = depth[z.zroot]
    tkids, adj = t._children, g._sorted
    kids, verts, levels, vertex_types = z.kids, z.vertices, z.levels, table.vertex_types
    cap = k + 1
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

    zroot joins, and then, one level at a time from the top, a premarked
    vertex joins when its parent has joined.  Afterwards every
    children-bad vertex of the component joins along with all its
    component ancestors, whether or not they were premarked.
    """
    parent = z.tree.parent
    mz = {z.zroot}
    for level in z.levels[1:]:
        for v in level:
            if v in premarked and parent[v] in mz:
                mz.add(v)
    for b in report.children_bad:
        if b in z.vertices:
            cur = b
            while cur not in mz:
                mz.add(cur)
                cur = parent[cur]
    return frozenset(mz)


def compute_marking(g: Graph, t: ElimTree, t2: ElimTree, k: int,
                    report: BadnessReport | None = None) -> Decision:
    """Run the classification pipeline, stopping before the search.

    `report` is `classify_bad(t, t2)`, computed here unless the caller
    has it.  Returns a Decision with no verdict yet, holding the report,
    ball, components, type table and marked sets.  It checks no
    certificate: that is `fpt_decide`'s ladder, before the marking.
    """
    if report is None:
        report = classify_bad(t, t2)
    bcb = compute_bcb(t, report, k)
    comps = components(t, bcb.vertices)
    table = TypeTable()
    premarked: set[int] = set()
    marked: set[int] = set()
    for z in comps:
        compute_types(g, t, t2, z, k, table)
        pz = premark(z, table.vertex_types, k)
        premarked |= pz
        marked |= mark(z, pz, report)
    return Decision(k=k, n=g.n, report=report, ball=bcb, comps=comps, table=table,
                    premarked=frozenset(premarked), marked=frozenset(marked))


@dataclass
class Decision:
    """Outcome of fpt_decide plus everything computed along the way.

    compute_marking fills the pipeline fields, from `report` to
    `marked`; fpt_decide and its search set `yes` and
    `witness`.  A decision settled by fpt_decide's certificate ladder
    has at most the report of them; `early_no` names the NO of the
    count certificate or of k = 0.  `lower_bound` is the least
    distance the ladder proves (see fpt_decide); it is never above the
    distance.
    """

    k: int
    n: int
    yes: bool = False
    witness: tuple[RotationEdge, ...] | None = None
    early_no: str | None = None
    lower_bound: int = 0
    report: BadnessReport | None = None
    ball: Ball | None = None
    comps: list[Component] = field(default_factory=list)
    table: TypeTable | None = None
    premarked: frozenset[int] = frozenset()
    marked: frozenset[int] = frozenset()
    stats: dict = field(default_factory=lambda: {"nodes_expanded": 0, "bound_cuts": 0})

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
            "lower_bound": self.lower_bound,
            "ball_radius": self.ball.radius if self.ball else None,
            "ball": sorted(self.ball.vertices) if self.ball else [],
            "components": comps,
            "vertex_types": {str(v): tid for v, tid in sorted(self.table.vertex_types.items())}
            if self.table else {},
            "type_count": len(self.table) if self.table else 0,
            "premarked": sorted(self.premarked),
            "marked": sorted(self.marked),
            "marked_per_component": {str(z.zroot): sorted(self.marked & z.vertices)
                                     for z in self.comps},
            "search": dict(self.stats),
        }


def _component_diameter(z: Component) -> int:
    """Edges on the longest path inside the component: one pass over
    the levels, deepest first, that joins, at each vertex, its two
    tallest child heights."""
    kids = z.kids
    height: dict[int, int] = {}
    best = 0
    for v in chain.from_iterable(reversed(z.levels)):
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
    sequence.

    After `classify_bad`, a ladder of four certificates runs before the
    marking, in this order, and sets `lower_bound`; it is the only place
    a certificate is checked:

    1. The count certificate (`check_early_no`): more than 3k
       children-bad vertices is NO, named in `early_no`, with the bound
       ceil(|children-bad| / 3).
    2. The one-rotation test (`_one_rotation`): when t2 is one rotation
       (u, v) of t, the only YES at k = 1, the answer is YES with that
       witness and the bound 1.  u and v are children-bad, and `mark`
       puts every children-bad vertex into M, so the witness lies in M.
    3. Otherwise the bound is h0 (`_tube_bound`), the number of tubes of
       t that t2 lacks; each rotation trades one tube, so h0 is at most
       the distance.  Two maximal tubings that share all but one tube
       are the two ends of an edge of the graph associahedron, one
       rotation apart, and the test above is exact, so h0 >= 2 here.  At
       k = 1 the bound is 2 and h0 is not computed.  A bound above k is
       NO, with `early_no` None.
    4. One pass of `_search` at budget h0 rotates only bad vertices, on
       the index the bound was counted on.  A sequence of h0 rotations
       that reaches t2 is shortest, since h0 is at most the distance, so
       if the pass finds one the answer is YES with it and the bound h0.
       Otherwise the pass proves nothing, since a shortest sequence may
       rotate a vertex that is not bad.

    None of these builds a ball, types or marks.  Otherwise the paper's
    pipeline (`compute_marking`) gives the search its marked set M.  A
    certificate of more than k ball components holding a bad vertex
    would never fire there: each such component holds a tube that t2
    lacks, so there are at most h0 <= k of them.  The witness is then
    the first shortest sequence of `_search` inside M, whose deepening
    starts at h0; its counters add to the pass's.
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
        return Decision(k=k, n=g.n, lower_bound=1,
                        early_no="trees differ and k=0 allows no rotations")
    report = classify_bad(t, t2)
    early_no = check_early_no(report, k)
    if early_no is not None:
        return Decision(k=k, n=g.n, report=report, early_no=early_no,
                        lower_bound=-(-len(report.children_bad) // 3))
    edge = _one_rotation(g, t, t2, report)
    if edge is not None:
        return Decision(k=k, n=g.n, yes=True, witness=(edge,), lower_bound=1, report=report)
    if k == 1:
        return Decision(k=k, n=g.n, report=report, lower_bound=2)
    below = _below_lca(t, report)
    h0, index = _tube_bound(t, t2, below)
    dec = Decision(k=k, n=g.n, report=report, lower_bound=h0)
    if h0 > k:
        return dec
    if _search(g, t, dec, report.bad, index, h0):
        return dec
    stats = dec.stats
    dec = compute_marking(g, t, t2, k, report)
    dec.lower_bound, dec.stats = h0, stats
    _search(g, t, dec, dec.marked, _tube_index(t, t2, below | dec.marked), k)
    return dec


def _one_rotation(g: Graph, t: ElimTree, t2: ElimTree,
                  report: BadnessReport) -> RotationEdge | None:
    """The rotation (u, v) with rotate(t, (u, v)) = t2, or None.

    A rotation of (u, v) changes the parents of u, v and the moved
    children only: v goes under u's old parent, u under v, and each
    moved child of v under u.  Of these, u alone goes under a vertex
    that was its child, so (u, v) is the one parent-bad u whose parent
    in t2 is its child in t; with two such vertices or none, no single
    rotation gives t2.  So the touch test runs at most once, for the
    candidate that also sends v to u's parent.  Then t2 is the rotation
    exactly when t2 puts each moved child under u and no other parent
    differs.
    """
    par, par2 = t.parent, t2.parent
    flips = [u for u in report.parent_bad if par2[u] != ROOT and par[par2[u]] == u]
    if len(flips) != 1:
        return None
    u = flips[0]
    v = par2[u]
    if par2[v] != par[u]:
        return None
    moved = moved_children(g, par, t._children, u, v)
    if len(moved) + 2 != len(report.parent_bad) or any(par2[w] != u for w in moved):
        return None
    return u, v


def _tube_bound(t: ElimTree, t2: ElimTree, below: set[int]):
    """h0, the number of tubes of t (its non-root subtrees) that are no
    subtree of t2, and the `_tube_index` over below it was counted on;
    below is `_below_lca` of the two trees.

    Only the subtrees of the vertices in below can be missing from t2:
    no vertex outside the subtree S of L in t is bad, so each has the
    same parent and children in both trees.  Hence S is also L's subtree
    in t2 (unless L is the root of t), and every subtree outside S, at L
    or above it is the same set in both: a shared tube.  So is the
    subtree of any vertex of S with no bad vertex below it.
    """
    index = _tube_index(t, t2, below)
    sums, target, _ = index
    return sum(1 for s in sums.values() if s not in target), index


def _below_lca(t: ElimTree, report: BadnessReport) -> set[int]:
    """The bad vertices and their ancestors in t up to L, their lowest
    common ancestor, found by climbing from the deepest vertex first, so
    that the climb stops at L, not at the root."""
    par = t.parent
    depth = t._walk()[1]
    keep = set(report.bad)
    heap = [(-depth[x], x) for x in keep]
    heapify(heap)
    while len(heap) > 1:
        x = heappop(heap)[1]
        p = par[x]
        if p not in keep:
            keep.add(p)
            heappush(heap, (-depth[p], p))
    return keep


def _tube_index(t: ElimTree, t2: ElimTree, keep: set[int]):
    """An exact, additive index of which subtrees of t are subtrees of t2.

    Tracked are the vertices in keep: `_below_lca`, which holds every
    tube of t that t2 lacks and the bad vertices, and for the search
    over M also the marked ones, which it rotates.  keep is a forest in
    both trees.  Any other subtree never changes in the search and is
    the same set in t and t2, so each one hanging from a kept vertex is
    one element, an atom, the same in both trees, and the subtree of
    each top of keep in t is the subtree of a top of keep in t2.
    Between the marked vertices around the root and L there may be
    untracked vertices whose subtrees hold kept ones: there keep splits
    into parts, numbered one after another, and a subtree that holds a
    lower part is one atom of the part above.

    The elements are numbered in a preorder of t2 over keep, with each
    kept vertex's atoms, in vertex order, right after it, so each kept
    subtree of t2 is a run of positions.  A set of elements is kept as
    its count, sum of positions and sum of squares, packed into one
    integer in fields too wide to carry, so sets add and subtract as
    integers.  For a given count and sum, distinct integers have the
    least sum of squares exactly when they form a run, so a kept subtree
    of t is a subtree of t2 exactly when its packed sums are in the
    target set.  The search needs it exact: a false match would cut a
    live move at a node where h equals the budget.

    Returns the packed sums of each kept subtree of t, by vertex;
    `target`, those of the kept subtrees of t2; and `atom(w)`, the packed
    sums of the atom w, also stored under w.  An atom is numbered only
    when the search first moves it, so the set-up loops in Python over
    the kept vertices alone.
    """
    par, par2 = t.parent, t2.parent
    below: dict[int, list[int]] = {x: [] for x in keep}
    below2: dict[int, list[int]] = {x: [] for x in keep}
    tops, tops2 = [], []
    for x in keep:
        (below[par[x]] if par[x] in below else tops).append(x)
        (below2[par2[x]] if par2[x] in below2 else tops2).append(x)
    tkids = t._children
    bits = 3 * t.n.bit_length()
    start: dict[int, int] = {}
    own: dict[int, int] = {}
    order = []
    pos = 0
    stack = tops2
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
        if par2[x] in target:
            target[par2[x]] += target[x]
    order = tops
    for x in order:
        order.extend(below[x])
    sums = own.copy()
    for x in reversed(order):
        if par[x] in sums:
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


def _search(g: Graph, t: ElimTree, dec: Decision, movable: frozenset[int],
            index, last: int) -> bool:
    """Iterative-deepening search over rotations with both ends in
    movable, cut by the tube lower bound, at budgets h0 to last; on
    success it sets `dec.yes` and a shortest `dec.witness` and returns
    True.  Its counters add to `dec.stats`.

    index is the `_tube_index` of t against t2, kept over movable and
    `_below_lca`, and h0 is `dec.lower_bound`, the `_tube_bound`
    fpt_decide counted; fpt_decide has ruled out one rotation, so the
    deepening starts at 2 or more.
    The search walks one mutable copy of t, applying each rotation in
    place and undoing it by the reverse rotation, so a node costs the
    rotation's touch test, not a copy of the tree.

    A rotation changes the subtrees of u and v only: v gets the old
    subtree of u, and u the old one less the old subtree of v plus those
    of the moved children, so it updates two packed sums of
    `_tube_index`.  h, the number of kept vertices whose subtree is no
    subtree of t2, counts the tubes of the current tree that t2 lacks,
    since every other subtree is the same in both; at the start it is h0,
    as every kept subtree outside below is a shared tube.  The rotation
    removes the old subtree of v and adds the new one of u, so h rises by
    one when the first is a subtree of t2 and falls by one when the
    second is.  h = 0 is the goal test, and a node whose h exceeds its
    budget is cut.  Where h equals the budget, a rotation that removes a
    subtree of t2 leaves h no lower with one rotation less to go, so its
    child would be cut on entry: it is cut before the rotation instead.
    This rests only on a rotation trading one tube, so it holds on every
    graph.  At budget h0 the two cuts leave only the moves that add a
    subtree of t2, so fpt_decide's pass over the bad vertices there is a
    short greedy walk.
    """
    stats = dec.stats
    m_list = sorted(movable)
    tree = MutableTree(g, t, movable)
    parent = tree.parent
    sums, target, atom = index
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
            if u == ROOT or u not in movable:
                continue
            sv = sums[v]
            shared = sv in target
            if shared and h == budget:
                stats["bound_cuts"] += 1
                continue
            moved = tree.rotate(u, v)
            su = sums[u]
            new = su - sv
            for w in moved:
                new += sums[w] if w in sums else atom(w)
            sums[v] = su
            sums[u] = new
            seq.append((u, v))
            if dfs(budget - 1, h - (new in target) + shared):
                return True
            seq.pop()
            tree.undo(u, v, moved)
            sums[u] = su
            sums[v] = sv
        return False

    h0 = dec.lower_bound
    for budget in range(h0, last + 1):
        if dfs(budget, h0):
            dec.yes, dec.witness = True, tuple(seq)
            break
    # dfs refers to itself; without the cycle, the tree and the graph it
    # holds are freed now rather than at the next garbage collection
    del dfs
    return dec.yes
