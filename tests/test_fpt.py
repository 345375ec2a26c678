import random

import pytest

from helpers import (
    NotInComponent,
    OrderViolation,
    component_children,
    connected_graphs,
    descendants,
    random_tree,
    random_tree_edge,
    reference_badness,
    reference_marking,
    reference_search,
    restricted_bfs_distance,
    stacked_star,
    trace_of,
    tree_distance_matrix,
    tubes,
    type_of,
)
from rotdist import (
    SAME,
    WANT_ROOT,
    BadnessReport,
    DisconnectedGraph,
    InvalidParameter,
    TypeTable,
    apply_sequence,
    bfs_distance,
    bfs_witness,
    check_early_no,
    classify_bad,
    components,
    compute_bcb,
    compute_marking,
    ElimTree,
    Graph,
    enumerate_all,
    fpt_decide,
    from_ordering,
    from_parent_vector,
    generate,
    is_connected,
    mark,
    premark,
    rotate,
    want_parent,
)
from rotdist.elimtree import MutableTree
from rotdist import fpt
from rotdist.fpt import _below_lca, _tube_bound, _tube_index, compute_types

P3 = generate("path", 3)
CHAIN = from_parent_vector([-1, 0, 1])      # 0 -> 1 -> 2
CHAIN_REV = from_parent_vector([1, 2, -1])  # 2 -> 1 -> 0
STAR1 = from_parent_vector([1, -1, 1])      # root 1, children 0 and 2


def whole_component(t):
    comps = components(t, range(t.n))
    assert len(comps) == 1
    return comps[0]


# ---------------------------------------------------------------------------
# badness

def test_classify_bad_equal_trees():
    rep = classify_bad(CHAIN, CHAIN)
    assert rep.children_bad == frozenset()
    assert rep.parent_bad == frozenset()


def test_classify_bad_one_rotation():
    rep = classify_bad(CHAIN, STAR1)
    assert rep.children_bad == {0, 1}
    assert rep.parent_bad == {0, 1}
    assert rep.bad == {0, 1}


def test_classify_bad_reversal():
    rep = classify_bad(CHAIN, CHAIN_REV)
    assert rep.children_bad == {0, 1, 2}
    assert rep.parent_bad == {0, 1, 2}


def test_single_rotation_changes_at_most_three_child_sets():
    rng = random.Random(11)
    for trial in range(300):
        g = generate("random_connected", rng.randrange(2, 9), seed=trial, p=0.3)
        t = random_tree(g, rng)
        v = rng.choice([v for v in range(g.n) if t.parent[v] != -1])
        t2 = rotate(g, t, (t.parent[v], v))
        assert len(classify_bad(t, t2).children_bad) <= 3


def test_classify_bad_matches_the_child_set_comparison():
    rng = random.Random(17)
    for trial in range(400):
        g = generate("random_connected", rng.randrange(1, 10), seed=trial, p=0.3)
        t = random_tree(g, rng)
        t2 = random_tree(g, rng) if trial % 2 else t
        for _ in range(rng.randrange(3) if g.n > 1 else 0):
            t2 = rotate(g, t2, random_tree_edge(t2, rng))
        assert classify_bad(t, t2) == reference_badness(t, t2), (g.edges(), t, t2)


def test_want_parent():
    assert want_parent(CHAIN, STAR1, 2) == SAME
    assert want_parent(CHAIN, STAR1, 0) == 1
    assert want_parent(CHAIN, STAR1, 1) == WANT_ROOT


# ---------------------------------------------------------------------------
# balls and components

def test_compute_bcb_covers_small_tree():
    rep = classify_bad(CHAIN, CHAIN_REV)
    b = compute_bcb(CHAIN, rep, 1)
    assert b.radius == 3
    assert b.vertices == {0, 1, 2}


def test_compute_bcb_radius_on_a_long_chain():
    g = generate("path", 9)
    t = from_ordering(g, list(range(9)))
    rep = BadnessReport(frozenset({0}), frozenset())
    b = compute_bcb(t, rep, 1)
    assert b.vertices == {0, 1, 2, 3}


def test_compute_bcb_requires_positive_k():
    with pytest.raises(InvalidParameter):
        compute_bcb(CHAIN, classify_bad(CHAIN, STAR1), 0)


def test_components_split_and_order():
    g = generate("path", 9)
    t = from_ordering(g, list(range(9)))
    comps = components(t, [5, 0, 1, 2, 6])
    assert [z.zroot for z in comps] == [0, 5]
    assert comps[0].vertices == {0, 1, 2}
    assert comps[1].vertices == {5, 6}
    assert comps[0].kids.get(1, ()) == (2,)
    assert comps[1].kids.get(6, ()) == ()
    assert 2 in comps[0].vertices and 2 not in comps[1].vertices
    # the kept walk against the definition: the components are the
    # classes of a union-find over the ball's in-ball parent edges.  The
    # walk reads the tree alone, so random rooted trees stand in for
    # elimination trees: they branch more, so that many levels hold the
    # children of several members
    rng = random.Random(24)
    split = deep = mixed = 0
    for trial in range(400):
        n = rng.randrange(1, 30)
        order = list(range(n))
        rng.shuffle(order)
        parent = [-1] * n
        for i in range(1, n):
            parent[order[i]] = order[rng.randrange(i)]
        t = ElimTree(parent)
        share = rng.choice([0.3, 0.7, 1.0])
        ball = [v for v in range(n) if rng.random() < share]
        find = {v: v for v in ball}

        def root(v):
            while find[v] != v:
                v = find[v]
            return v

        for v in ball:
            if t.parent[v] in find:
                find[root(v)] = root(t.parent[v])
        classes: dict[int, set[int]] = {}
        for v in ball:
            classes.setdefault(root(v), set()).add(v)
        ref = sorted((min(c, key=t.depth), c) for c in classes.values())
        comps = components(t, ball)
        assert [(z.zroot, z.vertices) for z in comps] == ref
        for z in comps:
            zd = t.depth(z.zroot)
            inner = {u: tuple(c for c in t.children(u) if c in z.vertices) for u in z.vertices}
            assert z.kids == {u: kids for u, kids in inner.items() if kids}
            assert all(list(kids) == sorted(kids) for kids in z.kids.values())
            assert z.levels == [sorted(v for v in z.vertices if t.depth(v) - zd == d)
                                for d in range(len(z.levels))]
            assert all(t.parent[v] in z.levels[d - 1]
                       for d in range(1, len(z.levels)) for v in z.levels[d])
            deep += len(z.levels) >= 3
            mixed += sum(len({t.parent[v] for v in level}) >= 2 for level in z.levels)
        split += len(comps) >= 2
    assert split > 100 and deep > 100 and mixed > 100


def test_check_early_no():
    # the count certificate: more than 3k children-bad vertices
    many_bad = BadnessReport(frozenset({1, 2, 3, 4}), frozenset())
    assert check_early_no(many_bad, 1) == "4 vertices with differing child sets exceed 3k=3"
    assert check_early_no(many_bad, 2) is None
    three = BadnessReport(frozenset({1, 5, 10}), frozenset({2, 6, 11}))
    assert check_early_no(three, 1) is None


# ---------------------------------------------------------------------------
# traces and types

def pass_traces(g, t, z):
    """The trace of every component vertex, from the one-pass typing."""
    table = TypeTable()
    compute_types(g, t, t, z, 1, table)
    return {v: list(table.records)[tid][1] for v, tid in table.vertex_types.items()}


def marked_per_component(dec):
    """The marks of each component, by zroot, as the dump lists them."""
    return {z.zroot: dec.marked & z.vertices for z in dec.comps}


def test_trace_values_on_chain():
    z = whole_component(CHAIN)
    assert z.zroot == 0
    want = {0: (), 1: (1,), 2: (1, 0)}
    assert {v: trace_of(P3, CHAIN, z, v) for v in range(3)} == want
    assert pass_traces(P3, CHAIN, z) == want


def test_trace_sees_whole_subtree():
    # vertex 1 is not adjacent to 3, but its subtree {1, 2} is adjacent
    # to 2's neighbor... use a 4-cycle where subtree content matters
    g = generate("cycle", 4)
    t = from_ordering(g, [0, 1, 2, 3])
    z = whole_component(t)
    # subtree of 2 in t is {2, 3}; 3 is a G-neighbor of 0
    assert trace_of(g, t, z, 2)[-1] == 1
    assert pass_traces(g, t, z)[2][-1] == 1


def test_trace_sees_subtrees_below_the_component():
    # on the path 0-...-8 eliminated in order, the subtree of 2 is
    # {2, ..., 8}; cut at 2, its trace still comes from below the cut
    g = generate("path", 9)
    t = from_ordering(g, list(range(9)))
    g2 = Graph(9, list(g.edges()) + [(0, 8)])
    z = components(t, [0, 1, 2])[0]
    assert pass_traces(g, t, z) == {0: (), 1: (1,), 2: (1, 0)}
    assert pass_traces(g2, t, z) == {0: (), 1: (1,), 2: (1, 1)}
    assert pass_traces(g2, t, z)[2] == trace_of(g2, t, z, 2)


def test_trace_outside_component():
    g = generate("path", 9)
    t = from_ordering(g, list(range(9)))
    z = components(t, [0, 1, 2])[0]
    with pytest.raises(NotInComponent):
        trace_of(g, t, z, 7)


def test_type_records_for_star_instance():
    g = generate("star", 5)
    t = from_ordering(g, list(range(5)))
    t2 = rotate(g, t, (0, 2))
    z = whole_component(t)
    table = TypeTable()
    compute_types(g, t, t2, z, 2, table)
    leaf_same = list(table.records)[table.vertex_types[1]]
    leaf_root = list(table.records)[table.vertex_types[2]]
    assert leaf_same == (SAME, (1,), ())
    assert leaf_root == (WANT_ROOT, (1,), ())
    assert table.vertex_types[1] == table.vertex_types[3] == table.vertex_types[4]
    center = list(table.records)[table.vertex_types[0]]
    assert center[0] == 2          # wants 2 as its parent
    assert center[1] == ()         # zroot has an empty trace
    assert dict(center[2]) == {table.vertex_types[1]: 3, table.vertex_types[2]: 1}


def test_type_child_counts_cap_at_k_plus_one():
    records = {}
    for m in (4, 8):
        g = generate("star", m + 1)
        t = from_ordering(g, list(range(m + 1)))
        t2 = rotate(g, t, (0, 2))
        table = TypeTable()
        compute_types(g, t, t2, whole_component(t), 2, table)
        records[m] = list(table.records)[table.vertex_types[0]]
    # 3 and 7 same-type children both read as "at least k+1 = 3"
    assert records[4] == records[8]


def test_type_child_counts_below_cap_distinguish():
    records = {}
    for m in (2, 3):
        g = generate("star", m + 1)
        t = from_ordering(g, list(range(m + 1)))
        t2 = rotate(g, t, (0, m))
        table = TypeTable()
        compute_types(g, t, t2, whole_component(t), 2, table)
        records[m] = list(table.records)[table.vertex_types[0]]
    assert records[2] != records[3]


def test_type_of_requires_children_first():
    table = TypeTable()
    with pytest.raises(OrderViolation):
        type_of(P3, CHAIN, CHAIN_REV, whole_component(CHAIN), 1, table, 0)
    with pytest.raises(NotInComponent):
        type_of(P3, CHAIN, CHAIN_REV, components(CHAIN, [0])[0], 1, table, 2)


def _check_marking(g, t, t2, k):
    """The stages and compute_marking give the records, type ids,
    premarked and marked sets of the definitions in helpers."""
    report = classify_bad(t, t2)
    table = TypeTable()
    premarked, marked = set(), {}
    for z in components(t, compute_bcb(t, report, k).vertices):
        assert z.zroot == min(z.vertices, key=lambda v: (t.depth(v), v))
        assert all(z.kids.get(v, ()) == tuple(component_children(t, z, v)) for v in z.vertices)
        compute_types(g, t, t2, z, k, table)
        pz = premark(z, table.vertex_types, k)
        premarked |= pz
        marked[z.zroot] = mark(z, pz, report)
    ref, ref_premarked, ref_marked = reference_marking(g, t, t2, k)
    # a record's id is its place in the map
    assert list(table.records.values()) == list(range(len(table)))
    records = [list(table.records)[i] for i in range(len(table))]
    assert records == [list(ref.records)[i] for i in range(len(ref))]
    assert list(table.vertex_types.items()) == list(ref.vertex_types.items())
    assert (premarked, marked) == (ref_premarked, ref_marked)
    dec = compute_marking(g, t, t2, k)
    if dec.early_no is None:
        assert [list(dec.table.records)[i] for i in range(len(dec.table))] == records
        assert dec.table.vertex_types == table.vertex_types
        assert dec.premarked == premarked and marked_per_component(dec) == marked
        assert dec.marked == frozenset().union(*marked.values())
    return dec


def test_one_pass_marking_matches_definitions_on_random_graphs():
    rng = random.Random(16)
    searched = 0
    for trial in range(300):
        n = rng.randrange(2, 41)
        g = generate("random_connected", n, seed=80_000 + trial, p=rng.choice([0.05, 0.1, 0.3]))
        t = random_tree(g, rng)
        k = rng.randrange(1, 5)
        if rng.random() < 0.7:
            t2 = t
            for _ in range(rng.randrange(1, k + 2)):
                t2 = rotate(g, t2, random_tree_edge(t2, rng))
        else:
            t2 = random_tree(g, rng)
        searched += _check_marking(g, t, t2, k).early_no is None
    assert searched > 150


def test_one_pass_marking_matches_definitions_on_deep_trees():
    # chains and deep random trees, changed half-way down, so that the
    # ball is cut off and subtrees hang below its components
    rng = random.Random(17)
    cut = 0
    for trial in range(24):
        n = rng.randrange(100, 300)
        if trial % 2:
            g = generate("random_connected", n, seed=90_000 + trial, p=0.01)
            t = random_tree(g, rng)
        else:
            g = generate(rng.choice(["path", "cycle"]), n)
            t = from_ordering(g, list(range(n)))
        k = rng.randrange(1, 4)
        half = max(1, max(map(t.depth, range(n))) // 2)
        v = rng.choice([x for x in range(n) if t.depth(x) >= half])
        t2 = rotate(g, t, (t.parent[v], v))
        _check_marking(g, t, t2, k)
        ball = compute_bcb(t, classify_bad(t, t2), k).vertices
        cut += any(c not in ball for x in ball for c in t.children(x))
    assert cut == 24


def test_one_pass_marking_matches_definitions_on_a_wide_star():
    for leaves, k in (([17, 1234], 2), ([17, 1234], 1), ([5, 900, 2500], 3)):
        g, t, t2 = stacked_star(3000, leaves)
        dec = _check_marking(g, t, t2, k)
        assert dec.early_no is None and len(dec.ball.vertices) == 3000


# ---------------------------------------------------------------------------
# marking

def test_premark_keeps_k_plus_one_per_type():
    g = generate("star", 5)
    t = from_ordering(g, list(range(5)))
    z = whole_component(t)
    types = {1: 0, 2: 0, 3: 0, 4: 0}
    assert premark(z, types, 1) == {0, 1, 2}
    assert premark(z, types, 3) == {0, 1, 2, 3, 4}
    types_mixed = {1: 0, 2: 1, 3: 0, 4: 0}
    assert premark(z, types_mixed, 1) == {0, 1, 2, 3}


def test_mark_top_down_stops_at_unpremarked():
    g = generate("path", 5)
    t = from_ordering(g, list(range(5)))
    z = whole_component(t)
    no_bad = BadnessReport(frozenset(), frozenset())
    got = mark(z, frozenset({0, 2, 3, 4}), no_bad)
    # 1 is not premarked, so nothing below it joins either
    assert got == {0}
    full = mark(z, frozenset({0, 1, 2, 3, 4}), no_bad)
    assert full == {0, 1, 2, 3, 4}


def test_mark_closes_over_bad_vertices():
    g = generate("path", 5)
    t = from_ordering(g, list(range(5)))
    z = whole_component(t)
    bad = BadnessReport(frozenset({3}), frozenset())
    got = mark(z, frozenset({0}), bad)
    assert got == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# the decision procedure

def test_decide_equal_trees():
    dec = fpt_decide(P3, CHAIN, CHAIN, 1)
    assert dec.yes and dec.witness == ()


def test_decide_reversal_needs_two():
    assert not fpt_decide(P3, CHAIN, CHAIN_REV, 1).yes
    dec = fpt_decide(P3, CHAIN, CHAIN_REV, 2)
    assert dec.yes
    assert dec.witness == ((0, 1), (1, 2))
    assert apply_sequence(P3, CHAIN, dec.witness) == CHAIN_REV


def test_decide_k_zero():
    assert fpt_decide(P3, CHAIN, CHAIN, 0).yes
    dec = fpt_decide(P3, CHAIN, STAR1, 0)
    assert not dec.yes and dec.early_no


def test_decide_errors():
    with pytest.raises(InvalidParameter):
        fpt_decide(P3, CHAIN, CHAIN_REV, -1)
    with pytest.raises(InvalidParameter):
        fpt_decide(generate("path", 4), CHAIN, CHAIN_REV, 1)
    with pytest.raises(DisconnectedGraph):
        fpt_decide(Graph(3, [(0, 1)]), CHAIN, CHAIN_REV, 1)


def test_decide_rejects_a_disconnected_graph_whose_answer_is_kept():
    g = Graph(3, [(0, 1)])
    assert not is_connected(g)
    with pytest.raises(DisconnectedGraph):
        fpt_decide(g, CHAIN, CHAIN_REV, 1)


def test_decide_star_instance_marks_constant_set():
    g = generate("star", 1001)
    t = from_ordering(g, list(range(1001)))
    t2 = rotate(g, t, (0, 17))
    dec = fpt_decide(g, t, t2, 2)
    assert dec.yes
    assert dec.witness == ((0, 17),)
    # one rotation is answered before the marking, whose M holds it
    assert compute_marking(g, t, t2, 2).marked == {0, 1, 2, 3, 17}


def test_decide_star_marks_do_not_grow_with_degree():
    sizes = {}
    for m in (10, 100):
        g = generate("star", m + 1)
        t = from_ordering(g, list(range(m + 1)))
        t2 = rotate(g, t, (0, 5))
        assert fpt_decide(g, t, t2, 2).yes
        sizes[m] = compute_marking(g, t, t2, 2).marked
    assert sizes[10] == sizes[100] == {0, 1, 2, 3, 5}


def test_decide_early_no_on_far_apart_changes():
    g = generate("path", 30)
    t = from_ordering(g, list(range(30)))
    t2 = apply_sequence(g, t, [(5, 6), (20, 21)])
    dec = fpt_decide(g, t, t2, 1)
    assert not dec.yes
    assert dec.early_no and "exceed" in dec.early_no


def test_compute_marking_only_marks():
    # the pair fpt_decide certifies NO by the count at k = 1: the marking
    # checks no certificate and always fills the table and the marks
    g = generate("path", 30)
    t = from_ordering(g, list(range(30)))
    t2 = apply_sequence(g, t, [(5, 6), (20, 21)])
    assert check_early_no(classify_bad(t, t2), 1) is not None
    dec = compute_marking(g, t, t2, 1)
    assert dec.early_no is None
    assert not dec.yes and dec.witness is None
    assert len(dec.table) == 19 and set(dec.table.vertex_types) == dec.ball.vertices
    # on a path no two siblings share a type, so the whole ball is marked
    assert dec.premarked == dec.marked == dec.ball.vertices
    assert marked_per_component(dec) == {0: frozenset(range(10)), 16: frozenset(range(16, 25))}


def test_compute_marking_leaves_the_verdict_to_the_search():
    dec = compute_marking(P3, CHAIN, CHAIN_REV, 2)
    assert dec.early_no is None
    assert not dec.yes and dec.witness is None
    assert dec.stats == {"nodes_expanded": 0, "bound_cuts": 0}
    assert dec.marked == {0, 1, 2} and marked_per_component(dec) == {0: {0, 1, 2}}
    assert len(dec.table) == 3


def test_early_decisions_dump_the_same_keys():
    searched = fpt_decide(P3, CHAIN, CHAIN_REV, 2).to_json_dict()
    g = generate("path", 30)
    t = from_ordering(g, list(range(30)))
    t2 = apply_sequence(g, t, [(5, 6), (20, 21)])
    for dec in (fpt_decide(P3, CHAIN, CHAIN, 2),      # equal trees
                fpt_decide(P3, CHAIN, CHAIN_REV, 0),  # k = 0
                fpt_decide(g, t, t2, 1),              # the count certificate
                fpt_decide(P3, CHAIN, STAR1, 1),      # one rotation
                fpt_decide(P3, CHAIN, CHAIN_REV, 1)):  # the tube bound
        d = dec.to_json_dict()
        assert list(d) == list(searched)
        assert d["search"] == {"nodes_expanded": 0, "bound_cuts": 0}


def test_decision_dump_structure():
    # on P4, 3 lifted to the root of the chain: d = h0 = 3, but the
    # witness rotates 1, which is not bad, so the marking runs
    g = generate("path", 4)
    dec = fpt_decide(g, from_parent_vector([-1, 0, 1, 2]), from_parent_vector([3, 0, 1, -1]), 3)
    d = dec.to_json_dict()
    assert d["verdict"] == "YES"
    assert d["witness"] == [[2, 3], [1, 3], [0, 3]]
    assert d["children_bad"] == [2, 3]
    assert d["ball_radius"] == 7
    assert d["ball"] == [0, 1, 2, 3]
    assert [c["zroot"] for c in d["components"]] == [0]
    assert d["components"][0]["diameter"] == 3
    assert set(d["vertex_types"]) == {"0", "1", "2", "3"}
    assert d["marked"] == [0, 1, 2, 3]
    assert d["search"] == {"nodes_expanded": 9, "bound_cuts": 7}
    # P3 reversed: d = h0 = 2, answered before the marking
    d = fpt_decide(P3, CHAIN, CHAIN_REV, 2).to_json_dict()
    assert (d["witness"], d["lower_bound"], d["ball"], d["marked"]) == ([[0, 1], [1, 2]], 2, [], [])
    assert d["search"] == {"nodes_expanded": 3, "bound_cuts": 1}


def test_component_diameter_is_the_longest_path():
    # a dumped component's diameter is its longest path; the components
    # here branch, so the two tallest children of a vertex are joined
    g = Graph(4, [(0, 1), (1, 3), (0, 2)])  # the path 3-1-0-2
    t = from_ordering(g, [0, 1, 3, 2])       # 0 at the root over 1 -> 3 and 2
    d = compute_marking(g, t, rotate(g, t, (0, 2)), 1).to_json_dict()
    assert d["components"] == [{"zroot": 0, "vertices": [0, 1, 2, 3], "diameter": 3}]
    rng = random.Random(21)
    branching = 0
    for trial in range(200):
        g = generate("random_connected", rng.randrange(5, 13), seed=trial, p=0.3)
        t = random_tree(g, rng)
        t2 = rotate(g, t, random_tree_edge(t, rng))
        dec = compute_marking(g, t, t2, rng.randrange(1, 3))
        dist = tree_distance_matrix(t)
        for z, c in zip(dec.comps, dec.to_json_dict()["components"]):
            vs = c["vertices"]
            assert c["diameter"] == max(dist[a][b] for a in vs for b in vs)
            branching += any(len(kids) >= 2 for kids in z.kids.values())
    assert branching > 50


def test_stats_present_on_no():
    # a NO from the bound has every counter, at 0; a searched NO counts
    # its nodes
    dec = fpt_decide(P3, CHAIN, CHAIN_REV, 1)
    assert not dec.yes and dec.lower_bound == 2
    assert dec.stats == {"nodes_expanded": 0, "bound_cuts": 0}
    g = generate("path", 4)
    dec = fpt_decide(g, ElimTree([1, -1, 1, 2]), ElimTree([3, 2, 0, -1]), 3)
    assert not dec.yes and dec.early_no is None and dec.lower_bound == 3
    assert dec.stats["nodes_expanded"] >= 1


# ---------------------------------------------------------------------------
# agreement with the exhaustive oracle

def test_optimal_witnesses_touch_few_sibling_subtrees():
    rng = random.Random(13)
    done = 0
    while done < 150:
        g = generate("random_connected", rng.randrange(2, 7), seed=done, p=0.4)
        a, b = random_tree(g, rng), random_tree(g, rng)
        d, seq = bfs_witness(g, a, b)
        if d == 0:
            done += 1
            continue
        used = {x for e in seq for x in e}
        for v in range(g.n):
            touched = sum(
                1 for c in a.children(v) if used & set(descendants(a, c))
            )
            assert touched <= d
        done += 1


def test_ball_restriction_preserves_optimal_distance():
    rng = random.Random(14)
    done = 0
    while done < 120:
        g = generate("random_connected", rng.randrange(2, 6), seed=300 + done, p=0.4)
        a, b = random_tree(g, rng), random_tree(g, rng)
        done += 1
        d = bfs_distance(g, a, b)
        if not 1 <= d <= 3:
            continue
        allowed = compute_bcb(a, classify_bad(a, b), d).vertices
        assert restricted_bfs_distance(g, a, b, allowed, cap=d) == d


# ---------------------------------------------------------------------------
# the search itself: pinned runs and a differential check

def _path_walk():
    g = generate("path", 80)
    t = from_ordering(g, list(range(80)))
    return g, t, apply_sequence(g, t, [(40, 41), (41, 42), (42, 43)])


def _random_walk():
    # a deep tree: a random elimination order on a sparse graph
    g = generate("random_connected", 1000, seed=3, p=0.004)
    order = list(range(1000))
    random.Random(5).shuffle(order)
    t = from_ordering(g, order)
    return g, t, apply_sequence(g, t, [(538, 815), (538, 940)])


# (instance, k) -> the witness, nodes expanded and memo hits of the
# search without the tube bound (helpers.reference_search, over the M of
# compute_marking), then the nodes expanded and bound cuts of
# fpt_decide, and its lower bound.  The cuts must leave the witness as it
# is.  Each NO here is certified by the lower bound before the marking,
# so it searches nothing, and each YES is at d = h0, answered by the one
# search over the bad vertices before the marking.
SEARCH_PINS = [
    (lambda: stacked_star(3000, [17, 1234]), 2, ((0, 17), (0, 1234)), 31, 0, 3, 1, 2),
    (lambda: stacked_star(3000, [17, 1234]), 1, None, 5, 0, 0, 0, 2),
    (lambda: stacked_star(3000, [5, 900, 2500]), 3,
     ((0, 5), (0, 900), (0, 2500)), 315, 4, 4, 3, 3),
    (lambda: stacked_star(3000, [5, 900, 2500]), 2, None, 50, 0, 0, 0, 3),
    (_path_walk, 3, ((40, 41), (41, 42), (42, 43)), 7854, 121, 4, 6, 3),
    (_path_walk, 2, None, 401, 0, 0, 0, 3),
    (_random_walk, 2, ((538, 815), (538, 940)), 265, 0, 3, 5, 2),
    (_random_walk, 1, None, 13, 0, 0, 0, 2),
]


def _pin_id(i, pin):
    """The instance, k, witness and the plain search's two counts."""
    make, k, witness, nodes, memo_hits = pin[:5]
    return "-".join([make.__name__, str(k), "None" if witness is None else f"witness{i}",
                     str(nodes), str(memo_hits)])


@pytest.mark.parametrize("make,k,witness,plain_nodes,plain_memo_hits,nodes,bound_cuts,lower_bound",
                         SEARCH_PINS, ids=[_pin_id(i, pin) for i, pin in enumerate(SEARCH_PINS)])
def test_search_is_pinned(make, k, witness, plain_nodes, plain_memo_hits, nodes, bound_cuts,
                          lower_bound):
    g, t, t2 = make()
    dec = fpt_decide(g, t, t2, k)
    assert dec.early_no is None and dec.lower_bound == lower_bound
    assert (dec.witness, dec.stats) == \
        (witness, {"nodes_expanded": nodes, "bound_cuts": bound_cuts})
    marked = compute_marking(g, t, t2, k).marked
    assert reference_search(g, t, t2, marked, k) == (witness, plain_nodes, plain_memo_hits)
    assert dec.ball is None and dec.table is None and dec.marked == frozenset()
    assert witness is None or all(u in marked and v in marked for u, v in witness)


def _against_the_plain_search(family):
    """The instances (g, t, t2, marked) and decisions of fpt_decide on
    targets a few rotations away and on random ones, each after checking
    that it gives the verdict and the witness of the search without the
    bound, over the M of compute_marking, and expands no more nodes.
    family is "random" (random connected graphs) or "path"."""
    rng = random.Random(19)
    out = []
    for trial in range(900):
        n = rng.randrange(2, 9)
        if family == "path":
            g = generate("path", n)
        else:
            g = generate("random_connected", n, seed=110_000 + trial, p=rng.choice([0.2, 0.4]))
        t = random_tree(g, rng)
        k = rng.randrange(1, 4)
        t2 = random_tree(g, rng)
        if trial % 3:
            t2 = t
            for _ in range(rng.randrange(1, k + 2)):
                t2 = rotate(g, t2, random_tree_edge(t2, rng))
        dec = fpt_decide(g, t, t2, k)
        if dec.early_no is not None or t == t2:
            continue
        marked = compute_marking(g, t, t2, k).marked
        witness, nodes, _ = reference_search(g, t, t2, marked, k)
        assert (dec.yes, dec.witness) == (witness is not None, witness), (g.edges(), t, t2, k)
        assert dec.stats["nodes_expanded"] <= nodes
        out.append(((g, t, t2, marked), dec))
    return out


def test_the_bound_cuts_only_dead_branches():
    # on paths and on random graphs alike, the cuts before and after a
    # rotation leave the first shortest witness as it is
    for family in ("random", "path"):
        stats = [dec.stats for _, dec in _against_the_plain_search(family)]
        assert len(stats) >= 600 and sum(s["bound_cuts"] > 0 for s in stats) > 100, family


def test_path_witnesses_never_remove_a_target_tube():
    # on a path a geodesic never leaves the face of a tube its ends share
    # (Sleator, Tarjan and Thurston), so a face rule, skipping the
    # rotations that remove a tube of the target, would leave the first
    # shortest witness as it is: no rotation of the witness removes one.
    # The search has no such rule; this checks that on paths it would
    # have had moves to cut and cut none the witness makes
    instances = _against_the_plain_search("path")
    assert len(instances) >= 600
    would_cut = 0
    for (g, t, t2, marked), dec in instances:
        if not dec.yes:
            continue
        target = tubes(t2.parent)
        cur, cut = t, False
        for r in dec.witness:
            inside = [(u, v) for v, u in enumerate(cur.parent)
                      if u >= 0 and u in marked and v in marked]
            cut = cut or any((tubes(cur.parent) - tubes(rotate(g, cur, e).parent)) & target
                             for e in inside)
            nxt = rotate(g, cur, r)
            assert not (tubes(cur.parent) - tubes(nxt.parent)) & target, (g.edges(), t, t2, r)
            cur = nxt
        assert cur == t2
        would_cut += cut
    assert would_cut > 100


def test_the_tube_bound_is_at_most_the_distance():
    # each rotation trades one tube for one, so a tree lacks at most d of
    # the tubes of a tree d rotations away, and exactly one at d = 1
    pairs = tight = 0
    for n in range(1, 6):
        for g in connected_graphs(n):
            fg = enumerate_all(g)
            tubings = {key: tubes(key) for key in fg.trees}
            for ka in fg.trees:
                for kb, d in fg.distances_from(ka).items():
                    h = len(tubings[ka] - tubings[kb])
                    assert h <= d, (g.edges(), ka, kb)
                    # an (n - 2)-tubing, all tubes of a tree but one, is an
                    # edge of the graph associahedron, so trees that differ
                    # in one tube are one rotation apart: fpt_decide's
                    # bound is h0 once its one-rotation test has failed
                    assert (h == 1) == (d == 1), (g.edges(), ka, kb)
                    pairs += 1
                    tight += h == d
    assert pairs == sum(len(enumerate_all(g)) ** 2
                        for n in range(1, 6) for g in connected_graphs(n))
    assert 0 < tight < pairs


def test_geodesics_keep_shared_tubes_on_the_listed_graphs():
    # the non-leaving-face property: a rotation on a shortest path from a
    # to b never removes a tube that a and b share; every ordered pair
    # with n <= 5, two seeded graphs with n = 6, and the paths with n = 6
    # and 7.  It does not hold on every graph (the star K_{1,5} below
    # breaks it), so the search uses no face rule and cuts by the tube
    # bound alone
    graphs = [g for n in range(1, 6) for g in connected_graphs(n)]
    graphs += [generate("random_connected", 6, seed=seed, p=0.35) for seed in (0, 1)]
    graphs += [generate("path", 6), generate("path", 7)]
    steps = 0
    for g in graphs:
        fg = enumerate_all(g)
        tubings = {key: tubes(key) for key in fg.trees}
        # each rotation removes one tube, the old subtree of its lower end
        removes = {a: [(c, next(iter(tubings[a] - tubings[c]))) for _, c in fg.adj[a]]
                   for a in fg.trees}
        for b in fg.trees:
            row = fg.distances_from(b)
            for a, d in row.items():
                for c, tube in removes[a]:
                    if row[c] == d - 1:
                        assert tube not in tubings[b], (g.edges(), a, b, c)
                        steps += 1
    assert steps > 1_000_000


def test_a_geodesic_of_a_star_can_remove_a_shared_tube():
    # the property above fails on the star K_{1,5} with centre 5: the two
    # trees share the tube {5}, 10 rotations apart, and the rotation
    # (4, 5), which removes it, starts a shortest path; so the search
    # has no face rule, and skips such a rotation only where the tube
    # bound would cut its child
    g = Graph(6, [(5, i) for i in range(5)])
    a, b = ElimTree([-1, 0, 1, 2, 3, 4]), ElimTree([1, 2, 3, 4, -1, 0])
    shared = frozenset({5})
    assert shared in tubes(a.parent) & tubes(b.parent)
    c = rotate(g, a, (4, 5))
    assert tubes(a.parent) - tubes(c.parent) == {shared}
    assert bfs_distance(g, a, b) == 10 and bfs_distance(g, c, b) == 9


def test_the_search_may_remove_a_shared_tube():
    # the star K_{1,6} with centre 6: every shortest path between these
    # trees removes their shared tube {6}, so a face rule would answer NO
    # at k = 12; the search has none
    g = Graph(7, [(6, i) for i in range(6)])
    a, b = ElimTree([-1, 0, 1, 2, 3, 4, 5]), ElimTree([1, 2, 4, -1, 5, 3, 0])
    assert frozenset({6}) in tubes(a.parent) & tubes(b.parent)
    dec = fpt_decide(g, a, b, 12)
    assert dec.yes and len(dec.witness) == 12
    assert apply_sequence(g, a, dec.witness) == b
    assert all(u in dec.marked and v in dec.marked for u, v in dec.witness)
    # the counts include the failed search at budget h0 = 5 over the bad
    # vertices
    assert dec.stats == {"nodes_expanded": 1_517_779, "bound_cuts": 1_514_201}
    dec = fpt_decide(g, a, b, 11)
    assert not dec.yes and dec.early_no is None and dec.lower_bound == 5
    assert dec.stats == {"nodes_expanded": 250_703, "bound_cuts": 247_488}


def _h0(t, t2):
    return len(tubes(t.parent) - tubes(t2.parent))


def _tube_bound_of(t, t2):
    """h0 as fpt_decide computes it."""
    return _tube_bound(t, t2, _below_lca(t, classify_bad(t, t2)))[0]


def test_the_tube_bound_counts_the_tubes_the_target_lacks():
    # _tube_bound climbs only up to the bad vertices' lowest common
    # ancestor L, yet counts every tube of t that t2 lacks: random pairs,
    # some a few rotations apart, some with a changed root
    rng = random.Random(21)
    at_root = moved_root = 0
    for trial in range(1500):
        n = rng.randrange(2, 40)
        g = generate("random_connected", n, seed=130_000 + trial, p=rng.choice([0.05, 0.2, 0.5]))
        t = random_tree(g, rng)
        if trial % 4:
            t2 = t
            for _ in range(rng.randrange(1, 5)):
                t2 = rotate(g, t2, random_tree_edge(t2, rng))
        else:
            t2 = random_tree(g, rng)
        if t == t2:
            continue
        assert _tube_bound_of(t, t2) == _h0(t, t2), (g.edges(), t, t2)
        at_root += t.root in classify_bad(t, t2).bad
        moved_root += t.root != t2.root
    assert at_root > 300 and moved_root > 200


def test_the_tube_bound_with_a_changed_root():
    # L is the root of t, and the root of t2 is another vertex: the
    # bound's preorder of t2 starts at the root of t2
    for leaves in ([17, 1234], [5, 900, 2500]):
        g, t, t2 = stacked_star(3000, leaves)
        assert t.root in classify_bad(t, t2).bad and t2.root != t.root
        assert _tube_bound_of(t, t2) == len(leaves) == _h0(t, t2)
    g = generate("path", 5)
    t, t2 = from_ordering(g, [2, 0, 1, 3, 4]), from_ordering(g, [1, 0, 2, 4, 3])
    assert t.root in classify_bad(t, t2).bad and t2.root == 1
    assert _tube_bound_of(t, t2) == _h0(t, t2) == 3


def test_bound_certified_nos_skip_the_marking(monkeypatch):
    # a NO with h0 > k, or not one rotation apart at k = 1, never builds
    # the ball or the types
    def fail(*args):
        raise AssertionError("the marking ran")

    monkeypatch.setattr(fpt, "compute_bcb", fail)
    monkeypatch.setattr(fpt, "compute_types", fail)
    cases = [(_random_walk, 1), (lambda: stacked_star(3000, [17, 1234]), 1),
             (lambda: stacked_star(3000, [5, 900, 2500]), 2), (_path_walk, 2)]
    for make, k in cases:
        g, t, t2 = make()
        dec = fpt_decide(g, t, t2, k)
        assert not dec.yes and dec.early_no is None and dec.lower_bound > k
        assert dec.ball is None and dec.comps == [] and dec.table is None
    # 43 lifted above 40 at k = 3: d = h0 = 3, but the witness rotates
    # 41, which is not bad, so only the search over M answers it
    g, t, _ = _path_walk()
    t2 = apply_sequence(g, t, [(42, 43), (41, 43), (40, 43)])
    assert 41 not in classify_bad(t, t2).bad
    with pytest.raises(AssertionError, match="the marking ran"):
        fpt_decide(g, t, t2, 3)


def test_one_rotation_yeses_skip_the_marking(monkeypatch):
    # a YES one rotation away returns that rotation, with no ball or
    # types, at every k; the M of compute_marking holds both its ends
    def fail(*args):
        raise AssertionError("the marking ran")

    cases = []
    g, t, t2 = stacked_star(3000, [17])         # a leaf lifted above the centre
    cases.append((g, t, t2, (0, 17)))
    g, t, _ = _random_walk()
    cases.append((g, t, apply_sequence(g, t, [(538, 815)]), (538, 815)))
    g, t, _ = _path_walk()
    cases.append((g, t, apply_sequence(g, t, [(40, 41)]), (40, 41)))
    monkeypatch.setattr(fpt, "compute_bcb", fail)
    monkeypatch.setattr(fpt, "compute_types", fail)
    for g, t, t2, edge in cases:
        for k in (1, 2, 3):
            dec = fpt_decide(g, t, t2, k)
            assert dec.yes and dec.witness == (edge,) and dec.lower_bound == 1
            assert dec.ball is None and dec.comps == [] and dec.table is None
            assert dec.marked == frozenset() and dec.early_no is None
            assert dec.stats == {"nodes_expanded": 0, "bound_cuts": 0}
    monkeypatch.undo()
    for g, t, t2, edge in cases:
        for k in (1, 2, 3):
            assert set(edge) <= compute_marking(g, t, t2, k).marked


def test_h0_yeses_skip_the_marking(monkeypatch):
    # a YES at d = h0 is answered by one search at budget h0 over the bad
    # vertices, with no ball or types: h0 is at most the distance, so h0
    # rotations are a shortest witness.  The M of compute_marking holds
    # that witness
    def fail(*args):
        raise AssertionError("the marking ran")

    pins = [(make(), k, witness) for make, k, witness, *_ in SEARCH_PINS if witness is not None]
    assert len(pins) == 4
    monkeypatch.setattr(fpt, "compute_bcb", fail)
    monkeypatch.setattr(fpt, "compute_types", fail)
    for (g, t, t2), k, witness in pins:
        for kk in (k, k + 1):
            dec = fpt_decide(g, t, t2, kk)
            assert dec.yes and dec.witness == witness and dec.lower_bound == len(witness)
            assert dec.ball is None and dec.comps == [] and dec.table is None
            assert dec.marked == frozenset() and dec.early_no is None
    monkeypatch.undo()
    for (g, t, t2), k, witness in pins:
        marked = compute_marking(g, t, t2, k).marked
        assert all(u in marked and v in marked for u, v in witness)


def test_every_dirty_component_holds_a_missing_tube():
    # every ball component holding a bad vertex holds a vertex whose
    # subtree in t is no subtree of t2, so at most h0 components are
    # dirty, and a component certificate (more than k dirty components)
    # cannot fire once the tube bound h0 <= k has let the marking run.
    # Why: a children-bad x has such a vertex among itself, its children
    # and its grandchildren.  Were all their subtrees in t2, no
    # grandchild's subtree would hold the top in t2 of a child's subtree,
    # nor a child's that of x's, so each would keep its top and x its
    # children.  A parent-bad vertex hangs from a children-bad one,
    # except the root of t, whose child holding the root of t2 has a
    # subtree t2 lacks.  Each of these lies within distance 2 of a seed
    # of the ball, whose radius is at least 3, so in the same component.
    # Checked on every pair with n <= 4, then random pairs with n <= 60
    # at k = 1, ..., 5
    def dirty_components(g, t, t2, k):
        report = classify_bad(t, t2)
        of_t2 = tubes(t2.parent)
        missing = {v for v in range(t.n)
                   if t.parent[v] != -1 and frozenset(descendants(t, v)) not in of_t2}
        assert len(missing) == _h0(t, t2)
        dirty = 0
        for z in components(t, compute_bcb(t, report, k).vertices):
            if not report.bad.isdisjoint(z.vertices):
                assert not missing.isdisjoint(z.vertices), (g.edges(), t, t2, k, z)
                dirty += 1
        return dirty

    pairs = 0
    for n in range(1, 5):
        for g in connected_graphs(n):
            trees = list(enumerate_all(g).trees.values())
            for t in trees:
                for t2 in trees:
                    dirty_components(g, t, t2, 1)
                    pairs += 1
    assert pairs == 2302
    rng = random.Random(23)
    split = 0
    for trial in range(1500):
        n = rng.randrange(2, 61)
        g = generate("random_connected", n, seed=140_000 + trial, p=rng.choice([0.03, 0.1, 0.3]))
        t = random_tree(g, rng)
        k = rng.randrange(1, 6)
        if trial % 3:
            t2 = t
            for _ in range(rng.randrange(1, k + 2)):
                t2 = rotate(g, t2, random_tree_edge(t2, rng))
        else:
            t2 = random_tree(g, rng)
        split += dirty_components(g, t, t2, k) > 1
    assert split > 50


def test_tube_index_is_exact():
    # along random rotations inside M, with the packed sums updated as the
    # search updates them, a kept subtree's sums are in the target exactly
    # when its vertex set is a subtree of t2, and every other subtree is
    # one; deep trees, with atoms hanging below the kept vertices and
    # moving between them
    rng = random.Random(20)
    checked = atoms_moved = split = 0
    for trial in range(120):
        n = rng.randrange(2, 120)
        g = generate("random_connected", n, seed=120_000 + trial, p=rng.choice([0.03, 0.2]))
        t = random_tree(g, rng)
        t2 = t
        k = rng.randrange(1, 4)
        for _ in range(rng.randrange(1, k + 1)):
            t2 = rotate(g, t2, random_tree_edge(t2, rng))
        if t == t2:
            continue
        dec = compute_marking(g, t, t2, k)
        below = _below_lca(t, dec.report)
        sums, target, atom = _tube_index(t, t2, below | dec.marked)
        keep = set(sums)
        # every kept subtree outside below is a shared tube, so the search
        # starts from the h0 that fpt_decide counted over below alone
        assert sum(s not in target for s in sums.values()) == _tube_bound(t, t2, below)[0]
        assert dec.marked <= keep and t.root in keep and t2.root in keep
        # keep splits into parts where untracked vertices lie between the
        # marked ones around the root and the bad ones deeper down
        split += sum(t.parent[x] not in keep for x in keep) > 1
        # each kept vertex's share of its subtree's sums, and each atom's
        # sums, decode to one position; the positions are 0, ..., m - 1
        bits = 3 * n.bit_length()    # the index's field width
        mask = (1 << bits) - 1
        singles = []
        for y in keep:
            share = sums[y]
            for c in t.children(y):
                one = sums[c] if c in keep else atom(c)
                share -= one
                if c not in keep:
                    singles.append(one)
            singles.append(share)
        fields = [(v & mask, v >> bits & mask, v >> 2 * bits) for v in singles]
        assert all(count == 1 and square == p * p for count, p, square in fields)
        assert sorted(p for _, p, _ in fields) == list(range(len(fields)))
        of_t2 = {frozenset(descendants(t2, y)) for y in range(n)}
        tree = MutableTree(g, t, dec.marked)
        for _ in range(12):
            cur = ElimTree(tree.parent)
            for x in range(n):
                is_tube = frozenset(descendants(cur, x)) in of_t2
                if x in keep:
                    assert (sums[x] in target) == is_tube, (t, t2, cur, x)
                else:
                    # an untracked subtree is a tube of t2, so h counts
                    # every tube t2 lacks
                    assert is_tube, (t, t2, cur, x)
                checked += 1
            edges = [(tree.parent[v], v) for v in sorted(dec.marked)
                     if tree.parent[v] in dec.marked]
            if not edges:
                break
            u, v = rng.choice(edges)
            moved = tree.rotate(u, v)
            atoms_moved += sum(w not in keep for w in moved)
            new = sums[u] - sums[v] + sum(sums[w] if w in sums else atom(w) for w in moved)
            sums[u], sums[v] = new, sums[u]
    assert checked > 50_000 and atoms_moved > 50 and split > 30


def test_search_matches_restricted_bfs():
    # the search is a shortest-path search over rotations inside M
    rng = random.Random(15)
    for trial in range(600):
        n = rng.randrange(2, 8)
        g = generate("random_connected", n, seed=70_000 + trial, p=0.35)
        t, t2 = random_tree(g, rng), random_tree(g, rng)
        k = rng.randrange(1, 4)
        dec = fpt_decide(g, t, t2, k)
        # a NO certified before the marking and a YES at d = 1 or d = h0
        # have no M of their own
        marked = compute_marking(g, t, t2, k).marked if t != t2 else dec.marked
        d = restricted_bfs_distance(g, t, t2, marked, cap=k)
        if d is None:
            assert not dec.yes
            continue
        assert dec.yes and len(dec.witness) == d
        assert apply_sequence(g, t, dec.witness) == t2
        # a YES before the marking is one its lower bound certifies
        assert dec.marked == (frozenset() if dec.ball is None else marked)
        assert dec.ball is not None or len(dec.witness) == dec.lower_bound
        assert all(u in marked and v in marked for u, v in dec.witness)


def test_decide_matches_bfs_where_the_marking_runs():
    # at n = 7-9, targets a few rotations away reach the marking often
    # enough to check its search against the BFS: the verdict at
    # k = d - 1 and k = d, and on YES a shortest witness inside M
    rng = random.Random(25)
    marked_runs = 0
    for trial in range(2000):
        n = rng.randrange(7, 10)
        g = generate("random_connected", n, seed=160_000 + trial, p=rng.choice([0.1, 0.3, 0.6]))
        t = t2 = random_tree(g, rng)
        for _ in range(rng.randrange(2, 7)):
            t2 = rotate(g, t2, random_tree_edge(t2, rng))
        d = bfs_witness(g, t, t2, cap=6)[0]
        for k in (d - 1, d):
            if k < 0:
                continue
            dec = fpt_decide(g, t, t2, k)
            marked_runs += dec.ball is not None
            assert dec.yes == (d <= k), (g.edges(), t, t2, k)
            if dec.yes:
                assert len(dec.witness) == d
                assert apply_sequence(g, t, dec.witness) == t2
                if d:
                    marked = compute_marking(g, t, t2, k).marked
                    assert all(u in marked and v in marked for u, v in dec.witness)
    assert marked_runs >= 300
