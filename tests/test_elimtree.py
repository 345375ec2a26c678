import random

import pytest

from helpers import (
    descendants,
    is_elimination_tree,
    preorder,
    random_tree,
    random_tree_edge,
    reference_violations,
    stacked_star,
    tree_distance_matrix,
)
from rotdist import (
    DisconnectedGraph,
    Graph,
    InvalidOrdering,
    InvalidParameter,
    InvalidTree,
    InvalidVertex,
    NotATreeEdge,
    apply_sequence,
    enumerate_all,
    fpt_decide,
    from_ordering,
    from_parent_vector,
    generate,
    rotate,
    validate,
    validity_violations,
)
from rotdist.elimtree import (
    _FIRST_BUDGET,
    ElimTree,
    MutableTree,
    _climb_from_neighbours,
    _walk_subtrees,
    from_json_dict,
    load_tree,
    moved_children,
    save_tree,
)

P3 = generate("path", 3)
K3 = generate("complete", 3)


def tree(parent):
    return from_parent_vector(parent)


# ---------------------------------------------------------------------------
# construction

def test_from_ordering_path():
    assert from_ordering(P3, [0, 1, 2]).parent == (-1, 0, 1)
    assert from_ordering(P3, [1, 0, 2]).parent == (1, -1, 1)


def test_from_ordering_complete():
    # on a complete graph the ordering is the tree: one chain
    assert from_ordering(K3, [2, 0, 1]).parent == (2, 0, -1)


def test_from_ordering_errors():
    with pytest.raises(InvalidOrdering):
        from_ordering(P3, [0, 0, 2])
    with pytest.raises(InvalidOrdering):
        from_ordering(P3, [0, 1])
    with pytest.raises(DisconnectedGraph):
        from_ordering(Graph(4, [(0, 1), (2, 3)]), [0, 1, 2, 3])


def test_from_ordering_reaches_every_tree():
    # rebuilding a tree from any of its ancestors-first orders is exact
    rng = random.Random(1)
    for g in (generate("path", 5), generate("complete", 4),
              generate("star", 5), generate("cycle", 5),
              generate("random_connected", 6, seed=2, p=0.4)):
        fg = enumerate_all(g)
        for t in fg.trees.values():
            assert from_ordering(g, preorder(t)) == t
        again = random_tree(g, rng)
        assert again.parent in fg.trees


@pytest.mark.parametrize("family", ["path", "cycle", "star", "complete",
                                    "complete_split", "random_connected"])
def test_from_ordering_puts_each_vertex_before_its_descendants(family):
    # a valid elimination tree whose every vertex comes before its
    # descendants in the order is the one tree the order determines
    rng = random.Random(family)
    for i in range(60):
        n = rng.randint(3, 14)
        g = generate(family, n, seed=i, p=rng.choice((0.1, 0.3, 0.6)))
        order = list(range(n))
        rng.shuffle(order)
        t = from_ordering(g, order)
        pos = {v: i for i, v in enumerate(order)}
        assert is_elimination_tree(g, list(t.parent)), (g.edges(), order)
        assert all(pos[p] < pos[v] for v, p in enumerate(t.parent) if p != -1)


@pytest.mark.parametrize("family", ["path", "star", "cycle"])
def test_from_ordering_at_n_3000(family):
    n = 3000
    g = generate(family, n)
    for order in (list(range(n)), list(range(n))[::-1],
                  random.Random(family).sample(range(n), n)):
        t = from_ordering(g, order)
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        assert validity_violations(g, t) == []
        assert all(pos[p] < pos[v] for v, p in enumerate(t.parent) if p != -1)


def test_from_parent_vector_errors():
    with pytest.raises(InvalidTree):
        from_parent_vector([-1, 0, -1])
    with pytest.raises(InvalidTree):
        from_parent_vector([1, 0, -1] + [2])  # 0 and 1 form a cycle
    with pytest.raises(InvalidTree):
        from_parent_vector([7, -1])
    with pytest.raises(InvalidTree):
        from_parent_vector([0, 1, 2])


def test_tree_accessors():
    t = tree([1, -1, 1])
    assert t.root == 1
    assert t.children(1) == (0, 2)
    assert t.children(0) == ()
    assert t.depth(0) == 1 and t.depth(1) == 0
    assert set(descendants(t, 1)) == {0, 1, 2}


# ---------------------------------------------------------------------------
# validity

def test_validate_examples():
    assert validate(P3, tree([-1, 2, 0]))          # chain 0 -> 2 -> 1
    assert validate(P3, tree([-1, 0, 1]))
    assert not validate(P3, tree([-1, 0, 0]))      # 1 and 2 incomparable
    assert validate(Graph(1, []), tree([-1]))


def test_validate_diagnostics():
    problems = validity_violations(P3, tree([-1, 0, 0]))
    assert any("(1,2)" in p for p in problems)
    # 1 and 2 sit at one depth, so the pass meets (1,2) from both ends
    assert problems == ["edge (1,2) joins incomparable vertices",
                        "subtree at 2 has no edge to its parent 0"]
    assert validity_violations(P3, tree([-1, 0, 0]), 1) == problems[:1]


def test_validity_limit_below_one_raises():
    # at limit 0 an invalid tree would get no message and read as valid
    for limit in (0, -1):
        with pytest.raises(InvalidParameter):
            validity_violations(P3, tree([-1, 0, 0]), limit)
    assert len(validity_violations(P3, tree([-1, 0, 0]), 1)) == 1


def test_validate_needs_connected_subtrees():
    # chain 1 -> 0 -> 2 satisfies the ancestor condition on P3, but the
    # subtree {0, 2} induces no edge
    t = tree([1, -1, 0])
    problems = validity_violations(P3, t)
    assert problems
    assert any("subtree" in p for p in problems)


def test_validate_wrong_size():
    assert not validate(P3, tree([-1, 0]))


def test_every_enumerated_tree_validates():
    for g in (generate("path", 5), generate("cycle", 5),
              generate("random_connected", 6, seed=9, p=0.35)):
        for t in enumerate_all(g).trees.values():
            assert validate(g, t)


def _random_parent_vector(g, rng: random.Random) -> tuple[str, list[int]]:
    """A parent vector with exactly one root, valid or not, for g."""
    n = g.n
    kind = rng.choice(("valid", "recursive", "chain", "perturbed", "size"))
    if kind == "size":
        m = n + 1 if n == 1 or rng.random() < 0.5 else n - 1
        return kind, [-1] + [rng.randrange(i) for i in range(1, m)]
    if kind == "valid":
        return kind, list(random_tree(g, rng).parent)
    order = list(range(n))
    rng.shuffle(order)
    parent = [-1] * n
    if kind == "chain":
        # every pair of a chain is comparable; only subtrees can fail
        for i in range(1, n):
            parent[order[i]] = order[i - 1]
    elif kind == "recursive":
        for i in range(1, n):
            parent[order[i]] = order[rng.randrange(i)]
    else:
        parent = list(random_tree(g, rng).parent)
        for v in rng.sample(range(n), min(n, rng.choice((1, 2)))):
            if parent[v] != -1:
                parent[v] = rng.choice([u for u in range(n) if u != v])
    return kind, parent


def _climb(parent, v: int) -> int:
    """Steps from v up to the root of an acyclic parent vector."""
    steps = 0
    while parent[v] != -1:
        v = parent[v]
        steps += 1
    return steps


def _incomparable_depths(g, parent) -> set[bool]:
    """For an acyclic parent vector on g's vertices: whether each
    incomparable G-edge joins two vertices of equal depth."""
    def ancestors(v):
        out = set()
        while v != -1:
            out.add(v)
            v = parent[v]
        return out
    return {_climb(parent, u) == _climb(parent, v) for u, v in g.edges()
            if u not in ancestors(v) and v not in ancestors(u)}


def test_validity_matches_definition_and_reference():
    rng = random.Random(11)
    seen = {"valid": 0, "cycle": 0, "vertices, graph has": 0,
            "incomparable": 0, "no edge to its parent": 0}
    # trees with an incomparable edge at equal depths, which the pass
    # meets from both ends, and at different depths, met from one
    branches = {True: 0, False: 0}
    for i in range(2400):
        n = rng.randint(1, 9)
        g = generate("random_connected", n, seed=i, p=rng.choice((0.0, 0.15, 0.4)))
        _, parent = _random_parent_vector(g, rng)
        t = ElimTree(parent)
        got = validity_violations(g, t)
        assert (not got) == is_elimination_tree(g, parent), (g.edges(), parent, got)
        full = reference_violations(g, ElimTree(parent), limit=10**6)
        for limit in (20, 3, 1):
            assert validity_violations(g, ElimTree(parent), limit) == \
                reference_violations(g, ElimTree(parent), limit), (g.edges(), parent, limit)
        if "cycle" not in " ".join(full) and len(parent) == n:
            assert [t.depth(v) for v in range(n)] == [_climb(parent, v) for v in range(n)]
            for equal in _incomparable_depths(g, parent):
                branches[equal] += 1
        seen["valid"] += not full
        for key in seen:
            seen[key] += any(key in msg for msg in full)
    assert min(seen.values()) >= 100, seen
    assert min(branches.values()) >= 50, branches


def test_validity_of_deep_trees():
    # a path graph of 50,000 vertices: a single chain, and a tree rooted
    # in the middle with two arms of depth 25,000; a recursive pass or a
    # quadratic one would not finish
    n = 50_000
    g = generate("path", n)
    chain = from_parent_vector([-1] + list(range(n - 1)))
    assert validity_violations(g, chain) == []
    assert chain.depth(n - 1) == n - 1
    mid = n // 2
    arms = [v + 1 if v < mid else v - 1 for v in range(n)]
    arms[mid] = -1
    t = from_parent_vector(arms)
    assert validity_violations(g, t) == []
    closed = Graph(n, list(g.edges()) + [(0, n - 1)])
    assert validity_violations(closed, t) == [f"edge (0,{n - 1}) joins incomparable vertices"]
    assert validity_violations(closed, chain) == []


# ---------------------------------------------------------------------------
# rotation

def test_rotate_examples():
    chain = tree([-1, 0, 1])
    assert rotate(P3, chain, (0, 1)).parent == (1, -1, 1)
    assert rotate(P3, chain, (1, 2)).parent == (-1, 2, 0)
    # on the complete graph every subtree is adjacent to everything, so
    # the grandchild follows the demoted vertex instead of staying put
    assert rotate(K3, tree([-1, 0, 1]), (0, 1)).parent == (1, -1, 0)


def test_rotate_moves_only_adjacent_subtrees():
    # star at 1 on P3: rotating (1, 0) lifts 0; 2 is not adjacent to 0
    # and stays under 1
    star = tree([1, -1, 1])
    assert rotate(P3, star, (1, 0)).parent == (-1, 0, 1)


def test_rotate_errors():
    chain = tree([-1, 0, 1])
    with pytest.raises(NotATreeEdge):
        rotate(P3, chain, (1, 0))
    with pytest.raises(NotATreeEdge):
        rotate(P3, chain, (0, 2))
    with pytest.raises(InvalidVertex):
        rotate(P3, chain, (0, 9))


def test_rotation_is_involution():
    rng = random.Random(3)
    for trial in range(500):
        n = rng.randrange(2, 10)
        g = generate("random_connected", n, seed=trial, p=0.3)
        t = random_tree(g, rng)
        u, v = random_tree_edge(t, rng)
        t2 = rotate(g, t, (u, v))
        assert validate(g, t2)
        assert rotate(g, t2, (v, u)) == t


def test_rotation_locality():
    rng = random.Random(4)
    for trial in range(500):
        n = rng.randrange(2, 10)
        g = generate("random_connected", n, seed=10_000 + trial, p=0.3)
        t = random_tree(g, rng)
        u, v = random_tree_edge(t, rng)
        t2 = rotate(g, t, (u, v))
        changed_children = sum(1 for w in range(n) if t.children(w) != t2.children(w))
        changed_parent = sum(1 for w in range(n) if t.parent[w] != t2.parent[w])
        assert changed_children <= 3
        assert changed_parent >= 1


def test_rotation_moves_tree_distances_by_at_most_one():
    rng = random.Random(5)
    for trial in range(120):
        n = rng.randrange(2, 13)
        g = generate("random_connected", n, seed=20_000 + trial, p=0.25)
        t = random_tree(g, rng)
        t2 = rotate(g, t, random_tree_edge(t, rng))
        before = tree_distance_matrix(t)
        after = tree_distance_matrix(t2)
        for a in range(n):
            for b in range(n):
                assert abs(before[a][b] - after[a][b]) <= 1


def _touching_children(g, t, u, v):
    """Reference touch test: children of v whose subtree has a G-edge to u."""
    return {w for w in t.children(v)
            if any(g.has_edge(u, x) for x in descendants(t, w))}


def _child_sets(state):
    return [set(c) for c in state.children]


def test_rotate_builds_consistent_trees():
    # rotate assembles the child tuples itself; they must be the ones
    # the constructor derives from the parent vector, root included
    rng = random.Random(6)
    for trial in range(300):
        n = rng.randrange(2, 9)
        g = generate("random_connected", n, seed=30_000 + trial, p=0.3)
        t = random_tree(g, rng)
        t2 = rotate(g, t, random_tree_edge(t, rng))
        rebuilt = ElimTree(t2.parent)
        assert t2.root == rebuilt.root
        assert all(t2.children(x) == rebuilt.children(x) for x in range(n))


def test_touch_test_scans_agree():
    rng = random.Random(7)
    for trial in range(400):
        n = rng.randrange(2, 9)
        g = generate("random_connected", n, seed=40_000 + trial, p=0.3)
        t = random_tree(g, rng)
        u, v = random_tree_edge(t, rng)
        want = _touching_children(g, t, u, v)
        walk = _walk_subtrees(g, t._children, u, v, n + 1)
        climb = _climb_from_neighbours(g, t.parent, u, v, n * n + 1)
        assert set(walk) == want
        assert set(climb) == want
        assert set(moved_children(g, t.parent, t._children, u, v)) == want
        # a budget too small for a scan makes it give up, not answer wrong
        for budget in range(n + 1):
            for got in (_walk_subtrees(g, t._children, u, v, budget),
                        _climb_from_neighbours(g, t.parent, u, v, budget)):
                assert got is None or set(got) == want


def test_rotate_in_place_matches_rotate_and_undoes():
    rng = random.Random(8)
    for trial in range(400):
        n = rng.randrange(2, 9)
        g = generate("random_connected", n, seed=50_000 + trial, p=0.3)
        t = random_tree(g, rng)
        u, v = random_tree_edge(t, rng)
        state = MutableTree(g, t, frozenset(range(n)))
        before_children = _child_sets(state)
        moved = state.rotate(u, v)
        assert set(moved) == _touching_children(g, t, u, v)
        after = rotate(g, t, (u, v))
        assert tuple(state.parent) == after.parent
        assert _child_sets(state) == [set(after.children(x)) for x in range(n)]
        # only u, v and the moved children change parent
        changed = {x for x in range(n) if state.parent[x] != t.parent[x]}
        assert changed <= {u, v, *moved}
        assert {u, v} <= changed
        state.undo(u, v, moved)
        assert tuple(state.parent) == t.parent
        assert _child_sets(state) == before_children
        # undoing by a fresh reverse rotation is exact too
        state.rotate(u, v)
        assert set(state.rotate(v, u)) == set(moved)
        assert tuple(state.parent) == t.parent
        assert _child_sets(state) == before_children


def test_mutable_tree_walks_match_rotate():
    # long random walks inside a movable set, so the rotations run on
    # states far from the tree they were built from, checked step by step
    rng = random.Random(9)
    for trial in range(150):
        n = rng.randrange(3, 13)
        g = generate("random_connected", n, seed=60_000 + trial, p=0.25)
        t = random_tree(g, rng)
        movable = frozenset(rng.sample(range(n), rng.randrange(2, n + 1)))
        state = MutableTree(g, t, movable)
        cur = t
        for _ in range(25):
            edges = [(cur.parent[x], x) for x in movable
                     if cur.parent[x] in movable]
            if not edges:
                break
            u, v = rng.choice(edges)
            state.rotate(u, v)
            cur = rotate(g, cur, (u, v))
            assert tuple(state.parent) == cur.parent
            assert _child_sets(state) == [set(cur.children(x)) for x in range(n)]


@pytest.mark.parametrize("n", [100, 3000, 10_000])
@pytest.mark.parametrize("j", [2, 3])
def test_touch_test_is_constant_time_on_a_star(monkeypatch, n, j):
    # j leaves stacked above the centre, as in the wide benchmark: the
    # centre has up to n - 1 children and each leaf one G-neighbour, yet
    # every rotation of the search is answered by one scan within the
    # first step budget, whatever n is
    leaves = sorted(random.Random(n + j).sample(range(1, n), j))
    g, t, t2 = stacked_star(n, leaves)
    rotations = []
    real = MutableTree.rotate

    def rotate_checked(self, u, v):
        walk = _walk_subtrees(self.g, self.children, u, v, _FIRST_BUDGET)
        climb = _climb_from_neighbours(self.g, self.parent, u, v, _FIRST_BUDGET)
        assert walk is not None or climb is not None, (u, v)
        rotations.append((u, v))
        return real(self, u, v)

    monkeypatch.setattr(MutableTree, "rotate", rotate_checked)
    dec = fpt_decide(g, t, t2, j)
    assert dec.yes and len(dec.witness) == j
    assert not fpt_decide(g, t, t2, j - 1).yes
    # the NO at k = j - 1 is certified before the search; the YES rotates
    # exactly its j witness moves, each lifting a leaf above the centre
    assert rotations == list(dec.witness)
    # rotating the centre back under a leaf must be as cheap as lifting
    # one, though its walk meets n - 2 child subtrees
    state = MutableTree(g, t, frozenset([0, *leaves]))
    for leaf in leaves:
        assert not state.rotate(0, leaf)
        assert not state.rotate(leaf, 0)
    assert tuple(state.parent) == t.parent


# ---------------------------------------------------------------------------
# sequences

def test_apply_sequence():
    chain = tree([-1, 0, 1])
    assert apply_sequence(P3, chain, []) == chain
    assert apply_sequence(P3, chain, [(0, 1), (1, 2)]).parent == (1, 2, -1)
    # a rotation followed by its reverse is the identity
    assert apply_sequence(P3, chain, [(0, 1), (1, 0)]) == chain


def test_apply_sequence_reports_failing_step():
    chain = tree([-1, 0, 1])
    with pytest.raises(NotATreeEdge) as err:
        apply_sequence(P3, chain, [(0, 1), (0, 1)])
    assert err.value.step == 2


def test_equals():
    assert tree([-1, 0, 1]) == tree([-1, 0, 1])
    assert tree([-1, 0, 1]) != tree([-1, 2, 0])
    assert tree([-1, 0, 1]) != tree([-1, 0])


# ---------------------------------------------------------------------------
# files

def test_tree_json_round_trip(tmp_path):
    t = tree([1, -1, 1, 2])
    path = str(tmp_path / "t.json")
    save_tree(t, path)
    assert load_tree(path) == t


def test_tree_json_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"parent": [0, 1, 2]}')
    with pytest.raises(InvalidTree):
        load_tree(str(path))
    path.write_text('{"nope": true}')
    with pytest.raises(InvalidTree):
        load_tree(str(path))


@pytest.mark.parametrize("parent", [[-1, 0.7, 1], [-1, True, 1], [-1, 0, "1"],
                                    [-1, 0.0, 1], None, 5])
def test_tree_json_rejects_non_integer_parents(parent):
    with pytest.raises(InvalidTree):
        from_json_dict({"parent": parent})
    with pytest.raises(InvalidTree):
        from_json_dict([parent])
