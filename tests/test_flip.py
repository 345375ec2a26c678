import itertools
import random
from collections import deque

import pytest

from helpers import (
    connected_graphs,
    enumerate_orderings,
    inversions_between,
    random_tree,
    restricted_bfs_distance,
    tubes,
)
from rotdist import (
    InstanceTooLarge,
    bfs_distance,
    bfs_witness,
    diameter,
    enumerate_all,
    apply_sequence,
    from_ordering,
    from_parent_vector,
    generate,
    neighbors,
)
from rotdist.flip import FlipGraph, to_dot, to_json_dict

P3 = generate("path", 3)
K3 = generate("complete", 3)


def chain(g, order):
    return from_ordering(g, order)


def test_neighbors_of_a_chain():
    t = from_parent_vector([-1, 0, 1])
    nbrs = neighbors(P3, t)
    assert [e for e, _ in nbrs] == [(0, 1), (1, 2)]
    assert nbrs[0][1].parent == (1, -1, 1)
    assert nbrs[1][1].parent == (-1, 2, 0)


def test_neighbors_single_vertex():
    g = generate("path", 1)
    assert neighbors(g, from_parent_vector([-1])) == []


def test_rotations_are_the_one_tube_flips():
    # two maximal tubings are adjacent exactly when they differ in one
    # tube (Carr and Devadoss), checked apart from the touch test, on
    # every connected graph with n <= 5 and on seeded ones with n = 6.
    # Every maximal tubing has n - 1 tubes, so two differ in one tube
    # exactly when they share all but one: each tubing is filed under
    # itself less each of its tubes.
    graphs = [g for n in range(1, 6) for g in connected_graphs(n)]
    graphs += [generate("random_connected", 6, seed=s, p=0.2 + 0.05 * (s % 8))
               for s in range(24)]
    checked = {"n<=5": 0, "n=6": 0}
    for g in graphs:
        fg = enumerate_all(g)
        tubings = {key: tubes(key) for key in fg.trees}
        shared: dict[frozenset, list] = {}
        for key, mine in tubings.items():
            for tube in mine:
                shared.setdefault(mine - {tube}, []).append(key)
        for key, mine in tubings.items():
            one_apart = {k2 for tube in mine for k2 in shared[mine - {tube}] if k2 != key}
            assert {k2 for _, k2 in fg.adj[key]} == one_apart, (g.edges(), key)
            checked["n=6" if g.n == 6 else "n<=5"] += 1
    assert checked == {"n<=5": 1836, "n=6": 10340}


def test_enumerate_counts():
    assert len(enumerate_all(P3)) == 5
    assert len(enumerate_all(generate("path", 4))) == 14
    assert len(enumerate_all(K3)) == 6


def test_enumerate_matches_ordering_oracle():
    for g in (P3, K3, generate("path", 5), generate("star", 5),
              generate("cycle", 5), generate("complete", 4),
              generate("random_connected", 6, seed=1, p=0.35)):
        assert set(enumerate_all(g).trees) == enumerate_orderings(g)


def test_enumerate_cap():
    g = generate("path", 11)
    with pytest.raises(InstanceTooLarge):
        enumerate_all(g)
    assert len(enumerate_all(generate("path", 6), cap=6)) == 132


def test_bfs_distance_basics():
    a = chain(P3, [0, 1, 2])
    assert bfs_distance(P3, a, a) == 0
    assert bfs_distance(P3, a, from_parent_vector([1, -1, 1])) == 1
    assert bfs_distance(P3, a, from_parent_vector([1, 2, -1])) == 2
    assert bfs_distance(K3, chain(K3, [0, 1, 2]), chain(K3, [2, 1, 0])) == 3


def test_bfs_distance_cap():
    a = chain(K3, [0, 1, 2])
    b = chain(K3, [2, 1, 0])
    assert bfs_distance(K3, a, b, cap=2) is None
    assert bfs_distance(K3, a, b, cap=3) == 3
    with pytest.raises(InstanceTooLarge):
        bfs_distance(generate("path", 13),
                     chain(generate("path", 13), list(range(13))),
                     chain(generate("path", 13), list(range(12, -1, -1))))
    # no cap lifts the limit: the trees within a few rotations of a
    # star grow about as a power of n
    star = generate("star", 13)
    with pytest.raises(InstanceTooLarge):
        bfs_witness(star, chain(star, list(range(13))), chain(star, list(range(12, -1, -1))),
                    cap=3)


def test_bfs_witness_is_shortest_and_replays():
    rng = random.Random(2)
    for trial in range(60):
        g = generate("random_connected", rng.randrange(2, 7), seed=trial, p=0.4)
        a, b = random_tree(g, rng), random_tree(g, rng)
        d, seq = bfs_witness(g, a, b)
        assert d == bfs_distance(g, a, b)
        assert len(seq) == d
        assert apply_sequence(g, a, seq) == b


def test_bfs_witness_sequences_are_pinned():
    # pinned: the first shortest sequence in breadth-first, child-vertex
    # order
    assert bfs_witness(K3, chain(K3, [0, 1, 2]), chain(K3, [2, 1, 0])) == \
        (3, [(0, 1), (0, 2), (1, 2)])
    p5 = generate("path", 5)
    a = from_parent_vector([2, 0, -1, 4, 2])
    b = from_parent_vector([1, -1, 3, 1, 3])
    assert bfs_witness(p5, a, b) == (4, [(0, 1), (2, 1), (4, 3), (2, 3)])
    assert bfs_witness(p5, a, b, cap=3) == (None, None)


def test_distance_is_a_metric_on_small_flip_graphs():
    rng = random.Random(6)
    for g in (generate("path", 4), K3, generate("cycle", 4)):
        fg = enumerate_all(g)
        keys = fg.nodes()
        dist = {k: fg.distances_from(k) for k in keys}
        for a in keys:
            assert dist[a][a] == 0
        for _ in range(200):
            a, b, c = (rng.choice(keys) for _ in range(3))
            assert dist[a][b] == dist[b][a]
            assert dist[a][c] <= dist[a][b] + dist[b][c]


def reference_distances(fg, key):
    """A BFS over the key-to-arcs map, apart from the id lists."""
    dist = {key: 0}
    queue = deque([key])
    while queue:
        k = queue.popleft()
        for _, k2 in fg.adj[k]:
            if k2 not in dist:
                dist[k2] = dist[k] + 1
                queue.append(k2)
    return dist


def test_distances_from_matches_a_bfs_over_adj():
    gs = [g for n in range(1, 6) for g in connected_graphs(n)]
    gs += [generate("random_connected", 6, seed=s, p=0.35) for s in (3, 17, 40)]
    for g in gs:
        fg = enumerate_all(g)
        for key in fg.trees:
            row = fg.distances_from(key)
            assert row == reference_distances(fg, key), (g.edges(), key)
            assert row.keys() == fg.trees.keys()


def test_distances_from_unknown_key_raises():
    fg = enumerate_all(P3)
    with pytest.raises(KeyError):
        fg.distances_from((-1, -1, -1))
    with pytest.raises(KeyError):
        fg.distances_from((-1, 0))


def test_distances_from_leaves_out_unreached_trees():
    # cut the 5-cycle of P3's rotation graph into a path of 3 and one of
    # 2: a row lists only the trees its source reaches
    fg = enumerate_all(P3)
    a, b, c, d, e = fg.keys
    arcs = {a: (b,), b: (a, c), c: (b,), d: (e,), e: (d,)}
    cut = FlipGraph(P3, fg.trees, {k: tuple(((0, 1), k2) for k2 in v) for k, v in arcs.items()})
    assert cut.distances_from(a) == {a: 0, b: 1, c: 2}
    assert cut.distances_from(e) == {e: 0, d: 1}


def test_restricted_distance():
    a = chain(P3, [0, 1, 2])
    star1 = from_parent_vector([1, -1, 1])
    # the only way to lift 1 over 0 uses vertex 0
    assert restricted_bfs_distance(P3, a, star1, {1, 2}, cap=3) is None
    assert restricted_bfs_distance(P3, a, star1, {0, 1}, cap=1) == 1
    assert restricted_bfs_distance(P3, a, star1, {0, 1, 2}) == 1


def test_restricted_with_everything_allowed_matches_plain_bfs():
    rng = random.Random(8)
    for trial in range(40):
        g = generate("random_connected", rng.randrange(2, 6), seed=50 + trial, p=0.4)
        a, b = random_tree(g, rng), random_tree(g, rng)
        assert restricted_bfs_distance(g, a, b, range(g.n), cap=8) == \
            bfs_distance(g, a, b, cap=8)


def test_diameter_values():
    assert diameter(generate("complete", 2)) == 1
    assert diameter(P3) == 2
    assert diameter(K3) == 3
    # chains of a complete graph sit on the permutahedron; the farthest
    # pair is a full reversal with one swap per pair
    assert diameter(generate("complete", 4)) == 6


def test_chains_of_complete_graphs_count_inversions():
    g = generate("complete", 4)
    fg = enumerate_all(g)
    perms = list(itertools.permutations(range(4)))
    assert len(fg) == len(perms)
    for p in perms:
        for q in perms:
            tp = chain(g, list(p))
            tq = chain(g, list(q))
            expect = inversions_between(list(p), list(q))
            assert bfs_distance(g, tp, tq) == expect


def test_exports():
    fg = enumerate_all(P3)
    # the rotation graph of a path on 3 is a 5-cycle; the DOT text lists
    # the nodes and the sorted edges of to_json_dict
    assert to_dot(fg) == "\n".join([
        "graph rotations {",
        '  t0 [label="(-1,0,1)"];',
        '  t1 [label="(-1,2,0)"];',
        '  t2 [label="(1,-1,1)"];',
        '  t3 [label="(1,2,-1)"];',
        '  t4 [label="(2,0,-1)"];',
        "  t0 -- t1;",
        "  t0 -- t2;",
        "  t1 -- t4;",
        "  t2 -- t3;",
        "  t3 -- t4;",
        "}",
    ]) + "\n"
    d = to_json_dict(fg)
    assert len(d["nodes"]) == 5
    assert len(d["edges"]) == 5
    assert d["n"] == 3
