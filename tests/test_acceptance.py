"""Acceptance criteria, one test per criterion.

The exhaustive small-graph sweep is shared by several criteria, so it
runs once as a session fixture and each criterion asserts its slice.
Run with -v to get one line per criterion.
"""

import math
import random
import statistics
import time

import pytest

from helpers import (
    CONNECTED_COUNTS,
    connected_graphs,
    enumerate_orderings,
    inversions_between,
    random_tree,
    random_tree_edge,
    restricted_bfs_distance,
    tree_distance_matrix,
    tubes,
)
from rotdist import (
    apply_sequence,
    classify_bad,
    compute_bcb,
    compute_marking,
    enumerate_all,
    fpt_decide,
    from_ordering,
    generate,
    rotate,
)
from rotdist.fpt import _below_lca, _tube_bound

CATALAN = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429, 8: 1430}


def note(msg):
    print(f"[acceptance] {msg}")


# ---------------------------------------------------------------------------
# shared exhaustive sweep over every connected graph with n <= 5

@pytest.fixture(scope="session")
def sweep():
    res = {
        "graphs": 0,
        "instances": 0,
        "verdict_mismatches": [],
        "early_no_fired": 0,
        "early_no_unsound": [],
        "early_no_after_marking": 0,
        "restricted_checked": 0,
        "restricted_failures": [],
        "replays_checked": 0,
        "replay_failures": [],
        "bound_failures": [],
        "tube_bounds_checked": 0,
        "certified_by_bound": {1: 0, 2: 0, 3: 0},
        "searched_nos": {1: 0, 2: 0, 3: 0},
        "yes_at_2_or_more": 0,
        "yes_before_marking": 0,
    }
    for n in range(1, 6):
        gs = connected_graphs(n)
        assert len(gs) == CONNECTED_COUNTS[n]
        for g in gs:
            res["graphs"] += 1
            fg = enumerate_all(g)
            keys = fg.nodes()
            dmaps = {k: fg.distances_from(k) for k in keys}
            tubings = {k: tubes(k) for k in keys}
            for ka in keys:
                ta = fg.trees[ka]
                dm = dmaps[ka]
                for kb in keys:
                    tb = fg.trees[kb]
                    d = dm[kb]
                    if d >= 2:
                        # h0 as fpt_decide computes it, against its definition
                        res["tube_bounds_checked"] += 1
                        h0 = len(tubings[ka] - tubings[kb])
                        if _tube_bound(ta, tb, _below_lca(ta, classify_bad(ta, tb)))[0] != h0:
                            res["bound_failures"].append((g.edges(), ka, kb, "h0"))
                    for k in (1, 2, 3):
                        res["instances"] += 1
                        dec = fpt_decide(g, ta, tb, k)
                        if dec.yes != (d <= k):
                            res["verdict_mismatches"].append((g.edges(), ka, kb, k, d))
                        if dec.lower_bound > d:
                            res["bound_failures"].append((g.edges(), ka, kb, k, d))
                        if not dec.yes and dec.early_no is None:
                            res["searched_nos"][k] += 1
                            res["certified_by_bound"][k] += dec.ball is None
                        if dec.early_no is not None:
                            res["early_no_fired"] += 1
                            res["early_no_after_marking"] += dec.ball is not None
                            if d <= k:
                                res["early_no_unsound"].append((g.edges(), ka, kb, k, d))
                        if dec.yes:
                            res["replays_checked"] += 1
                            if d >= 2:
                                res["yes_at_2_or_more"] += 1
                                res["yes_before_marking"] += dec.ball is None
                            reached = apply_sequence(g, ta, dec.witness)
                            # a YES at d = 1 or d = h0 is answered before
                            # the marking, so M is that of compute_marking
                            marked = compute_marking(g, ta, tb, k).marked
                            ok = (reached.parent == kb
                                  and len(dec.witness) == d
                                  and all(u in marked and v in marked for u, v in dec.witness))
                            if not ok:
                                res["replay_failures"].append((g.edges(), ka, kb, k))
                        if d <= k:
                            res["restricted_checked"] += 1
                            if dec.ball is not None:
                                allowed = dec.ball.vertices
                            else:
                                allowed = compute_bcb(ta, classify_bad(ta, tb), k).vertices
                            rd = restricted_bfs_distance(g, ta, tb, allowed, cap=k)
                            if rd is None or rd > k:
                                res["restricted_failures"].append((g.edges(), ka, kb, k, d))
    return res


def _star_instance(m):
    g = generate("star", m + 1)
    t = from_ordering(g, list(range(m + 1)))
    t2 = rotate(g, t, (0, 5))
    return g, t, t2


@pytest.fixture(scope="session")
def star_runs():
    out = {}
    for m in (10, 100, 1000):
        g, t, t2 = _star_instance(m)
        times = []
        dec = None
        for _ in range(7):
            t0 = time.perf_counter()
            dec = fpt_decide(g, t, t2, 2)
            times.append(time.perf_counter() - t0)
        out[m] = (g, t, t2, dec, statistics.median(times))
    return out


@pytest.fixture(scope="session")
def rotation_triples():
    rng = random.Random(7)
    out = []
    for i in range(10_000):
        n = rng.randrange(2, 11)
        g = generate("random_connected", n, seed=i, p=rng.choice((0.15, 0.3, 0.5)))
        t = random_tree(g, rng)
        out.append((g, t, random_tree_edge(t, rng)))
    return out


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_decision_matches_oracle(sweep):
    assert sweep["graphs"] == sum(CONNECTED_COUNTS.values())
    assert sweep["verdict_mismatches"] == []

    # randomized n = 6 spot check on top of the exhaustive n <= 5 sweep
    rng = random.Random(99)
    cache = {}
    mismatches = []
    samples = 0
    while samples < 1000:
        gkey = (rng.randrange(120), rng.choice((0.2, 0.35, 0.5)))
        if gkey not in cache:
            g = generate("random_connected", 6, seed=gkey[0], p=gkey[1])
            cache[gkey] = (g, enumerate_all(g))
        g, fg = cache[gkey]
        keys = list(fg.trees)
        ka = rng.choice(keys)
        if rng.random() < 0.5:
            kb = rng.choice(keys)
        else:
            kb = ka
            for _ in range(rng.randrange(1, 4)):
                kb = rng.choice(fg.adj[kb])[1]
        k = rng.randrange(1, 4)
        ta, tb = fg.trees[ka], fg.trees[kb]
        dec = fpt_decide(g, ta, tb, k)
        # only the row of the sampled source: all-pairs rows of every graph
        # would be kept for the whole test
        d = fg.distances_from(ka)[kb]
        h0 = len(tubes(ka) - tubes(kb))
        if d >= 2 and _tube_bound(ta, tb, _below_lca(ta, classify_bad(ta, tb)))[0] != h0:
            mismatches.append((gkey, ka, kb, "h0"))
        # a YES at d = 1 or d = h0 skips the marking
        marked = compute_marking(g, ta, tb, k).marked if dec.yes else frozenset()
        if dec.lower_bound > d or dec.yes != (d <= k) or dec.yes and not (
                apply_sequence(g, ta, dec.witness).parent == kb
                and len(dec.witness) == d
                and all(u in marked and v in marked for u, v in dec.witness)):
            mismatches.append((gkey, ka, kb, k))
        samples += 1
    assert mismatches == []
    assert sweep["bound_failures"] == []
    note(f"criterion 1 (oracle equivalence): PASS: "
         f"{sweep['instances']} exhaustive instances over {sweep['graphs']} graphs, "
         f"{samples} randomized n=6 samples, 0 mismatches; lower_bound <= d on all, "
         f"h0 exact on {sweep['tube_bounds_checked']} pairs at d >= 2")


def test_criterion_02_rotation_is_an_involution(rotation_triples):
    for g, t, (u, v) in rotation_triples:
        assert rotate(g, rotate(g, t, (u, v)), (v, u)) == t
    note(f"criterion 2 (involution): PASS: {len(rotation_triples)} random triples")


def test_criterion_03_rotation_locality(rotation_triples):
    for g, t, (u, v) in rotation_triples:
        t2 = rotate(g, t, (u, v))
        changed = sum(1 for w in range(t.n) if t.children(w) != t2.children(w))
        moved = sum(1 for w in range(t.n) if t.parent[w] != t2.parent[w])
        assert changed <= 3
        assert moved >= 1
    note(f"criterion 3 (locality): PASS: child-set changes <= 3 across "
         f"{len(rotation_triples)} triples")


def test_criterion_04_tree_distances_move_by_at_most_one():
    rng = random.Random(21)
    rotations = 0
    while rotations < 150:
        n = rng.randrange(2, 13)
        g = generate("random_connected", n, seed=5000 + rotations, p=0.3)
        t = random_tree(g, rng)
        t2 = rotate(g, t, random_tree_edge(t, rng))
        before = tree_distance_matrix(t)
        after = tree_distance_matrix(t2)
        for a in range(n):
            for b in range(n):
                assert abs(before[a][b] - after[a][b]) <= 1
        rotations += 1
    note(f"criterion 4 (metric step): PASS: {rotations} rotations, n up to 12")


def test_criterion_05_tree_counts():
    for n in range(1, 9):
        g = generate("path", n)
        via_bfs = set(enumerate_all(g).trees)
        via_orderings = enumerate_orderings(g)
        assert via_bfs == via_orderings
        assert len(via_bfs) == CATALAN[n], f"path on {n}"
    for n in range(2, 7):
        g = generate("complete", n)
        via_bfs = set(enumerate_all(g).trees)
        via_orderings = enumerate_orderings(g)
        assert via_bfs == via_orderings
        assert len(via_bfs) == math.factorial(n), f"complete on {n}"
    note("criterion 5 (counts): PASS: paths n<=8 hit the Catalan numbers, "
         "complete graphs n<=6 hit the factorials, both enumerations agree")


def test_criterion_06_complete_graph_distances_count_inversions():
    g = generate("complete", 4)
    fg = enumerate_all(g)
    import itertools
    perms = list(itertools.permutations(range(4)))
    keys = {p: from_ordering(g, list(p)).parent for p in perms}
    checked = 0
    for p in perms:
        dm = fg.distances_from(keys[p])
        for q in perms:
            assert dm[keys[q]] == inversions_between(list(p), list(q))
            checked += 1
    assert checked == 576
    note(f"criterion 6 (inversions): PASS: all {checked} ordered chain pairs of "
         "the complete graph on 4 vertices")


def test_criterion_07_marked_set_independent_of_degree(star_runs):
    # fpt_decide answers one rotation before the marking; M is compute_marking's
    marks = {m: compute_marking(g, t, t2, 2).marked for m, (g, t, t2, _, _) in star_runs.items()}
    for m, (_, _, _, dec, _) in star_runs.items():
        assert dec.yes and dec.witness == ((0, 5),), m
    assert marks[10] == marks[100] == marks[1000] == {0, 1, 2, 3, 5}
    t100 = star_runs[100][4]
    t1000 = star_runs[1000][4]
    ratio = t1000 / max(t100, 1e-9)
    assert ratio <= 15.0, f"time ratio {ratio:.1f}"
    note(f"criterion 7 (degree independence): PASS: |M|=5 at every size, "
         f"time ratio m=1000/m=100 = {ratio:.1f}x")


def test_criterion_08_balls_suffice_for_short_sequences(sweep):
    assert sweep["restricted_failures"] == []
    assert sweep["restricted_checked"] > 0
    note(f"criterion 8 (ball sufficiency): PASS: "
         f"{sweep['restricted_checked']} restricted searches, none above budget")


def test_criterion_09_early_no_is_sound(sweep):
    assert sweep["early_no_fired"] > 0
    assert sweep["early_no_unsound"] == []
    # the component certificate never fires after the tube bound
    assert sweep["early_no_after_marking"] == 0
    # a NO with early_no None came from the lower bound when it has no ball
    certified, searched = sweep["certified_by_bound"], sweep["searched_nos"]
    assert certified[1] == searched[1] > 0 and 0 < certified[3] < searched[3]
    note(f"criterion 9 (early NO soundness): PASS: fired "
         f"{sweep['early_no_fired']} times, never on a YES instance; the lower bound "
         "certified " + ", ".join(f"{certified[k]} of {searched[k]} NOs at k={k}"
                                  for k in sorted(certified)) + " before the marking")


def test_criterion_10_witnesses_replay(sweep, star_runs):
    assert sweep["replay_failures"] == []
    assert sweep["replays_checked"] > 0
    for m, (g, t, t2, dec, _) in star_runs.items():
        reached = apply_sequence(g, t, dec.witness)
        assert reached == t2, m
        marked = compute_marking(g, t, t2, 2).marked
        assert all(u in marked and v in marked for u, v in dec.witness)
    # a YES at d = h0 is answered by one search over the bad vertices
    skipped, total = sweep["yes_before_marking"], sweep["yes_at_2_or_more"]
    assert 0 < skipped < total
    note(f"criterion 10 (witness replay): PASS: {sweep['replays_checked']} sweep "
         f"witnesses plus the star instances replay onto their targets, all inside "
         f"compute_marking's M; {skipped} of the {total} sweep YES answers at d >= 2 "
         f"skip the marking")
