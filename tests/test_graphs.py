import pytest

from rotdist import (
    Graph,
    InvalidParameter,
    InvalidVertex,
    SelfLoop,
    generate,
    is_connected,
)
from rotdist.graphs import (
    FAMILIES,
    from_json_dict,
    load_graph,
    save_graph,
    to_json_dict,
)


def test_basic_construction():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    assert g.neighbors(1) == (0, 2)
    assert g.neighbors(0) == (1,)
    assert g.edges() == ((0, 1), (1, 2))
    assert g.has_edge(2, 1) and not g.has_edge(0, 2)


def test_duplicates_and_orientation_collapse():
    a = Graph(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
    b = Graph(3, [(0, 1), (1, 2)])
    assert a == b
    assert hash(a) == hash(b)


def test_single_vertex():
    g = Graph(1, [])
    assert g.n == 1 and g.m == 0
    assert is_connected(g)


def test_bad_edges():
    with pytest.raises(InvalidVertex):
        Graph(3, [(0, 5)])
    with pytest.raises(SelfLoop):
        Graph(3, [(1, 1)])
    with pytest.raises(InvalidParameter):
        Graph(0, [])
    g = generate("path", 3)
    with pytest.raises(InvalidVertex, match="vertex 5 out of range for n=3"):
        g.neighbors(5)
    with pytest.raises(InvalidVertex, match="vertex 5 out of range for n=3"):
        g.has_edge(0, 5)


def test_is_connected():
    assert is_connected(Graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(Graph(4, [(0, 1), (2, 3)]))


def test_is_connected_answers_the_same_twice():
    # the first call keeps its answer on the graph; the second reads it
    for g, want in ((generate("cycle", 5), True),
                    (Graph(5, [(0, 1), (2, 3), (3, 4)]), False),
                    (Graph(2, []), False),
                    (Graph(1, []), True)):
        assert is_connected(g) is want
        assert is_connected(g) is want


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
def test_families_connected(family, n):
    if family == "cycle" and n < 3:
        pytest.skip("cycle needs n >= 3")
    g = generate(family, n, seed=11)
    assert g.n == n
    assert is_connected(g)


def test_family_shapes():
    assert generate("path", 4).edges() == ((0, 1), (1, 2), (2, 3))
    assert generate("star", 4).edges() == ((0, 1), (0, 2), (0, 3))
    assert generate("complete", 4).m == 6
    assert generate("cycle", 4).m == 4
    split = generate("complete_split", 5, clique=2)
    # clique {0,1} joined to independent set {2,3,4}
    assert split.m == 1 + 2 * 3
    assert not split.has_edge(2, 3)
    assert split.has_edge(0, 4)


def test_generate_errors():
    with pytest.raises(InvalidParameter):
        generate("cycle", 2)
    with pytest.raises(InvalidParameter):
        generate("no_such_family", 3)
    with pytest.raises(InvalidParameter):
        generate("random_connected", 5)
    with pytest.raises(InvalidParameter):
        generate("complete_split", 3, clique=9)


def test_random_connected_reproducible():
    a = generate("random_connected", 20, seed=5, p=0.1)
    b = generate("random_connected", 20, seed=5, p=0.1)
    c = generate("random_connected", 20, seed=6, p=0.1)
    assert a == b
    assert a != c


def test_json_round_trip(tmp_path):
    g = generate("random_connected", 9, seed=3, p=0.4)
    path = str(tmp_path / "g.json")
    save_graph(g, path)
    assert load_graph(path) == g


def test_json_names():
    d = {"n": 3, "edges": [["a", "b"], [1, 2]], "names": ["a", "b", "c"]}
    g = from_json_dict(d)
    assert g.has_edge(0, 1) and g.has_edge(1, 2)
    assert g.names == ("a", "b", "c")
    back = to_json_dict(g)
    assert back["names"] == ["a", "b", "c"]
    assert back["edges"] == [[0, 1], [1, 2]]


def test_json_bad_inputs():
    with pytest.raises(InvalidParameter):
        from_json_dict({"edges": []})
    with pytest.raises(InvalidVertex):
        from_json_dict({"n": 2, "edges": [["x", 1]], "names": ["a", "b"]})


def test_json_rejects_duplicate_names():
    # the edge a-b would otherwise load as (3, 1)
    d = {"n": 4, "edges": [["a", "b"], ["b", "c"], [0, 1]], "names": ["a", "b", "c", "a"]}
    with pytest.raises(InvalidParameter, match="name 'a' is listed twice"):
        from_json_dict(d)


@pytest.mark.parametrize("names", [["a", "b"], ["a", "b", "c", "d"], []])
def test_json_rejects_names_of_the_wrong_length(names):
    with pytest.raises(InvalidParameter, match=f"names lists {len(names)} labels for n=3"):
        from_json_dict({"n": 3, "edges": [[0, 1], [1, 2]], "names": names})


def test_json_string_without_names_fails():
    with pytest.raises(InvalidVertex):
        from_json_dict({"n": 2, "edges": [["a", 1]]})


@pytest.mark.parametrize("d", [
    {"n": 3, "edges": [[0, 1, 2]]},
    {"n": 3, "edges": [[0]]},
    {"n": 3, "edges": 5},
    {"n": 3, "edges": [[0, 1]], "names": 5},
    {"n": 3, "edges": [[0, 1]], "names": "abc"},
    {"n": 3, "edges": [[0, 1.5]]},
    {"n": 3, "edges": [[True, 1]]},
    {"n": 3, "edges": [5]},
    {"n": 3.0, "edges": []},
    {"n": "3", "edges": []},
    {"n": True, "edges": []},
    [3, []],
])
def test_json_rejects_malformed_graphs(d):
    with pytest.raises(InvalidParameter):
        from_json_dict(d)
