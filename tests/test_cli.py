import json

import pytest

from helpers import NotInComponent
from rotdist import from_ordering, generate
from rotdist.cli import main
from rotdist.elimtree import save_tree
from rotdist.graphs import save_graph


@pytest.fixture
def p3(tmp_path):
    g = generate("path", 3)
    paths = {}
    paths["graph"] = str(tmp_path / "g.json")
    save_graph(g, paths["graph"])
    chain = from_ordering(g, [0, 1, 2])
    rev = from_ordering(g, [2, 1, 0])
    paths["chain"] = str(tmp_path / "chain.json")
    paths["rev"] = str(tmp_path / "rev.json")
    save_tree(chain, paths["chain"])
    save_tree(rev, paths["rev"])
    return paths


def test_gen_and_validate(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    assert main(["gen", "--family", "path", "-n", "5", "-o", gpath]) == 0
    tpath = str(tmp_path / "t.json")
    g = generate("path", 5)
    save_tree(from_ordering(g, [2, 1, 3, 0, 4]), tpath)
    assert main(["validate", "-g", gpath, "-s", tpath]) == 0
    out = capsys.readouterr().out
    assert "valid" in out


def test_gen_to_stdout(capsys):
    assert main(["gen", "--family", "star", "-n", "4"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["n"] == 4 and len(d["edges"]) == 3


def test_gen_rejects_zero_vertices(capsys):
    assert main(["gen", "--family", "path", "-n", "0"]) == 2
    assert capsys.readouterr().err == "error: INVALID_INPUT: n must be positive, got 0\n"


def test_validate_rejects_bad_tree(tmp_path, capsys):
    gpath, tpath = str(tmp_path / "g.json"), str(tmp_path / "t.json")
    save_graph(generate("path", 3), gpath)
    with open(tpath, "w") as fh:
        json.dump({"parent": [-1, 0, 0]}, fh)
    assert main(["validate", "-g", gpath, "-s", tpath]) == 2
    assert "INVALID" in capsys.readouterr().out


def test_distance_yes_and_no(p3, capsys):
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
               "-k", "2", "--method", "fpt"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: YES" in out
    assert "length: 2" in out
    assert "witness: 0->1 1->2" in out
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
               "-k", "1", "--method", "fpt"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "verdict: NO" in out


def test_distance_methods_agree(p3, capsys):
    outs = {}
    for method in ("fpt", "bfs", "auto"):
        rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"],
                   "-t", p3["rev"], "-k", "2", "--method", method])
        assert rc == 0
        outs[method] = capsys.readouterr().out
    assert all("verdict: YES" in o for o in outs.values())
    assert "method: bfs" in outs["auto"]  # n <= 8 picks the oracle


def test_distance_same_tree(p3, capsys):
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["chain"],
               "-k", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "length: 0" in out


def test_distance_witness_round_trip(p3, tmp_path, capsys):
    wpath = str(tmp_path / "w.json")
    assert main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
                 "-k", "3", "--method", "fpt", "--witness-out", wpath]) == 0
    capsys.readouterr()
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
               "--replay", wpath])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: YES" in out and "method: replay" in out
    # replaying onto the wrong target is a NO
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["chain"],
               "--replay", wpath])
    assert rc == 1
    capsys.readouterr()


def test_distance_explain_json(p3, capsys):
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
               "-k", "2", "--method", "fpt", "--explain"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"] == "YES"
    # d = h0 = 2: answered before the marking, so no M
    assert d["witness"] == [[0, 1], [1, 2]] and d["marked"] == []
    assert d["method"] == "fpt"


def test_distance_requires_k(p3, capsys):
    assert main(["distance", "-g", p3["graph"], "-s", p3["chain"],
                 "-t", p3["rev"]]) == 2
    assert "INVALID_INPUT" in capsys.readouterr().err


def test_distance_invalid_tree_exit_code(p3, tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"parent": [-1, 0, 0]}, fh)
    rc = main(["distance", "-g", p3["graph"], "-s", bad, "-t", p3["rev"], "-k", "1"])
    assert rc == 2
    # pinned: the path, then one indented line per violation
    assert capsys.readouterr().err == (
        f"error: INVALID_INPUT: {bad} is not an elimination tree\n"
        "  edge (1,2) joins incomparable vertices\n"
        "  subtree at 2 has no edge to its parent 0\n")


def test_disconnected_graph_exit_code(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    with open(gpath, "w") as fh:
        json.dump({"n": 4, "edges": [[0, 1], [2, 3]]}, fh)
    tpath = str(tmp_path / "t.json")
    with open(tpath, "w") as fh:
        json.dump({"parent": [-1, 0, 1, 2]}, fh)
    rc = main(["distance", "-g", gpath, "-s", tpath, "-t", tpath, "-k", "1"])
    assert rc == 3
    assert "DISCONNECTED_GRAPH" in capsys.readouterr().err


def test_rotate_command(p3, tmp_path, capsys):
    out_path = str(tmp_path / "out.json")
    rc = main(["rotate", "-g", p3["graph"], "-s", p3["chain"],
               "-e", "0->1", "-e", "1->2", "-o", out_path])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["parent"] == [1, 2, -1]
    with open(out_path) as fh:
        assert json.load(fh)["parent"] == [1, 2, -1]


def test_rotate_invalid_source_lists_the_violations(p3, tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"parent": [-1, 0, 0]}, fh)
    rc = main(["rotate", "-g", p3["graph"], "-s", bad, "-e", "0->1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: INVALID_INPUT: {bad} is not an elimination tree\n"
        "  edge (1,2) joins incomparable vertices\n"
        "  subtree at 2 has no edge to its parent 0\n")


def test_rotate_bad_edge(p3, capsys):
    rc = main(["rotate", "-g", p3["graph"], "-s", p3["chain"], "-e", "2->0"])
    assert rc == 2
    capsys.readouterr()
    assert main(["rotate", "-g", p3["graph"], "-s", p3["chain"], "-e", "3-4"]) == 2
    assert capsys.readouterr().err == "error: INVALID_INPUT: bad edge '3-4', expected U->V\n"


def test_rotate_needs_edges(p3, capsys):
    assert main(["rotate", "-g", p3["graph"], "-s", p3["chain"]]) == 2
    capsys.readouterr()


@pytest.fixture
def p5(tmp_path):
    g = generate("path", 5)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("graph", "chain", "rev")}
    save_graph(g, paths["graph"])
    save_tree(from_ordering(g, [0, 1, 2, 3, 4]), paths["chain"])
    save_tree(from_ordering(g, [4, 3, 2, 1, 0]), paths["rev"])
    return paths


def test_rotate_replays_the_witness_before_the_edges(p5, tmp_path, capsys):
    wpath = str(tmp_path / "w.json")
    assert main(["distance", "-g", p5["graph"], "-s", p5["chain"], "-t", p5["rev"],
                 "-k", "4", "--witness-out", wpath]) == 0
    capsys.readouterr()
    rc = main(["rotate", "-g", p5["graph"], "-s", p5["chain"], "--replay", wpath])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["parent"] == [1, 2, 3, 4, -1]
    # the four witness rotations reverse the chain, so 0->1 is no tree
    # edge after them: it fails as the fifth step
    rc = main(["rotate", "-g", p5["graph"], "-s", p5["chain"], "--replay", wpath,
               "-e", "0->1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: INVALID_INPUT: step 5: (0,1) is not a tree edge\n"


def _explain(p5, k, method, capsys):
    rc = main(["distance", "-g", p5["graph"], "-s", p5["chain"], "-t", p5["rev"],
               "-k", str(k), "--method", method, "--explain"])
    return rc, json.loads(capsys.readouterr().out)


def test_distance_bfs_explain_on_a_no(p5, capsys):
    # the BFS proves d > k on a NO, and runs no search over M; the rest
    # of the pipeline fields are empty
    rc, d = _explain(p5, 3, "bfs", capsys)
    assert rc == 1
    assert d.pop("time_ms") >= 0
    assert d == {
        "n": 5, "k": 3, "verdict": "NO", "witness": None,
        "children_bad": [], "parent_bad": [], "early_no": None,
        "lower_bound": 4, "ball_radius": None, "ball": [], "components": [],
        "vertex_types": {}, "type_count": 0, "premarked": [], "marked": [],
        "marked_per_component": {}, "search": {}, "method": "bfs",
    }


def test_distance_explain_has_one_schema(p5, capsys):
    # d = 4 on P5 reversed: a YES at k = 4 and a NO at k = 3
    for k, rc_want in ((4, 0), (3, 1)):
        rc_bfs, bfs = _explain(p5, k, "bfs", capsys)
        rc_fpt, fpt = _explain(p5, k, "fpt", capsys)
        assert rc_bfs == rc_fpt == rc_want
        assert sorted(bfs) == sorted(fpt)
        assert bfs["verdict"] == fpt["verdict"]
        # the distance on YES, k + 1 on NO
        assert bfs["lower_bound"] == 4


def test_enumerate_with_exports(p3, tmp_path, capsys):
    dot = str(tmp_path / "fg.dot")
    js = str(tmp_path / "fg.json")
    rc = main(["enumerate", "-g", p3["graph"], "--out-dot", dot, "--out-json", js])
    assert rc == 0
    assert "5 elimination trees" in capsys.readouterr().out
    assert "graph rotations {" in open(dot).read()
    assert len(json.load(open(js))["nodes"]) == 5


def test_enumerate_cap_exit_code(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    save_graph(generate("path", 11), gpath)
    assert main(["enumerate", "-g", gpath]) == 4
    assert "INSTANCE_TOO_LARGE" in capsys.readouterr().err


def test_distance_bfs_refuses_large_n(tmp_path, capsys):
    # -k is the BFS's cap, and no cap lifts its limit on n; the fpt
    # method answers the same pair
    g = generate("star", 13)
    paths = {name: str(tmp_path / f"{name}.json") for name in ("graph", "a", "b")}
    save_graph(g, paths["graph"])
    save_tree(from_ordering(g, list(range(13))), paths["a"])
    save_tree(from_ordering(g, list(range(12, -1, -1))), paths["b"])
    args = ["distance", "-g", paths["graph"], "-s", paths["a"], "-t", paths["b"], "-k", "3"]
    assert main(args + ["--method", "bfs"]) == 4
    assert "INSTANCE_TOO_LARGE" in capsys.readouterr().err
    assert main(args + ["--method", "fpt"]) == 1
    assert "verdict: NO" in capsys.readouterr().out


def test_diameter_command(p3, capsys):
    assert main(["diameter", "-g", p3["graph"]]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_bench_csv(capsys):
    rc = main(["bench", "--family", "star", "--sizes", "10,20", "-k", "1",
               "--reps", "2", "--seed", "7"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "family,n,k,reps,median_ms,nodes_expanded,bound_cuts"
    assert len(lines) == 3
    assert lines[1].startswith("star,10,1,2,")
    assert lines[2].startswith("star,20,1,2,")
    rc = main(["bench", "--family", "path", "--sizes", "100", "-k", "3", "--reps", "1"])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[:4] == ["path", "100", "3", "1"] and row[5:] == ["5", "9"]


def test_explain_command(p3, tmp_path, capsys):
    # the whole pipeline dump is pinned; only time_ms varies between runs.
    # On P4, 3 lifted to the root of the chain: d = h0 = 3, but the
    # witness rotates 1, which is not bad, so the marking runs
    g = generate("path", 4)
    p4, a, b = (str(tmp_path / name) for name in ("p4.json", "a.json", "b.json"))
    save_graph(g, p4)
    save_tree(from_ordering(g, [0, 1, 2, 3]), a)
    save_tree(from_ordering(g, [3, 0, 1, 2]), b)
    rc = main(["distance", "-g", p4, "-s", a, "-t", b, "-k", "3", "--method", "fpt", "--explain"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert d.pop("time_ms") >= 0
    assert d == {
        "n": 4, "k": 3, "verdict": "YES", "witness": [[2, 3], [1, 3], [0, 3]],
        "children_bad": [2, 3], "parent_bad": [0, 3], "early_no": None,
        "lower_bound": 3, "ball_radius": 7, "ball": [0, 1, 2, 3],
        "components": [{"zroot": 0, "vertices": [0, 1, 2, 3], "diameter": 3}],
        "vertex_types": {"0": 3, "1": 2, "2": 1, "3": 0}, "type_count": 4,
        "premarked": [0, 1, 2, 3], "marked": [0, 1, 2, 3],
        "marked_per_component": {"0": [0, 1, 2, 3]},
        "search": {"nodes_expanded": 9, "bound_cuts": 7}, "method": "fpt",
    }
    # a YES at d = h0 is answered by the search over the bad vertices
    # before the marking: no ball, types or marks
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
               "-k", "2", "--method", "fpt", "--explain"])
    assert rc == 0
    d = json.loads(capsys.readouterr().out)
    assert (d["witness"], d["lower_bound"], d["ball"], d["vertex_types"], d["marked"]) == \
        ([[0, 1], [1, 2]], 2, [], {}, [])
    assert d["search"] == {"nodes_expanded": 3, "bound_cuts": 1}
    # a NO instance exits 1 but still dumps
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
               "-k", "1", "--method", "fpt", "--explain"])
    assert rc == 1
    d = json.loads(capsys.readouterr().out)
    # certified by the tube bound: two rotations at least, no ball, no search
    assert (d["verdict"], d["early_no"], d["lower_bound"], d["ball"]) == ("NO", None, 2, [])
    assert d["search"] == {"nodes_expanded": 0, "bound_cuts": 0}


def test_malformed_json_file(tmp_path, capsys):
    gpath = str(tmp_path / "g.json")
    with open(gpath, "w") as fh:
        fh.write("{not json")
    assert main(["diameter", "-g", gpath]) == 2
    assert capsys.readouterr().err.startswith(f"error: INVALID_INPUT: {gpath}: ")


def test_missing_file(capsys):
    assert main(["diameter", "-g", "/no/such/file.json"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("method", ["fpt", "bfs", "auto"])
def test_distance_negative_k_is_invalid_under_every_method(p3, method, capsys):
    for target in ("chain", "rev"):
        rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3[target],
                   "-k", "-1", "--method", method])
        assert rc == 2
        assert "INVALID_INPUT" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["--sizes", "1"], ["--sizes", "10,1"], ["--sizes", "0"],
                                  ["--sizes", "x"], ["--sizes", "10", "--reps", "0"],
                                  ["--sizes", ","]])
def test_bench_rejects_bad_arguments(args, capsys):
    rc = main(["bench", "--family", "path", "-k", "1"] + args)
    assert rc == 2
    assert "INVALID_INPUT" in capsys.readouterr().err


@pytest.mark.parametrize("graph", [
    {"n": 3, "edges": [[0, 1, 2]]},
    {"n": 3, "edges": 5},
    {"n": 3, "edges": [[0, 1], [1, 2]], "names": 5},
    {"n": 3, "edges": [["a", "b"], [1, 2]], "names": ["a", "b", "a"]},
    {"n": 3, "edges": [[0, 1], [1, 2]], "names": ["a", "b"]},
    {"n": 3, "edges": [[0, 0], [1, 2]]},
    {"n": 3, "edges": [[0, 5], [1, 2]]},
])
def test_distance_rejects_malformed_graph_file(p3, tmp_path, graph, capsys):
    gpath = str(tmp_path / "bad.json")
    with open(gpath, "w") as fh:
        json.dump(graph, fh)
    rc = main(["distance", "-g", gpath, "-s", p3["chain"], "-t", p3["rev"], "-k", "2"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: INVALID_INPUT: {gpath}: ")


@pytest.mark.parametrize("text", [
    '{"parent": [1, 2, 1]}',
    '{"parent": [-1, -1, 1]}',
    '{"parent": [-1, 5, 1]}',
    '{"parent": [-1, 2, 1]}',
    '{"parent": [-1, 0.5, 1]}',
    '{"parent": 3}',
    "{not json",
    '{"parent": [-1, ' + "1" * 5000 + ", 1]}",
], ids=["no-root", "two-roots", "out-of-range", "cycle", "non-integer", "no-list", "not-json",
        "long-integer"])
@pytest.mark.parametrize("which", ["-s", "-t"])
def test_broken_tree_file_is_named(p3, tmp_path, text, which, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write(text)
    trees = {"-s": p3["chain"], "-t": p3["rev"], which: bad}
    rc = main(["distance", "-g", p3["graph"], "-s", trees["-s"], "-t", trees["-t"], "-k", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    good = p3["rev"] if which == "-s" else p3["chain"]
    assert err.startswith(f"error: INVALID_INPUT: {bad}: ") and good not in err


def test_broken_tree_file_message_is_pinned(p3, tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump({"parent": [-1, 2, 1]}, fh)
    assert main(["validate", "-g", p3["graph"], "-s", p3["chain"], "-t", bad]) == 2
    assert capsys.readouterr().err == (
        f"error: INVALID_INPUT: {bad}: parent vector contains a cycle\n")


@pytest.mark.parametrize("parent", [[-1, 0.7, 1], [-1, True, 1]])
def test_validate_rejects_non_integer_parents(p3, tmp_path, parent, capsys):
    tpath = str(tmp_path / "t.json")
    with open(tpath, "w") as fh:
        json.dump({"parent": parent}, fh)
    assert main(["validate", "-g", p3["graph"], "-s", tpath]) == 2
    assert "INVALID_INPUT" in capsys.readouterr().err


@pytest.mark.parametrize("witness", [{"edges": [[0.7, 1]]}, {"edges": [[True, 1]]},
                                     {"edges": [[0, 1, 2]]}, {"edges": 5}, [[0, 1]]])
def test_replay_rejects_malformed_witness(p3, tmp_path, witness, capsys):
    wpath = str(tmp_path / "w.json")
    with open(wpath, "w") as fh:
        json.dump(witness, fh)
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
               "--replay", wpath])
    assert rc == 2
    assert "INVALID_INPUT" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe\x00\x7b", b"[" * 200_000 + b"]" * 200_000],
                         ids=["not-utf8", "nested"])
@pytest.mark.parametrize("which", ["-g", "-s", "--replay"])
def test_unreadable_json_is_invalid_input(p3, tmp_path, content, which, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "wb") as fh:
        fh.write(content)
    files = {"-g": p3["graph"], "-s": p3["chain"], "-t": p3["rev"], "--replay": None, which: bad}
    argv = ["distance", "-k", "2"]
    for flag, path in files.items():
        if path is not None:
            argv += [flag, path]
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert "INVALID_INPUT" in err and "Traceback" not in err


def test_internal_error_has_its_own_exit_code(p3, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr("rotdist.fpt.fpt_decide", broken)
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
               "-k", "2", "--method", "fpt"])
    assert rc == 5
    assert "error: INTERNAL: ZeroDivisionError: division by zero" in capsys.readouterr().err


def test_unexpected_rotdist_error_is_internal(p3, monkeypatch, capsys):
    # no CLI input raises NotInComponent, so one that escapes is a fault
    def broken(*args, **kwargs):
        raise NotInComponent("vertex 7 is not in the component")

    monkeypatch.setattr("rotdist.fpt.fpt_decide", broken)
    rc = main(["distance", "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"],
               "-k", "2", "--method", "fpt"])
    assert rc == 5
    assert "error: INTERNAL: NotInComponent: vertex 7" in capsys.readouterr().err


# `explain` is no subcommand: `distance --method fpt --explain` prints the dump
@pytest.mark.parametrize("args", [["distance", "--jobs", "2"], ["distance", "--cap", "3"],
                                  ["explain"]])
def test_removed_flags_are_rejected(p3, args, capsys):
    with pytest.raises(SystemExit) as exc:
        main([args[0], "-g", p3["graph"], "-s", p3["chain"], "-t", p3["rev"], "-k", "2"]
             + args[1:])
    assert exc.value.code == 2
    capsys.readouterr()
