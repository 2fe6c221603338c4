"""Tests for the SimpleGraph and DirectedGraph cores: their two forms, equality and errors."""

import random
import re
from itertools import combinations

import pytest

from fitchgraph.enumeration import all_graphs, graph_line
from fitchgraph.fitch import directed_fitch, explains, underlying_undirected, undirected_fitch
from fitchgraph.graphs import DirectedGraph, SimpleGraph, complete_multipartite
from fitchgraph.io import (
    parse_edgelist,
    parse_newick,
    serialize_arclist,
    serialize_edgelist,
    serialize_newick,
    to_dot,
)
from fitchgraph.recognition import Partition, recognize
from fitchgraph.synthesis import canonical_tree, is_least_resolved, minimal_tree

from conftest import caterpillar, random_tree


def test_built_equals_constructed_on_every_small_graph():
    rng = random.Random(5)
    for n in range(5):
        for g in all_graphs("abcd"[:n]):
            pairs = [(y, x) for x, y in g.edges] + sorted(g.edges) * 2
            rng.shuffle(pairs)
            built = SimpleGraph.build(g.vertices, (p for p in pairs))
            assert "edges" not in built.__dict__
            assert built == g and g == built
            assert hash(built) == hash(g)
            assert {built} == {g}
            assert built.adjacency == g.adjacency
            assert built.edges == g.edges


def test_repr_shows_vertices_and_edges():
    g = SimpleGraph.build("ab", [("b", "a")])
    assert repr(g) == f"SimpleGraph(vertices={g.vertices!r}, edges=frozenset({{('a', 'b')}}))"
    assert repr(SimpleGraph.build("", [])) == "SimpleGraph(vertices=frozenset(), edges=frozenset())"


def test_immutable():
    g = SimpleGraph.build("ab", [("a", "b")])
    with pytest.raises(AttributeError):
        g.edges = frozenset()
    with pytest.raises(AttributeError):
        del g.adjacency
    assert g.edges == frozenset({("a", "b")})


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([("a", "b"), ("z", "z"), ("a", "q")], "self-loop at 'z'"),
        ([("a", "b"), ("b", "b"), ("q", "b")], "self-loop at 'b'"),
        ([("q", "r")], "edge endpoint 'q' is not a vertex"),
        ([("a", "r"), ("q", "b")], "edge endpoint 'r' is not a vertex"),
        ([("b", "a"), ("a", "b"), ("q", "q")], "self-loop at 'q'"),
    ],
)
def test_build_reports_first_offending_pair(pairs, message):
    for entry in (SimpleGraph.build, SimpleGraph):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry("ab", pairs)


def test_has_edge_and_neighbors():
    g = SimpleGraph.build("abc", [("b", "a")])
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert not g.has_edge("a", "c") and not g.has_edge("a", "z")
    assert not g.has_edge("z", "a")
    assert g.neighbors("a") == {"b"} and g.neighbors("c") == frozenset()
    assert "edges" not in g.__dict__


def test_complete_multipartite_adjacency_matches_its_edges(rng):
    for _ in range(50):
        names = [f"v{i}" for i in range(rng.randint(1, 14))]
        rng.shuffle(names)
        cuts = sorted(rng.sample(range(1, len(names)), rng.randint(0, len(names) - 1)))
        blocks = [names[i:j] for i, j in zip([0] + cuts, cuts + [len(names)])]
        g = complete_multipartite(blocks)
        assert "edges" not in g.__dict__
        cross = {
            (min(x, y), max(x, y))
            for b1, b2 in combinations(blocks, 2)
            for x in b1
            for y in b2
        }
        assert g.edges == cross
        assert SimpleGraph(g.vertices, g.edges).adjacency == g.adjacency


def test_readers_leave_edge_tuples_unbuilt():
    blocks = [["a", "b", "c"], ["d", "e"], ["f"]]
    cross = [(x, y) for b1, b2 in combinations(blocks, 2) for x in b1 for y in b2]
    text = serialize_edgelist(SimpleGraph.build("abcdef", cross))
    line = " ".join(f"{x}--{y}" for x, y in sorted(cross))
    for make in (
        lambda: SimpleGraph.build("abcdef", cross),
        lambda: parse_edgelist(text),
        lambda: complete_multipartite(blocks),
    ):
        g = make()
        partition = recognize(g)
        assert explains(canonical_tree(partition), g)
        assert is_least_resolved(minimal_tree(partition), g)
        assert serialize_edgelist(g) == text
        assert graph_line(g) == line
        to_dot(g)
        assert "edges" not in g.__dict__
    for make in (
        lambda: SimpleGraph.build("abcdef", cross[1:]),
        lambda: parse_edgelist(text.replace("a d\n", "")),
    ):
        g = make()
        recognize(g)
        serialize_edgelist(g)
        to_dot(g)
        assert "edges" not in g.__dict__


def test_computed_graphs_render_without_neighbour_sets():
    tree = parse_newick("((a:0,b:0,c:0):1,(d:0,e:0):1,f:1)r;")
    blocks = [["a", "b", "c"], ["d", "e"], ["f"]]
    cross = [(x, y) for b1, b2 in combinations(blocks, 2) for x in b1 for y in b2]
    built = SimpleGraph.build("abcdef", cross)
    g = undirected_fitch(tree)
    assert serialize_edgelist(g) == serialize_edgelist(built)
    assert to_dot(g) == to_dot(built)
    assert graph_line(g) == graph_line(built)
    assert "adjacency" not in vars(g) and "edges" not in vars(g)
    assert g == built and "adjacency" in vars(g)


def undirected_cases():
    yield from map(parse_newick, ["a;", "((a:0,b:0):0,c:0)r;", "((a:1,b:1):1,(c:1,d:1):1,e:1)r;",
                                  "((a:0,ab:1):0,(a1:1,b:0):1,aa:0)r;", "((b:0,a1:0):1,(ab:0,a:1):0)r;"])
    rng = random.Random(24)
    names = [f"v{i}" for i in range(40)]
    for n, p_one in [(3, 0.0), (7, 0.3), (12, 0.5), (25, 0.2), (40, 0.7)]:
        yield random_tree(rng, rng.sample(names, n), p_one)
        yield caterpillar(rng, rng.sample(names, n), p_one)


@pytest.mark.parametrize("tree", list(undirected_cases()))
def test_computed_rows_match_the_neighbour_sets(tree):
    # undirected_fitch cuts each row once from its block's positions in the
    # sorted names; the same edges held as sets are read off the sets.  One
    # leaf, one block, all singletons, prefix names and random trees.
    g = undirected_fitch(tree)
    rendered = serialize_edgelist(g), to_dot(g), graph_line(g)
    built = SimpleGraph(g.vertices, g.edges)
    assert rendered == (serialize_edgelist(built), to_dot(built), graph_line(built))


def test_computed_digraphs_render_without_successor_sets():
    # The root's component and (a,b)'s hold no leaf.
    tree = parse_newick("((a:1,b:1):1,(c:0,(d:1,e:0):0):1)r;")
    arcs = [(x, y) for x in "abcde" for y in "abcde" if x != y]
    arcs = [a for a in arcs if a not in {("c", "e"), ("d", "c"), ("d", "e"), ("e", "c")}]
    built = DirectedGraph.build("abcde", arcs)
    d = directed_fitch(tree)
    assert serialize_arclist(d) == serialize_arclist(built)
    assert to_dot(d) == to_dot(built)
    assert "successors" not in vars(d) and "arcs" not in vars(d)
    assert d == built and "successors" in vars(d)


def test_parsed_trees_answer_without_adjacency():
    # A parsed tree carries its walk, so computing and checking its Fitch
    # graphs, or writing it back, never builds its adjacency.
    tree = parse_newick("(a:0,b:0,c:0,(d:0,e:0):1,f:1)r;")
    g = undirected_fitch(tree)
    assert "adjacency" not in vars(tree)
    serialize_arclist(directed_fitch(tree))
    assert explains(tree, g) and is_least_resolved(tree, g)
    assert serialize_newick(tree) == "(a:0,b:0,c:0,(d:0,e:0):1,f:1)r;"
    assert "adjacency" not in vars(tree)


def test_every_neighbour_set_is_frozen_and_blocks_share_one(rng):
    from conftest import random_graph

    names = [f"v{i}" for i in range(10)]
    blocks = [names[:4], names[4:7], names[7:]]
    chained = complete_multipartite(blocks)
    # The same 3-part graph held as sets: built from shuffled pairs, and
    # parsed back from its edge list.
    pairs = sorted(chained.edges)
    rng.shuffle(pairs)
    parts = [chained, SimpleGraph.build(names, pairs), parse_edgelist(serialize_edgelist(chained))]
    graphs = list(parts)
    for _ in range(10):
        g = random_graph(rng, names, 0.4)
        graphs += [
            SimpleGraph.build(g.vertices, g.edges),
            parse_edgelist(serialize_edgelist(g)),
            g.induced(names[::2]),
            g.complement(),
            SimpleGraph(g.vertices, g.edges),
            underlying_undirected(DirectedGraph(g.vertices, g.edges)),
        ]
    for h in graphs:
        assert all(type(nbrs) is frozenset for nbrs in h.adjacency.values())
        # One object per distinct neighbour set.
        assert len({id(s) for s in h.adjacency.values()}) == len(set(h.adjacency.values()))
    for h in parts:
        assert h == chained
        adj = h.adjacency
        assert len({id(s) for s in adj.values()}) == len(blocks)
        for block in blocks:
            assert all(adj[v] is adj[block[0]] for v in block)


def test_digraph_successor_and_arc_forms_agree():
    rng = random.Random(11)
    names = "abcde"
    for n in range(len(names) + 1):
        for _ in range(20):
            verts = frozenset(names[:n])
            arcs = frozenset((x, y) for x in verts for y in verts if x != y and rng.random() < 0.4)
            constructed = DirectedGraph(verts, arcs)
            assert constructed.successors == {x: frozenset(y for u, y in arcs if u == x) for x in verts}
            assert all(type(ys) is frozenset for ys in constructed.successors.values())
            pairs = sorted(arcs) * 2
            rng.shuffle(pairs)
            built = DirectedGraph.build(verts, (p for p in pairs))
            assert "arcs" not in built.__dict__
            assert built.successors == constructed.successors
            for d in (constructed, built):  # one object per distinct successor set
                succ = d.successors.values()
                assert len({id(ys) for ys in succ}) == len(set(succ))
            assert built == constructed and constructed == built
            assert hash(built) == hash(constructed)
            assert {built} == {constructed}
            assert built.arcs == arcs


def test_digraph_equality_sees_direction_and_vertices():
    d = DirectedGraph.build("ab", [("a", "b")])
    assert d != DirectedGraph.build("ab", [("b", "a")])
    assert d != DirectedGraph.build("abc", [("a", "b")])
    assert d != SimpleGraph.build("ab", [("a", "b")])


def test_digraph_repr_and_immutable():
    d = DirectedGraph.build("ab", [("b", "a")])
    assert repr(d) == f"DirectedGraph(vertices={d.vertices!r}, arcs=frozenset({{('b', 'a')}}))"
    for name in ("vertices", "arcs", "successors"):
        with pytest.raises(AttributeError):
            setattr(d, name, frozenset())
        with pytest.raises(AttributeError):
            delattr(d, name)
    assert d.successors == {"a": frozenset(), "b": frozenset({"a"})}
    assert d.arcs == frozenset({("b", "a")})


@pytest.mark.parametrize(
    "pairs, message",
    [
        ([("a", "b"), ("z", "z"), ("a", "q")], "self-loop at 'z'"),
        ([("q", "b")], "arc endpoint 'q' is not a vertex"),
        ([("a", "r"), ("q", "b")], "arc endpoint 'r' is not a vertex"),
    ],
)
def test_digraph_build_reports_first_offending_pair(pairs, message):
    for entry in (DirectedGraph.build, DirectedGraph):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry("ab", pairs)


def test_equality_and_hash_leave_pair_tuples_unbuilt():
    blocks = [["a", "b", "c"], ["d", "e"], ["f"]]
    cross = [(x, y) for b1, b2 in combinations(blocks, 2) for x in b1 for y in b2]
    tree = parse_newick("((a:0,b:0,c:0):1,(d:0,e:0):1,f:1)r;")
    arcs = [(x, y) for x in "abcdef" for y in "abcdef" if x != y and not {x, y} <= set("abc")
            and not {x, y} <= set("de")]
    undirected = [
        lambda: SimpleGraph.build("abcdef", cross),
        lambda: parse_edgelist(serialize_edgelist(SimpleGraph.build("abcdef", cross))),
        lambda: complete_multipartite(blocks),
        lambda: undirected_fitch(tree),
    ]
    directed = [lambda: directed_fitch(tree), lambda: DirectedGraph.build("abcdef", arcs)]
    for makers, pairs in ((undirected, "edges"), (directed, "arcs")):
        for make_a, make_b in combinations(makers, 2):
            a, b = make_a(), make_b()
            assert a == b and b == a
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
            assert pairs not in a.__dict__ and pairs not in b.__dict__


def test_equality_follows_the_neighbour_sets():
    normalized = SimpleGraph(frozenset("ab"), frozenset({("a", "b")}))
    twin = SimpleGraph(frozenset("ab"), frozenset({("b", "a")}))
    assert twin == normalized and hash(twin) == hash(normalized)
    # A stray pair is refused at construction, not on a later read.
    with pytest.raises(ValueError, match=r"^edge endpoint 'z' is not a vertex$"):
        SimpleGraph(frozenset("ab"), frozenset({("a", "z")}))


def test_induced_on_non_vertices_rejected():
    with pytest.raises(ValueError, match="^induced subgraph on non-vertices$"):
        SimpleGraph.build("ab", []).induced("az")


@pytest.mark.parametrize(
    "blocks, message",
    [
        ([["a", "b"], [], ["c"]], "empty block"),
        ([["a", "b"], ["c"], ["b", "d"]], "blocks are not disjoint"),
        ([[], ["a"], ["a"]], "empty block"),
        ([["a"], ["a"], []], "blocks are not disjoint"),
    ],
)
@pytest.mark.parametrize("entry", [complete_multipartite, Partition.canonical])
def test_block_check_reports_first_bad_block(entry, blocks, message):
    # complete_multipartite defers its neighbour sets, not this check.
    with pytest.raises(ValueError, match=f"^{message}$"):
        entry(blocks)
