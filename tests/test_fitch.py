"""Tests for undirected/directed Fitch graph computation."""

import random
import time
from itertools import combinations

import pytest

from fitchgraph.enumeration import all_graphs, edge_labelings, enumerate_trees, set_partitions
from fitchgraph.fitch import (
    directed_fitch,
    explains,
    underlying_undirected,
    undirected_fitch,
    zero_blocks,
)
from fitchgraph.graphs import DirectedGraph, SimpleGraph, complete_multipartite
from fitchgraph.io import parse_newick, serialize_arclist
from fitchgraph.recognition import Partition, recognize
from fitchgraph.synthesis import canonical_tree, minimal_tree
from fitchgraph.tree import LabeledTree, reroot, restrict_leaves, suppress_degree2

from conftest import (
    caterpillar,
    deep_caterpillar,
    directed_fitch_bruteforce,
    fitch_bruteforce,
    random_tree,
)


def fixed_oracle_inputs(rng):
    """The two-vertex tree rooted at a leaf, and deep caterpillars rooted at an end."""
    trees = [LabeledTree.build([(0, 1, lab)], {0: "a", 1: "b"}, root=0) for lab in (0, 1)]
    trees += [caterpillar(rng, [f"c{i}" for i in range(n)]) for n in (60, 300)]
    return trees


def rooted_at_each_inner_vertex(t):
    return [reroot(t, v) for v in sorted(t.vertices) if not t.is_leaf(v)]


def check_directed_against_bruteforce(t):
    """directed_fitch(t) equals the brute-force digraph, hashes alike,
    serializes as its sorted arcs, and gives every leaf of one 0-component
    one shared successor set."""
    d = directed_fitch(t)
    text = serialize_arclist(d)
    arcs = directed_fitch_bruteforce(t)
    assert text == "vertices: " + " ".join(sorted(d.vertices)) + "\n" + "".join(
        f"{x} {y}\n" for x, y in sorted(arcs)
    )
    expected = DirectedGraph.build(t.leaf_names.values(), arcs)
    assert d == expected and hash(d) == hash(expected)
    for block in zero_blocks(t).values():
        assert all(d.successors[x] is d.successors[block[0]] for x in block)
    return d


def star3(*labels):
    return LabeledTree.build(
        [(0, 1, labels[0]), (0, 2, labels[1]), (0, 3, labels[2])],
        {1: "a", 2: "b", 3: "c"},
        root=0,
    )


class TestUndirectedFitch:
    def test_star_no_ones_is_edgeless(self):
        g = undirected_fitch(star3(0, 0, 0))
        assert g.vertices == frozenset("abc")
        assert g.edges == frozenset()

    def test_star_one_one_is_path(self):
        g = undirected_fitch(star3(1, 0, 0))
        assert g.edges == frozenset({("a", "b"), ("a", "c")})

    @pytest.mark.parametrize("labels", [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    def test_star_two_or_three_ones_is_triangle(self, labels):
        g = undirected_fitch(star3(*labels))
        assert g.edges == frozenset({("a", "b"), ("a", "c"), ("b", "c")})

    def test_canonical_3211_tree_gives_k3211(self):
        p = Partition.canonical([{"a", "b", "c"}, {"d", "e"}, {"f"}, {"g"}])
        g = undirected_fitch(canonical_tree(p))
        assert g == complete_multipartite(p.blocks)

    def test_single_leaf(self):
        g = undirected_fitch(LabeledTree.single("x"))
        assert g == SimpleGraph(frozenset({"x"}), frozenset())

    def test_two_leaves(self):
        t0 = LabeledTree.build([(0, 1, 0)], {0: "a", 1: "b"})
        t1 = LabeledTree.build([(0, 1, 1)], {0: "a", 1: "b"})
        assert undirected_fitch(t0).edges == frozenset()
        assert undirected_fitch(t1).edges == frozenset({("a", "b")})

    def test_matches_bruteforce_on_random_trees(self, rng):
        names = [f"l{i}" for i in range(9)]
        for _ in range(40):
            t = random_tree(rng, names)
            assert undirected_fitch(t) == fitch_bruteforce(t)
        for t in fixed_oracle_inputs(rng):
            assert undirected_fitch(t) == fitch_bruteforce(t)


class TestDirectedFitch:
    def test_single_arc_toward_one_side(self):
        t = LabeledTree.build([(0, 1, 1), (0, 2, 0)], {1: "a", 2: "b"}, root=0)
        assert directed_fitch(t).arcs == frozenset({("b", "a")})

    def test_all_zero_no_arcs(self):
        p = Partition.canonical([{"a", "b", "c", "d"}])
        assert directed_fitch(canonical_tree(p)).arcs == frozenset()

    def test_t221_cross_part_arcs_both_ways(self):
        # Brute-force path check over all ordered leaf pairs is the oracle.
        p = Partition.canonical([{"a", "b"}, {"c", "d"}, {"e"}])
        t = canonical_tree(p)
        d = directed_fitch(t)
        assert d.arcs == frozenset(directed_fitch_bruteforce(t))
        blocks = {n: i for i, b in enumerate(p.blocks) for n in b}
        for x, y in combinations(sorted(d.vertices), 2):
            if blocks[x] == blocks[y]:
                assert (x, y) not in d.arcs and (y, x) not in d.arcs
            else:
                assert (x, y) in d.arcs and (y, x) in d.arcs

    def test_unrooted_rejected(self):
        t = LabeledTree.build([(0, 1, 1), (0, 2, 0)], {1: "a", 2: "b"})
        with pytest.raises(ValueError, match="requires a root"):
            directed_fitch(t)

    def test_matches_bruteforce_on_random_rooted_trees(self, rng):
        trees = fixed_oracle_inputs(rng)
        for _ in range(30):
            trees += rooted_at_each_inner_vertex(random_tree(rng, [f"l{i}" for i in range(7)]))
        for n in (3, 4, 12):
            trees += rooted_at_each_inner_vertex(caterpillar(rng, [f"c{i}" for i in range(n)]))
        for t in trees:
            check_directed_against_bruteforce(t)

    @pytest.mark.parametrize("p_one", [0.0, 1.0])
    def test_uniform_labels(self, rng, p_one):
        for _ in range(5):
            for t in rooted_at_each_inner_vertex(random_tree(rng, [f"l{i}" for i in range(8)], p_one)):
                d = check_directed_against_bruteforce(t)
                if p_one == 0.0:
                    assert d.arcs == frozenset()

    def test_single_leaf(self):
        d = check_directed_against_bruteforce(LabeledTree.single("x"))
        assert d.successors == {"x": frozenset()}

    def test_root_component_without_leaves(self):
        # {r} and the component above e and f hold no leaf.
        t = parse_newick("((a:0,b:0):1,(c:1,d:0):1,(e:1,f:1):1)r;")
        d = check_directed_against_bruteforce(t)
        everyone = frozenset("abcdef")
        assert d.successors["a"] == everyone - {"a", "b"}
        assert d.successors["c"] == everyone - {"c", "d"}
        assert d.successors["d"] == everyone - {"d"}
        assert d.successors["e"] == everyone - {"e"}


class TestExplains:
    def test_matches_bruteforce_on_every_small_tree(self):
        # Each labeled tree on 2-4 leaves against every graph on its leaf
        # set, the empty graph, the edgeless graph with leaf a renamed, and
        # its Fitch graph plus an extra vertex.
        checked = 0
        for n in (2, 3, 4):
            graphs = list(all_graphs("abcd"[:n]))
            graphs.append(SimpleGraph(frozenset(), frozenset()))
            graphs.append(SimpleGraph(frozenset("zbcd"[:n]), frozenset()))
            for topo in enumerate_trees(n):
                for t in edge_labelings(topo):
                    fitch = fitch_bruteforce(t)
                    extra = SimpleGraph(fitch.vertices | {"z"}, fitch.edges)
                    for g in graphs + [extra]:
                        assert explains(t, g) == (fitch == g)
                        checked += 1
        assert checked == 7602

    def test_one_flipped_pair_is_seen_on_five_and_six_leaves(self):
        # The set-held graph of each partition of 5 and 6 names is
        # explained by its minimal and canonical trees, and flipping any
        # one vertex pair, inside a block or across two, makes both say no.
        for n in (5, 6):
            names = "abcdef"[:n]
            for blocks in set_partitions(names):
                p = Partition.canonical(blocks)
                edges = complete_multipartite(p.blocks).edges
                trees = minimal_tree(p), canonical_tree(p)
                g = SimpleGraph.build(names, edges)
                assert all(explains(t, g) for t in trees)
                for pair in combinations(names, 2):
                    flipped = SimpleGraph.build(names, edges ^ {pair})
                    assert not any(explains(t, flipped) for t in trees)

    def test_equal_sets_need_not_be_one_object(self):
        # Every graph the package makes holds one set per block; a graph
        # whose members hold equal copies is still compared set by set, past
        # the first member, whose set has the right size in each case.
        p = Partition.canonical(["abc", "de", "f"])
        for flip in (set(), {("b", "c")}, {("b", "d")}):
            g = SimpleGraph.build("abcdef", complete_multipartite(p.blocks).edges ^ flip)
            vars(g)["adjacency"] = {v: frozenset(sorted(s)) for v, s in g.adjacency.items()}
            assert g.adjacency["a"] is not g.adjacency["c"]
            assert explains(minimal_tree(p), g) == (not flip)


class TestDeepTree:
    def test_caterpillar_with_ten_thousand_leaves(self):
        n = 10_000
        t = deep_caterpillar(n)
        names = [f"x{i:06d}" for i in range(n)]
        first, bottom = names[0], names[n - 2:]
        blocks = {frozenset(b) for b in zero_blocks(t).values()}
        assert blocks == {frozenset([first]), frozenset(bottom), frozenset(names[1:n - 2])}
        arcs = {(x, first) for x in names[1:]}
        arcs |= {(x, y) for y in bottom for x in names[:n - 2]}
        assert directed_fitch(t).arcs == arcs

    def test_directed_output_scale(self):
        # Few 1-edges, so most leaves point at most others: 1,869,272 arcs
        # from 2,000 leaves, written at one sorted list per 0-component.
        t = random_tree(random.Random(2000), [f"l{i}" for i in range(2000)], p_one=0.02)
        t = reroot(t, max(v for v in t.vertices if not t.is_leaf(v)))
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            text = serialize_arclist(directed_fitch(t))
            best = min(best, time.perf_counter() - t0)
        assert text.count("\n") == 1 + 1_869_272
        assert best < 0.5


class TestUnderlyingUndirected:
    def test_single_arc(self):
        d = DirectedGraph.build("ab", [("b", "a")])
        assert underlying_undirected(d).edges == frozenset({("a", "b")})

    def test_empty(self):
        d = DirectedGraph.build("ab", [])
        assert underlying_undirected(d).edges == frozenset()

    def test_both_directions_collapse(self):
        d = DirectedGraph.build("ab", [("a", "b"), ("b", "a")])
        assert underlying_undirected(d).edges == frozenset({("a", "b")})


class TestInvariances:
    def test_root_choice_irrelevant(self, rng):
        names = [f"l{i}" for i in range(7)]
        for _ in range(20):
            t = random_tree(rng, names)
            reference = undirected_fitch(t)
            for v in sorted(t.vertices):
                if not t.is_leaf(v):
                    assert undirected_fitch(reroot(t, v)) == reference

    def test_suppression_irrelevant(self, rng):
        from conftest import subdivide_edge

        names = [f"l{i}" for i in range(6)]
        for _ in range(20):
            t = random_tree(rng, names)
            reference = undirected_fitch(t)
            e = sorted(t.edge_labels)[0]
            lab = t.edge_labels[e]
            fat = subdivide_edge(t, e, lab, 0)
            assert undirected_fitch(fat) == reference
            assert undirected_fitch(suppress_degree2(fat)) == reference

    def test_heredity(self, rng):
        names = [f"l{i}" for i in range(7)]
        for _ in range(20):
            t = random_tree(rng, names)
            g = undirected_fitch(t)
            keep = rng.sample(names, rng.randint(1, 6))
            assert undirected_fitch(restrict_leaves(t, keep)) == g.induced(keep)

    def test_underlying_directed_equals_undirected(self, rng):
        names = [f"l{i}" for i in range(7)]
        for _ in range(20):
            t = random_tree(rng, names)
            for v in sorted(t.vertices):
                if not t.is_leaf(v):
                    rooted = reroot(t, v)
                    assert underlying_undirected(directed_fitch(rooted)) == undirected_fitch(rooted)

    def test_output_is_always_complete_multipartite(self, rng):
        # A Fitch graph can never contain an induced K1+K2.
        names = [f"l{i}" for i in range(8)]
        for _ in range(30):
            t = random_tree(rng, names)
            assert isinstance(recognize(undirected_fitch(t)), Partition)
