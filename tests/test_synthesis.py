"""Tests for canonical/minimal explaining trees and least-resolution."""

from string import ascii_lowercase

import pytest

from fitchgraph.enumeration import (
    edge_labelings,
    enumerate_trees,
    minimum_tree_size,
    set_partitions,
)
from fitchgraph import fitch, synthesis
from fitchgraph.fitch import undirected_fitch, zero_blocks
from fitchgraph.graphs import SimpleGraph, complete_multipartite
from fitchgraph.io import serialize_newick, to_dot
from fitchgraph.recognition import ForbiddenWitness, Partition, recognize
from fitchgraph.synthesis import canonical_tree, explain, is_least_resolved, minimal_tree
from fitchgraph.tree import contract_edge, validate

from conftest import (
    check_walk_matches_a_fresh_walk,
    least_resolved_by_contraction,
    subdivide_edge,
)


def part(*blocks):
    return Partition.canonical(blocks)


def block_graph(p: Partition) -> SimpleGraph:
    return complete_multipartite(p.blocks)


class TestCanonicalTree:
    def test_3211_shape(self):
        p = part({"a", "b", "c"}, {"d", "e"}, {"f"}, {"g"})
        t = canonical_tree(p)
        assert validate(t) is None
        assert len(t.vertices) == 10  # root + 2 inner children + 7 leaves
        assert t.root is not None
        root_labels = [t.label(t.root, w) for w in t.adjacency[t.root]]
        assert root_labels == [1, 1, 1, 1]
        other = [
            lab
            for (u, v), lab in t.edge_labels.items()
            if t.root not in (u, v)
        ]
        assert set(other) <= {0}
        assert undirected_fitch(t) == block_graph(p)

    def test_single_block_star(self):
        p = part({"a", "b", "c", "d", "e"})
        t = canonical_tree(p)
        assert len(t.vertices) == 6
        assert set(t.edge_labels.values()) == {0}
        assert t.root is not None and not t.is_leaf(t.root)
        assert undirected_fitch(t).edges == frozenset()

    def test_two_singletons(self):
        t = canonical_tree(part({"a"}, {"b"}))
        assert len(t.vertices) == 3
        assert set(t.edge_labels.values()) == {1}
        assert undirected_fitch(t).edges == frozenset({("a", "b")})

    def test_single_vertex(self):
        t = canonical_tree(part({"z"}))
        assert len(t.vertices) == 1
        assert validate(t) is None

    def test_explains_for_all_small_partitions(self):
        for n in range(1, 6):
            for blocks in set_partitions(ascii_lowercase[:n]):
                p = Partition.canonical(blocks)
                t = canonical_tree(p)
                assert validate(t) is None
                assert undirected_fitch(t) == block_graph(p)

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="empty partition"):
            canonical_tree(Partition.canonical([]))


class TestMinimalTree:
    def test_221_has_seven_vertices(self):
        p = part({"a", "b"}, {"c", "d"}, {"e"})
        t = minimal_tree(p)
        assert len(t.vertices) == 7
        assert undirected_fitch(t) == block_graph(p)
        assert is_least_resolved(t, block_graph(p))

    def test_all_singletons_star_unchanged(self):
        p = part({"a"}, {"b"}, {"c"})
        t = minimal_tree(p)
        assert len(t.vertices) == 4
        assert t == canonical_tree(p)

    def test_21_four_vertices(self):
        p = part({"a", "b"}, {"c"})
        t = minimal_tree(p)
        assert len(t.vertices) == 4
        g = block_graph(p)
        assert undirected_fitch(t) == g
        # no 3-vertex tree explains P3 (exhaustive over the leaf set)
        assert minimum_tree_size(g) == 4

    def test_two_leaf_partitions_collapse_to_an_edge(self):
        same = minimal_tree(part({"a", "b"}))
        cross = minimal_tree(part({"a"}, {"b"}))
        assert len(same.vertices) == 2 and set(same.edge_labels.values()) == {0}
        assert len(cross.vertices) == 2 and set(cross.edge_labels.values()) == {1}
        assert undirected_fitch(same).edges == frozenset()
        assert undirected_fitch(cross).edges == frozenset({("a", "b")})

    def test_vertex_count_formula(self):
        # canonical: 1 + #(blocks >= 2) + sum(sizes) for k >= 2;
        # minimal: one fewer when contraction applies.
        for n in range(1, 7):
            for blocks in set_partitions(ascii_lowercase[:n]):
                p = Partition.canonical(blocks)
                sizes = p.sizes
                k = len(sizes)
                canonical = canonical_tree(p)
                minimal = minimal_tree(p)
                if k >= 2:
                    expected = 1 + sum(1 for s in sizes if s >= 2) + sum(sizes)
                    assert len(canonical.vertices) == expected
                    contractible = any(s >= 2 for s in sizes) or sum(sizes) == 2
                    assert len(minimal.vertices) == expected - (1 if contractible else 0)

    def test_matches_contracted_canonical_tree(self):
        # The route the builder replaced, kept here as a reference: contract
        # the root's edge to the first block's inner child (vertex 1).
        contracted = 0
        for n in range(1, 7):
            for blocks in set_partitions(ascii_lowercase[:n]):
                p = Partition.canonical(blocks)
                t = minimal_tree(p)
                assert validate(t) is None
                assert t.vertices == frozenset(range(len(t.vertices))) and t.root == 0
                if len(p.blocks) >= 2 and len(p.blocks[0]) >= 2:
                    reference = contract_edge(canonical_tree(p), (0, 1))
                    assert serialize_newick(t) == serialize_newick(reference)
                    assert to_dot(t) == to_dot(reference)
                    contracted += 1
        assert contracted == 267  # Bell numbers to n = 6, minus 6 stars and 5 all-singleton ones

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="empty partition"):
            minimal_tree(Partition.canonical([]))

    def test_minimum_for_small_partitions(self):
        for n in range(1, 6):
            for blocks in set_partitions(ascii_lowercase[:n]):
                p = Partition.canonical(blocks)
                g = block_graph(p)
                assert len(minimal_tree(p).vertices) == minimum_tree_size(g)


def test_built_trees_carry_their_walk():
    # canonical_tree and minimal_tree give preorder ids and set the walk,
    # which names the parent and top that a fresh walk over the adjacency
    # finds; checking the tree against its graph, held as a chain or as
    # the sets that SimpleGraph.build makes of its cross pairs, gives one
    # verdict and, like writing the tree as Newick, builds no adjacency.
    for n in range(1, 7):
        for blocks in set_partitions(ascii_lowercase[:n]):
            p = part(*blocks)
            chain = block_graph(p)
            sets = SimpleGraph.build(chain.vertices, chain.edges)
            canonical, minimal = canonical_tree(p), minimal_tree(p)
            assert is_least_resolved(canonical, chain) == is_least_resolved(canonical, sets)
            assert is_least_resolved(minimal, chain) and is_least_resolved(minimal, sets)
            for t in (canonical, minimal):
                serialize_newick(t)
                assert "adjacency" not in vars(t)
                check_walk_matches_a_fresh_walk(t)


class TestLeastResolved:
    def test_canonical_221_is_not(self):
        p = part({"a", "b"}, {"c", "d"}, {"e"})
        assert is_least_resolved(canonical_tree(p), block_graph(p)) is False

    def test_minimal_221_is(self):
        p = part({"a", "b"}, {"c", "d"}, {"e"})
        assert is_least_resolved(minimal_tree(p), block_graph(p)) is True

    def test_star_vacuously(self):
        p = part({"a", "b", "c", "d"})
        assert is_least_resolved(canonical_tree(p), block_graph(p)) is True

    def test_wrong_graph_rejected(self):
        p = part({"a", "b"}, {"c"})
        wrong = complete_multipartite([{"a"}, {"b"}, {"c"}])
        with pytest.raises(ValueError, match="does not explain"):
            is_least_resolved(canonical_tree(p), wrong)

    def test_zero_blocks_once_per_call(self, monkeypatch):
        # The explains check and the edge check share one zero_blocks.
        calls = []

        def counted(tree):
            calls.append(tree)
            return zero_blocks(tree)

        monkeypatch.setattr(fitch, "zero_blocks", counted)
        monkeypatch.setattr(synthesis, "zero_blocks", counted)
        p = part({"a", "b"}, {"c", "d"}, {"e"})
        for t, least in ((canonical_tree(p), False), (minimal_tree(p), True)):
            calls.clear()
            assert is_least_resolved(t, block_graph(p)) is least
            assert calls == [t]
        calls.clear()
        with pytest.raises(ValueError, match="does not explain"):
            is_least_resolved(canonical_tree(p), complete_multipartite([set("abcde")]))
        assert len(calls) == 1

    def test_minimum_trees_are_least_resolved(self):
        # Every explaining tree of minimum size passes the predicate.
        for n in range(2, 5):
            names = ascii_lowercase[:n]
            for blocks in set_partitions(names):
                g = complete_multipartite(blocks)
                best = minimum_tree_size(g)
                for topo in enumerate_trees(n, sorted(g.vertices)):
                    if len(topo.vertices) != best:
                        continue
                    for labeled in edge_labelings(topo):
                        if undirected_fitch(labeled) == g:
                            assert is_least_resolved(labeled, g)

    def test_agrees_with_contraction_oracle(self):
        # Every labeled tree on 2-5 leaves; on 3-4 leaves also every tree
        # with one edge subdivided, which puts a degree-2 vertex inside.
        checked = 0
        for n in range(2, 6):
            for topo in enumerate_trees(n):
                for labeled in edge_labelings(topo):
                    variants = [labeled]
                    if n in (3, 4):
                        for e, lab in labeled.edge_labels.items():
                            for lab1, lab2 in ((0, 0),) if lab == 0 else ((1, 0), (0, 1), (1, 1)):
                                variants.append(subdivide_edge(labeled, e, lab1, lab2))
                    for t in variants:
                        g = undirected_fitch(t)
                        assert is_least_resolved(t, g) == least_resolved_by_contraction(t, g)
                    checked += 1
        assert checked == 2714


class TestExplain:
    def test_canonical_mode(self):
        g = complete_multipartite([{"a", "b", "c"}, {"d", "e"}, {"f"}, {"g"}])
        t = explain(g, mode="canonical")
        assert len(t.vertices) == 10
        assert undirected_fitch(t) == g

    def test_minimal_mode(self):
        g = complete_multipartite([{"a", "b"}, {"c", "d"}, {"e"}])
        t = explain(g, mode="minimal")
        assert len(t.vertices) == 7
        assert undirected_fitch(t) == g

    def test_witness_passthrough(self):
        g = SimpleGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        result = explain(g)
        assert isinstance(result, ForbiddenWitness)

    def test_edgeless_minimal_is_star(self):
        g = SimpleGraph.build("abcde", [])
        t = explain(g, mode="minimal")
        assert len(t.vertices) == 6
        assert set(t.edge_labels.values()) == {0}

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            explain(SimpleGraph.build("ab", []), mode="fast")


class TestRoundTrip:
    def test_recognize_inverts_synthesis(self):
        for n in range(1, 6):
            for blocks in set_partitions(ascii_lowercase[:n]):
                p = Partition.canonical(blocks)
                assert recognize(undirected_fitch(canonical_tree(p))) == p
                assert recognize(undirected_fitch(minimal_tree(p))) == p
