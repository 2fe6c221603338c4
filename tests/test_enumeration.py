"""Tests for the exhaustive enumeration machinery."""

from collections import Counter
from functools import cached_property
from itertools import combinations
from string import ascii_lowercase

import pytest

from fitchgraph.enumeration import (
    CharacterizationFailure,
    EnumerationReport,
    all_graphs,
    bell_number,
    edge_labelings,
    enumerate_trees,
    format_report,
    minimum_tree_size,
    realizable_graphs,
    set_partitions,
    verify_characterization,
)
from fitchgraph.fitch import undirected_fitch, directed_fitch, underlying_undirected
from fitchgraph.graphs import SimpleGraph, complete_multipartite
from fitchgraph import tree as tree_module
from fitchgraph.tree import LabeledTree, reroot, restrict_leaves, validate

from conftest import (
    bell_binomial,
    minimum_tree_size_bruteforce,
    series_reduced_rooted_count,
    split_system,
    trees_by_insertion,
)

# Names whose sorted order differs from the given order.
SHUFFLED = ["q", "b", "zz", "a1", "m", "c7"]

N3_REPORT = """\
leaves: 3
topologies: 1
labelings: 8
realizable: 5
expected: 5
verdict: PASS
graphs:
  (edgeless)
  a--b a--c
  a--b a--c b--c
  a--b b--c
  a--c b--c
"""


class TestBellNumbers:
    def test_small_values(self):
        assert [bell_number(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_matches_binomial_recurrence(self):
        for n in range(10):
            assert bell_number(n) == bell_binomial(n)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestSetPartitions:
    @pytest.mark.parametrize("n", range(0, 7))
    def test_count_is_bell(self, n):
        assert sum(1 for _ in set_partitions(ascii_lowercase[:n])) == bell_number(n)

    def test_partitions_are_valid_and_distinct(self):
        items = "abcd"
        seen = set()
        for blocks in set_partitions(items):
            assert all(blocks)
            flat = [x for b in blocks for x in b]
            assert sorted(flat) == sorted(items)
            key = frozenset(frozenset(b) for b in blocks)
            assert key not in seen
            seen.add(key)


class TestEnumerateTrees:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 4), (5, 26), (6, 236)])
    def test_topology_counts(self, n, count):
        trees = enumerate_trees(n)
        assert len(trees) == count

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts_match_independent_recurrence(self, n):
        # unrooted trees on n leaves <-> rooted series-reduced on n-1 leaves
        assert len(enumerate_trees(n)) == series_reduced_rooted_count(n - 1)

    def test_trees_are_valid_and_well_formed(self):
        for n in (2, 3, 4, 5):
            for t in enumerate_trees(n):
                assert validate(t) is None
                assert t.root is None
                assert sorted(t.leaf_names.values()) == list(ascii_lowercase[:n])
                for v in t.vertices:
                    if not t.is_leaf(v):
                        assert t.degree(v) >= 3

    def test_no_duplicate_topologies(self):
        for n in (4, 5, 6):
            keys = [split_system(t) for t in enumerate_trees(n)]
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("n", [1, 7])
    def test_out_of_range(self, n):
        with pytest.raises(ValueError, match="out of supported range"):
            enumerate_trees(n)

    def test_custom_names(self):
        trees = enumerate_trees(3, ["x", "y", "z"])
        assert trees[0].leaf_name_set == frozenset({"x", "y", "z"})

    def test_repeated_names_rejected(self):
        with pytest.raises(ValueError, match="^need exactly n distinct leaf names$"):
            enumerate_trees(3, ["a", "a", "b"])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_same_trees_as_insertion_anew(self, n):
        # same ids, edges and leaf map, in the same order
        assert enumerate_trees(n, SHUFFLED[:n]) == trees_by_insertion(SHUFFLED[:n])
        assert enumerate_trees(n) == trees_by_insertion(list(ascii_lowercase[:n]))

    def test_returned_trees_are_fresh(self):
        # minimum_tree_size reads a table built from the cached topologies.
        g = complete_multipartite([{"a", "b"}, {"c"}, {"d"}])
        size = minimum_tree_size(g)
        first = enumerate_trees(4)
        for t in first:
            t.edge_labels[min(t.edge_labels)] = 1
            t.edge_labels[(98, 99)] = 0
            t.leaf_names[0] = "zz"
        assert minimum_tree_size(g) == size
        assert enumerate_trees(4) == trees_by_insertion(list("abcd"))


class TestEdgeLabelings:
    def test_counts(self):
        star = enumerate_trees(3)[0]
        labelings = list(edge_labelings(star))
        assert len(labelings) == 8
        assert len({tuple(sorted(t.edge_labels.items())) for t in labelings}) == 8


class TestRealizableGraphs:
    def test_n2(self):
        report = realizable_graphs(2)
        assert report.topology_count == 1
        assert len(report.realizable_graphs) == 2 == report.expected_count
        again = realizable_graphs(2)
        assert report == again and hash(report) == hash(again)
        g = SimpleGraph.build("ab", [])
        one = EnumerationReport(2, 1, 2, frozenset({g}), 2)
        assert repr(one) == (
            "EnumerationReport(leaf_count=2, topology_count=1, labeling_count=2, "
            f"realizable_graphs=frozenset({{{g!r}}}), expected_count=2)"
        )
        assert one != report and not one.counts_match and report.counts_match
        for attr in ("leaf_count", "realizable_graphs"):
            with pytest.raises(AttributeError):
                setattr(report, attr, None)
            with pytest.raises(AttributeError):
                delattr(report, attr)

    def test_n3_classes(self):
        report = realizable_graphs(3)
        assert len(report.realizable_graphs) == 5
        # up to isomorphism: edgeless, path (3 labelings), triangle
        by_edge_count = sorted(len(g.edges) for g in report.realizable_graphs)
        assert by_edge_count == [0, 2, 2, 2, 3]
        k1_plus_k2 = SimpleGraph.build("abc", [("b", "c")])
        assert k1_plus_k2 not in report.realizable_graphs

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_counts_are_bell(self, n):
        report = realizable_graphs(n)
        assert len(report.realizable_graphs) == bell_number(n)
        assert report.counts_match

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of supported range"):
            realizable_graphs(6)

    def test_report_text_golden(self):
        assert format_report(realizable_graphs(3), include_graphs=True) == N3_REPORT


class TestCharacterization:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_passes(self, n):
        assert verify_characterization(n) is None

    def test_failure_record(self):
        g = SimpleGraph.build("ab", [("a", "b")])
        failure = CharacterizationFailure(g, True, False)
        assert repr(failure) == f"CharacterizationFailure(graph={g!r}, realizable=True, accepted=False)"
        twin = CharacterizationFailure(SimpleGraph.build("ab", [("b", "a")]), True, False)
        assert failure == twin and hash(failure) == hash(twin)
        assert failure != CharacterizationFailure(g, False, True)
        with pytest.raises(AttributeError):
            failure.accepted = True
        with pytest.raises(AttributeError):
            del failure.graph


class TestMinimumTreeSize:
    def test_k221(self):
        g = complete_multipartite([{"a", "b"}, {"c", "d"}, {"e"}])
        assert minimum_tree_size(g) == 7

    def test_edgeless_triple(self):
        assert minimum_tree_size(SimpleGraph.build("abc", [])) == 4

    def test_single_edge(self):
        assert minimum_tree_size(complete_multipartite([{"a"}, {"b"}])) == 2

    def test_single_vertex(self):
        assert minimum_tree_size(SimpleGraph.build("a", [])) == 1

    def test_non_multipartite_rejected(self):
        g = SimpleGraph.build("abc", [("b", "c")])
        with pytest.raises(ValueError, match="not a Fitch graph"):
            minimum_tree_size(g)

    def test_too_large_rejected(self):
        g = SimpleGraph.build("abcdef", [])
        with pytest.raises(ValueError, match="too large"):
            minimum_tree_size(g)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_full_sweep(self, n):
        for blocks in set_partitions(SHUFFLED[:n]):
            g = complete_multipartite(blocks)
            assert minimum_tree_size(g) == minimum_tree_size_bruteforce(g), blocks

    def test_builds_no_tree_once_cached(self, monkeypatch):
        # A first call per leaf count fills the caches; after that a call
        # reads its leaf-mask table and builds no tree, adjacency or walk.
        graphs = [complete_multipartite(b) for n in range(1, 6) for b in set_partitions(SHUFFLED[:n])]
        sizes = [minimum_tree_size(g) for g in graphs]
        work: Counter[str] = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                work[name] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(LabeledTree, "__init__", counted("tree", LabeledTree.__init__))
        adjacency = cached_property(counted("adjacency", vars(LabeledTree)["adjacency"].func))
        adjacency.__set_name__(LabeledTree, "adjacency")
        monkeypatch.setattr(LabeledTree, "adjacency", adjacency)
        monkeypatch.setattr(tree_module, "_walk", counted("walk", tree_module._walk))
        assert [minimum_tree_size(g) for g in graphs] == sizes
        assert not work
        # the wrappers see a fresh tree's walk
        assert LabeledTree.build([(0, 1, 0)], {0: "a", 1: "b"}).walk.top
        assert work == {"tree": 1, "adjacency": 1, "walk": 1}


class TestSweeps:
    """Exhaustive invariance sweeps over all (topology, labeling) pairs."""

    def all_labeled_trees(self, n):
        for topo in enumerate_trees(n):
            yield from edge_labelings(topo)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_root_invariance(self, n):
        for t in self.all_labeled_trees(n):
            roots = [v for v in sorted(t.vertices) if not t.is_leaf(v)]
            if not roots:
                roots = sorted(t.vertices)  # two-leaf tree
            graphs = {undirected_fitch(reroot(t, v)) for v in roots}
            assert len(graphs) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_heredity(self, n):
        names = list(ascii_lowercase[:n])
        for t in self.all_labeled_trees(n):
            g = undirected_fitch(t)
            for size in range(1, n + 1):
                for subset in combinations(names, size):
                    assert undirected_fitch(restrict_leaves(t, subset)) == g.induced(subset)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_directed_underlies_undirected(self, n):
        for t in self.all_labeled_trees(n):
            roots = [v for v in sorted(t.vertices) if not t.is_leaf(v)]
            if not roots:
                roots = sorted(t.vertices)
            for v in roots:
                rooted = reroot(t, v)
                assert underlying_undirected(directed_fitch(rooted)) == undirected_fitch(rooted)

    def test_all_graphs_count(self):
        assert sum(1 for _ in all_graphs("abcd")) == 2 ** 6
