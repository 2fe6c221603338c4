"""Tests for complete multipartite recognition and its brute-force oracle."""

import time
from itertools import combinations

import pytest

from fitchgraph.enumeration import all_graphs
from fitchgraph.graphs import SimpleGraph, complete_multipartite
from fitchgraph.recognition import (
    ForbiddenWitness,
    Partition,
    recognize,
    recognize_bruteforce,
)

from conftest import bell_binomial, multipartite_via_complement, random_graph, trees_by_insertion


def graph(vertices, edges):
    return SimpleGraph.build(vertices, edges)


def assert_valid_witness(g: SimpleGraph, w: ForbiddenWitness):
    x, y = w.pair
    assert len({w.isolated, x, y}) == 3
    assert g.has_edge(x, y)
    assert not g.has_edge(w.isolated, x)
    assert not g.has_edge(w.isolated, y)


def assert_valid_partition(g: SimpleGraph, p: Partition):
    assert p.vertex_set == g.vertices
    for block in p.blocks:
        for x, y in combinations(sorted(block), 2):
            assert not g.has_edge(x, y)
    for b1, b2 in combinations(p.blocks, 2):
        for x in b1:
            for y in b2:
                assert g.has_edge(x, y)
    # canonical order: decreasing size, ties by smallest member
    keys = [(-len(b), min(b)) for b in p.blocks]
    assert keys == sorted(keys)
    # edge-count identity
    sizes = p.sizes
    assert len(g.edges) == sum(
        sizes[i] * sizes[j] for i in range(len(sizes)) for j in range(i + 1, len(sizes))
    )


@pytest.mark.parametrize("impl", [recognize, recognize_bruteforce])
class TestVerdicts:
    def test_p3(self, impl):
        result = impl(graph("abc", [("a", "b"), ("b", "c")]))
        assert result == Partition.canonical([{"a", "c"}, {"b"}])

    def test_k1_plus_k2(self, impl):
        g = graph("abc", [("b", "c")])
        result = impl(g)
        assert isinstance(result, ForbiddenWitness)
        assert result == ForbiddenWitness("a", ("b", "c"))
        assert_valid_witness(g, result)

    def test_k3211(self, impl):
        g = complete_multipartite([{"a", "b", "c"}, {"d", "e"}, {"f"}, {"g"}])
        result = impl(g)
        assert isinstance(result, Partition)
        assert result.sizes == (3, 2, 1, 1)
        assert_valid_partition(g, result)

    def test_p4(self, impl):
        g = graph("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
        result = impl(g)
        assert isinstance(result, ForbiddenWitness)
        assert result == ForbiddenWitness("a", ("c", "d"))
        assert_valid_witness(g, result)

    def test_edgeless_is_one_block(self, impl):
        result = impl(graph("abcde", []))
        assert result == Partition.canonical([{"a", "b", "c", "d", "e"}])

    def test_complete_graph_is_singletons(self, impl):
        g = complete_multipartite([{"a"}, {"b"}, {"c"}, {"d"}])
        result = impl(g)
        assert result.sizes == (1, 1, 1, 1)

    def test_c5_rejected(self, impl):
        g = graph("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")])
        result = impl(g)
        assert isinstance(result, ForbiddenWitness)
        assert_valid_witness(g, result)

    def test_single_vertex(self, impl):
        assert impl(graph("a", [])) == Partition.canonical([{"a"}])

    def test_empty_rejected(self, impl):
        with pytest.raises(ValueError, match="empty graph"):
            impl(SimpleGraph(frozenset(), frozenset()))


def test_results_are_frozen_values():
    p = Partition.canonical([{"b"}, {"c", "a"}])
    w = ForbiddenWitness.make("a", "c", "b")
    assert repr(p) == f"Partition(blocks=({p.blocks[0]!r}, frozenset({{'b'}})))"
    assert repr(w) == "ForbiddenWitness(isolated='a', pair=('b', 'c'))"
    q = Partition.canonical([["a", "c"], "b"])
    assert p == q and hash(p) == hash(q) and {p, q} == {p}
    assert w == ForbiddenWitness("a", ("b", "c")) and hash(w) == hash(ForbiddenWitness("a", ("b", "c")))
    assert p != w and w != p
    assert Partition.canonical(["a"]) != ForbiddenWitness.make("a", "b", "c")
    for value, attr in ((p, "blocks"), (w, "isolated"), (w, "pair")):
        with pytest.raises(AttributeError):
            setattr(value, attr, None)
        with pytest.raises(AttributeError):
            delattr(value, attr)
    assert p.sizes == (2, 1) and w.pair == ("b", "c")


class TestAgreement:
    def test_exhaustive_small(self):
        # Every labeled graph on up to 5 vertices; all three routes must agree.
        names = "abcde"
        for n in range(1, 6):
            for g in all_graphs(names[:n]):
                fast = recognize(g)
                slow = recognize_bruteforce(g)
                third = multipartite_via_complement(g)
                assert isinstance(fast, Partition) == isinstance(slow, Partition)
                assert isinstance(fast, Partition) == third
                assert fast == slow  # witnesses too: both are the smallest
                if isinstance(fast, Partition):
                    assert_valid_partition(g, fast)
                else:
                    assert_valid_witness(g, fast)

    def test_exhaustive_six_vertex_witnesses(self):
        # Every labeled graph on 6 vertices: the same verdict and the same
        # lexicographically smallest witness from both recognizers.
        rejected = 0
        for g in all_graphs("abcdef"):
            fast = recognize(g)
            assert fast == recognize_bruteforce(g)
            rejected += isinstance(fast, ForbiddenWitness)
        assert rejected == 2 ** 15 - 203  # Bell(6) graphs are multipartite

    def test_random_graphs(self, rng):
        names = [f"v{i:03d}" for i in range(60)]
        for trial in range(120):
            g = random_graph(rng, names, rng.choice([0.1, 0.3, 0.5, 0.8]))
            fast = recognize(g)
            slow = recognize_bruteforce(g)
            assert fast == slow
            if isinstance(fast, ForbiddenWitness):
                assert_valid_witness(g, fast)

    def test_random_multipartite_accepted(self, rng):
        # Besides 60 random ones, the edgeless graph on 200 vertices, built
        # from no pairs and as one planted block (k = 1), where the oracle
        # walks every bit of every row.
        names = [f"v{i:03d}" for i in range(200)]
        graphs = []
        for trial in range(60):
            k = rng.randint(1, 6)
            sizes = [rng.randint(1, 8) for _ in range(k)]
            members = iter(names)
            graphs.append(complete_multipartite([[next(members) for _ in range(s)] for s in sizes]))
        for g in graphs + [graph(names, []), complete_multipartite([names])]:
            result = recognize(g)
            assert isinstance(result, Partition)
            assert_valid_partition(g, result)
            assert recognize_bruteforce(g) == result

    def test_perturbed_multipartite_rejected(self, rng):
        # Removing one cross edge of a multipartite graph with >= 2 blocks
        # of which one has >= 2 vertices plants an induced K1+K2.
        graphs = []
        for trial in range(40):
            blocks = [["a1", "a2", "a3"], ["b1", "b2"], ["c1"]]
            g = complete_multipartite(blocks)
            victim = rng.choice(sorted(g.edges))
            graphs.append(SimpleGraph(g.vertices, g.edges - {victim}))
        # So does adding a vertex joined to nothing.  Named to sort last, it
        # is the only isolated vertex of a triple, so the oracle scans every
        # vertex before it.
        planted = complete_multipartite([[f"v{i:03d}" for i in range(j, 199, 3)] for j in range(3)])
        graphs.append(SimpleGraph(planted.vertices | {"z"}, planted.edges))
        for smaller in graphs:
            fast = recognize(smaller)
            assert isinstance(fast, ForbiddenWitness)
            assert_valid_witness(smaller, fast)
            assert recognize_bruteforce(smaller) == fast
        assert recognize(graphs[-1]) == ForbiddenWitness("z", ("v000", "v001"))

    def test_isolated_vertices_merge_into_one_block(self):
        g = graph("abcd", [])
        assert recognize(g).blocks == (frozenset("abcd"),)

    def test_superlinear_family(self):
        for k in range(2, 9):
            for m in range(1, 6):
                g = superlinear_family(k, m)
                assert recognize(g) == recognize_bruteforce(g), (k, m)


def nested_split(m: int) -> SimpleGraph:
    """Clique k0000..k{m-1} plus independent m_s joined to k0000..k_s."""
    ks = [f"k{s:04d}" for s in range(m)]
    edges = list(combinations(ks, 2))
    edges += [(k, f"m{s:04d}") for s in range(m) for k in ks[: s + 1]]
    return SimpleGraph.build(ks + [f"m{s:04d}" for s in range(m)], edges)


@pytest.mark.parametrize("m", [2, 3, 30])
def test_nested_split_agrees_with_bruteforce(m):
    g = nested_split(m)
    assert recognize(g) == recognize_bruteforce(g)


def test_nested_split_rejection_scale():
    # Every k class fails and sorts before the m classes.  Testing each
    # failing class against every class it is not joined to costs Theta(m^3).
    g = nested_split(900)
    assert len(g.adjacency) == 1800
    t0 = time.perf_counter()
    result = recognize(g)
    elapsed = time.perf_counter() - t0
    assert result == ForbiddenWitness("m0000", ("k0001", "k0002"))
    assert elapsed < 0.5  # that cubic scan takes seconds here


def superlinear_family(k: int, m: int) -> SimpleGraph:
    """Clique c00000..c{k-1}; d_j joined to the even-indexed c's; x_j joined
    to every c and to d_j (j < m)."""
    cs = [f"c{i:05d}" for i in range(k)]
    edges = list(combinations(cs, 2))
    for j in range(m):
        d, x = f"d{j:05d}", f"x{j:05d}"
        edges += [(c, d) for c in cs[::2]] + [(c, x) for c in cs] + [(d, x)]
    return SimpleGraph.build(cs + [f"{a}{j:05d}" for a in "dx" for j in range(m)], edges)


def test_superlinear_family_witness():
    # Every c class fails, and at every second step all m d classes lie in
    # N(P) - N(C) and are tested at degree k/2 + 1: about m k^2 / 4 work
    # against |E| of about k^2 / 2 + 1.5 m k.  Only the witness is pinned.
    g = superlinear_family(200, 200)
    assert len(g.adjacency) == 600
    assert recognize(g) == ForbiddenWitness("d00000", ("c00001", "c00003"))


def test_theorem_at_six_leaves():
    """The paper's theorem at six leaves, checked apart from the package's
    own enumeration: the graphs that {0,1}-trees on six leaves explain are
    exactly the complete multipartite ones, Bell(6) of them.  The
    topologies are grown anew by conftest, each labeling's 0-components
    are found by union-find over its 0-edges, and a graph is a 15-bit mask
    over the leaf pairs.  Edge sets are compared, not partitions: every
    partition is realized, so asking only whether the returned blocks are
    realized could never fail."""
    names = list("abcdef")
    pairs = list(combinations(names, 2))
    topologies = trees_by_insertion(names)
    realized: set[int] = set()
    labelings = 0
    for t in topologies:
        edges = list(t.edge_labels)
        at = {name: v for v, name in t.leaf_names.items()}
        ends = [(at[x], at[y], 1 << i) for i, (x, y) in enumerate(pairs)]
        for labels in range(1 << len(edges)):
            link = list(range(len(t.vertices)))  # union-find forest; ids run 0..n-1
            for j, (u, v) in enumerate(edges):
                if not labels >> j & 1:
                    while link[u] != u:
                        u = link[u]
                    while link[v] != v:
                        v = link[v]
                    link[u] = v
            comp = []
            for v in range(len(link)):
                while link[v] != v:
                    v = link[v]
                comp.append(v)
            realized.add(sum([bit for x, y, bit in ends if comp[x] != comp[y]]))
            labelings += 1
    assert len(topologies) == 236
    assert labelings == 83_904
    assert len(realized) == bell_binomial(6) == 203
    accepted = set()
    for mask in range(1 << len(pairs)):
        result = recognize(SimpleGraph.build(names, [p for i, p in enumerate(pairs) if mask >> i & 1]))
        if isinstance(result, Partition):
            block = {x: i for i, b in enumerate(result.blocks) for x in b}
            assert sum([1 << i for i, (x, y) in enumerate(pairs) if block[x] != block[y]]) == mask
            accepted.add(mask)
    assert accepted == realized
