"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured timings.  Criteria with stated time bounds assert them;
the large-graph recognition bound is soft (informational) and generous.
"""

import random
import time
from itertools import combinations, compress, product
from string import ascii_lowercase

import numpy as np
import pytest

from fitchgraph.enumeration import (
    all_graphs,
    edge_labelings,
    enumerate_trees,
    minimum_tree_size,
    realizable_graphs,
    set_partitions,
)
from fitchgraph.fitch import directed_fitch, underlying_undirected, undirected_fitch
from fitchgraph.graphs import SimpleGraph, complete_multipartite
from fitchgraph.io import ParseError, parse_edgelist, parse_newick
from fitchgraph.recognition import (
    ForbiddenWitness,
    Partition,
    recognize,
    recognize_bruteforce,
)
from fitchgraph.synthesis import canonical_tree, is_least_resolved, minimal_tree
from fitchgraph.tree import LabeledTree, reroot, restrict_leaves, validate

from conftest import bell_binomial, subdivide_edge
from test_io import mutate


def _report(line: str) -> None:
    print(f"\n{line}")


def _best_of(runs: int, fn) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_01_fig1_reproduction():
    """Fitch graph of (T[3,2,1,1], lambda*) is exactly K_{3,2,1,1}; < 1 ms."""
    blocks = [{"a", "b", "c"}, {"d", "e"}, {"f"}, {"g"}]
    expected = complete_multipartite(blocks)
    tree = canonical_tree(Partition.canonical(blocks))
    assert undirected_fitch(tree) == expected
    elapsed = _best_of(3, lambda: undirected_fitch(canonical_tree(Partition.canonical(blocks))))
    assert elapsed < 1e-3
    _report(f"criterion 1: PASS — T[3,2,1,1] explains K_3,2,1,1 exactly ({elapsed*1e6:.0f} us)")


def test_criterion_02_three_leaf_base_case():
    """All S3 labelings realize exactly {edgeless, P3 x3, K3}; never K1+K2."""
    def sweep():
        realized = {}
        for labels in product((0, 1), repeat=3):
            t = LabeledTree.build(
                [(0, 1, labels[0]), (0, 2, labels[1]), (0, 3, labels[2])],
                {1: "a", 2: "b", 3: "c"},
            )
            realized.setdefault(sum(labels), set()).add(undirected_fitch(t))
        return realized

    by_ones = sweep()
    edgeless = SimpleGraph.build("abc", [])
    k3 = complete_multipartite([{"a"}, {"b"}, {"c"}])
    paths = {
        SimpleGraph.build("abc", [(hub, x) for x in "abc" if x != hub])
        for hub in "abc"
    }
    assert by_ones[0] == {edgeless}
    assert by_ones[1] == paths and len(paths) == 3
    assert by_ones[2] == {k3}
    assert by_ones[3] == {k3}
    realized = set().union(*by_ones.values())
    assert len(realized) == 5
    for isolated in "abc":
        pair = [x for x in "abc" if x != isolated]
        k1_plus_k2 = SimpleGraph.build("abc", [tuple(pair)])
        assert k1_plus_k2 not in realized
    elapsed = _best_of(3, sweep)
    assert elapsed < 1e-3
    _report(f"criterion 2: PASS — S3 realizes exactly 3 of 4 graph classes ({elapsed*1e6:.0f} us)")


def test_criterion_03_characterization_bell_counts():
    """Realizable graphs == recognized graphs for n=2..5, counts 2,5,15,52."""
    stated = {2: 2, 3: 5, 4: 15, 5: 52}
    t0 = time.perf_counter()
    for n in (2, 3, 4, 5):
        report = realizable_graphs(n)
        assert bell_binomial(n) == stated[n]  # independent recurrence
        assert len(report.realizable_graphs) == stated[n]
        assert report.expected_count == stated[n]
        accepted = {
            g for g in all_graphs(ascii_lowercase[:n])
            if isinstance(recognize(g), Partition)
        }
        assert accepted == report.realizable_graphs
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(f"criterion 3: PASS — realizable == recognized with Bell counts 2,5,15,52 ({elapsed:.1f} s)")


def test_criterion_04_fig2_minimality():
    """minimal_tree((2,2,1)) has 7 vertices, explains K_{2,2,1}, least-resolved, minimum."""
    p = Partition.canonical([{"a", "b"}, {"c", "d"}, {"e"}])
    g = complete_multipartite(p.blocks)
    t = minimal_tree(p)
    assert len(t.vertices) == 7
    assert undirected_fitch(t) == g
    assert is_least_resolved(t, g)
    assert minimum_tree_size(g) == 7  # exhaustive search over all explaining trees
    _report("criterion 4: PASS — K_2,2,1 minimal explaining tree has exactly 7 vertices")


def test_criterion_05_vertex_count_formula():
    """Canonical count = 1 + #(n_i >= 2) + sum(n_i) for k >= 2; minimal one fewer when contractible."""
    checked = 0
    for n in range(1, 7):
        for blocks in set_partitions(ascii_lowercase[:n]):
            p = Partition.canonical(blocks)
            sizes = p.sizes
            k = len(sizes)
            canonical = len(canonical_tree(p).vertices)
            minimal = len(minimal_tree(p).vertices)
            if k >= 2:
                formula = 1 + sum(1 for s in sizes if s >= 2) + sum(sizes)
                assert canonical == formula
                # contraction applies when some block has >= 2 vertices; the
                # two-leaf partition (1,1) also drops its degree-2 root
                drop = 1 if (any(s >= 2 for s in sizes) or sum(sizes) == 2) else 0
                assert minimal == formula - drop
            else:
                n_total = sizes[0]
                assert canonical == (1 if n_total == 1 else n_total + 1)
                assert minimal == (n_total + 1 if n_total >= 3 else n_total)
            checked += 1
    assert checked == sum(bell_binomial(n) for n in range(1, 7))
    _report(f"criterion 5: PASS — vertex-count formula exact on all {checked} partitions of <= 6 elements")


def test_criterion_06_round_trip():
    """recognize(fitch(tree(p))) == p for canonical and minimal trees, all partitions of <= 6."""
    checked = 0
    for n in range(1, 7):
        for blocks in set_partitions(ascii_lowercase[:n]):
            p = Partition.canonical(blocks)
            assert recognize(undirected_fitch(canonical_tree(p))) == p
            assert recognize(undirected_fitch(minimal_tree(p))) == p
            checked += 1
    _report(f"criterion 6: PASS — round trip exact on all {checked} partitions of <= 6 elements")


def test_criterion_07_invariance_sweeps():
    """Root choice, degree-2 suppression, heredity, directed/undirected agreement at n <= 4."""
    t0 = time.perf_counter()
    trees = 0
    for n in (2, 3, 4):
        names = list(ascii_lowercase[:n])
        for topo in enumerate_trees(n):
            for t in edge_labelings(topo):
                trees += 1
                g = undirected_fitch(t)
                roots = [v for v in sorted(t.vertices) if not t.is_leaf(v)]
                if not roots:
                    roots = sorted(t.vertices)
                for v in roots:
                    rooted = reroot(t, v)
                    assert undirected_fitch(rooted) == g
                    assert underlying_undirected(directed_fitch(rooted)) == g
                for e in sorted(t.edge_labels):
                    lab = t.edge_labels[e]
                    for lab1, lab2 in ([(0, 0)] if lab == 0 else [(1, 0), (0, 1), (1, 1)]):
                        assert undirected_fitch(subdivide_edge(t, e, lab1, lab2)) == g
                for size in range(1, n + 1):
                    for subset in combinations(names, size):
                        assert undirected_fitch(restrict_leaves(t, subset)) == g.induced(subset)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(f"criterion 7: PASS — invariance sweeps over {trees} labeled trees ({elapsed:.1f} s)")


def _pairs_cache():
    cache: dict[int, tuple[list[str], list[tuple[str, str]]]] = {}

    def get(n: int):
        if n not in cache:
            names = [f"v{i:03d}" for i in range(n)]
            cache[n] = (names, [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)])
        return cache[n]

    return get


def test_criterion_08_recognizer_agreement():
    """Exhaustive agreement on <= 5 vertices plus 10,000 random graphs on 50-200 vertices."""
    exhaustive = 0
    for n in range(1, 6):
        for g in all_graphs(ascii_lowercase[:n]):
            assert recognize(g) == recognize_bruteforce(g)
            exhaustive += 1
    assert exhaustive == 1 + 2 + 8 + 64 + 1024

    rng = np.random.default_rng(20260810)
    pairs_for = _pairs_cache()
    t0 = time.perf_counter()
    random_count = 0

    def check(g: SimpleGraph, expect_accept: bool | None = None):
        nonlocal random_count
        fast = recognize(g)
        assert fast == recognize_bruteforce(g)  # same partition or same smallest witness
        if expect_accept is not None:
            assert isinstance(fast, Partition) == expect_accept
        random_count += 1

    def planted_blocks(n: int, k: int) -> list[list[str]]:
        names, _ = pairs_for(n)
        cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
        bounds = [0] + [int(c) for c in cuts] + [n]
        return [names[bounds[i]:bounds[i + 1]] for i in range(k)]

    for trial in range(4000):  # Erdos-Renyi mix
        n = int(rng.integers(50, 201))
        p = float(rng.choice([0.05, 0.2, 0.5, 0.8, 0.95]))
        names, pairs = pairs_for(n)
        mask = rng.random(len(pairs)) < p
        g = SimpleGraph.build(names, compress(pairs, mask))
        check(g)

    for trial in range(3000):  # planted complete multipartite: must accept
        n = int(rng.integers(50, 201))
        k = int(rng.integers(1, 9))
        g = complete_multipartite(planted_blocks(n, k))
        check(g, expect_accept=True)

    for trial in range(3000):  # one-edge perturbations: must reject
        n = int(rng.integers(50, 201))
        k = int(rng.integers(2, 9))
        blocks = planted_blocks(n, k)
        blocks.sort(key=len, reverse=True)
        # The complete multipartite graph's edges, built into neighbour sets
        # directly rather than through a set of pairs.
        verts = [x for b in blocks for x in b]
        cross = [(x, y) for b1, b2 in combinations(blocks, 2) for x in b1 for y in b2]
        if len(blocks[0]) >= 3 and rng.random() < 0.5:
            extra = tuple(sorted(rng.choice(blocks[0], size=2, replace=False)))
            g = SimpleGraph.build(verts, cross + [extra])
        else:
            anchor = blocks[0][0] if len(blocks[0]) >= 2 else None
            if anchor is None:
                continue
            cross.remove((anchor, blocks[1][0]))
            g = SimpleGraph.build(verts, cross)
        check(g, expect_accept=False)

    elapsed = time.perf_counter() - t0
    assert random_count >= 10000
    _report(
        f"criterion 8: PASS — zero disagreements on {exhaustive} exhaustive + "
        f"{random_count} random graphs ({elapsed:.0f} s)"
    )


def test_criterion_09_recognition_scale():
    """recognize on a 1e5-vertex, ~1e7-edge multipartite graph finishes in seconds."""
    big = [f"b{i:05d}" for i in range(99900)]
    small = [f"s{i:03d}" for i in range(100)]
    edges = [(b, s) for b in big for s in small]  # names sort b* < s*
    edges += [(x, y) for x, y in combinations(small, 2)]
    t0 = time.perf_counter()  # the neighbour sets are built inside the timed region
    g = SimpleGraph(big + small, edges)
    result = recognize(g)
    elapsed = time.perf_counter() - t0
    assert len(g.vertices) == 10 ** 5
    assert sum(map(len, g.adjacency.values())) == 2 * len(edges)  # every edge, none repeated
    assert len(edges) > 9.9e6
    assert isinstance(result, Partition)
    assert result.sizes == (99900,) + (1,) * 100
    assert elapsed < 60.0  # soft bound: near-linear, not quadratic
    _report(
        f"criterion 9: PASS — |V|=1e5, |E|~1e7 recognized in {elapsed:.1f} s (informational)"
    )


def test_criterion_09_rejection_scale():
    """recognize rejects a 2e4-vertex, ~2e6-edge near miss with the smallest witness in seconds."""
    big = [f"b{i:05d}" for i in range(19900)]
    small = [f"s{i:03d}" for i in range(100)]
    edges = [(b, s) for b in big for s in small]  # names sort b* < s*
    edges += [(x, y) for x, y in combinations(small, 2)]
    edges.remove(("b07000", "s050"))
    t0 = time.perf_counter()  # the neighbour sets are built inside the timed region
    g = SimpleGraph(big + small, edges)
    result = recognize(g)
    elapsed = time.perf_counter() - t0
    assert len(g.vertices) == 2 * 10 ** 4
    assert sum(map(len, g.adjacency.values())) == 2 * len(edges)  # every edge, none repeated
    assert len(edges) == 19900 * 100 + 4950 - 1
    assert result == ForbiddenWitness("b07000", ("b00000", "s050"))
    assert elapsed < 60.0  # soft bound: rejection is near-linear here, not cubic
    _report(
        f"criterion 9 (reject): PASS — |V|=2e4, |E|~2e6 rejected in {elapsed:.1f} s (informational)"
    )


def test_criterion_10_parser_robustness():
    """10,000 single-character mutations: valid object or positioned diagnostic."""
    rng = random.Random(987654321)
    newick_base = "((a:0,b:0):1,(c:0,d:0):1,e:1)r;"
    edgelist_base = "vertices: a b c d e\na c\na d\nb c\nb d\nc e\n"
    survived = 0
    for _ in range(5000):
        text = mutate(rng, newick_base)
        try:
            tree = parse_newick(text)
        except ParseError:
            survived += 1
            continue
        assert validate(tree) is None
        survived += 1
    for _ in range(5000):
        text = mutate(rng, edgelist_base)
        try:
            g = parse_edgelist(text)
        except ParseError:
            survived += 1
            continue
        assert isinstance(g, SimpleGraph)
        survived += 1
    assert survived == 10000
    _report("criterion 10: PASS — 10,000 mutations, no crash, diagnostics positioned")
