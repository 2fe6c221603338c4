"""Shared fixtures and independent test oracles.

The oracles here deliberately take different routes than the library:
path label ORs are recomputed by walking explicit edge paths, LCAs as the
deepest vertex shared by two explicit root paths, multipartite
membership is re-decided through complement components, least-resolution
by contracting every inner edge, the smallest explaining tree by sweeping
every labeling of topologies grown anew, Bell numbers come from the binomial
recurrence instead of the Bell triangle, and topology counts from the
rooted series-reduced tree recurrence, and an edge list's first fault
from the format's definition, line by line, with a set of seen pairs.
Agreement between routes is what the tests assert.
"""

from __future__ import annotations

import random
import re
from itertools import combinations
from math import comb

import pytest

from fitchgraph.fitch import explains
from fitchgraph.graphs import SimpleGraph
from fitchgraph.recognition import Partition, recognize
from fitchgraph.tree import Edge, LabeledTree, contract_edge, edge_key


# -- independent oracles ----------------------------------------------------


def or_between(tree: LabeledTree, a: int, b: int) -> int:
    """Label OR along the path between vertices a and b, by explicit DFS."""
    stack = [(a, None, 0)]
    while stack:
        cur, came_from, acc = stack.pop()
        if cur == b:
            return int(acc > 0)
        for nxt, lab in tree.adjacency[cur].items():
            if nxt != came_from:
                stack.append((nxt, cur, acc + lab))
    raise AssertionError("no path found in a tree")


def path_or_bruteforce(tree: LabeledTree, x: str, y: str) -> int:
    """Label OR along the path between leaves x and y."""
    return or_between(tree, tree.name_to_leaf[x], tree.name_to_leaf[y])


def root_path(tree: LabeledTree, v: int) -> list[int]:
    """The vertices from the root down to v, by DFS over growing trails."""
    assert tree.root is not None
    stack = [[tree.root]]
    while stack:
        trail = stack.pop()
        if trail[-1] == v:
            return trail
        for nxt in tree.adjacency[trail[-1]]:
            if len(trail) < 2 or nxt != trail[-2]:
                stack.append(trail + [nxt])
    raise AssertionError("no path found in a tree")


def lca_bruteforce(tree: LabeledTree, x: str, y: str) -> int:
    """The deepest vertex shared by the root paths of leaves x and y."""
    pa = root_path(tree, tree.name_to_leaf[x])
    pb = root_path(tree, tree.name_to_leaf[y])
    common = [u for u, w in zip(pa, pb) if u == w]
    return common[-1]


def fitch_bruteforce(tree: LabeledTree) -> SimpleGraph:
    """Undirected Fitch graph via per-pair path walks."""
    names = sorted(tree.leaf_names.values())
    edges = set()
    for x, y in combinations(names, 2):
        if path_or_bruteforce(tree, x, y):
            edges.add((x, y))
    return SimpleGraph(frozenset(names), frozenset(edges))


def directed_fitch_bruteforce(tree: LabeledTree) -> set[tuple[str, str]]:
    """Arc set via explicit root-to-leaf paths and pairwise LCA walks."""
    paths = {v: root_path(tree, v) for v in tree.leaf_names}
    arcs = set()
    leaves = sorted(tree.leaf_names)
    for a in leaves:
        for b in leaves:
            if a == b:
                continue
            pa, pb = paths[a], paths[b]
            common = 0
            while common < min(len(pa), len(pb)) and pa[common] == pb[common]:
                common += 1
            lca_to_b = pb[common - 1:]
            if any(tree.label(u, v) for u, v in zip(lca_to_b, lca_to_b[1:])):
                arcs.add((tree.leaf_names[a], tree.leaf_names[b]))
    return arcs


def split_system(tree: LabeledTree) -> frozenset[frozenset[str]]:
    """The leaf bipartitions of the tree's edges, one explicit DFS per edge.

    Each split is named by its side without the smallest leaf name, so two
    trees on the same leaves have equal split systems iff they are the
    same topology.
    """
    all_names = tree.leaf_name_set
    anchor = min(all_names)
    splits = set()
    for u, v in tree.edge_labels:
        side = set()
        stack = [(v, u)]
        while stack:
            cur, came_from = stack.pop()
            if cur in tree.leaf_names:
                side.add(tree.leaf_names[cur])
            stack += [(nxt, cur) for nxt in tree.adjacency[cur] if nxt != came_from]
        splits.add(frozenset(all_names - side if anchor in side else side))
    return frozenset(splits)


def least_resolved_by_contraction(tree: LabeledTree, g: SimpleGraph) -> bool:
    """Least-resolved by definition: contract each inner edge in turn and
    check that the per-pair Fitch graph of the result is no longer *g*."""
    return all(fitch_bruteforce(contract_edge(tree, e)) != g for e in tree.inner_edges())


def multipartite_via_complement(g: SimpleGraph) -> bool:
    """Third route: complete multipartite iff complement components are cliques."""
    comp = g.complement()
    seen: set[str] = set()
    for start in g.vertices:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in comp.adjacency[v]:
                if w not in component:
                    component.add(w)
                    frontier.append(w)
        seen |= component
        for x, y in combinations(sorted(component), 2):
            if not comp.has_edge(x, y):
                return False
    return True


def bell_binomial(n: int) -> int:
    """Bell numbers by B(m+1) = sum_k C(m,k) B(k)."""
    bells = [1]
    while len(bells) <= n:
        m = len(bells) - 1
        bells.append(sum(comb(m, k) * bells[k] for k in range(m + 1)))
    return bells[n]


def series_reduced_rooted_count(m: int) -> int:
    """Rooted trees with m labeled leaves, every inner vertex >= 2 children.

    R(1) = 1; R(m) = sum over set partitions of the leaves into >= 2
    blocks of the product of R(block size).  The number of unrooted trees
    on n leaves with internal degrees >= 3 equals R(n - 1).
    """
    from fitchgraph.enumeration import set_partitions

    if m == 1:
        return 1
    total = 0
    for blocks in set_partitions([str(i) for i in range(m)]):
        if len(blocks) < 2:
            continue
        product = 1
        for b in blocks:
            product *= series_reduced_rooted_count(len(b))
        total += product
    return total


def trees_by_insertion(names: list[str]) -> list[LabeledTree]:
    """Every topology on the named leaves, all edges labeled 0, grown anew
    by inserting the names one at a time: on a subdivided edge, in sorted
    edge order, then at each inner vertex, in sorted vertex order."""
    trees = [LabeledTree.build([(0, 1, 0)], {0: names[0], 1: names[1]})]
    for name in names[2:]:
        grown: list[LabeledTree] = []
        for tree in trees:
            fresh = max(tree.vertices) + 1
            for u, v in sorted(tree.edge_labels):
                mid, leaf = fresh, fresh + 1
                edges = [(a, b, 0) for (a, b) in tree.edge_labels if (a, b) != (u, v)]
                edges += [(u, mid, 0), (mid, v, 0), (mid, leaf, 0)]
                grown.append(LabeledTree.build(edges, {**tree.leaf_names, leaf: name}))
            for x in sorted(tree.vertices):
                if not tree.is_leaf(x):
                    edges = [(a, b, 0) for (a, b) in tree.edge_labels] + [(x, fresh, 0)]
                    grown.append(LabeledTree.build(edges, {**tree.leaf_names, fresh: name}))
        trees = grown
    return trees


def minimum_tree_size_bruteforce(g: SimpleGraph) -> int:
    """Fewest vertices of an explaining tree, by sweeping all 2^|E|
    labelings of every topology on g's vertices, smallest topologies first."""
    from fitchgraph.enumeration import edge_labelings

    assert isinstance(recognize(g), Partition)
    if len(g.vertices) == 1:
        return 1
    topologies = sorted(trees_by_insertion(sorted(g.vertices)), key=lambda t: len(t.vertices))
    for topo in topologies:
        if any(explains(t, g) for t in edge_labelings(topo)):
            return len(topo.vertices)
    raise AssertionError("no explaining tree found for a multipartite graph")


def edgelist_oracle(text: str) -> tuple[str, int] | list[tuple[str, str]]:
    """The first fault of an edge list as (message, line), else its edges.

    Reads the format line by line from its definition: lines end at LF, CR
    or CRLF, ``#`` starts a comment, the first line with text is the
    ``vertices:`` header, and every later line with text names two
    distinct header names that no earlier line joined, in either order.
    """
    names: list[str] | None = None
    seen: set[frozenset[str]] = set()
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), 1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        if names is None:
            if not line.startswith("vertices:"):
                return "expected 'vertices:' header line", lineno
            names = line[len("vertices:"):].split()
            if len(set(names)) < len(names):
                return "duplicate vertex name", lineno
            continue
        words = line.split()
        if len(words) != 2:
            return "expected two endpoint names", lineno
        for v in words:
            if v not in names:
                return f"unknown endpoint {v!r}", lineno
        x, y = words
        if x == y:
            return f"self-loop at {x!r}", lineno
        if frozenset(words) in seen:
            return f"duplicate edge {x} {y}", lineno
        seen.add(frozenset(words))
        pairs.append((x, y))
    if names is None:
        return "empty input (expected 'vertices:' header)", 1
    return pairs


# -- random structure generators ---------------------------------------------


def random_tree(rng: random.Random, names: list[str], p_one: float = 0.4) -> LabeledTree:
    """Random unrooted topology by random leaf insertion, random labels."""
    assert len(names) >= 2
    edges: dict[Edge, int] = {edge_key(0, 1): rng.random() < p_one}
    leaf_names = {0: names[0], 1: names[1]}
    next_id = 2
    internal: list[int] = []
    for name in names[2:]:
        leaf = next_id
        next_id += 1
        if internal and rng.random() < 0.35:
            host = rng.choice(internal)
        else:
            u, v = rng.choice(sorted(edges))
            host = next_id
            next_id += 1
            lab = edges.pop(edge_key(u, v))
            edges[edge_key(u, host)] = lab
            edges[edge_key(host, v)] = rng.random() < p_one
            internal.append(host)
        edges[edge_key(host, leaf)] = rng.random() < p_one
        leaf_names[leaf] = name
    triples = [(u, v, int(lab)) for (u, v), lab in edges.items()]
    return LabeledTree.build(triples, leaf_names)


def caterpillar(rng: random.Random, names: list[str], p_one: float = 0.4) -> LabeledTree:
    """A path of len(names) - 2 inner vertices with one leaf hung on each and
    one more on each end, random labels, rooted at one end of the path."""
    assert len(names) >= 3
    n = len(names)
    spine = list(range(n, 2 * n - 2))
    hosts = [spine[0]] + spine + [spine[-1]]
    triples = [(a, b, int(rng.random() < p_one)) for a, b in zip(spine, spine[1:])]
    triples += [(host, leaf, int(rng.random() < p_one)) for leaf, host in enumerate(hosts)]
    return LabeledTree.build(triples, dict(enumerate(names)), root=spine[0])


def deep_caterpillar(n: int) -> LabeledTree:
    """A caterpillar on leaves x000000..x{n-1} rooted at the top spine vertex
    s_0 = vertex n; leaf i hangs from s_max(0, min(i - 1, n - 3)).  Every
    edge is a 0-edge except the edge to x000000 and the lowest spine edge.
    """
    assert n >= 4
    spine = list(range(n, 2 * n - 2))
    hosts = [spine[0]] + spine + [spine[-1]]
    triples = [(a, b, int(b == spine[-1])) for a, b in zip(spine, spine[1:])]
    triples += [(host, leaf, int(leaf == 0)) for leaf, host in enumerate(hosts)]
    names = {leaf: f"x{leaf:06d}" for leaf in range(n)}
    return LabeledTree.build(triples, names, root=spine[0])


def random_graph(rng: random.Random, names: list[str], p: float) -> SimpleGraph:
    edges = frozenset(
        (x, y) for x, y in combinations(sorted(names), 2) if rng.random() < p
    )
    return SimpleGraph(frozenset(names), edges)


def subdivide_edge(tree: LabeledTree, e: Edge, lab1: int, lab2: int) -> LabeledTree:
    """Replace edge e by a path through a fresh degree-2 vertex."""
    u, v = edge_key(*e)
    assert tree.edge_labels[(u, v)] == (lab1 | lab2)
    mid = max(tree.vertices) + 1
    triples = [(a, b, lab) for (a, b), lab in tree.edge_labels.items() if (a, b) != (u, v)]
    triples += [(u, mid, lab1), (mid, v, lab2)]
    return LabeledTree.build(triples, dict(tree.leaf_names), root=tree.root)


# -- fixtures -----------------------------------------------------------------


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)


@pytest.fixture
def star3_all_zero() -> LabeledTree:
    """S3 with every edge labeled 0; center is vertex 0."""
    return LabeledTree.build(
        [(0, 1, 0), (0, 2, 0), (0, 3, 0)], {1: "a", 2: "b", 3: "c"}, root=0
    )


@pytest.fixture
def star3_one_edge() -> LabeledTree:
    """S3 with the edge to leaf a labeled 1."""
    return LabeledTree.build(
        [(0, 1, 1), (0, 2, 0), (0, 3, 0)], {1: "a", 2: "b", 3: "c"}, root=0
    )
