"""Exhaustive small-scale ground truth.

Enumerates every unrooted tree with internal degrees >= 3 on a small
labeled leaf set, sweeps all {0,1} edge labelings, and collects the Fitch
graphs they realize.  Because labeled complete multipartite graphs
correspond one-to-one with set partitions of the vertex set, the number
of realizable graphs on n leaves must be the n-th Bell number -- the
characterization check compares the realized set against the recognizer's
verdicts graph by graph.

Everything here is deliberately brute force; the hard caps keep the
combinatorics at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from string import ascii_lowercase
from typing import Iterator, Sequence

from .fitch import explains, undirected_fitch, zero_blocks
from .graphs import SimpleGraph
from .recognition import Partition, recognize
from .tree import Edge, LabeledTree

MAX_TOPOLOGY_LEAVES = 6
MAX_REALIZABLE_LEAVES = 5


def bell_number(n: int) -> int:
    """Number of set partitions of n elements, via the Bell triangle."""
    if n < 0:
        raise ValueError("n must be non-negative")
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def set_partitions(items: Sequence[str]) -> Iterator[list[list[str]]]:
    """All partitions of *items* into non-empty blocks, each exactly once."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        yield [[first]] + [list(b) for b in sub]
        for i in range(len(sub)):
            yield [list(b) for b in sub[:i]] + [[first] + list(sub[i])] + [
                list(b) for b in sub[i + 1 :]
            ]


def _default_names(n: int) -> list[str]:
    return list(ascii_lowercase[:n])


def enumerate_trees(n: int, names: Sequence[str] | None = None) -> list[LabeledTree]:
    """Every unrooted tree on n named leaves with all internal degrees >= 3.

    Trees are grown by inserting one leaf at a time, either on a
    subdivided edge or directly at an inner vertex.  No tree comes out
    twice: removing the newest leaf, and suppressing its neighbour if that
    leaves it with degree 2, undoes either move, so each tree comes from
    exactly one parent tree and one insertion site.  Edge labels of the
    returned trees are all 0 and stand for "unassigned"; sweep them with
    :func:`edge_labelings`.
    """
    if not 2 <= n <= MAX_TOPOLOGY_LEAVES:
        raise ValueError(f"n out of supported range 2..{MAX_TOPOLOGY_LEAVES}")
    leaf_names = _default_names(n) if names is None else list(names)
    if len(leaf_names) != n or len(set(leaf_names)) != n:
        raise ValueError("need exactly n distinct leaf names")
    base = LabeledTree.build([(0, 1, 0)], {0: leaf_names[0], 1: leaf_names[1]})
    trees = [base]
    for name in leaf_names[2:]:
        grown: list[LabeledTree] = []
        for tree in trees:
            fresh = max(tree.vertices) + 1
            for u, v in sorted(tree.edge_labels):
                mid, leaf = fresh, fresh + 1
                edges = [
                    (a, b, 0) for (a, b) in tree.edge_labels if (a, b) != (u, v)
                ]
                edges += [(u, mid, 0), (mid, v, 0), (mid, leaf, 0)]
                new_names = dict(tree.leaf_names)
                new_names[leaf] = name
                grown.append(LabeledTree.build(edges, new_names))
            for x in sorted(tree.vertices):
                if tree.is_leaf(x):
                    continue
                edges = [(a, b, 0) for (a, b) in tree.edge_labels]
                edges.append((x, fresh, 0))
                new_names = dict(tree.leaf_names)
                new_names[fresh] = name
                grown.append(LabeledTree.build(edges, new_names))
        trees = grown
    return trees


def edge_labelings(tree: LabeledTree) -> Iterator[LabeledTree]:
    """All 2^|E| trees obtained by assigning {0,1} to every edge."""
    edges: list[Edge] = sorted(tree.edge_labels)
    for bits in product((0, 1), repeat=len(edges)):
        labels = dict(zip(edges, bits))
        yield LabeledTree(tree.vertices, labels, dict(tree.leaf_names), tree.root)


@dataclass(frozen=True)
class EnumerationReport:
    """Outcome of sweeping all (topology, labeling) pairs on n leaves."""

    leaf_count: int
    topology_count: int
    labeling_count: int
    realizable_graphs: frozenset[SimpleGraph]
    expected_count: int

    @property
    def counts_match(self) -> bool:
        return len(self.realizable_graphs) == self.expected_count


def realizable_graphs(n: int) -> EnumerationReport:
    """Every Fitch graph realizable on the fixed leaf set of size n."""
    if not 2 <= n <= MAX_REALIZABLE_LEAVES:
        raise ValueError(f"n out of supported range 2..{MAX_REALIZABLE_LEAVES}")
    topologies = enumerate_trees(n)
    # one labeled tree per realized leaf partition; its graph is built at the end
    realized: dict[frozenset[frozenset[str]], LabeledTree] = {}
    labelings = 0
    for topo in topologies:
        for labeled in edge_labelings(topo):
            labelings += 1
            blocks = frozenset(map(frozenset, zero_blocks(labeled).values()))
            realized.setdefault(blocks, labeled)
    return EnumerationReport(
        leaf_count=n,
        topology_count=len(topologies),
        labeling_count=labelings,
        realizable_graphs=frozenset(map(undirected_fitch, realized.values())),
        expected_count=bell_number(n),
    )


def all_graphs(names: Sequence[str]) -> Iterator[SimpleGraph]:
    """All 2^C(n,2) labeled graphs on the given vertices."""
    verts = frozenset(names)
    pairs = [tuple(sorted(p)) for p in combinations(sorted(names), 2)]
    for bits in product((False, True), repeat=len(pairs)):
        yield SimpleGraph(verts, frozenset(p for p, b in zip(pairs, bits) if b))


@dataclass(frozen=True)
class CharacterizationFailure:
    graph: SimpleGraph
    realizable: bool
    accepted: bool


def verify_characterization(n: int) -> CharacterizationFailure | None:
    """Check realizable == recognized over every labeled graph on n vertices.

    Returns None on success, else the first counterexample together with
    the direction in which the two sides disagree.
    """
    report = realizable_graphs(n)
    names = _default_names(n)
    for g in all_graphs(names):
        realizable = g in report.realizable_graphs
        accepted = isinstance(recognize(g), Partition)
        if realizable != accepted:
            return CharacterizationFailure(g, realizable, accepted)
    return None


def minimum_tree_size(g: SimpleGraph) -> int:
    """Fewest vertices over all edge-labeled trees explaining *g*.

    Exhausts every topology on the leaf set of *g* and every labeling;
    any explaining tree suppresses to one of these, so the search space
    covers the true minimum.  Only defined for complete multipartite
    graphs of at most MAX_REALIZABLE_LEAVES vertices.
    """
    n = len(g.vertices)
    if n > MAX_REALIZABLE_LEAVES:
        raise ValueError(f"graph too large (max {MAX_REALIZABLE_LEAVES} vertices)")
    if not isinstance(recognize(g), Partition):
        raise ValueError("graph is not a Fitch graph")
    if n == 1:
        return 1
    topologies = sorted(enumerate_trees(n, sorted(g.vertices)), key=lambda t: len(t.vertices))
    for topo in topologies:
        if any(explains(t, g) for t in edge_labelings(topo)):
            return len(topo.vertices)
    raise AssertionError("no explaining tree found for a multipartite graph")


def graph_line(g: SimpleGraph) -> str:
    """One-line canonical rendering of a graph, for report listings."""
    if not g.edges:
        return "(edgeless)"
    return " ".join(f"{x}--{y}" for x, y in sorted(g.edges))


def format_report(report: EnumerationReport, include_graphs: bool = False) -> str:
    """Render a report as stable, golden-file-friendly text."""
    lines = [
        f"leaves: {report.leaf_count}",
        f"topologies: {report.topology_count}",
        f"labelings: {report.labeling_count}",
        f"realizable: {len(report.realizable_graphs)}",
        f"expected: {report.expected_count}",
        f"verdict: {'PASS' if report.counts_match else 'FAIL'}",
    ]
    if include_graphs:
        lines.append("graphs:")
        for line in sorted(graph_line(g) for g in report.realizable_graphs):
            lines.append(f"  {line}")
    return "\n".join(lines) + "\n"
