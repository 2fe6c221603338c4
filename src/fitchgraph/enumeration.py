"""Exhaustive small-scale ground truth.

Enumerates every unrooted tree with internal degrees >= 3 on a small
labeled leaf set, sweeps all {0,1} edge labelings, and collects the Fitch
graphs they realize.  Because labeled complete multipartite graphs
correspond one-to-one with set partitions of the vertex set, the number
of realizable graphs on n leaves must be the n-th Bell number -- the
characterization check compares the realized set against the recognizer's
verdicts graph by graph.

The census is deliberately brute force; the hard caps keep the
combinatorics at desk scale, and the topologies on n leaves are grown
once per process.  :func:`minimum_tree_size` needs no sweep: a tree
explains g exactly when its 0-components cut the leaves into g's blocks,
so one forced labeling per topology decides whether it can explain g.
With at most five leaves, that labeling is read off leaf bitmasks: a
table built once per leaf count holds each topology's walk with the mask
of the leaves below each vertex, and an edge is a 1-edge exactly when
that mask is a union of g's blocks.  A call builds no tree.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, product
from typing import Iterator, NamedTuple, Sequence

from .fitch import undirected_fitch, zero_blocks
from .graphs import SimpleGraph
from .recognition import Partition, recognize
from .tree import Edge, LabeledTree

MAX_TOPOLOGY_LEAVES = 6
MAX_REALIZABLE_LEAVES = 5
ascii_lowercase = "abcdefghijklmnopqrstuvwxyz"  # as in string, which a fresh CLI call need not import


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


@cache
def _topologies(n: int) -> tuple[LabeledTree, ...]:
    """Every topology on n >= 2 leaves, grown once from those on n - 1.
    Its labels are all 0 and its i-th inserted leaf is ``ascii_lowercase[i]``."""
    if n == 2:
        return (LabeledTree.build([(0, 1, 0)], {0: "a", 1: "b"}),)
    grown: list[LabeledTree] = []
    for topo in _topologies(n - 1):
        edges, names = sorted(topo.edge_labels), topo.leaf_names
        mid = max(topo.vertices) + 1
        # (edges, new leaf): subdivide (u, v) by mid holding the leaf, or hang the leaf on x
        sites = [([e for e in edges if e != (u, v)] + [(u, mid), (v, mid), (mid, mid + 1)], mid + 1)
                 for u, v in edges]
        sites += [([*edges, (x, mid)], mid) for x in sorted(topo.vertices.difference(names))]
        for new_edges, leaf in sites:
            new_names = {**names, leaf: ascii_lowercase[n - 1]}
            grown.append(LabeledTree.build([(u, v, 0) for u, v in sorted(new_edges)], new_names))
    return tuple(grown)


def enumerate_trees(n: int, names: Sequence[str] | None = None) -> list[LabeledTree]:
    """Every unrooted tree on n named leaves with all internal degrees >= 3.

    Trees are grown by inserting one leaf at a time, either on a
    subdivided edge or directly at an inner vertex.  No tree comes out
    twice: removing the newest leaf, and suppressing its neighbour if that
    leaves it with degree 2, undoes either move, so each tree comes from
    exactly one parent tree and one insertion site.  The topologies are
    grown once per n; each call names their leaves, in the order given,
    and returns fresh trees.  Edge labels of the returned trees are all 0
    and stand for "unassigned"; sweep them with :func:`edge_labelings`.
    """
    if not 2 <= n <= MAX_TOPOLOGY_LEAVES:
        raise ValueError(f"n out of supported range 2..{MAX_TOPOLOGY_LEAVES}")
    leaf_names = _default_names(n) if names is None else list(names)
    if len(leaf_names) != n or len(set(leaf_names)) != n:
        raise ValueError("need exactly n distinct leaf names")
    return [
        LabeledTree(t.vertices, dict(t.edge_labels), dict(zip(t.leaf_names, leaf_names)))
        for t in _topologies(n)
    ]


def edge_labelings(tree: LabeledTree) -> Iterator[LabeledTree]:
    """All 2^|E| trees obtained by assigning {0,1} to every edge."""
    edges: list[Edge] = sorted(tree.edge_labels)
    for bits in product((0, 1), repeat=len(edges)):
        labels = dict(zip(edges, bits))
        yield LabeledTree(tree.vertices, labels, dict(tree.leaf_names), tree.root)


class EnumerationReport(NamedTuple):
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
    pairs = list(combinations(sorted(names), 2))
    for bits in product((False, True), repeat=len(pairs)):
        yield SimpleGraph(verts, [p for p, b in zip(pairs, bits) if b])


class CharacterizationFailure(NamedTuple):
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


@cache
def _leaf_walks(n: int) -> tuple[tuple[int, tuple[int, ...], tuple[tuple[int, int, int], ...]], ...]:
    """One row per topology on n >= 2 leaves, by increasing vertex count:
    its vertex count, its leaf vertices in insertion order (leaf i stands
    for bit i of a leaf mask), and its walk as (vertex, parent, mask of the
    leaves below) in preorder, the start vertex left out.  A topology's ids
    run 0..count - 1, so a list indexed by id can hold each vertex's top."""
    rows = []
    for topo in sorted(_topologies(n), key=lambda t: len(t.vertices)):
        order, parent = topo.walk.order, topo.walk.parent
        below = dict.fromkeys(order, 0)
        for i, v in enumerate(topo.leaf_names):
            below[v] = 1 << i
        for v in reversed(order[1:]):
            below[parent[v]] |= below[v]
        walk = tuple([(v, parent[v], below[v]) for v in order[1:]])
        rows.append((len(topo.vertices), tuple(topo.leaf_names), walk))
    return tuple(rows)


def minimum_tree_size(g: SimpleGraph) -> int:
    """Fewest vertices over all edge-labeled trees explaining *g*.

    Any explaining tree suppresses to one of the topologies on the leaf
    set of *g*, tried here by increasing vertex count.  An explaining
    labeling puts 0 on every edge that some block of *g* has leaves on
    both sides of; the forced labeling, 0 on exactly those edges and 1 on
    the rest, keeps all its 1s, so it explains *g* whenever any labeling
    of the topology does.  With the sorted names of *g* as bits, the edge
    above a vertex gets 1 exactly when the leaves below it form a union of
    blocks.  Every block then lies in one 0-component, so the forced
    labeling explains *g* exactly when the leaves fall into as many
    0-components as *g* has blocks.  Each topology is read from a table
    of leaf masks built once per leaf count, so a call builds no tree.
    Only defined for complete multipartite graphs of at most
    MAX_REALIZABLE_LEAVES vertices.
    """
    n = len(g.vertices)
    if n > MAX_REALIZABLE_LEAVES:
        raise ValueError(f"graph too large (max {MAX_REALIZABLE_LEAVES} vertices)")
    partition = recognize(g)
    if not isinstance(partition, Partition):
        raise ValueError("graph is not a Fitch graph")
    if n == 1:
        return 1
    bit = {name: 1 << i for i, name in enumerate(sorted(g.vertices))}
    unions = {0}  # the leaf masks of every union of blocks
    for block in partition.blocks:
        mask = 0
        for name in block:
            mask |= bit[name]
        unions |= {u | mask for u in unions}
    k = len(partition.blocks)
    for size, leaves, walk in _leaf_walks(n):
        top = list(range(size))  # v tops its own 0-component unless the edge above it is a 0-edge
        for v, up, side in walk:
            if side not in unions:
                top[v] = top[up]
        if len({top[v] for v in leaves}) == k:
            return size
    raise AssertionError("no explaining tree found for a multipartite graph")


def graph_line(g: SimpleGraph) -> str:
    """One-line canonical rendering of a graph, for report listings: its
    edges in sorted order, read off its rows with no pair set built."""
    return " ".join([f"{x}--{y}" for x, ys in g._rows()[1] for y in ys]) or "(edgeless)"


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
