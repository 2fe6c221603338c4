"""Simple graphs and digraphs on named vertices.

Vertices are strings (the leaf names of the trees they come from), edges
are normalized (min, max) name pairs, arcs are ordered pairs.  Both types
are immutable and hashable, so sets of graphs work as expected -- the
exhaustive enumeration machinery relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable


def _pair(x: str, y: str) -> tuple[str, str]:
    return (x, y) if x < y else (y, x)


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected simple graph: no self-loops, no parallel edges."""

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "SimpleGraph":
        verts = frozenset(vertices)
        normalized = set()
        for x, y in edges:
            if x == y:
                raise ValueError(f"self-loop at {x!r}")
            if x not in verts or y not in verts:
                missing = x if x not in verts else y
                raise ValueError(f"edge endpoint {missing!r} is not a vertex")
            normalized.add(_pair(x, y))
        return SimpleGraph(verts, frozenset(normalized))

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for x, y in self.edges:
            adj[x].add(y)
            adj[y].add(x)
        return {v: frozenset(nbrs) for v, nbrs in adj.items()}

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adjacency[v]

    def has_edge(self, x: str, y: str) -> bool:
        return _pair(x, y) in self.edges

    def induced(self, names: Iterable[str]) -> "SimpleGraph":
        keep = frozenset(names)
        if not keep <= self.vertices:
            raise ValueError("induced subgraph on non-vertices")
        return SimpleGraph(
            keep, frozenset(e for e in self.edges if e[0] in keep and e[1] in keep)
        )

    def complement(self) -> "SimpleGraph":
        non_edges = frozenset(
            _pair(x, y)
            for x, y in combinations(sorted(self.vertices), 2)
            if _pair(x, y) not in self.edges
        )
        return SimpleGraph(self.vertices, non_edges)


@dataclass(frozen=True)
class DirectedGraph:
    """A digraph: ordered arcs, no self-loops."""

    vertices: frozenset[str]
    arcs: frozenset[tuple[str, str]]

    @staticmethod
    def build(vertices: Iterable[str], arcs: Iterable[tuple[str, str]]) -> "DirectedGraph":
        verts = frozenset(vertices)
        arc_set = set()
        for x, y in arcs:
            if x == y:
                raise ValueError(f"self-loop at {x!r}")
            if x not in verts or y not in verts:
                missing = x if x not in verts else y
                raise ValueError(f"arc endpoint {missing!r} is not a vertex")
            arc_set.add((x, y))
        return DirectedGraph(verts, frozenset(arc_set))


def complete_multipartite(blocks: Iterable[Iterable[str]]) -> SimpleGraph:
    """The graph whose independent sets are exactly the given blocks.

    Every pair of vertices from different blocks is joined by an edge;
    pairs within a block are not.  One block gives the edge-less graph.
    """
    block_list = [frozenset(b) for b in blocks]
    verts: set[str] = set()
    for b in block_list:
        if not b:
            raise ValueError("empty block")
        if verts & b:
            raise ValueError("blocks are not disjoint")
        verts |= b
    # Join each vertex to every vertex of the blocks before its own: one
    # step per vertex and per edge, whatever the block sizes.
    edges: set[tuple[str, str]] = set()
    earlier: list[str] = []
    for b in block_list:
        for x in b:
            edges.update([(x, y) if x < y else (y, x) for y in earlier])
        earlier += b
    return SimpleGraph(frozenset(verts), frozenset(edges))
