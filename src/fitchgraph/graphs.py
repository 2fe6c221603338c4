"""Simple graphs and digraphs on named vertices.

Vertices are strings (the leaf names of the trees they come from), edges
are normalized (min, max) name pairs, arcs are ordered pairs.  Both types
are immutable and hashable, so sets of graphs work as expected -- the
exhaustive enumeration machinery relies on that.

A :class:`SimpleGraph` holds its edges as neighbour sets, as a set of edge
tuples, or both, and derives either form from the other on first read.
Built, parsed and computed graphs carry neighbour sets only: every
question this package asks of a graph is about neighbourhoods, so the
tuples are made only when something reads ``.edges``.  Builders hand
:meth:`SimpleGraph._from_adjacency` a dict whose values may be any
iterable of names, lists with repeats included; it freezes each value in
place, so no second copy of the neighbour sets is ever alive.

A :class:`DirectedGraph` is kept the same way, as successor sets (name ->
frozenset of the heads of its out-arcs) or arc tuples, and
:meth:`DirectedGraph._from_successors` freezes in place likewise.
Computed Fitch graphs share one frozenset among all vertices of a
neighbourhood class, so they cost one set per class, not one per vertex.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable


class _Immutable:
    """Refuses assignment and deletion; a ``cached_property`` still fills
    its slot in the instance ``__dict__`` on first read."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SimpleGraph(_Immutable):
    """An undirected simple graph: no self-loops, no parallel edges.

    ``SimpleGraph(vertices, edges)`` takes normalized (min, max) pairs;
    equality and hashing are on (vertices, edges).
    """

    vertices: frozenset[str]

    def __init__(self, vertices: frozenset[str], edges: frozenset[tuple[str, str]]):
        self.__dict__.update(vertices=vertices, edges=edges)

    @staticmethod
    def _from_adjacency(vertices: frozenset[str], adjacency: dict[str, Iterable[str]]) -> "SimpleGraph":
        """A graph stored as neighbour sets, which must be symmetric, free of
        self-loops and keyed by exactly *vertices*; nothing checks that.

        Takes ownership of *adjacency*: each value, any iterable of names
        (lists with repeats included), is replaced in place by its
        frozenset, so the caller's list or set is freed as soon as its
        frozenset exists.  A value that is already a frozenset is kept as
        the same object, so shared sets stay shared.
        """
        for v, nbrs in adjacency.items():
            adjacency[v] = frozenset(nbrs)
        g = object.__new__(SimpleGraph)
        g.__dict__.update(vertices=vertices, adjacency=adjacency)
        return g

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SimpleGraph:
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph(vertices={self.vertices!r}, edges={self.edges!r})"

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "SimpleGraph":
        verts = frozenset(vertices)
        adj: dict[str, list[str]] = {v: [] for v in verts}
        for x, y in edges:
            if x == y:
                raise ValueError(f"self-loop at {x!r}")
            try:
                adj[x].append(y)
                adj[y].append(x)
            except KeyError:
                missing = x if x not in verts else y
                raise ValueError(f"edge endpoint {missing!r} is not a vertex") from None
        return SimpleGraph._from_adjacency(verts, adj)

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for x, y in self.edges:
            adj[x].append(y)
            adj[y].append(x)
        for v, nbrs in adj.items():
            adj[v] = frozenset(nbrs)
        return adj

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset([(x, y) for x, nbrs in self.adjacency.items() for y in nbrs if x < y])

    def neighbors(self, v: str) -> frozenset[str]:
        return self.adjacency[v]

    def has_edge(self, x: str, y: str) -> bool:
        return y in self.adjacency.get(x, ())

    def induced(self, names: Iterable[str]) -> "SimpleGraph":
        keep = frozenset(names)
        if not keep <= self.vertices:
            raise ValueError("induced subgraph on non-vertices")
        return SimpleGraph._from_adjacency(keep, {v: self.adjacency[v] & keep for v in keep})

    def complement(self) -> "SimpleGraph":
        verts = self.vertices
        return SimpleGraph._from_adjacency(
            verts, {v: verts - nbrs - {v} for v, nbrs in self.adjacency.items()}
        )


class DirectedGraph(_Immutable):
    """A digraph: ordered arcs, no self-loops.

    ``DirectedGraph(vertices, arcs)`` takes ordered pairs; equality and
    hashing are on (vertices, arcs).  Like :class:`SimpleGraph` it holds
    its arcs as successor sets, as a set of arc tuples, or both, and
    derives either form from the other on first read; built and computed
    digraphs carry successor sets only.
    """

    vertices: frozenset[str]

    def __init__(self, vertices: frozenset[str], arcs: frozenset[tuple[str, str]]):
        self.__dict__.update(vertices=vertices, arcs=arcs)

    @staticmethod
    def _from_successors(vertices: frozenset[str], successors: dict[str, Iterable[str]]) -> "DirectedGraph":
        """A digraph stored as successor sets, which must be free of
        self-loops and keyed by exactly *vertices*; nothing checks that.

        Takes ownership of *successors* and freezes its values in place,
        as :meth:`SimpleGraph._from_adjacency` does, so vertices that share
        one frozenset keep sharing it.
        """
        for v, ys in successors.items():
            successors[v] = frozenset(ys)
        d = object.__new__(DirectedGraph)
        d.__dict__.update(vertices=vertices, successors=successors)
        return d

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not DirectedGraph:
            return NotImplemented
        return self.vertices == other.vertices and self.arcs == other.arcs

    def __hash__(self) -> int:
        return hash((self.vertices, self.arcs))

    def __repr__(self) -> str:
        return f"DirectedGraph(vertices={self.vertices!r}, arcs={self.arcs!r})"

    @staticmethod
    def build(vertices: Iterable[str], arcs: Iterable[tuple[str, str]]) -> "DirectedGraph":
        verts = frozenset(vertices)
        succ: dict[str, list[str]] = {v: [] for v in verts}
        for x, y in arcs:
            if x == y:
                raise ValueError(f"self-loop at {x!r}")
            if x not in verts or y not in verts:
                missing = x if x not in verts else y
                raise ValueError(f"arc endpoint {missing!r} is not a vertex")
            succ[x].append(y)
        return DirectedGraph._from_successors(verts, succ)

    @cached_property
    def successors(self) -> dict[str, frozenset[str]]:
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        for x, y in self.arcs:
            succ[x].append(y)
        for v, ys in succ.items():
            succ[v] = frozenset(ys)
        return succ

    @cached_property
    def arcs(self) -> frozenset[tuple[str, str]]:
        return frozenset([(x, y) for x, ys in self.successors.items() for y in ys])


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
    # Every member of a block shares one neighbour set: O(V) per block.
    all_verts = frozenset(verts)
    adj: dict[str, frozenset[str]] = {}
    for b in block_list:
        adj.update(dict.fromkeys(b, all_verts - b))
    return SimpleGraph._from_adjacency(all_verts, adj)
