"""Simple graphs and digraphs on named vertices.

Vertices are strings (the leaf names of the trees they come from), edges
are normalized (min, max) name pairs, arcs are ordered pairs.  Both types
are immutable and hashable, so sets of graphs work as expected -- the
exhaustive enumeration machinery relies on that.

A graph holds its pairs as a set of tuples, as a map from each vertex to
a frozenset -- its neighbours (``SimpleGraph.adjacency``) or the heads of
its out-arcs (``DirectedGraph.successors``) -- or both, and derives
either form from the other on first read.  Built, parsed and computed
graphs carry the sets only.  Every question this package asks of a graph
reads the sets, and equality and hashing compare the sets and never build
pair tuples, so the tuples are made only when something reads ``.edges``
or ``.arcs``.  ``_from_sets`` freezes its builder's lists or sets in
place, so no second copy is ever alive.  Computed Fitch graphs share one
frozenset per neighbourhood class, so a hash reads each class's cached
set hash.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable


def _freeze(sets: dict[str, Iterable[str]]) -> dict[str, frozenset[str]]:
    """Replace each value of *sets* in place by its frozenset; a value that
    is already a frozenset stays the same object, so shared sets stay shared."""
    for v, ys in sets.items():
        sets[v] = frozenset(ys)
    return sets


class _Graph:
    """Vertices plus a pair set (attribute ``_pairs``) or a name -> frozenset
    map (attribute ``_sets``), the other derived on first read.

    Immutable: assignment and deletion raise, though a ``cached_property``
    still fills its slot in the instance ``__dict__`` on first read.  Two
    graphs are equal when they are of the same class and have equal set
    maps, and the hash is that of the map's items.  The pair constructor
    trusts its input, so a pair naming a non-vertex raises on ``==`` and
    ``hash``, as it does when the sets are read.
    """

    vertices: frozenset[str]
    _pairs: str
    _sets: str

    def __init__(self, vertices: frozenset[str], pairs: frozenset[tuple[str, str]]):
        self.__dict__.update({"vertices": vertices, self._pairs: pairs})

    @classmethod
    def _from_sets(cls, vertices: frozenset[str], sets: dict[str, Iterable[str]]):
        """A graph stored as *sets*, which must be free of self-loops, keyed
        by exactly *vertices* and, for a :class:`SimpleGraph`, symmetric;
        nothing checks that.  Takes ownership of *sets* and freezes its
        values in place, freeing each list or set once its frozenset exists.
        """
        g = object.__new__(cls)
        g.__dict__.update({"vertices": vertices, cls._sets: _freeze(sets)})
        return g

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return getattr(self, self._sets) == getattr(other, self._sets)

    def __hash__(self) -> int:
        return hash(frozenset(getattr(self, self._sets).items()))

    def __repr__(self) -> str:
        pairs = getattr(self, self._pairs)
        return f"{type(self).__name__}(vertices={self.vertices!r}, {self._pairs}={pairs!r})"


class SimpleGraph(_Graph):
    """An undirected simple graph: no self-loops, no parallel edges.

    ``SimpleGraph(vertices, edges)`` takes normalized (min, max) pairs.
    Equality follows the neighbour sets, so an unnormalized edge compares
    equal to its normalized twin.
    """

    _pairs, _sets = "edges", "adjacency"

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
        return SimpleGraph._from_sets(verts, adj)

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for x, y in self.edges:
            adj[x].append(y)
            adj[y].append(x)
        return _freeze(adj)

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
        return SimpleGraph._from_sets(keep, {v: self.adjacency[v] & keep for v in keep})

    def complement(self) -> "SimpleGraph":
        verts = self.vertices
        return SimpleGraph._from_sets(verts, {v: verts - nbrs - {v} for v, nbrs in self.adjacency.items()})


class DirectedGraph(_Graph):
    """A digraph: ordered arcs, no self-loops.

    ``DirectedGraph(vertices, arcs)`` takes ordered pairs; equality
    follows the successor sets, so it sees arc direction.
    """

    _pairs, _sets = "arcs", "successors"

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
        return DirectedGraph._from_sets(verts, succ)

    @cached_property
    def successors(self) -> dict[str, frozenset[str]]:
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        for x, y in self.arcs:
            succ[x].append(y)
        return _freeze(succ)

    @cached_property
    def arcs(self) -> frozenset[tuple[str, str]]:
        return frozenset([(x, y) for x, ys in self.successors.items() for y in ys])


def disjoint_blocks(blocks: Iterable[Iterable[str]]) -> tuple[list[frozenset[str]], frozenset[str]]:
    """The blocks as frozensets, and their union.

    Raises ``ValueError`` on the first block that is empty or meets an
    earlier one.
    """
    frozen = [frozenset(b) for b in blocks]
    union: set[str] = set()
    for b in frozen:
        if not b:
            raise ValueError("empty block")
        if not union.isdisjoint(b):
            raise ValueError("blocks are not disjoint")
        union |= b
    return frozen, frozenset(union)


def complete_multipartite(blocks: Iterable[Iterable[str]]) -> SimpleGraph:
    """The graph whose independent sets are exactly the given blocks.

    Every pair of vertices from different blocks is joined by an edge;
    pairs within a block are not.  One block gives the edge-less graph.
    """
    block_list, verts = disjoint_blocks(blocks)
    # Every member of a block shares one neighbour set: O(V) per block.
    adj: dict[str, frozenset[str]] = {}
    for b in block_list:
        adj.update(dict.fromkeys(b, verts - b))
    return SimpleGraph._from_sets(verts, adj)
