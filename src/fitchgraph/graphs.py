"""Simple graphs and digraphs on named vertices.

Vertices are strings (the leaf names of the trees they come from), edges
are normalized (min, max) name pairs, arcs are ordered pairs.  Both types
are immutable and hashable, so sets of graphs work as expected -- the
exhaustive enumeration machinery relies on that.

How a graph is stored is known to this module alone.  A graph holds
one of two forms.  Constructed and parsed graphs hold a map from each
vertex to a frozenset: its neighbours (``SimpleGraph.adjacency``) or the
heads of its out-arcs (``DirectedGraph.successors``).  Equal sets are one
object (:func:`_freeze`), so a complete multipartite graph with k parts
holds k sets.  A Fitch graph holds instead, in O(V + components), the
chain of its tree's 0-components, parents first, each with its parent
and its member names; its sets and sorted rows are derived from the
chain when first read (:meth:`_Graph._fold`, :meth:`_Graph._rows`).
Either way pair tuples are made only when something reads ``.edges`` or
``.arcs``, since equality and hashing compare the sets.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import compress
from typing import Callable, Collection, Iterable, TypeVar

from .tree import _Frozen

# A Fitch graph's 0-components, parents first: one (key, parent key or
# None, member names) entry each.
Chain = tuple[tuple[int, "int | None", Collection[str]], ...]
T = TypeVar("T")


def _cut(above: list[str], members: Collection[str]) -> list[str]:
    """The sorted list *above* less *members*, all of which it holds, each
    located by bisection."""
    ys, start = [], 0
    for i in sorted([bisect_left(above, x) for x in members]):
        ys += above[start:i]
        start = i + 1
    ys += above[start:]
    return ys


def _freeze(sets: dict[str, Iterable[str]]) -> dict[str, frozenset[str]]:
    """Replace each value of *sets* in place by its frozenset, then by the
    first equal frozenset already stored, so equal sets become one object.
    Every value is still frozen from its own items, so a list's repeats
    still shrink its set, and a value that is already a frozenset may be
    swapped for an equal earlier one.  Each set is hashed here once; later
    lookups find the hash cached and, for equal sets, the same object."""
    shared: dict[frozenset[str], frozenset[str]] = {}
    for v, ys in sets.items():
        fs = frozenset(ys)
        sets[v] = shared.setdefault(fs, fs)
    return sets


class _Graph(_Frozen):
    """Vertices plus a name -> frozenset map (attribute ``_sets``) or a
    chain (``_chain``, else None); ``_fields`` names the vertices and the
    derived pair set, which the repr shows.

    An immutable value (:class:`~fitchgraph.tree._Frozen`) whose key is
    the set map: two graphs are equal when they are of the same class and
    have equal set maps, and the hash is that of the map's items.
    """

    vertices: frozenset[str]
    _sets: str
    _chain: Chain | None = None

    @classmethod
    def _from_sets(cls, vertices: frozenset[str], sets: dict[str, Iterable[str]]):
        """A graph stored as *sets*, which must be free of self-loops, keyed
        by exactly *vertices* and, for a :class:`SimpleGraph`, symmetric;
        nothing checks that.  Takes ownership of *sets* and freezes its
        values in place, freeing each list or set once its frozenset exists;
        equal values become one frozenset.
        """
        g = object.__new__(cls)
        g.__dict__.update({"vertices": vertices, cls._sets: _freeze(sets)})
        return g

    @classmethod
    def _from_chain(cls, vertices: frozenset[str], chain: Chain):
        """The graph held as *chain*.  Nothing checks that parents come
        first or that the members partition *vertices*; a
        :class:`SimpleGraph` must hang every entry from the root, or its
        sets are not symmetric."""
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, _chain=chain)
        return g

    def _fold(self, whole: T, less: Callable[[T, Collection[str]], T]) -> dict[str, T]:
        """Each vertex's value over the chain: an entry's value is
        ``less(its parent's value, its members)``, with *whole* above the
        root, and its members share it; an entry without members takes its
        parent's value."""
        above: dict[int | None, T] = {None: whole}
        shared: dict[str, T] = {}
        for key, up, members in self._chain:
            value = above[key] = less(above[up], members) if members else above[up]
            shared.update(dict.fromkeys(members, value))
        return shared

    def _rows(self) -> tuple[list[str], list[tuple[str, list[str]]]]:
        """The sorted names, each with its neighbours (successors, in a
        digraph) as a sorted list; equal lists are one list.  A chain's
        lists are cut out of the names; a set holding at least half the
        names is read off them in one pass, O(n) <= O(2|set|), and a
        smaller one is sorted."""
        names = sorted(self.vertices)
        if self._chain is not None:
            lists = self._fold(names, _cut)
        else:
            sets, n, lists, by_set = getattr(self, self._sets), len(names), {}, {}
            for x, nbrs in sets.items():
                ys = by_set.get(nbrs)
                if ys is None:
                    ys = by_set[nbrs] = (list(compress(names, map(nbrs.__contains__, names)))
                                         if 2 * len(nbrs) >= n else sorted(nbrs))
                lists[x] = ys
        return names, [(x, lists[x]) for x in names]

    def _key(self) -> dict[str, frozenset[str]]:
        return getattr(self, self._sets)

    def __hash__(self) -> int:
        return hash(frozenset(self._key().items()))


class SimpleGraph(_Graph):
    """An undirected simple graph: no self-loops, no parallel edges.

    ``SimpleGraph(vertices, edges)`` takes pairs in either order, and a
    repeated edge counts once.  It raises ``ValueError`` on the first
    self-loop or endpoint that is not a vertex, and stores only the
    neighbour sets, so ``edges`` holds (min, max) pairs derived from them.
    """

    _fields, _sets = ("vertices", "edges"), "adjacency"

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
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
        self.__dict__.update(vertices=verts, adjacency=_freeze(adj))

    @staticmethod
    def build(vertices: Iterable[str], edges: Iterable[tuple[str, str]]) -> "SimpleGraph":
        return SimpleGraph(vertices, edges)

    @cached_property
    def adjacency(self) -> dict[str, frozenset[str]]:
        return self._fold(self.vertices, frozenset.difference)

    @cached_property
    def edges(self) -> frozenset[tuple[str, str]]:
        return frozenset([(x, y) for x, nbrs in self.adjacency.items() for y in nbrs if x < y])

    def _rows(self) -> tuple[list[str], list[tuple[str, list[str]]]]:
        """The rows of :meth:`_Graph._rows`, each keeping only the neighbours
        after its name, so that each edge is rendered once.  A chain's
        entries all hang from the root, so a member's row is the names
        between it and the next member of its block, then that member's
        row: each row is cut once, from its block's last member back."""
        if self._chain is None:
            names, rows = super()._rows()
            return names, [(x, ys[bisect_right(ys, x):]) for x, ys in rows]
        names = sorted(self.vertices)
        at = {x: i for i, x in enumerate(names)}
        lists: dict[str, list[str]] = {}
        for _, _, members in self._chain:
            row, end = [], len(names)
            for p in sorted(map(at.__getitem__, members), reverse=True):
                row = lists[names[p]] = names[p + 1:end] + row
                end = p
        return names, [(x, lists[x]) for x in names]

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

    ``DirectedGraph(vertices, arcs)`` takes ordered pairs, and a repeated
    arc counts once.  It raises ``ValueError`` on the first self-loop or
    endpoint that is not a vertex, and stores only the successor sets;
    equality follows them, so it sees arc direction.
    """

    _fields, _sets = ("vertices", "arcs"), "successors"

    def __init__(self, vertices: Iterable[str], arcs: Iterable[tuple[str, str]]):
        verts = frozenset(vertices)
        succ: dict[str, list[str]] = {v: [] for v in verts}
        for x, y in arcs:
            if x == y:
                raise ValueError(f"self-loop at {x!r}")
            if x not in verts or y not in verts:
                missing = x if x not in verts else y
                raise ValueError(f"arc endpoint {missing!r} is not a vertex")
            succ[x].append(y)
        self.__dict__.update(vertices=verts, successors=_freeze(succ))

    @staticmethod
    def build(vertices: Iterable[str], arcs: Iterable[tuple[str, str]]) -> "DirectedGraph":
        return DirectedGraph(vertices, arcs)

    @cached_property
    def successors(self) -> dict[str, frozenset[str]]:
        return self._fold(self.vertices, frozenset.difference)

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
    The blocks are checked now and kept as a chain whose entries all hang
    from the root; the sets wait for a first reader.
    """
    block_list, verts = disjoint_blocks(blocks)
    return SimpleGraph._from_chain(verts, tuple((i, None, b) for i, b in enumerate(block_list)))
