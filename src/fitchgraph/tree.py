"""Edge-labeled trees and the elementary operations on them.

A :class:`LabeledTree` is an undirected tree whose every edge carries a
label in {0, 1} and whose degree-1 vertices (the leaves) carry unique
string names.  An optional root turns the tree into a rooted one; nothing
else changes.  All operations are pure: they take a tree and return a new
tree or a value, never mutating their input.

Vertex ids are opaque integers.  Leaf names are the identity that links
trees to the graphs computed from them, so every tree query that concerns
leaves speaks names, not ids.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

Edge = tuple[int, int]


def edge_key(u: int, v: int) -> Edge:
    """Normalize an unordered vertex pair to a canonical (min, max) tuple."""
    return (u, v) if u < v else (v, u)


class Walk(NamedTuple):
    """A depth-first walk of a tree (see :attr:`LabeledTree.walk`).

    Fields
    ------
    order      : the vertices in preorder, so every subtree is a run of it
    parent     : vertex -> its parent; the start vertex maps to None
    top        : vertex -> the highest vertex of its 0-component, the piece
                 of the tree around it left after deleting every 1-edge

    A tree with preorder ids gets its walk from :meth:`LabeledTree._walked`.
    The code that gives out the ids fills ``parent`` and the label above
    each vertex as it goes (``io._subtree`` for a parsed tree,
    ``synthesis._builder`` for a built one), and ``_walked`` derives
    ``top`` from them.  Such a walk has ``order = range(n)``, and
    ``parent`` and ``top`` are lists indexed by id; any other tree's walk
    (:func:`_walk`) holds dicts.  So a reader may only index ``parent``
    and ``top`` by a vertex id, never iterate them, test membership or
    call dict methods on them.
    """

    order: Sequence[int]
    parent: Mapping[int, int | None] | Sequence[int | None]
    top: Mapping[int, int] | Sequence[int]


def _walk(adjacency: Mapping[int, Mapping[int, int]], start: int) -> Walk:
    """The depth-first walk from *start* over *adjacency* (vertex ->
    {neighbour: edge label}).  Marking vertices as they are pushed ends it
    on any input; it reaches them all iff the tree is connected."""
    order: list[int] = []
    parent: dict[int, int | None] = {start: None}
    top = {start: start}
    stack = [start]
    while stack:
        v = stack.pop()
        order.append(v)
        for w, lab in adjacency[v].items():
            if w not in parent:
                parent[w] = v
                top[w] = w if lab else top[v]
                stack.append(w)
    return Walk(order, parent, top)


class _Frozen:
    """An immutable value named by the attributes in ``_fields``.

    Assignment and deletion raise, though a ``cached_property`` still
    fills its slot in the instance ``__dict__`` on first read.  Two values
    are equal when they are of the same class and have equal ``_key()``,
    by default the ``_fields`` values; the repr is ``Name(f=value, ...)``.
    A subclass that wants a hash defines ``__hash__``: defining ``__eq__``
    here leaves it unhashable otherwise.
    """

    _fields: tuple[str, ...]

    def _key(self) -> object:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__name__}({fields})"


class LabeledTree(_Frozen):
    """A tree with {0,1} edge labels, named leaves, and an optional root.

    Fields
    ------
    vertices    : all vertex ids (kept explicit so the single-vertex tree,
                  which has no edges, is representable)
    edge_labels : map from normalized (min, max) vertex pairs to 0 or 1
    leaf_names  : map from leaf vertex id to its unique name
    root        : a vertex id, or None for an unrooted tree

    Instances are immutable values (:class:`_Frozen`), though derived
    structure (adjacency, walk) is cached in the instance ``__dict__`` on
    first use.  Two trees are equal when they are of the same class and
    their four fields are equal; a tree defines no hash.  Use
    :func:`validate` to check the invariants of a tree assembled by hand.
    """

    vertices: frozenset[int]
    edge_labels: Mapping[Edge, int]
    leaf_names: Mapping[int, str]
    root: int | None
    _fields = ("vertices", "edge_labels", "leaf_names", "root")

    def __init__(self, vertices: frozenset[int], edge_labels: Mapping[Edge, int],
                 leaf_names: Mapping[int, str], root: int | None = None) -> None:
        self.__dict__.update(vertices=vertices, edge_labels=edge_labels, leaf_names=leaf_names, root=root)

    @staticmethod
    def build(
        edges: Iterable[tuple[int, int, int]],
        leaf_names: Mapping[int, str],
        root: int | None = None,
    ) -> "LabeledTree":
        """Assemble a tree from (u, v, label) triples; vertices are inferred."""
        labels: dict[Edge, int] = {}
        verts: set[int] = set()
        for u, v, lab in edges:
            labels[edge_key(u, v)] = lab
            verts.add(u)
            verts.add(v)
        verts.update(leaf_names)
        return LabeledTree(frozenset(verts), labels, dict(leaf_names), root)

    @staticmethod
    def _walked(edge_labels: dict[Edge, int], leaf_names: Mapping[int, str],
                parent: list[int | None], up: list[int]) -> "LabeledTree":
        """The tree rooted at 0 whose ids 0..n-1 run in preorder, with every
        edge keyed (parent, child), given each vertex's *parent* and the
        label *up* of the edge above it (the root's is never read); trusted,
        not validated.  Its walk is made here, so neither ``adjacency`` nor
        :func:`_walk` runs: ``top[v]`` is v below a 1-edge, else
        ``top[parent[v]]``."""
        n = len(parent)
        top = list(range(n))
        for v in range(1, n):
            if not up[v]:
                top[v] = top[parent[v]]
        tree = LabeledTree(frozenset(range(n)), edge_labels, leaf_names, 0)
        tree.__dict__["walk"] = Walk(range(n), parent, top)
        return tree

    @staticmethod
    def single(name: str) -> "LabeledTree":
        """The one-vertex tree (its only vertex is a leaf named *name*)."""
        return LabeledTree._walked({}, {0: name}, [None], [1])

    # -- derived structure -------------------------------------------------

    @cached_property
    def adjacency(self) -> dict[int, dict[int, int]]:
        """neighbor map: vertex -> {neighbor: edge label}."""
        adj: dict[int, dict[int, int]] = {v: {} for v in self.vertices}
        for (u, v), lab in self.edge_labels.items():
            adj[u][v] = lab
            adj[v][u] = lab
        return adj

    @cached_property
    def walk(self) -> Walk:
        """The one depth-first walk, from the root (else the smallest vertex),
        that every tree query reads (see :func:`_walk`)."""
        return _walk(self.adjacency, min(self.vertices) if self.root is None else self.root)

    @cached_property
    def name_to_leaf(self) -> dict[str, int]:
        return {name: v for v, name in self.leaf_names.items()}

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def label(self, u: int, v: int) -> int:
        return self.edge_labels[edge_key(u, v)]

    def is_leaf(self, v: int) -> bool:
        return v in self.leaf_names

    @property
    def leaf_name_set(self) -> frozenset[str]:
        return frozenset(self.leaf_names.values())


def validate(tree: LabeledTree) -> str | None:
    """Check every LabeledTree invariant.

    Returns None when the tree is valid, otherwise a description of the
    first violated invariant.  The checks run in a fixed order so the
    reported violation is deterministic.
    """
    if not tree.vertices:
        return "empty vertex set"
    for (u, v), lab in tree.edge_labels.items():
        if u == v:
            return f"self-loop at vertex {u}"
        if (u, v) != edge_key(u, v):
            return f"edge ({u}, {v}) is not normalized"
        if u not in tree.vertices or v not in tree.vertices:
            return f"edge ({u}, {v}) endpoint is not a vertex"
        if lab not in (0, 1):
            return f"edge label must be 0 or 1 (edge ({u}, {v}) has {lab!r})"
    if tree.root is not None and tree.root not in tree.vertices:
        return f"root {tree.root} is not a vertex"
    # connectivity, then acyclicity
    if len(tree.walk.order) != len(tree.vertices):
        return "not connected"
    if len(tree.edge_labels) != len(tree.vertices) - 1:
        return "contains a cycle"
    # leaf naming; a connected tree has a degree-0 vertex only when it is the only one
    for v in tree.vertices:
        if tree.degree(v) <= 1 and v not in tree.leaf_names:
            return f"unnamed leaf {v}"
    for v, name in tree.leaf_names.items():
        if v not in tree.vertices:
            return f"leaf name {name!r} on unknown vertex {v}"
        if tree.degree(v) > 1:
            return f"leaf name {name!r} on internal vertex {v}"
        if not name:
            return f"empty leaf name on vertex {v}"
    names = list(tree.leaf_names.values())
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        return f"duplicate leaf name {dup!r}"
    return None


def suppress_degree2(tree: LabeledTree) -> LabeledTree:
    """Remove every unnamed degree-2 vertex.

    Each maximal chain of degree-2 vertices is replaced by a single edge
    labeled with the OR of the replaced labels, so every leaf-to-leaf path
    keeps its label-OR.  The operation is idempotent.  If the root is one
    of the suppressed vertices the result is unrooted.

    Raises ValueError if a degree-2 vertex is named (suppressing it would
    delete a leaf).
    """
    for v in tree.vertices:
        if tree.degree(v) == 2 and tree.is_leaf(v):
            raise ValueError(f"cannot suppress leaf {tree.leaf_names[v]!r}")
    doomed = {v for v in tree.vertices if tree.degree(v) == 2}
    if not doomed:
        return tree
    # Walk from a survivor, so every other survivor climbs to a surviving
    # ancestor, and join each to the nearest one.
    survivors = tree.vertices - doomed
    root = tree.root if tree.root in survivors else None
    walk = _walk(tree.adjacency, min(survivors) if root is None else root)
    new_edges: dict[Edge, int] = {}
    for v in walk.order[1:]:
        if v in doomed:
            continue
        u = walk.parent[v]
        acc = tree.label(u, v)
        while u in doomed:
            acc |= tree.label(u, walk.parent[u])
            u = walk.parent[u]
        new_edges[edge_key(u, v)] = acc
    return LabeledTree(frozenset(survivors), new_edges, dict(tree.leaf_names), root)


def reroot(tree: LabeledTree, v: int) -> LabeledTree:
    """Return the same tree rooted at *v*.

    *v* must be a non-leaf vertex, except that trees with at most two
    vertices may be rooted anywhere.
    """
    if v not in tree.vertices:
        raise ValueError(f"root {v} is not a vertex")
    if len(tree.vertices) >= 3 and tree.is_leaf(v):
        raise ValueError("leaf root not allowed")
    return LabeledTree(tree.vertices, tree.edge_labels, tree.leaf_names, v)


def contract_edge(tree: LabeledTree, e: tuple[int, int]) -> LabeledTree:
    """Contract an inner edge, merging its endpoints.

    The merged vertex keeps the smaller of the two ids and inherits all
    other incident edges with their labels.  Contracting an edge incident
    to a leaf is refused: it would delete a vertex of the Fitch graph.
    """
    key = edge_key(*e)
    if key not in tree.edge_labels:
        raise ValueError(f"no edge {key} in tree")
    keep, gone = key
    if tree.is_leaf(keep) or tree.is_leaf(gone):
        raise ValueError("cannot contract leaf edge")
    labels: dict[Edge, int] = {}
    for (a, b), lab in tree.edge_labels.items():
        if (a, b) == key:
            continue
        if a == gone:
            a = keep
        if b == gone:
            b = keep
        labels[edge_key(a, b)] = lab
    root = tree.root
    if root == gone:
        root = keep
    return LabeledTree(tree.vertices - {gone}, labels, dict(tree.leaf_names), root)


def _leaf_vertex(tree: LabeledTree, name: str) -> int:
    try:
        return tree.name_to_leaf[name]
    except KeyError:
        raise ValueError(f"unknown leaf name {name!r}") from None


def path_label_or(tree: LabeledTree, x: str, y: str) -> int:
    """1 iff some edge on the unique path between leaves *x* and *y* is a 1-edge."""
    if x == y:
        raise ValueError("path_label_or requires two distinct leaves")
    top = tree.walk.top  # 0-components are subtrees: the path is all 0 iff the tops agree
    return int(top[_leaf_vertex(tree, x)] != top[_leaf_vertex(tree, y)])


def lca(tree: LabeledTree, x: str, y: str) -> int:
    """Least common ancestor of leaves *x* and *y* in a rooted tree."""
    if tree.root is None:
        raise ValueError("lca requires a rooted tree")
    a: int | None = _leaf_vertex(tree, x)
    b = _leaf_vertex(tree, y)
    parent = tree.walk.parent
    ancestors = set()
    while a is not None:
        ancestors.add(a)
        a = parent[a]
    while b not in ancestors:
        b = parent[b]
    return b


def restrict_leaves(tree: LabeledTree, names: Iterable[str]) -> LabeledTree:
    """Restrict the tree to a subset of its leaves.

    Leaves outside *names* are deleted with every vertex off the paths
    between kept leaves, and degree-2 vertices are suppressed.  Leaf-to-leaf
    path label ORs among the kept leaves are unchanged, which is what makes
    Fitch graphs a heritable family.
    """
    keep = set(names)
    unknown = keep - set(tree.leaf_names.values())
    if unknown:
        raise ValueError(f"unknown leaf name {sorted(unknown)[0]!r}")
    if not keep:
        raise ValueError("cannot restrict to an empty leaf set")
    leaf_names = {v: n for v, n in tree.leaf_names.items() if n in keep}
    walk = tree.walk
    below = {v: int(v in leaf_names) for v in walk.order}  # kept leaves below v
    for v in reversed(walk.order[1:]):
        below[walk.parent[v]] += below[v]
    # An edge stays iff kept leaves lie on both of its sides.
    labels: dict[Edge, int] = {}
    for v in walk.order[1:]:
        if 0 < below[v] < len(keep):
            labels[edge_key(v, walk.parent[v])] = tree.label(v, walk.parent[v])
    verts = {v for e in labels for v in e} or set(leaf_names)
    root = tree.root if tree.root in verts else None
    pruned = LabeledTree(frozenset(verts), labels, leaf_names, root)
    return suppress_degree2(pruned)
