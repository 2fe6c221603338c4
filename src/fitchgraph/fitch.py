"""Fitch graphs of edge-labeled trees.

The undirected Fitch graph of a tree joins two leaves whenever the path
between them crosses a 1-edge; the directed variant draws the arc (x, y)
whenever a 1-edge lies between lca(x, y) and y.  Ignoring arc directions
in the directed graph gives back the undirected one.

Neither graph needs a per-pair walk.  Both read the tree's one rooted
walk, :attr:`fitchgraph.tree.LabeledTree.walk`, which names the
0-component of each vertex (what is left around it once every 1-edge is
deleted) by its highest vertex, top(v).  Two leaves are non-adjacent
exactly when they share a top, so the undirected graph is the complete
multipartite graph on the 0-components' leaf sets.  (x, y) is an arc
exactly when x is not below top(y), so every leaf of one 0-component has
the same out-neighbours: its parent component's out-neighbours less its
own leaves.  Each graph is held as a chain of 0-components (see
:mod:`fitchgraph.graphs`), in O(tree), with no neighbour or successor set
built until something reads one.  Parsed and synthesized trees carry
their walk from construction, so neither graph builds the tree's
adjacency for them.
"""

from __future__ import annotations

from .graphs import DirectedGraph, SimpleGraph, complete_multipartite
from .tree import LabeledTree


def zero_blocks(tree: LabeledTree) -> dict[int, list[str]]:
    """Leaf names of each 0-component that holds a leaf, keyed by its top."""
    top = tree.walk.top
    blocks: dict[int, list[str]] = {}
    for v, name in tree.leaf_names.items():
        blocks.setdefault(top[v], []).append(name)
    return blocks


def undirected_fitch(tree: LabeledTree) -> SimpleGraph:
    """Graph on the leaf names with {x, y} an edge iff the x-y path has a 1-edge.

    Works on rooted and unrooted trees alike; the result does not depend on
    the root.  A single-leaf tree yields the one-vertex graph.
    """
    return complete_multipartite(zero_blocks(tree).values())


def explains(tree: LabeledTree, g: SimpleGraph) -> bool:
    """Whether *g* is the undirected Fitch graph of *tree*.

    True iff *g* has the leaf names as vertices and each member of a block
    b of :func:`zero_blocks` has n - |b| neighbours, none of them in b.
    Since no vertex is its own neighbour, that holds iff the block's first
    member has n - |b| neighbours and every other member has the same
    set, which is the same object in every graph this package builds,
    parses or computes.  So once *g*'s neighbour sets exist the check is
    O(tree), and O(tree + |E|) when equal sets are distinct objects.
    It runs on the blocks alone (:func:`_blocks_explain`), so a caller
    that needs the blocks too, such as
    :func:`fitchgraph.synthesis.is_least_resolved`, computes them once.
    """
    return _blocks_explain(zero_blocks(tree), tree, g)


def _blocks_explain(blocks: dict[int, list[str]], tree: LabeledTree, g: SimpleGraph) -> bool:
    """:func:`explains` on *tree*'s already computed :func:`zero_blocks`."""
    if g.vertices != tree.leaf_name_set:
        return False
    adj, n = g.adjacency, len(g.vertices)
    for names in blocks.values():
        first = adj[names[0]]
        if len(first) != n - len(names):
            return False
        for x in names:
            nbrs = adj[x]
            if nbrs is not first and nbrs != first:
                return False
    return True


def directed_fitch(tree: LabeledTree) -> DirectedGraph:
    """Digraph with arc (x, y) iff a 1-edge lies on the lca(x, y) .. y path.

    Held as the chain of 0-components in preorder, each with the top of
    its parent component (None at the root) and its leaves.
    """
    if tree.root is None:
        raise ValueError("directed Fitch graph requires a root")
    walk = tree.walk
    top, parent = walk.top, walk.parent
    blocks = zero_blocks(tree)
    chain = []
    for t in walk.order:
        if top[t] == t:
            up = parent[t]
            chain.append((t, None if up is None else top[up], blocks.get(t, ())))
    return DirectedGraph._from_chain(tree.leaf_name_set, tuple(chain))


def underlying_undirected(d: DirectedGraph) -> SimpleGraph:
    """Forget arc directions: each neighbour set is successors | predecessors.

    The predecessors come from one inversion that reads each distinct
    successor set once; a Fitch digraph has one per 0-component.
    """
    succ = d.successors
    tails: dict[frozenset[str], list[str]] = {}
    for x, ys in succ.items():
        tails.setdefault(ys, []).append(x)
    pred: dict[str, list[str]] = {v: [] for v in d.vertices}
    for ys, xs in tails.items():
        for y in ys:
            pred[y] += xs
    return SimpleGraph._from_sets(d.vertices, {v: succ[v].union(pred[v]) for v in d.vertices})
