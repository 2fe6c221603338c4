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
multipartite graph on the 0-components' leaf sets, with one neighbour
set per block.  (x, y) is an arc exactly when x is not below top(y), so
every leaf of one 0-component has the same out-neighbours: the leaves
outside the components of its top and of the tops above it.  The
directed graph holds one successor set per 0-component: its parent
component's set less its own leaves.  Copying that parent set costs no
more than the component's arcs plus its leaves, so the whole digraph
costs O(tree + arcs).
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
    """Whether *g* is the undirected Fitch graph of *tree*, in O(tree + |E|).

    True iff *g* has the leaf names as vertices and each member of a block
    b has n - |b| neighbours, none of them in b.
    """
    if g.vertices != tree.leaf_name_set:
        return False
    adj, n = g.adjacency, len(g.vertices)
    for names in zero_blocks(tree).values():
        block, degree = frozenset(names), n - len(names)
        if any(len(adj[x]) != degree or not adj[x].isdisjoint(block) for x in names):
            return False
    return True


def directed_fitch(tree: LabeledTree) -> DirectedGraph:
    """Digraph with arc (x, y) iff a 1-edge lies on the lca(x, y) .. y path."""
    if tree.root is None:
        raise ValueError("directed Fitch graph requires a root")
    names, walk = tree.leaf_names, tree.walk
    top, parent = walk.top, walk.parent
    blocks = zero_blocks(tree)
    # out[t]: all leaves minus those in the components of t and of the tops
    # above it.  Parents come first in preorder; a leafless component
    # shares its parent component's set.
    root, leaves = tree.root, frozenset(names.values())
    out = {root: leaves.difference(blocks.get(root, ()))}
    for t in walk.order:
        if top[t] == t and t != root:
            above = out[top[parent[t]]]
            out[t] = above.difference(blocks[t]) if t in blocks else above
    return DirectedGraph._from_sets(leaves, {name: out[top[v]] for v, name in names.items()})


def underlying_undirected(d: DirectedGraph) -> SimpleGraph:
    """Forget arc directions."""
    edges = frozenset((x, y) if x < y else (y, x) for x, y in d.arcs)
    return SimpleGraph(d.vertices, edges)
