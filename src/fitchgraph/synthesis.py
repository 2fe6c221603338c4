"""Explaining trees for complete multipartite graphs.

Every complete multipartite graph is explained by a tree hung from its
partition in one pass: a root with one child per independent set and
1-labels exactly on the root's edges.  The pass gives out preorder ids
and records each vertex's parent and the label of the edge above it as
it goes; ``LabeledTree._walked`` derives each vertex's 0-component top
from those two lists, so the tree carries its walk from the start and
its edges are never walked again.  The canonical tree does this for
every set; the minimal tree hangs the first, and thus largest, set's
members from the root itself, which gives the minimum vertex count.  A
checker for the least-resolved property (no edge contraction preserves
the explained graph) completes the module.
"""

from __future__ import annotations

from typing import Union

# perfbench/tracing.py patches undirected_fitch and contract_edge through
# this module's namespace, and its install() reads vars(owner)[attr].
from .fitch import _blocks_explain, undirected_fitch, zero_blocks  # noqa: F401
from .graphs import SimpleGraph
from .recognition import ForbiddenWitness, Partition, recognize
from .tree import Edge, LabeledTree, contract_edge  # noqa: F401


def _builder(p: Partition, merge_first: bool) -> LabeledTree:
    """Hang *p*'s blocks from root 0, ids in preorder: a singleton on a
    1-edge, a larger block's members on 0-edges under an inner child on a
    1-edge.  *merge_first* hangs the first block's members on the root.
    Each vertex's parent and the label above it are recorded as its id is
    given out, so :meth:`LabeledTree._walked` makes the walk without a
    second pass over the edges."""
    if not p.blocks:
        raise ValueError("empty partition")
    if len(p.blocks) == 1 == len(p.blocks[0]):
        return LabeledTree.single(next(iter(p.blocks[0])))
    labels: dict[Edge, int] = {}
    names: dict[int, str] = {}
    parent: list[int | None] = [None]
    up = [1]
    for i, block in enumerate(p.blocks):
        members = sorted(block)
        if i == 0 and merge_first:
            hub, label = 0, 0
        elif len(members) == 1:
            hub, label = 0, 1
        else:
            hub, label = len(parent), 0
            labels[0, hub] = 1
            parent.append(0)
            up.append(1)
        for name in members:
            v = len(parent)
            labels[hub, v] = label
            names[v] = name
            parent.append(hub)
            up.append(label)
    return LabeledTree._walked(labels, names, parent, up)


def canonical_tree(p: Partition) -> LabeledTree:
    """The canonical explaining tree of a partition, rooted at its root.

    One block of n vertices gives the all-0 star on n leaves, rooted at
    the center (a single vertex when n = 1).  With k >= 2 blocks, the root
    gets one child per block: the block's lone vertex if it is a
    singleton, else an inner vertex whose children are the block's
    vertices.  Root edges are labeled 1, all others 0.  Raises ValueError
    on the empty partition.
    """
    return _builder(p, len(p.blocks) == 1)


def minimal_tree(p: Partition) -> LabeledTree:
    """An explaining tree with the minimum number of vertices.

    The canonical tree with the first, and thus largest, block's members
    hung on the root itself: one of the generally non-unique minimal trees
    (stars are already minimal).  Two total vertices admit no inner vertex
    at all, so they get a bare labeled edge: 0 within a block, 1 across.
    Raises ValueError on the empty partition.
    """
    if sum(map(len, p.blocks)) == 2:
        a, b = sorted(p.vertex_set)
        label = len(p.blocks) - 1
        return LabeledTree._walked({(0, 1): label}, {0: a, 1: b}, [None, 0], [1, label])
    return _builder(p, bool(p.blocks) and len(p.blocks[0]) > 1)


def is_least_resolved(tree: LabeledTree, g: SimpleGraph) -> bool:
    """True iff contracting any single inner edge stops the tree explaining *g*.

    Edges incident to leaves are not contractible (that would delete a
    vertex of the graph), so a tree without inner edges is vacuously
    least-resolved.  Contracting a 0-edge keeps every path's label OR; a
    1-edge joins two 0-components, changing the graph iff both hold a leaf.
    """
    leafy = zero_blocks(tree)
    if not _blocks_explain(leafy, tree, g):
        raise ValueError("tree does not explain graph")
    top, leaves = tree.walk.top, tree.leaf_names
    return all(
        lab and top[u] in leafy and top[v] in leafy
        for (u, v), lab in tree.edge_labels.items()
        if u not in leaves and v not in leaves
    )


def explain(g: SimpleGraph, mode: str = "canonical") -> Union[LabeledTree, ForbiddenWitness]:
    """An explaining tree for *g*, or the witness showing none exists."""
    if mode not in ("canonical", "minimal"):
        raise ValueError(f"unknown mode {mode!r}")
    result = recognize(g)
    if isinstance(result, ForbiddenWitness):
        return result
    return canonical_tree(result) if mode == "canonical" else minimal_tree(result)
