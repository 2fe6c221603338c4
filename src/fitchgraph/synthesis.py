"""Explaining trees for complete multipartite graphs.

Every complete multipartite graph is explained by a canonical tree: a root
whose i-th child covers the i-th independent set, with 1-labels exactly on
the root's edges (all labels 0 in the one-part case, where the tree is a
star).  Contracting one root edge to a non-leaf child yields a tree with
the minimum possible vertex count; both constructions are provided, along
with a checker for the least-resolved property (no edge contraction
preserves the explained graph).
"""

from __future__ import annotations

from typing import Union

# perfbench/tracing.py wraps undirected_fitch through this module's namespace.
from .fitch import explains, undirected_fitch, zero_blocks  # noqa: F401
from .graphs import SimpleGraph
from .recognition import ForbiddenWitness, Partition, recognize
from .tree import LabeledTree, contract_edge


def canonical_tree(p: Partition) -> LabeledTree:
    """The canonical explaining tree of a partition, rooted at its root.

    One block of n vertices gives the all-0 star on n leaves, rooted at
    the center (a single vertex when n = 1).  With k >= 2 blocks, the root
    gets one child per block: the block's lone vertex if it is a
    singleton, else an inner vertex whose children are the block's
    vertices.  Root edges are labeled 1, all others 0.
    """
    blocks = [sorted(b) for b in p.blocks]
    k = len(blocks)
    if k == 1:
        members = blocks[0]
        if len(members) == 1:
            return LabeledTree.single(members[0])
        root = 0
        edges = [(root, i + 1, 0) for i in range(len(members))]
        names = {i + 1: name for i, name in enumerate(members)}
        return LabeledTree.build(edges, names, root=root)
    root = 0
    next_id = 1
    edges: list[tuple[int, int, int]] = []
    names: dict[int, str] = {}
    for members in blocks:
        child = next_id
        next_id += 1
        edges.append((root, child, 1))
        if len(members) == 1:
            names[child] = members[0]
        else:
            for name in members:
                leaf = next_id
                next_id += 1
                edges.append((child, leaf, 0))
                names[leaf] = name
    return LabeledTree.build(edges, names, root=root)


def minimal_tree(p: Partition) -> LabeledTree:
    """An explaining tree with the minimum number of vertices.

    Stars on >= 3 leaves are already minimum.  Otherwise one of the root's
    1-edges to a non-leaf child can be contracted without changing the
    Fitch graph; the child of the largest block (first in canonical order)
    is chosen, fixing one of the generally non-unique minimal trees.  Two
    total vertices admit no inner vertex at all, so those partitions get a
    bare labeled edge: 0 within a block, 1 across.
    """
    blocks = [sorted(b) for b in p.blocks]
    total = sum(len(b) for b in blocks)
    if total == 1:
        return canonical_tree(p)
    if total == 2:
        label = 0 if len(blocks) == 1 else 1
        a, b = sorted(n for block in blocks for n in block)
        return LabeledTree.build([(0, 1, label)], {0: a, 1: b}, root=0)
    if len(blocks) == 1 or all(len(b) == 1 for b in blocks):
        return canonical_tree(p)
    tree = canonical_tree(p)
    # Root is vertex 0 and the first block's child is vertex 1, an inner
    # vertex because canonical order puts a block of size >= 2 first.
    return contract_edge(tree, (0, 1))


def is_least_resolved(tree: LabeledTree, g: SimpleGraph) -> bool:
    """True iff contracting any single inner edge stops the tree explaining *g*.

    Edges incident to leaves are not contractible (that would delete a
    vertex of the graph), so a tree without inner edges is vacuously
    least-resolved.  Contracting a 0-edge keeps every path's label OR; a
    1-edge joins two 0-components, changing the graph iff both hold a leaf.
    """
    if not explains(tree, g):
        raise ValueError("tree does not explain graph")
    leafy, top = zero_blocks(tree), tree.walk.top
    return all(
        tree.edge_labels[e] and top[e[0]] in leafy and top[e[1]] in leafy
        for e in tree.inner_edges()
    )


def explain(g: SimpleGraph, mode: str = "canonical") -> Union[LabeledTree, ForbiddenWitness]:
    """An explaining tree for *g*, or the witness showing none exists."""
    if mode not in ("canonical", "minimal"):
        raise ValueError(f"unknown mode {mode!r}")
    result = recognize(g)
    if isinstance(result, ForbiddenWitness):
        return result
    return canonical_tree(result) if mode == "canonical" else minimal_tree(result)
