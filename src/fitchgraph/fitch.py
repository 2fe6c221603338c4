"""Fitch graphs of edge-labeled trees.

The undirected Fitch graph of a tree joins two leaves whenever the path
between them crosses a 1-edge; the directed variant draws the arc (x, y)
whenever a 1-edge lies between lca(x, y) and y.  Ignoring arc directions
in the directed graph gives back the undirected one.

Neither graph needs a per-pair walk.  Deleting every 1-edge splits the
tree into 0-components; two leaves are non-adjacent exactly when they
share one, so the undirected graph is the complete multipartite graph on
the 0-components' leaf sets.  For the directed graph let top(y) be the
child end of the lowest 1-edge on the root-to-y path: (x, y) is an arc
exactly when top(y) exists and x is not below it.  One depth-first pass
lists the leaves so that every subtree's leaves form an interval, which
makes the arcs into y two slices of that list.  Both functions cost
O(vertices + output).
"""

from __future__ import annotations

from itertools import repeat

from .graphs import DirectedGraph, SimpleGraph, complete_multipartite
from .tree import LabeledTree


def zero_blocks(tree: LabeledTree) -> tuple[list[list[str]], set[int]]:
    """Leaf names of each 0-component that has a leaf, and all those components' vertices."""
    names = tree.leaf_names
    adjacency = tree.adjacency
    seen: set[int] = set()
    blocks = []
    for start in names:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        block = []
        while stack:
            v = stack.pop()
            if v in names:
                block.append(names[v])
            for w, lab in adjacency[v].items():
                if not lab and w not in seen:
                    seen.add(w)
                    stack.append(w)
        blocks.append(block)
    return blocks, seen


def undirected_fitch(tree: LabeledTree) -> SimpleGraph:
    """Graph on the leaf names with {x, y} an edge iff the x-y path has a 1-edge.

    Works on rooted and unrooted trees alike; the result does not depend on
    the root.  A single-leaf tree yields the one-vertex graph.
    """
    return complete_multipartite(zero_blocks(tree)[0])


def directed_fitch(tree: LabeledTree) -> DirectedGraph:
    """Digraph with arc (x, y) iff a 1-edge lies on the lca(x, y) .. y path."""
    if tree.root is None:
        raise ValueError("directed Fitch graph requires a root")
    names = tree.leaf_names
    adjacency = tree.adjacency
    order: list[str] = []  # leaf names in DFS order
    first: dict[int, int] = {}  # subtree of v holds the leaves order[first[v]:last[v]]
    last: dict[int, int] = {}
    targets: list[tuple[str, int]] = []  # (leaf y, top(y)) for every y with a top
    # Entries are (vertex, parent, top); (v, v, None) closes v's interval.
    stack: list[tuple[int, int | None, int | None]] = [(tree.root, None, None)]
    while stack:
        v, parent, top = stack.pop()
        if v == parent:
            last[v] = len(order)
            continue
        first[v] = len(order)
        if v in names:
            order.append(names[v])
            if top is not None:
                targets.append((names[v], top))
        stack.append((v, v, None))
        for w, lab in adjacency[v].items():
            if w != parent:
                stack.append((w, v, w if lab else top))
    arcs: set[tuple[str, str]] = set()
    for y, top in targets:
        arcs.update(zip(order[: first[top]], repeat(y)))
        arcs.update(zip(order[last[top] :], repeat(y)))
    return DirectedGraph(frozenset(names.values()), frozenset(arcs))


def underlying_undirected(d: DirectedGraph) -> SimpleGraph:
    """Forget arc directions."""
    edges = frozenset((x, y) if x < y else (y, x) for x, y in d.arcs)
    return SimpleGraph(d.vertices, edges)
