"""Complete multipartite recognition with certificates.

A graph is an undirected Fitch graph exactly when it is complete
multipartite, i.e. when no three vertices induce an isolated vertex plus
an edge.  :func:`recognize` decides this (in linear time when it accepts)
and returns either the partition into maximal independent sets or the
smallest three-vertex witness of failure.  :func:`recognize_bruteforce`
reaches the same verdict by evaluating the forbidden-triple predicate
over all triples (through boolean matrix arithmetic), and serves as the
independent oracle for the fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .graphs import SimpleGraph, disjoint_blocks


@dataclass(frozen=True)
class Partition:
    """Disjoint vertex blocks in canonical order.

    Canonical order is by decreasing block size, ties broken by the
    lexicographically smallest member.  Build through :meth:`canonical`
    so equality between partitions is plain tuple equality.
    """

    blocks: tuple[frozenset[str], ...]

    @staticmethod
    def canonical(blocks: Iterable[Iterable[str]]) -> "Partition":
        frozen, _ = disjoint_blocks(blocks)
        frozen.sort(key=lambda b: (-len(b), min(b)))
        return Partition(tuple(frozen))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @property
    def vertex_set(self) -> frozenset[str]:
        out: set[str] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)


@dataclass(frozen=True)
class ForbiddenWitness:
    """Three vertices inducing an isolated vertex plus an edge.

    *pair* is an edge of the witnessed graph and *isolated* is adjacent to
    neither endpoint, so the triple certifies that the graph is not
    complete multipartite.
    """

    isolated: str
    pair: tuple[str, str]

    @staticmethod
    def make(isolated: str, x: str, y: str) -> "ForbiddenWitness":
        return ForbiddenWitness(isolated, (x, y) if x < y else (y, x))


RecognitionResult = Union[Partition, ForbiddenWitness]


def recognize(g: SimpleGraph) -> RecognitionResult:
    """Decide whether *g* is complete multipartite.

    Vertices are grouped by their exact neighborhoods (two vertices of a
    complete multipartite graph lie in the same part iff their
    neighborhoods coincide; adjacent vertices can never share one, since a
    shared neighborhood would make them self-adjacent).  Grouping keys are
    the neighborhood sets themselves, so hash collisions fall back to set
    equality and the grouping is exact.  All within-group pairs are
    therefore non-edges, and *g* is complete multipartite iff the edge
    count reaches the cross-group maximum sum(n_i * n_j).

    On failure returns the lexicographically smallest witness triple.
    Acceptance runs in O(|V| + |E|) expected time.  Rejection visits the k
    classes by smallest member.  A visit finds the classes inside
    N(P) - N(C), for the failing class P before it, in O(min(k, |N(P)|)),
    which sums to O(|V| + |E|) over all visits, and tests each of them in
    O(its degree) (see :func:`_class_witness`).  Failing classes are
    pairwise joined (a class C not joined to a failing P has N(C) inside
    N(P), so some neighbor of P lies outside N(C) and C passes), so there
    are O(sqrt(|E|)) visits, and with the sort and the pair search
    O(|V| log |V| + (|V| + |E|) sqrt(|E|)) is the proven worst case, and
    O(|V| log |V| + |E|) after adding or removing one edge of a complete
    multipartite graph.  A class can be tested at more than one visit, so
    no linear bound is proven in general; on generated threshold and nested
    split graphs the work measured stayed within a small multiple of
    |V| + |E|.
    """
    if not g.vertices:
        raise ValueError("empty graph")
    adj = g.adjacency
    groups: dict[frozenset[str], list[str]] = {}
    for v, nbrs in adj.items():
        groups.setdefault(nbrs, []).append(v)
    # Twice |E| (the degree sum) against twice the cross-group pairs.
    n = len(adj)
    if sum(map(len, adj.values())) == n * n - sum(len(b) * len(b) for b in groups.values()):
        return Partition.canonical(groups.values())
    return _class_witness(g, groups)


def _class_witness(g: SimpleGraph, groups: dict[frozenset[str], list[str]]) -> ForbiddenWitness:
    """Lexicographically smallest (isolated, pair) triple inducing K1+K2.

    Vertex i can be the isolated vertex iff some non-neighbor has a
    neighbor outside N(i), which holds for all of i's class or none, so the
    first passing class by smallest member holds the answer.  A class C
    fails exactly when V - N(C) is independent.  After a failing class P,
    V - N(P) is independent, so every edge inside V - N(C) has an end in
    N(P) - N(C), and only those ends are tested.  Neighborhoods are unions
    of classes, so each class there is tested once, through its smallest
    member; C's own neighborhood passes trivially.
    """
    adj = g.adjacency
    classes = sorted([(min(members), nbrs) for nbrs, members in groups.items()])
    nbrs_of = dict(classes)
    reps = frozenset(nbrs_of)
    prev = g.vertices  # so the first class is tested against all of V - N(C)
    for i, nbrs in classes:
        # The smallest members in N(P) - N(C).  `&` stores every shared
        # member and `-` only the survivors, so walk the representatives
        # only while they are fewer than N(P), and otherwise subtract first.
        ends = (reps & prev) - nbrs if len(reps) < len(prev) else (prev - nbrs) & reps
        if not all(map(nbrs.issuperset, [nbrs_of[d] for d in ends if d != i])):
            break
        prev = nbrs
    # The first j with a neighbor outside N(i) is the smaller end of the
    # smallest pair, as a smaller such neighbor would come first; i has none.
    for j in sorted(g.vertices - nbrs):
        ks = adj[j] - nbrs
        if ks:
            return ForbiddenWitness.make(i, j, min(ks))
    raise AssertionError("witness search on a complete multipartite graph")


def recognize_bruteforce(g: SimpleGraph) -> RecognitionResult:
    """Same verdict as :func:`recognize`, by exhaustive triple evaluation.

    For every vertex a, counts the edges among the non-neighbors of a; any
    such edge completes a forbidden triple.  The count for all vertices at
    once is the diagonal of M A M^T for adjacency matrix A and non-adjacency
    matrix M.  Acceptance additionally re-verifies the multipartite
    structure of the derived partition directly against A.
    """
    import numpy as np  # only this oracle needs it; importing fitchgraph stays cheap

    if not g.vertices:
        raise ValueError("empty graph")
    names = sorted(g.vertices)
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    # float64 lets numpy multiply through BLAS; every count is at most
    # n^2 < 2^53, so the arithmetic stays exact.
    adj = np.zeros((n, n))
    for x, y in g.edges:
        i, j = index[x], index[y]
        adj[i, j] = 1
        adj[j, i] = 1
    non = 1 - adj - np.eye(n)
    bad_counts = ((non @ adj) * non).sum(axis=1)
    if bad_counts.any():
        a = int(np.argmax(bad_counts > 0))
        others = np.flatnonzero(non[a])
        sub = adj[np.ix_(others, others)]
        j, k = np.argwhere(np.triu(sub, 1))[0]
        return ForbiddenWitness.make(names[a], names[others[j]], names[others[k]])
    _, inverse = np.unique(adj, axis=0, return_inverse=True)
    part = inverse.ravel()
    blocks: dict[int, list[str]] = {}
    for i, name in enumerate(names):
        blocks.setdefault(int(part[i]), []).append(name)
    # Self-check: identical-row grouping must reproduce A exactly.
    expected = (part[:, None] != part[None, :]).astype(np.int64)
    if not np.array_equal(adj, expected):
        raise AssertionError("triple scan accepted a non-multipartite graph")
    return Partition.canonical(blocks.values())
