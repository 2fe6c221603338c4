"""Seeded inputs and output oracles for the fitchgraph benchmark.

Nothing here imports fitchgraph, so a change to the package can change
neither the inputs it is measured on nor the answers it is checked
against.  Every random choice flows from one ``random.Random(seed)``.

Trees are held as plain arrays: ``parent[v]`` (-1 at the root),
``label[v]`` (label of the edge from ``parent[v]`` to ``v``),
``children[v]`` and ``names`` (leaf vertex -> name).
"""

from __future__ import annotations

import hashlib
import random
import re
import string
from itertools import combinations

# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def make_names(rng: random.Random, n: int) -> list[str]:
    """n distinct random six-letter names (random sort order)."""
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < n:
        s = "".join(rng.choices(string.ascii_lowercase, k=6))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def skewed_sizes(lo: int, hi: int, count: int, power: float) -> list[int]:
    """*count* sizes from *hi* down to *lo*: evenly spaced quantiles of a
    density proportional to size**-power, so small inputs are common and
    the largest appears once."""
    a = 1.0 - power
    return [round((hi ** a + i / (count - 1) * (lo ** a - hi ** a)) ** (1 / a))
            for i in range(count)]


def uneven_sizes(n: int, k: int, least: int) -> list[int]:
    """k block sizes summing to n, each >= least, the spare split 1 : 2 : ... : k."""
    spare = n - k * least
    weight = k * (k + 1) // 2
    sizes = [least + spare * (i + 1) // weight for i in range(k)]
    sizes[-1] += n - sum(sizes)
    return sizes


def set_partitions(items: list[str]):
    """Every partition of *items*, by restricted growth strings."""
    n = len(items)
    if n == 0:
        yield []
        return
    code = [0] * n
    while True:
        blocks: list[list[str]] = [[] for _ in range(max(code) + 1)]
        for item, b in zip(items, code):
            blocks[b].append(item)
        yield blocks
        i = n - 1
        while i > 0 and code[i] > max(code[:i]):
            i -= 1
        if i == 0:
            return
        code[i] += 1
        code[i + 1:] = [0] * (n - i - 1)


def min_tree_size(sizes: list[int]) -> int:
    """Fewest vertices of a tree explaining the multipartite graph with these block sizes."""
    n, k = sum(sizes), len(sizes)
    nonsingle = sum(1 for s in sizes if s > 1)
    if n <= 2:
        return n
    if k == 1 or nonsingle == 0:
        return n + 1  # a star
    return n + nonsingle


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def planted_blocks(rng: random.Random, n: int, k: int, least: int) -> list[list[str]]:
    names = make_names(rng, n)
    blocks, start = [], 0
    for size in uneven_sizes(n, k, least):
        blocks.append(names[start:start + size])
        start += size
    return blocks


def cross_pairs(blocks: list[list[str]]) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    for i, bi in enumerate(blocks):
        for bj in blocks[i + 1:]:
            pairs.extend((x, y) for x in bi for y in bj)
    return pairs


def edgelist_text(rng: random.Random, blocks: list[list[str]]) -> str:
    """Edge-list file of the planted graph: vertex order, edge order and
    edge orientation all shuffled."""
    verts = [v for b in blocks for v in b]
    rng.shuffle(verts)
    pairs = cross_pairs(blocks)
    rng.shuffle(pairs)
    flips = rng.getrandbits(len(pairs)) if pairs else 0
    lines = ["vertices: " + " ".join(verts)]
    for i, (x, y) in enumerate(pairs):
        lines.append(f"{y} {x}" if flips >> i & 1 else f"{x} {y}")
    return "\n".join(lines) + "\n"


def blocks_line(blocks: list[list[str]]) -> str:
    """`recognize` output for a partition: largest block first, ties by smallest member."""
    ordered = sorted((sorted(b) for b in blocks), key=lambda b: (-len(b), b[0]))
    return "blocks: " + " ".join("{" + ",".join(b) + "}" for b in ordered) + "\n"


def minimal_tree_newick(rng: random.Random, blocks: list[list[str]]) -> str:
    """A least-resolved tree with the minimum vertex count for the blocks.

    One block with >= 2 members hangs off the root on 0-edges; every other
    such block sits below its own inner vertex on a 1-edge; singletons hang
    off the root on 1-edges.  Contracting any inner edge merges two blocks.
    """
    multi = [b for b in blocks if len(b) > 1]
    if len(blocks) == 1 or not multi:
        lab = 0 if len(blocks) == 1 else 1
        leaves = [f"{v}:{lab}" for b in blocks for v in b]
        rng.shuffle(leaves)
        return "(" + ",".join(leaves) + ")r;"
    at_root = rng.choice(multi)
    kids = [f"{v}:0" for v in at_root]
    for b in blocks:
        if b is at_root:
            continue
        if len(b) == 1:
            kids.append(f"{b[0]}:1")
        else:
            members = list(b)
            rng.shuffle(members)
            kids.append("(" + ",".join(f"{v}:0" for v in members) + "):1")
    rng.shuffle(kids)
    return "(" + ",".join(kids) + ")r;"


class NearMiss:
    """A planted multipartite graph with one edge removed or added.

    Adjacency is answered from the planted blocks and the changed pair, so
    checking a witness never needs the edge set itself.
    """

    def __init__(self, seed: int, n: int, k: int, removed: bool):
        rng = random.Random(seed)
        self.blocks = planted_blocks(rng, n, k, least=3)
        self.block_of = {v: i for i, b in enumerate(self.blocks) for v in b}
        self.names = [v for b in self.blocks for v in b]
        rng.shuffle(self.names)
        self.removed = removed
        if removed:
            # uniform over all cross-block pairs: pick block pair by weight
            i, j = self._weighted_block_pair(rng)
            pair = (rng.choice(self.blocks[i]), rng.choice(self.blocks[j]))
        else:
            sizes = [len(b) * (len(b) - 1) for b in self.blocks]
            b = self.blocks[rng.choices(range(k), weights=sizes)[0]]
            pair = tuple(rng.sample(b, 2))
        self.pair = pair
        self.changed = frozenset(pair)
        self.shuffle_seed = rng.getrandbits(64)

    def _weighted_block_pair(self, rng: random.Random) -> tuple[int, int]:
        pairs = list(combinations(range(len(self.blocks)), 2))
        weights = [len(self.blocks[i]) * len(self.blocks[j]) for i, j in pairs]
        return rng.choices(pairs, weights=weights)[0]

    def adjacent(self, x: str, y: str) -> bool:
        cross = self.block_of[x] != self.block_of[y]
        return cross != (frozenset((x, y)) == self.changed)

    def pairs(self) -> list[tuple[str, str]]:
        out = cross_pairs(self.blocks)
        if self.removed:
            out.remove(self.pair)  # cross_pairs orients pairs by block index, as chosen
        else:
            out.append(self.pair)
        random.Random(self.shuffle_seed).shuffle(out)
        return out

    @property
    def edge_count(self) -> int:
        n = len(self.names)
        full = (n * n - sum(len(b) ** 2 for b in self.blocks)) // 2
        return full - 1 if self.removed else full + 1

    @property
    def classes(self) -> int:
        """Neighbourhood classes: each changed endpoint leaves its block's class."""
        k = len(self.blocks)
        if not self.removed:
            return k + 2
        return k + sum(1 for v in self.changed if len(self.blocks[self.block_of[v]]) > 1)

    def witness_ok(self, isolated: str, pair: tuple[str, str]) -> bool:
        x, y = pair
        if len({isolated, x, y}) != 3 or any(v not in self.block_of for v in (isolated, x, y)):
            return False
        return (
            self.adjacent(x, y)
            and not self.adjacent(isolated, x)
            and not self.adjacent(isolated, y)
        )


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


class Tree:
    """Rooted tree on vertices 0..n-1 with labeled parent edges."""

    def __init__(self, parent: list[int], names: dict[int, str]):
        self.parent = parent
        self.names = names
        self.root = parent.index(-1)
        self.label = [0] * len(parent)
        self.children: list[list[int]] = [[] for _ in parent]
        for v, p in enumerate(parent):
            if p >= 0:
                self.children[p].append(v)

    def order(self) -> list[int]:
        """Vertices top-down (every parent before its children)."""
        out = [self.root]
        for v in out:
            out.extend(self.children[v])
        return out

    def newick(self, root_name: str = "r") -> str:
        parts: list[str] = []
        stack: list[tuple[bool, object]] = [(False, self.root)]
        while stack:
            is_text, item = stack.pop()
            if is_text:
                parts.append(item)
                continue
            kids = self.children[item]
            if not kids:
                parts.append(self.names[item])
                continue
            seq: list[tuple[bool, object]] = [(True, "(")]
            for i, c in enumerate(kids):
                if i:
                    seq.append((True, ","))
                seq += [(False, c), (True, f":{self.label[c]}")]
            seq.append((True, ")"))
            stack.extend(reversed(seq))
        parts.append(root_name + ";")
        return "".join(parts)


def random_binary(rng: random.Random, leaves: int, p_one: float) -> Tree:
    """Rooted binary tree by joining random pairs of subtrees."""
    parent = [-1] * (2 * leaves - 1)
    pool = list(range(leaves))
    nxt = leaves
    while len(pool) > 1:
        for _ in range(2):
            i = rng.randrange(len(pool))
            pool[i], pool[-1] = pool[-1], pool[i]
            parent[pool.pop()] = nxt
        pool.append(nxt)
        nxt += 1
    return _finish(rng, parent, leaves, p_one)


def caterpillar(rng: random.Random, leaves: int, p_one: float) -> Tree:
    """A spine with one leaf per spine vertex (two at the deep end)."""
    # leaves 0..L-1, spine L..2L-2; spine vertex L+i holds leaf i+1
    parent = [-1] * (2 * leaves - 1)
    parent[0] = leaves
    for i in range(leaves - 1):
        parent[i + 1] = leaves + i
        if i:
            parent[leaves + i - 1] = leaves + i
    return _finish(rng, parent, leaves, p_one)


def _finish(rng: random.Random, parent: list[int], leaves: int, p_one: float) -> Tree:
    """Name the leaves and label exactly round(p_one * #edges) random edges 1."""
    names = dict(enumerate(make_names(rng, leaves)))
    tree = Tree(parent, names)
    edges = [v for v in range(len(parent)) if parent[v] >= 0]
    for v in rng.sample(edges, round(p_one * len(edges))):
        tree.label[v] = 1
    for kids in tree.children:
        rng.shuffle(kids)
    return tree


def zero_components(tree: Tree) -> dict[str, int]:
    """Leaf name -> id of its 0-component (the tree minus every 1-edge)."""
    comp = [0] * len(tree.parent)
    fresh = 1
    for v in tree.order()[1:]:
        if tree.label[v]:
            comp[v] = fresh
            fresh += 1
        else:
            comp[v] = comp[tree.parent[v]]
    return {name: comp[v] for v, name in tree.names.items()}


def undirected_text(tree: Tree) -> str:
    """Expected `compute` output: an edge joins leaves in different 0-components."""
    comp = zero_components(tree)
    names = sorted(comp)
    lines = ["vertices: " + " ".join(names) + "\n"]
    for i, x in enumerate(names):
        cx = comp[x]
        lines.extend(f"{x} {y}\n" for y in names[i + 1:] if comp[y] != cx)
    return "".join(lines)


def directed_text(tree: Tree) -> str:
    """Expected `compute --directed` output.

    Arc (x, y) exists exactly when x lies outside the subtree below the
    lowest 1-edge on the root-to-y path; subtrees are leaf-order intervals.
    """
    order = tree.order()
    low = [-1] * len(tree.parent)
    for v in order[1:]:
        low[v] = v if tree.label[v] else low[tree.parent[v]]
    names = sorted(tree.names.values())
    rank = {name: i for i, name in enumerate(names)}
    # leaf intervals in a depth-first leaf order
    pos = [0] * len(tree.parent)
    lo = [0] * len(tree.parent)
    hi = [0] * len(tree.parent)
    leaf_order: list[int] = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        if not tree.children[v]:
            pos[v] = len(leaf_order)
            leaf_order.append(v)
        stack.extend(reversed(tree.children[v]))
    for v in reversed(order):
        kids = tree.children[v]
        if kids:
            lo[v] = min(lo[c] for c in kids)
            hi[v] = max(hi[c] for c in kids)
        else:
            lo[v] = hi[v] = pos[v]
    # for each target y: the interval of leaves that do not point at it
    blocked: list[tuple[int, int] | None] = [None] * len(names)
    for v, name in tree.names.items():
        w = low[v]
        blocked[rank[name]] = None if w < 0 else (lo[w], hi[w])
    leaf_pos = {name: pos[v] for v, name in tree.names.items()}
    targets = [(j, blocked[j]) for j in range(len(names)) if blocked[j] is not None]
    lines = ["vertices: " + " ".join(names) + "\n"]
    for x in names:
        px = leaf_pos[x]
        lines.extend(
            f"{x} {names[j]}\n" for j, (a, b) in targets if not a <= px <= b
        )
    return "".join(lines)


def canonical_newick(tree: Tree) -> str:
    """`serialize_newick` output: children ordered by smallest descendant leaf name."""
    smallest: dict[int, str] = {}
    for v in reversed(tree.order()):
        kids = tree.children[v]
        smallest[v] = min(smallest[c] for c in kids) if kids else tree.names[v]
    ordered = Tree(tree.parent, tree.names)
    ordered.label = tree.label
    ordered.children = [sorted(k, key=smallest.__getitem__) for k in tree.children]
    return ordered.newick("r")


# ---------------------------------------------------------------------------
# reading program output
# ---------------------------------------------------------------------------


def parse_newick(text: str) -> tuple[list[int], list[int], dict[int, str]]:
    """Iterative Newick reader for checking program output.

    Returns (parent, label, leaf names); raises ValueError on malformed text.
    """
    parent: list[int] = []
    label: list[int] = []
    names: dict[int, str] = {}
    open_nodes: list[int] = []
    last = -1
    tokens = re.findall(r"[(),:;]|[^(),:;\s]+", text)
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "(":
            parent.append(open_nodes[-1] if open_nodes else -1)
            label.append(0)
            open_nodes.append(len(parent) - 1)
        elif tok == ")":
            last = open_nodes.pop()
            if i + 1 < len(tokens) and tokens[i + 1] not in "(),:;":
                i += 1  # inner vertex name, ignored
        elif tok == ":":
            i += 1
            if tokens[i] not in ("0", "1"):
                raise ValueError("bad edge label")
            label[last] = int(tokens[i])
        elif tok == ",":
            pass
        elif tok == ";":
            if open_nodes or i != len(tokens) - 1:
                raise ValueError("unbalanced Newick")
        else:
            if not open_nodes:
                raise ValueError("leaf outside parentheses")
            parent.append(open_nodes[-1])
            label.append(0)
            last = len(parent) - 1
            names[last] = tok
        i += 1
    if not parent or tokens[-1] != ";":
        raise ValueError("missing ';'")
    return parent, label, names


def explains_minimally(newick: str, blocks: list[list[str]]) -> bool:
    """True iff the Newick tree's 0-components are the blocks and it has the minimum size."""
    parent, label, names = parse_newick(newick)
    tree = Tree(parent, names)
    tree.label = label
    if sorted(names.values()) != sorted(v for b in blocks for v in b):
        return False
    comp = zero_components(tree)
    got: dict[int, set[str]] = {}
    for name, c in comp.items():
        got.setdefault(c, set()).add(name)
    want = {frozenset(b) for b in blocks}
    return {frozenset(b) for b in got.values()} == want and len(parent) == min_tree_size(
        [len(b) for b in blocks]
    )


_DOT_NODE = re.compile(r'^  (n\d+) \[label="([^"\\]*)"\];$')
_DOT_EDGE = re.compile(r'^  (n\d+) -- (n\d+) \[label="([01])"\];$')


def dot_matches_tree(dot: str, tree: Tree) -> bool:
    """True iff the DOT text draws *tree* (up to vertex ids, without its root)."""
    lines = dot.split("\n")
    if lines[:1] != ["graph {"] or lines[-2:] != ["}", ""]:
        return False
    node_name: dict[str, str] = {}
    adj: dict[str, list[tuple[str, int]]] = {}
    for line in lines[1:-2]:
        m = _DOT_NODE.match(line)
        if m:
            node_name[m.group(1)] = m.group(2)
            adj[m.group(1)] = []
            continue
        m = _DOT_EDGE.match(line)
        if not m or m.group(1) not in adj or m.group(2) not in adj:
            return False
        a, b, lab = m.group(1), m.group(2), int(m.group(3))
        adj[a].append((b, lab))
        adj[b].append((a, lab))
    leaves = {v: name for v, name in node_name.items() if len(adj[v]) <= 1}
    if sorted(leaves.values()) != sorted(tree.names.values()):
        return False
    if any(name for v, name in node_name.items() if v not in leaves):
        return False
    if sum(len(a) for a in adj.values()) != 2 * (len(adj) - 1):
        return False
    mine: dict[int, list[tuple[int, int]]] = {v: [] for v in range(len(tree.parent))}
    for v, p in enumerate(tree.parent):
        if p >= 0:
            mine[v].append((p, tree.label[v]))
            mine[p].append((v, tree.label[v]))
    start_name = min(tree.names.values())
    start_mine = next(v for v, n in tree.names.items() if n == start_name)
    start_theirs = next(v for v, n in leaves.items() if n == start_name)
    intern: dict[tuple, int] = {}
    a = _shape_id(mine, tree.names, start_mine, intern)
    b = _shape_id(adj, leaves, start_theirs, intern)
    return a is not None and a == b


def _shape_id(adj: dict, names: dict, start, intern: dict[tuple, int]) -> int | None:
    """Canonical id of a tree hung from *start* (ids shared through *intern*).

    Returns None when *adj* is not connected from *start*.
    """
    parent = {start: None}
    order = [start]
    for v in order:
        for w, _ in adj[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    if len(order) != len(adj):
        return None
    ident: dict = {}
    for v in reversed(order):
        kids = sorted((lab, ident[w]) for w, lab in adj[v] if w != parent[v])
        key = (names.get(v, ""), tuple(kids))
        ident[v] = intern.setdefault(key, len(intern))
    return ident[start]


# ---------------------------------------------------------------------------
# census expectations
# ---------------------------------------------------------------------------

# Unrooted trees with all inner degrees >= 3 on n labeled leaves, and the
# number of their {0,1} labelings: n = 4 has the star (4 edges) and 3
# quartets (5 edges); n = 5 has the star (5), 10 one-split trees (6) and
# 15 binary trees (7 edges).
TOPOLOGIES = {2: 1, 3: 1, 4: 4, 5: 26}
LABELINGS = {2: 2, 3: 8, 4: 16 + 3 * 32, 5: 32 + 10 * 64 + 15 * 128}
BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def graph_line(blocks: list[list[str]]) -> str:
    edges = sorted((min(x, y), max(x, y)) for x, y in cross_pairs(blocks))
    return " ".join(f"{x}--{y}" for x, y in edges) if edges else "(edgeless)"


def census_report(n: int) -> str:
    """Expected `enumerate n --report` output."""
    names = list(string.ascii_lowercase[:n])
    graphs = sorted(graph_line(p) for p in set_partitions(names))
    lines = [
        f"leaves: {n}",
        f"topologies: {TOPOLOGIES[n]}",
        f"labelings: {LABELINGS[n]}",
        f"realizable: {BELL[n]}",
        f"expected: {BELL[n]}",
        "verdict: PASS",
        "graphs:",
    ] + [f"  {g}" for g in graphs]
    return "\n".join(lines) + "\n"
