"""Text formats: Newick with {0,1} labels, edge lists, and DOT export.

Newick carries the edge label of every non-root subtree in the
branch-length slot as a literal ``:0`` or ``:1``; anything else there is
rejected, not coerced.  Edge lists start with a ``vertices:`` line and
continue with one ``<name> <name>`` line per edge; ``#`` starts a comment.
All parsers raise :class:`ParseError` with a position on malformed input
and never anything else; serializers emit a canonical form (sorted, LF
line endings) so output is stable enough for golden files.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress

from .graphs import DirectedGraph, SimpleGraph
from .tree import LabeledTree, validate

_NAME_STOP = set("():,;")


class ParseError(ValueError):
    """Malformed input, with the offset or line where parsing failed."""

    def __init__(self, message: str, pos: int | None = None, line: int | None = None):
        self.message = message
        self.pos = pos
        self.line = line
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif pos is not None:
            where = f" (at offset {pos})"
        super().__init__(message + where)


def _normalize(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


# --------------------------------------------------------------------------
# Newick
# --------------------------------------------------------------------------


class _NewickParser:
    """Recursive-descent parser; every path out is a tree or a ParseError."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.next_id = 0
        self.edges: list[tuple[int, int, int]] = []
        self.leaf_names: dict[int, str] = {}
        self.name_positions: dict[str, int] = {}

    def error(self, message: str) -> ParseError:
        return ParseError(message, pos=self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fresh(self) -> int:
        v = self.next_id
        self.next_id += 1
        return v

    def read_name(self) -> str:
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c in _NAME_STOP or c.isspace():
                break
            self.pos += 1
        return self.text[start:self.pos]

    def parse(self) -> LabeledTree:
        self.skip_ws()
        root, name = self.parse_node()
        self.skip_ws()
        if self.peek() != ";":
            raise self.error("expected ';'")
        self.pos += 1
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error("trailing characters after ';'")
        return self.finish(root, name)

    def parse_node(self) -> tuple[int, str]:
        """Returns (vertex id, trailing name); the name may be empty."""
        self.skip_ws()
        if self.peek() == "(":
            self.pos += 1
            node = self.fresh()
            while True:
                # a trailing name on a group child names a non-leaf node
                # (parent here plus its own children): ignored
                child, _ = self.parse_node()
                self.skip_ws()
                if self.peek() != ":":
                    raise self.error("missing edge label (expected ':0' or ':1')")
                self.pos += 1
                self.skip_ws()
                label_pos = self.pos
                label = self.read_name()
                if label not in ("0", "1"):
                    raise ParseError("edge label must be 0 or 1", pos=label_pos)
                self.edges.append((node, child, int(label)))
                self.skip_ws()
                if self.peek() == ",":
                    self.pos += 1
                    continue
                if self.peek() == ")":
                    self.pos += 1
                    break
                raise self.error("expected ',' or ')'")
            self.skip_ws()
            return node, self.read_name()
        name_pos = self.pos
        name = self.read_name()
        if not name:
            raise self.error("expected a leaf name or '('")
        node = self.fresh()
        self.register_name(node, name, name_pos)
        return node, ""

    def register_name(self, node: int, name: str, pos: int) -> None:
        if name in self.name_positions:
            raise ParseError(f"duplicate leaf name {name!r}", pos=pos)
        self.name_positions[name] = pos
        self.leaf_names[node] = name

    def finish(self, root: int, root_name: str) -> LabeledTree:
        degree: dict[int, int] = {v: 0 for v in range(self.next_id)}
        for u, v, _ in self.edges:
            degree[u] += 1
            degree[v] += 1
        if root_name and degree[root] <= 1:
            self.register_name(root, root_name, self.pos)
        for v, d in degree.items():
            # only the root can end up here: every other group node has
            # degree >= 2 and every bare token was named at parse time
            if d == 1 and v not in self.leaf_names:
                raise ParseError("root with a single child needs a name", pos=0)
        tree = LabeledTree.build(self.edges, self.leaf_names, root=root)
        problem = validate(tree)
        if problem is not None:
            raise ParseError(problem, pos=0)
        return tree


def parse_newick(text: str) -> LabeledTree:
    """Parse a Newick string into a rooted tree (root = outermost node)."""
    return _NewickParser(_normalize(text)).parse()


def serialize_newick(tree: LabeledTree) -> str:
    """Canonical Newick: children ordered by smallest descendant leaf name.

    Inner vertex names are omitted; an internal root is written as ``r``
    and a leaf root keeps its leaf name, so parsing the output reproduces
    the tree up to internal vertex ids.
    """
    if tree.root is None:
        raise ValueError("newick serialization requires a rooted tree")
    names, adjacency, root = tree.leaf_names, tree.adjacency, tree.root
    walk = tree.walk
    key = dict(names)  # smallest leaf name below each vertex, children first
    for v in reversed(walk.order[1:]):
        p = walk.parent[v]
        if p not in key or key[v] < key[p]:
            key[p] = key[v]
    # Pop a vertex to open it, a string to emit it.
    out: list[str] = []
    stack: list[int | str] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item in names and (item != root or not adjacency[item]):
            out.append(names[item])
        else:
            out.append("(")
            stack.append(")")
            parent = walk.parent[item]
            children = sorted((w for w in adjacency[item] if w != parent), key=key.get)
            for i, w in enumerate(reversed(children)):
                if i:
                    stack.append(",")
                stack += [f":{adjacency[item][w]}", w]
    if root not in names:
        out.append("r")
    elif adjacency[root]:
        out.append(names[root])
    return "".join(out) + ";"


# --------------------------------------------------------------------------
# Edge lists
# --------------------------------------------------------------------------


def looks_like_edgelist(text: str) -> bool:
    """Whether the first line of *text* holding more than blanks and a
    comment starts with ``vertices:``; reads no further than that line."""
    start, end = 0, len(text)
    while start < end:
        stop = text.find("\n", start)
        if stop < 0:
            stop = end
        line = text[start:stop].split("#", 1)[0].strip()
        if line:
            return line.startswith("vertices:")
        start = stop + 1
    return False


def parse_edgelist(text: str) -> SimpleGraph:
    """Parse the ``vertices:`` / edge-per-line format into a SimpleGraph.

    One pass over the lines; on malformed input the first bad line in
    line order is reported, with its 1-based number.
    """
    lines = _normalize(text).split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    for start, header in enumerate(lines):
        header = header.strip()
        if header:
            break
    else:
        raise ParseError("empty input (expected 'vertices:' header)", line=1)
    if not header.startswith("vertices:"):
        raise ParseError("expected 'vertices:' header line", line=start + 1)
    vertices = header[len("vertices:"):].split()
    adj: dict[str, set[str]] = {v: set() for v in vertices}
    if len(adj) != len(vertices):
        raise ParseError("duplicate vertex name", line=start + 1)
    # Each name maps to the header's own string and its neighbour set, so
    # the sets hold the header's names and each line's split strings die
    # with the line.
    entry = {v: (v, nbrs) for v, nbrs in adj.items()}
    for lineno, parts in enumerate(map(str.split, lines[start + 1:]), start + 2):
        try:
            x, y = parts
            (x, ax), (y, ay) = entry[x], entry[y]
        except ValueError:
            if not parts:
                continue
            raise ParseError("expected two endpoint names", line=lineno) from None
        except KeyError:
            unknown = x if x not in adj else y
            raise ParseError(f"unknown endpoint {unknown!r}", line=lineno) from None
        if x == y:
            raise ParseError(f"self-loop at {x!r}", line=lineno)
        if y in ax:
            raise ParseError(f"duplicate edge {x} {y}", line=lineno)
        ax.add(y)
        ay.add(x)
    del lines, entry  # free the lines, and entry's hold on the sets, before freezing
    return SimpleGraph._from_sets(frozenset(adj), adj)


def _sorted_sets(names: list[str], sets: dict[str, frozenset[str]]) -> list[tuple[str, list[str]]]:
    """Each of the sorted *names* with its set from *sets* as a sorted list.

    Vertices with equal sets share one list, built once: a set holding at
    least half the names is read off *names* in one pass, O(n) <= O(2|set|);
    a smaller one is sorted.
    """
    n = len(names)
    lists: dict[frozenset[str], list[str]] = {}
    out = []
    for x in names:
        nbrs = sets[x]
        ys = lists.get(nbrs)
        if ys is None:
            if 2 * len(nbrs) >= n:
                ys = list(compress(names, map(nbrs.__contains__, names)))
            else:
                ys = sorted(nbrs)
            lists[nbrs] = ys
        out.append((x, ys))
    return out


def _pair_lines(names: list[str], after: list[tuple[str, list[str]]]) -> str:
    """The ``vertices:`` line, then one ``x y`` line per pair."""
    lines = ["vertices: " + " ".join(names)]
    for x, ys in after:
        if ys:
            head = x + " "
            lines.append(head + ("\n" + head).join(ys))
    return "\n".join(lines) + "\n"


def serialize_edgelist(g: SimpleGraph) -> str:
    names = sorted(g.vertices)
    after = [(x, ys[bisect_right(ys, x):]) for x, ys in _sorted_sets(names, g.adjacency)]
    return _pair_lines(names, after)


def serialize_arclist(d: DirectedGraph) -> str:
    """Arc-per-line rendering of a digraph (same layout as edge lists)."""
    names = sorted(d.vertices)
    return _pair_lines(names, _sorted_sets(names, d.successors))


# --------------------------------------------------------------------------
# DOT export
# --------------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(obj: SimpleGraph | DirectedGraph | LabeledTree) -> str:
    """Graphviz text for a graph, digraph, or labeled tree."""
    if isinstance(obj, (SimpleGraph, DirectedGraph)):
        directed = isinstance(obj, DirectedGraph)
        names = sorted(obj.vertices)
        quoted = {v: _dot_quote(v) for v in names}
        lines = ["digraph {" if directed else "graph {"]
        lines += [f"  {quoted[v]};" for v in names]
        sets = obj.successors if directed else obj.adjacency
        for x, ys in _sorted_sets(names, sets):
            head = f"  {quoted[x]} {'->' if directed else '--'} "
            lines += [f"{head}{quoted[y]};" for y in (ys if directed else ys[bisect_right(ys, x):])]
        lines.append("}")
        return "\n".join(lines) + "\n"
    if isinstance(obj, LabeledTree):
        ids = {v: f"n{i}" for i, v in enumerate(sorted(obj.vertices))}
        lines = ["graph {"]
        for v in sorted(obj.vertices):
            label = obj.leaf_names.get(v, "")
            lines.append(f"  {ids[v]} [label={_dot_quote(label)}];")
        for (u, v), lab in sorted(obj.edge_labels.items()):
            lines.append(f"  {ids[u]} -- {ids[v]} [label={_dot_quote(str(lab))}];")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot render {type(obj).__name__} as DOT")
