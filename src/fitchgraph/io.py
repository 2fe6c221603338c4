"""Text formats: Newick with {0,1} labels, edge lists, and DOT export.

Newick carries the edge label of every non-root subtree in the
branch-length slot as a literal ``:0`` or ``:1``; anything else there is
rejected, not coerced.  Edge lists start with a ``vertices:`` line and
continue with one ``<name> <name>`` line per edge; ``#`` starts a comment.
All parsers raise :class:`ParseError` with a position on malformed input
and never anything else; serializers emit a canonical form (sorted, LF
line endings) so output is stable enough for golden files, and raise
ValueError on a name that their format's parser would not read back.

Newick is split into tokens (``( ) : , ;`` and the runs between them) in
one regular-expression pass; one recursive descent over the tokens builds
the tree, and offsets are recovered only for an error.  The descent takes
one call per nesting level, so input nested beyond Python's recursion
limit (about 1,000 levels) raises ``RecursionError``, a known defect.
"""

from __future__ import annotations

import re
from itertools import count, islice
from typing import Collection, Iterator

from .graphs import DirectedGraph, SimpleGraph
from .tree import Edge, LabeledTree, validate  # noqa: F401 (perfbench patches io.validate)

_TOKEN = re.compile(r"[():,;]|[^\s():,;]+")  # \s is exactly what str.isspace accepts
_LINE = re.compile(r"[^\r\n]+")  # a line's text, between LF, CR or CRLF ends
_NAME_STOP = {"(", ")", ":", ",", ";", ""}  # tokens that are not names; '' ends the input


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


def _check_names(names: Collection[str], stops: str) -> None:
    """Raise ValueError naming the first name, in sorted order, that is
    empty or holds whitespace or a character of *stops*: a name that its
    format cannot carry.  Clean names cost a few C-level scans."""
    text = "".join(names)
    if names and (not all(names) or text.split() != [text] or any(c in text for c in stops)):
        bad = min(x for x in names if x.split() != [x] or any(c in x for c in stops))
        raise ValueError(f"cannot write name {bad!r}: empty, or holds whitespace or one of {stops!r}")


# --------------------------------------------------------------------------
# Newick
# --------------------------------------------------------------------------


def _subtree(tokens: list[str], i: int, ids: Iterator[int], labels: dict[Edge, int],
             leaves: dict[str, int]) -> tuple[int, int, str | None]:
    """Read the subtree that starts at token *i*, giving ids in preorder.

    Returns the index after it, its vertex, and, for a group with one
    child, the name after its ``)`` ('' if none), else None: that name
    names the group only when the group is the root, a leaf of the tree.
    Raises ParseError with a token index as its position.
    """
    node = next(ids)
    if tokens[i] != "(":
        name = tokens[i]
        if name in _NAME_STOP:
            raise ParseError("expected a leaf name or '('", i)
        if name in leaves:
            raise ParseError(f"duplicate leaf name {name!r}", i)
        leaves[name] = node
        return i + 1, node, None
    children = 0
    while True:
        # a name after a group child's ')' names an inner vertex: ignored
        i, child, _ = _subtree(tokens, i + 1, ids, labels, leaves)
        if tokens[i] != ":":
            raise ParseError("missing edge label (expected ':0' or ':1')", i)
        label = tokens[i + 1]
        if label not in ("0", "1"):
            raise ParseError("edge label must be 0 or 1", i + 1)
        labels[node, child] = int(label)
        children += 1
        i += 2
        if tokens[i] != ",":
            break
    if tokens[i] != ")":
        raise ParseError("expected ',' or ')'", i)
    name = tokens[i + 1]
    if name in _NAME_STOP:
        return i + 1, node, "" if children == 1 else None
    return i + 2, node, name if children == 1 else None


def parse_newick(text: str) -> LabeledTree:
    """Parse a Newick string into a rooted tree (root = outermost node)."""
    text = _normalize(text)
    tokens = _TOKEN.findall(text)
    tokens.append("")  # end of input
    ids = count()
    labels: dict[Edge, int] = {}
    leaves: dict[str, int] = {}
    try:
        i, root, root_name = _subtree(tokens, 0, ids, labels, leaves)
        if tokens[i] != ";":
            raise ParseError("expected ';'", i)
        if tokens[i + 1]:
            raise ParseError("trailing characters after ';'", i + 1)
    except ParseError as exc:
        at = next(islice(_TOKEN.finditer(text), exc.pos, None), None)
        raise ParseError(exc.message, at.start() if at else len(text)) from None
    if root_name is not None:  # the root has one child, so it is a leaf
        if not root_name:
            raise ParseError("root with a single child needs a name", pos=0)
        if root_name in leaves:
            raise ParseError(f"duplicate leaf name {root_name!r}", pos=len(text))
        leaves[root_name] = root
    # Valid by construction, so validate() is not called: ids run 0..n-1
    # in preorder from the root, every edge is (parent, child) = (min, max)
    # with a 0/1 label, and every leaf carries a unique non-empty name.
    return LabeledTree._preorder(labels, {v: name for name, v in leaves.items()})


def serialize_newick(tree: LabeledTree) -> str:
    """Canonical Newick: children ordered by smallest descendant leaf name.

    Inner vertex names are omitted; an internal root is written as ``r``
    and a leaf root keeps its leaf name, so parsing the output reproduces
    the tree up to internal vertex ids.
    """
    if tree.root is None:
        raise ValueError("newick serialization requires a rooted tree")
    names, root, walk = tree.leaf_names, tree.root, tree.walk
    _check_names(names.values(), "(),:;")
    key = dict(names)  # smallest leaf name below each vertex, children first
    children: dict[int, list[int]] = {}
    for v in reversed(walk.order[1:]):
        p = walk.parent[v]
        children.setdefault(p, []).append(v)
        if p not in key or key[v] < key[p]:
            key[p] = key[v]
    # Pop a vertex to open it, a string to emit it; a childless one is a leaf.
    out: list[str] = []
    stack: list[int | str] = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif item not in children:
            out.append(names[item])
        else:
            out.append("(")
            stack.append(")")
            for i, w in enumerate(reversed(sorted(children[item], key=key.get))):
                if i:
                    stack.append(",")
                stack += [f":{tree.label(item, w)}", w]
    if root in children:
        out.append(names.get(root, "r"))
    return "".join(out) + ";"


# --------------------------------------------------------------------------
# Edge lists
# --------------------------------------------------------------------------


def looks_like_edgelist(text: str) -> bool:
    """Whether the first line of *text* holding more than blanks and a
    comment starts with ``vertices:``; reads no further than that line.
    Lines end at LF, CR or CRLF, as in :func:`parse_edgelist`."""
    for match in _LINE.finditer(text):
        line = match[0].split("#", 1)[0].strip()
        if line:
            return line.startswith("vertices:")
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


def _pair_lines(g: SimpleGraph | DirectedGraph) -> str:
    """The ``vertices:`` line, then one ``x y`` line per row entry."""
    names, rows = g._rows()
    _check_names(names, "#")
    lines = ["vertices: " + " ".join(names)]
    for x, ys in rows:
        if ys:
            head = x + " "
            lines.append(head + ("\n" + head).join(ys))
    lines.append("")  # the final line end, without copying the text again
    return "\n".join(lines)


def serialize_edgelist(g: SimpleGraph) -> str:
    """Edge-per-line rendering of a graph, each edge once as ``x y`` with x < y."""
    return _pair_lines(g)


def serialize_arclist(d: DirectedGraph) -> str:
    """Arc-per-line rendering of a digraph (same layout as edge lists)."""
    return _pair_lines(d)


# --------------------------------------------------------------------------
# DOT export
# --------------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(obj: SimpleGraph | DirectedGraph | LabeledTree) -> str:
    """Graphviz text for a graph, digraph, or labeled tree."""
    if isinstance(obj, (SimpleGraph, DirectedGraph)):
        directed = isinstance(obj, DirectedGraph)
        names, rows = obj._rows()
        quoted = {v: _dot_quote(v) for v in names}
        lines = ["digraph {" if directed else "graph {"]
        lines += [f"  {quoted[v]};" for v in names]
        for x, ys in rows:
            head = f"  {quoted[x]} {'->' if directed else '--'} "
            lines += [f"{head}{quoted[y]};" for y in ys]
        lines.append("}\n")
        return "\n".join(lines)
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
