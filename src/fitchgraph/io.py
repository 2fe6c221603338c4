"""Text formats: Newick with {0,1} labels, edge lists, and DOT export.

Newick carries the edge label of every non-root subtree in the
branch-length slot as a literal ``:0`` or ``:1``; anything else there is
rejected, not coerced.  Edge lists start with a ``vertices:`` line and
continue with one ``<name> <name>`` line per edge; ``#`` starts a comment.
All parsers raise :class:`ParseError` with a position on malformed input
and never anything else; serializers emit a canonical form (sorted, LF
line endings) so output is stable enough for golden files, and raise
ValueError on a name that their format's parser would not read back.

Newick is split into tokens (``( ) : , ;`` and the runs between them) by
padding each delimiter with spaces and one ``str.split``, and one
recursive descent over the tokens builds the tree.  The descent gives
out preorder ids and records each vertex's parent and the label of the
edge above it, from which ``LabeledTree._walked`` derives the
0-component tops, so a parsed tree carries its walk and its edges are
not walked again.  Only an error
recovers an offset, in the text with CR and CRLF made LF: only
whitespace lies between tokens, so each token before the failing one is
found where the one before it ended, and the failing one starts after
the whitespace that follows (at the end, for the end of input).  Whether
the root is a leaf (a group with one child) is decided once, after the
descent, from the last edge it stored.  The descent takes one call per
group and reads leaves in place, but still recurses once per nesting
level, so input nested beyond Python's recursion limit (about 1,000
groups) raises ``RecursionError``, a known defect.

An edge list is read in one pass that fills a neighbour list per vertex,
one dictionary lookup per edge end, and freezes the lists in place.  A
repeated edge is found by the degree sum (the frozen sets hold fewer
names than were appended), and only when the pass sees a fault does a
second, error-only walk over the text find the first bad line.
"""

from __future__ import annotations

import re
from typing import Collection, NoReturn

from .graphs import DirectedGraph, SimpleGraph
from .tree import Edge, LabeledTree, validate  # noqa: F401 (perfbench patches io.validate)

_LINE = re.compile(r"[^\r\n]+")  # a line's text, between LF, CR or CRLF ends
_DELIMITERS = "(),:;"  # Newick's one-character tokens, which no name may hold
_NAME_STOP = {*_DELIMITERS, ""}  # tokens that are not names; '' ends the input
_LABEL = {"0": 0, "1": 1}  # edge label token -> label; any other token is an error


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


def _tokens(text: str) -> list[str]:
    """Each of ``( ) : , ;``, and each run of the other characters that
    ``str.isspace`` rejects, in order."""
    for c in _DELIMITERS:
        text = text.replace(c, f" {c} ")
    return text.split()


def _subtree(tokens: list[str], i: int, parent: list[int | None], up: list[int],
             labels: dict[Edge, int], leaves: dict[str, int]) -> int:
    """Read the group whose ``(`` is token *i*, whose vertex is the last
    one given an id, and return the index after it.

    Each child gets the next preorder id by appending its parent to
    *parent* and a placeholder to *up*, which the child's edge label
    replaces once it is read.  A leaf child is read in place, and only a
    child group takes a call, so the descent makes one call per group and
    recurses once per nesting level.  Each edge label is looked up in
    ``_LABEL``.  A name after a group's ``)`` is skipped: it names an
    inner vertex, unless the group is a root with one child, which
    :func:`parse_newick` decides once the descent is over.  Raises
    ParseError with a token index as its position.
    """
    node = len(parent) - 1
    while True:
        i += 1
        name = tokens[i]
        child = len(parent)
        parent.append(node)
        up.append(1)
        if name == "(":
            i = _subtree(tokens, i, parent, up, labels, leaves)
        else:
            if name in _NAME_STOP:
                raise ParseError("expected a leaf name or '('", i)
            if name in leaves:
                raise ParseError(f"duplicate leaf name {name!r}", i)
            leaves[name] = child
            i += 1
        if tokens[i] != ":":
            raise ParseError("missing edge label (expected ':0' or ':1')", i)
        try:
            labels[node, child] = up[child] = _LABEL[tokens[i + 1]]
        except KeyError:
            raise ParseError("edge label must be 0 or 1", i + 1)
        i += 2
        if tokens[i] != ",":
            break
    if tokens[i] != ")":
        raise ParseError("expected ',' or ')'", i)
    return i + 1 + (tokens[i + 1] not in _NAME_STOP)


def parse_newick(text: str) -> LabeledTree:
    """Parse a Newick string into a rooted tree (root = outermost node)."""
    tokens = _tokens(text)
    tokens.append("")  # end of input
    labels: dict[Edge, int] = {}
    leaves: dict[str, int] = {}
    parent: list[int | None] = [None]
    up = [1]
    try:
        if tokens[0] == "(":
            i = _subtree(tokens, 0, parent, up, labels, leaves)
        elif tokens[0] in _NAME_STOP:
            raise ParseError("expected a leaf name or '('", 0)
        else:  # a bare leaf root
            leaves[tokens[0]] = 0
            i = 1
        if tokens[i] != ";":
            raise ParseError("expected ';'", i)
        if tokens[i + 1]:
            raise ParseError("trailing characters after ';'", i + 1)
    except ParseError as exc:
        text, end = _normalize(text), 0
        for token in tokens[:exc.pos]:
            end = text.index(token, end) + len(token)
        raise ParseError(exc.message, len(text) - len(text[end:].lstrip())) from None
    # The root 0 stores its edge to each child after that child's subtree,
    # so it has one child, and is a leaf, iff the last edge stored is (0, 1).
    if next(reversed(labels), None) == (0, 1):
        root_name = tokens[i - 1]  # the token before ';'
        if root_name == ")":
            raise ParseError("root with a single child needs a name", pos=0)
        if root_name in leaves:
            raise ParseError(f"duplicate leaf name {root_name!r}", pos=len(_normalize(text)))
        leaves[root_name] = 0
    # Valid by construction, so validate() is not called: ids run 0..n-1
    # in preorder from the root, every edge is (parent, child) = (min, max)
    # with a 0/1 label, and every leaf carries a unique non-empty name.
    return LabeledTree._walked(labels, {v: name for name, v in leaves.items()}, parent, up)


def serialize_newick(tree: LabeledTree) -> str:
    """Canonical Newick: children ordered by smallest descendant leaf name.

    Inner vertex names are omitted; an internal root is written as ``r``
    and a leaf root keeps its leaf name, so parsing the output reproduces
    the tree up to internal vertex ids.
    """
    if tree.root is None:
        raise ValueError("newick serialization requires a rooted tree")
    names, root, walk = tree.leaf_names, tree.root, tree.walk
    _check_names(names.values(), _DELIMITERS)
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


def _edge_lines(text: str) -> list[str]:
    """The lines of *text*, ended at LF, CR or CRLF, with comments cut off."""
    lines = _normalize(text).split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    return lines


def parse_edgelist(text: str) -> SimpleGraph:
    """Parse the ``vertices:`` / edge-per-line format into a SimpleGraph.

    Each edge line appends each end's name to the other end's neighbour
    list, after one lookup per end that also hands back the header's own
    name string, and the lists are frozen in place.  A repeated edge, in
    either orientation, shows only there: without one, the frozen sets'
    sizes sum to the number of appended ends, and with one the sum is
    smaller.  On any fault a second walk over *text* reports the first bad
    line in line order, with its 1-based number; valid input never pays
    for it.
    """
    lines = _edge_lines(text)
    for start, header in enumerate(lines):
        header = header.strip()
        if header:
            break
    else:
        raise ParseError("empty input (expected 'vertices:' header)", line=1)
    if not header.startswith("vertices:"):
        raise ParseError("expected 'vertices:' header line", line=start + 1)
    vertices = header[len("vertices:"):].split()
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    if len(adj) != len(vertices):
        raise ParseError("duplicate vertex name", line=start + 1)
    # Each name maps to the header's own string and its neighbour list, so
    # the lists hold the header's names and each line's split strings die
    # with the line.
    entry = {v: (v, nbrs) for v, nbrs in adj.items()}
    try:
        for x, y in filter(None, map(str.split, lines[start + 1:])):
            (x, ax), (y, ay) = entry[x], entry[y]
            if x is y:
                raise ValueError  # a self-loop, named by the walk below
            ax.append(y)
            ay.append(x)
    except (ValueError, KeyError):
        _raise_bad_line(text, start, adj)
    del lines, entry  # free the lines, and entry's hold on the lists, before freezing
    ends = sum(map(len, adj.values()))
    g = SimpleGraph._from_sets(frozenset(adj), adj)
    if sum(map(len, g.adjacency.values())) != ends:
        _raise_bad_line(text, start, adj)
    return g


def _raise_bad_line(text: str, start: int, names: Collection[str]) -> NoReturn:
    """Raise the ParseError of the first bad edge line of *text*, whose
    header, naming *names*, is line *start* + 1.  Called only once the
    parse has seen a fault, so one line is bad."""
    seen: set[tuple[str, str]] = set()
    for lineno, parts in enumerate(map(str.split, _edge_lines(text)[start + 1:]), start + 2):
        if not parts:
            continue
        if len(parts) != 2:
            raise ParseError("expected two endpoint names", line=lineno) from None
        x, y = parts
        if x not in names or y not in names:
            raise ParseError(f"unknown endpoint {x if x not in names else y!r}", line=lineno) from None
        if x == y:
            raise ParseError(f"self-loop at {x!r}", line=lineno) from None
        if (x, y) in seen:
            raise ParseError(f"duplicate edge {x} {y}", line=lineno) from None
        seen.update([(x, y), (y, x)])
    raise AssertionError("no bad edge line")


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
        lines = ["graph {"] + [f"  {n} [label={_dot_quote(obj.leaf_names.get(v, ''))}];" for v, n in ids.items()]
        for (u, v), lab in sorted(obj.edge_labels.items()):
            lines.append(f"  {ids[u]} -- {ids[v]} [label={_dot_quote(str(lab))}];")
        lines.append("}")
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot render {type(obj).__name__} as DOT")
