"""Hypothesis properties of edge-list and Newick parsing and serialization."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fitchgraph.enumeration import graph_line
from fitchgraph.fitch import directed_fitch, underlying_undirected, undirected_fitch
from fitchgraph.graphs import DirectedGraph, SimpleGraph, complete_multipartite
from fitchgraph.io import (
    ParseError,
    _normalize,
    _tokens,
    parse_edgelist,
    parse_newick,
    serialize_arclist,
    serialize_edgelist,
    serialize_newick,
    to_dot,
)
from fitchgraph.tree import LabeledTree, validate

from conftest import caterpillar, directed_fitch_bruteforce, edgelist_oracle, random_tree


def names_without(stop):
    """Names with no character of *stop* and none that str.isspace accepts:
    the space separators (Zs, Zl, Zp) and the listed control characters."""
    return st.text(
        st.characters(
            blacklist_categories=("Cs", "Zs", "Zl", "Zp"),
            blacklist_characters=stop + "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85",
        ),
        min_size=1,
        max_size=4,
    )


NAMES = names_without("#")
NEWICK_NAMES = names_without("():,;")
# Names with the delimiters of both formats, whitespace, and the empty name.
ANY_NAMES = st.text(st.sampled_from(list("ab():,;# \t\r\n\x1c\u2003")), max_size=3)
EDGELIST_TOKENS = ["a", "b", "c", "vertices:", "#", " ", "\t", "\r", "\n", "\x0b"]
NEWICK_TOKENS = ["(", ")", ":", ",", ";", "0", "1", "a", "b", "r", ":0", ":1",
                 " ", "\t", "\r", "\n", "\x0b", "\u2003"]
# Delimiters, name characters, line ends, other whitespace (tab, U+001C,
# U+001F, U+0085, U+00A0, U+3000), and NUL, U+200B and U+FEFF, which are
# not whitespace.
TOKENIZER_PIECES = ["(", ")", ":", ",", ";", "0", "1", "a", "b", "\r", "\r\n", "\t", "\x00",
                    "\x85", "\xa0", "\u200b", "\u3000", "\ufeff", "\x1c", "\x1f"]
# A leaf is (), a group the tuple of its (child, edge label) pairs.
SHAPES = st.recursive(
    st.just(()),
    lambda kids: st.lists(st.tuples(kids, st.integers(0, 1)), min_size=1, max_size=4).map(tuple),
    max_leaves=40,
)


@st.composite
def named_graphs(draw, name=NAMES):
    names = draw(st.lists(name, unique=True, max_size=8))
    pairs = list(combinations(names, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SimpleGraph.build(names, edges)


@st.composite
def faulty_edgelists(draw):
    """A serialized graph with one to three changes, each a comment after
    a line's text or a line inserted after the header: a repeated edge in
    either orientation, a self-loop, an unknown name, one or three names,
    a blank line or a comment.  Its lines end at LF, CR or CRLF.  Returns
    the graph and the text."""
    g = draw(named_graphs())
    names = sorted(g.vertices)
    stranger = draw(NAMES.filter(lambda x: x not in g.vertices))
    known = st.sampled_from(names) if names else st.just(stranger)
    lines = serialize_edgelist(g).split("\n")[:-1]
    # Repeats weighted up: a repeat needs an edge, and many drawn graphs have few.
    kinds = ["loop", "unknown", "tokens", "blank", "comment"] + (["repeat"] * 3 if g.edges else [])
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment" and draw(st.booleans()):
            lines[draw(st.integers(0, len(lines) - 1))] += " # a b"
            continue
        if kind == "repeat":
            x, y = draw(st.sampled_from(sorted(g.edges)))
            line = draw(st.sampled_from([f"{x} {y}", f"{y} {x}"]))
        elif kind == "loop":
            v = draw(known)
            line = f"{v} {v}"
        elif kind == "unknown":
            v = draw(known)
            line = draw(st.sampled_from([f"{v} {stranger}", f"{stranger} {v}"]))
        elif kind == "tokens":
            size = draw(st.sampled_from([1, 3]))
            line = " ".join(draw(st.lists(known, min_size=size, max_size=size)))
        elif kind == "blank":
            line = draw(st.sampled_from(["", " ", "\t\x0b "]))
        else:
            line = "# a b"
        lines.insert(draw(st.integers(1, len(lines))), line)
    newline = draw(st.sampled_from(["\n", "\r", "\r\n"]))
    return g, newline.join(lines) + draw(st.sampled_from(["", newline]))


@st.composite
def partitions(draw):
    """Blocks of up to 12 distinct names: each name draws its block's number."""
    names = draw(st.lists(NAMES, unique=True, max_size=12))
    numbers = draw(st.lists(st.integers(0, 11), min_size=len(names), max_size=len(names)))
    blocks: dict[int, list[str]] = {}
    for name, k in zip(names, numbers):
        blocks.setdefault(k, []).append(name)
    return list(blocks.values())


@st.composite
def newick_trees(draw, name=NEWICK_NAMES):
    """A rooted tree with ids in preorder and sorted names on its leaves in
    preorder, so the serializer keeps the order of every vertex's children
    and parsing its output gives back the same ids."""
    order, labels = [], {}
    stack = [(draw(SHAPES), None, None)]
    while stack:
        shape, parent, label = stack.pop()
        if parent is not None:
            labels[parent, len(order)] = label
        stack += [(child, len(order), lab) for child, lab in reversed(shape)]
        order.append(shape)
    # the root is a leaf when it has one child
    leaves = [v for v, shape in enumerate(order) if len(shape) <= (v == 0)]
    drawn = draw(st.lists(name, unique=True, min_size=len(leaves), max_size=len(leaves)))
    return LabeledTree(frozenset(range(len(order))), labels, dict(zip(leaves, sorted(drawn))), 0)


@st.composite
def rooted_trees(draw):
    """A tree from conftest's generators with shuffled ids, rooted at any
    vertex, a leaf included, or parsed back from its Newick text.  A high
    share of 1-edges leaves the root's and inner 0-components leafless."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    names = [f"l{i}" for i in range(draw(st.integers(2, 12)))]
    p_one = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    if len(names) >= 3 and draw(st.booleans()):
        t = caterpillar(rng, names, p_one)
    else:
        t = random_tree(rng, names, p_one)
    new = dict(zip(sorted(t.vertices), rng.sample(range(3 * len(t.vertices)), len(t.vertices))))
    triples = [(new[u], new[v], lab) for (u, v), lab in t.edge_labels.items()]
    root = new[draw(st.sampled_from(sorted(t.vertices)))]
    t = LabeledTree.build(triples, {new[v]: x for v, x in t.leaf_names.items()}, root)
    return parse_newick(serialize_newick(t)) if draw(st.booleans()) else t


class TestNewickProperties:
    @settings(derandomize=True, max_examples=500)
    @given(st.lists(st.sampled_from(TOKENIZER_PIECES), max_size=30).map("".join))
    def test_error_offset_starts_a_token(self, text):
        # An error offset lies in the text with CR and CRLF made LF: at its
        # end, or at the first character of a token, so that the text
        # splits there into the tokens before it and the tokens from it.
        # Only the unnamed single-child root is reported at 0 regardless.
        try:
            parse_newick(text)
        except ParseError as exc:
            norm, pos = _normalize(text), exc.pos
            assert 0 <= pos <= len(norm)
            if pos < len(norm) and exc.message != "root with a single child needs a name":
                assert not norm[pos].isspace()
                assert _tokens(norm[:pos]) + _tokens(norm[pos:]) == _tokens(norm)

    @settings(derandomize=True, max_examples=200)
    @given(newick_trees())
    def test_round_trip(self, t):
        assert validate(t) is None
        assert parse_newick(serialize_newick(t)) == t

    @settings(derandomize=True, max_examples=300)
    @given(st.lists(st.sampled_from(NEWICK_TOKENS), max_size=40).map("".join))
    def test_only_parse_errors(self, text):
        try:
            tree = parse_newick(text)
        except ParseError:
            return
        assert validate(tree) is None


class TestEdgeListProperties:
    @settings(derandomize=True, max_examples=200)
    @given(named_graphs())
    def test_round_trip(self, g):
        assert parse_edgelist(serialize_edgelist(g)) == g

    @settings(derandomize=True, max_examples=200)
    @given(st.lists(st.sampled_from(EDGELIST_TOKENS), max_size=40).map("".join))
    def test_only_parse_errors(self, text):
        try:
            parse_edgelist(text)
        except ParseError:
            pass

    @settings(derandomize=True, max_examples=200)
    @given(
        named_graphs(st.sampled_from("abcd")),
        st.lists(st.tuples(st.integers(0, 10), st.sampled_from("abcd"), st.sampled_from("abcd"))),
        st.sampled_from(["\n", "\r", "\r\n"]),
        st.sampled_from([" ", "\t", "\x0b", " \x1c"]),
    )
    def test_accepted_adjacency_is_well_formed(self, g, extra, newline, sep):
        # _from_sets trusts the parser for all three conditions.  Extra
        # edge lines may repeat an edge, join a name to itself or name a
        # vertex the header lacks.
        lines = serialize_edgelist(g).split("\n")
        for pos, x, y in extra:
            lines.insert(1 + pos % len(lines), x + sep + y)
        try:
            parsed = parse_edgelist(newline.join(lines))
        except ParseError:
            return
        adj = parsed.adjacency
        assert set(adj) == parsed.vertices
        for v, nbrs in adj.items():
            assert v not in nbrs
            assert all(v in adj[u] for u in nbrs)

    @settings(derandomize=True, max_examples=300)
    @given(faulty_edgelists())
    def test_agrees_with_the_oracle(self, case):
        # The parser raises exactly the oracle's first fault, or reads the
        # graph of the oracle's pairs.
        g, text = case
        expected = edgelist_oracle(text)
        if isinstance(expected, tuple):
            with pytest.raises(ParseError) as err:
                parse_edgelist(text)
            assert (err.value.message, err.value.line) == expected
        else:
            assert parse_edgelist(text) == SimpleGraph.build(g.vertices, expected)


def unwritable(names, stops):
    """The first name, in sorted order, that is empty or holds whitespace
    or a character of *stops*; None if there is none."""
    return min((x for x in names if x.split() != [x] or set(x) & set(stops)), default=None)


class TestUnwritableNameProperties:
    # A serializer either refuses the first unwritable name, or writes text
    # that its parser reads back as the same object.
    @settings(derandomize=True, max_examples=300)
    @given(newick_trees(ANY_NAMES))
    def test_newick(self, t):
        bad = unwritable(t.leaf_names.values(), "(),:;")
        try:
            text = serialize_newick(t)
        except ValueError as exc:
            assert bad is not None and str(exc).startswith(f"cannot write name {bad!r}:")
            return
        assert parse_newick(text) == t

    @settings(derandomize=True, max_examples=300)
    @given(named_graphs(ANY_NAMES))
    def test_edgelist(self, g):
        bad = unwritable(g.vertices, "#")
        try:
            text = serialize_edgelist(g)
        except ValueError as exc:
            assert bad is not None and str(exc).startswith(f"cannot write name {bad!r}:")
            return
        assert parse_edgelist(text) == g

    @settings(derandomize=True, max_examples=300)
    @given(named_graphs(ANY_NAMES), st.randoms(use_true_random=False))
    def test_arclist(self, g, rng):
        # An orientation of g: its arc list reads back as g's edge list.
        arcs = [(x, y) if rng.random() < 0.5 else (y, x) for x, y in sorted(g.edges)]
        bad = unwritable(g.vertices, "#")
        try:
            text = serialize_arclist(DirectedGraph.build(g.vertices, arcs))
        except ValueError as exc:
            assert bad is not None and str(exc).startswith(f"cannot write name {bad!r}:")
            return
        assert parse_edgelist(text) == g


class TestBlockGraphProperties:
    @settings(derandomize=True, max_examples=200)
    @given(partitions())
    def test_blocks_render_as_their_cross_pairs(self, blocks):
        # complete_multipartite keeps its blocks and the serializers cut
        # them out of the sorted names; build holds the same graph as sets.
        held = complete_multipartite(blocks)
        cross = [(x, y) for b1, b2 in combinations(blocks, 2) for x in b1 for y in b2]
        built = SimpleGraph.build(held.vertices, cross)
        assert serialize_edgelist(held) == serialize_edgelist(built)
        assert to_dot(held) == to_dot(built)
        assert graph_line(held) == graph_line(built)
        assert held == built and built == held
        assert hash(held) == hash(built)


class TestChainGraphProperties:
    @settings(derandomize=True, max_examples=300)
    @given(rooted_trees())
    def test_chain_renders_as_its_arcs(self, t):
        # directed_fitch keeps the chain of 0-components and the serializers
        # cut it out of the sorted names; build holds the oracle's arcs as sets.
        d = directed_fitch(t)
        arcs = directed_fitch_bruteforce(t)
        built = DirectedGraph.build(t.leaf_names.values(), arcs)
        assert serialize_arclist(d) == serialize_arclist(built)
        assert to_dot(d) == to_dot(built)
        assert d.arcs == arcs
        assert d == built and built == d
        assert hash(d) == hash(built)
        # Forgetting directions gives the undirected Fitch graph, from the
        # chain's sets as from the built digraph's.
        u, inverted = underlying_undirected(d), underlying_undirected(built)
        assert u == inverted == undirected_fitch(t)
        assert hash(u) == hash(inverted)
