"""Hypothesis properties of edge-list parsing and serialization."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from fitchgraph.graphs import SimpleGraph
from fitchgraph.io import ParseError, parse_edgelist, serialize_edgelist


# Names hold no '#' and no character that str.isspace accepts: the space
# separators (Zs, Zl, Zp) and the listed control characters.
NAMES = st.text(
    st.characters(
        blacklist_categories=("Cs", "Zs", "Zl", "Zp"),
        blacklist_characters="#\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85",
    ),
    min_size=1,
    max_size=4,
)
EDGELIST_TOKENS = ["a", "b", "c", "vertices:", "#", " ", "\t", "\r", "\n", "\x0b"]


@st.composite
def named_graphs(draw, name=NAMES):
    names = draw(st.lists(name, unique=True, max_size=8))
    pairs = list(combinations(names, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return SimpleGraph.build(names, edges)


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
        # _from_adjacency trusts the parser for all three conditions.  Extra
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
