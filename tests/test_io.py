"""Tests for Newick / edge-list parsing, serialization, and DOT export."""

import gc
import random
from itertools import combinations
from string import ascii_lowercase

import pytest

from fitchgraph.enumeration import edge_labelings, enumerate_trees, set_partitions
from fitchgraph.fitch import undirected_fitch
from fitchgraph.graphs import DirectedGraph, SimpleGraph, complete_multipartite
from fitchgraph.io import (
    ParseError,
    looks_like_edgelist,
    parse_edgelist,
    parse_newick,
    serialize_arclist,
    serialize_edgelist,
    serialize_newick,
    to_dot,
)
from fitchgraph.recognition import Partition
from fitchgraph.synthesis import canonical_tree, minimal_tree
from fitchgraph.tree import _walk, path_label_or, reroot, validate

from conftest import caterpillar, deep_caterpillar, random_graph, random_tree


class TestParseNewick:
    def test_t221(self):
        t = parse_newick("((a:0,b:0):1,(c:0,d:0):1,e:1)r;")
        assert validate(t) is None
        assert t.root is not None
        assert sorted(t.leaf_names.values()) == ["a", "b", "c", "d", "e"]
        assert len(t.vertices) == 8
        g = undirected_fitch(t)
        assert isinstance(g, SimpleGraph)
        assert len(g.edges) == 8  # K_{2,2,1}

    def test_star(self):
        t = parse_newick("(a:0,b:0,c:0)r;")
        assert len(t.vertices) == 4
        assert set(t.edge_labels.values()) == {0}

    def test_fractional_label_rejected(self):
        with pytest.raises(ParseError, match="edge label must be 0 or 1"):
            parse_newick("(a:0.5,b:0)r;")

    def test_missing_label_rejected(self):
        with pytest.raises(ParseError, match="missing edge label"):
            parse_newick("(a,b:0)r;")

    def test_duplicate_leaf_rejected(self):
        with pytest.raises(ParseError, match="duplicate leaf name"):
            parse_newick("(x:0,x:1)r;")

    def test_missing_semicolon_rejected(self):
        with pytest.raises(ParseError, match="expected ';'"):
            parse_newick("(a:0,b:0)r")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_newick("(a:0,b:0)r; oops")

    def test_unbalanced_rejected(self):
        with pytest.raises(ParseError):
            parse_newick("((a:0,b:0):1;")

    def test_empty_subtree_name_rejected(self):
        with pytest.raises(ParseError):
            parse_newick("(:0,b:0)r;")

    def test_single_leaf(self):
        t = parse_newick("a;")
        assert len(t.vertices) == 1
        assert t.leaf_names == {0: "a"}
        assert t.root == 0

    def test_leaf_rooted_two_vertex_tree(self):
        t = parse_newick("(b:1)a;")
        assert validate(t) is None
        assert sorted(t.leaf_names.values()) == ["a", "b"]
        assert t.is_leaf(t.root)

    def test_inner_names_ignored(self):
        t = parse_newick("((a:0,b:0)x:1,c:1)r;")
        assert sorted(t.leaf_names.values()) == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "text, leaves, written",
        [
            ("((a:0,b:0)x:1)r;", ["a", "b", "r"], "((a:0,b:0):1)r;"),  # r a leaf root, x skipped
            ("(a:0,b:0);", ["a", "b"], "(a:0,b:0)r;"),  # an unnamed inner root
        ],
    )
    def test_root_leaf_iff_one_child(self, text, leaves, written):
        t = parse_newick(text)
        assert validate(t) is None
        assert sorted(t.leaf_names.values()) == leaves
        assert t.is_leaf(t.root) == ("r" in leaves)
        assert serialize_newick(t) == written
        assert parse_newick(written) == t

    def test_whitespace_and_crlf_tolerated(self):
        t = parse_newick("( a:0 ,\r\n b:1 )r;\n")
        assert sorted(t.leaf_names.values()) == ["a", "b"]

    def test_unnamed_root_with_one_child_rejected(self):
        with pytest.raises(ParseError, match="^root with a single child needs a name"):
            parse_newick("(a:0);")

    def test_error_carries_position(self):
        try:
            parse_newick("(a:0,b:7)r;")
        except ParseError as exc:
            assert exc.pos == 7
        else:
            pytest.fail("expected ParseError")

    @pytest.mark.parametrize(
        "text, message, pos",
        [
            ("(a:0,b:0)r", "expected ';'", 10),  # at the end of the input
            ("(a:0,b:0)r x;", "expected ';'", 11),
            ("a b;", "expected ';'", 2),
            ("(a:0,b:0)r; oops", "trailing characters after ';'", 12),
            ("(a:0,b:0)r;;", "trailing characters after ';'", 11),
            ("(a,b:0)r;", "missing edge label (expected ':0' or ':1')", 2),
            ("(a:0.5,b:0)r;", "edge label must be 0 or 1", 3),
            ("(a:,b:0)r;", "edge label must be 0 or 1", 3),
            ("(a:0,b:", "edge label must be 0 or 1", 7),
            ("(a:0 b:0)r;", "expected ',' or ')'", 5),
            ("(a:0,b:0", "expected ',' or ')'", 8),
            ("(:0,b:0)r;", "expected a leaf name or '('", 1),
            ("()r;", "expected a leaf name or '('", 1),
            ("", "expected a leaf name or '('", 0),
            ("  ", "expected a leaf name or '('", 2),
            ("(x:0,x:1)r;", "duplicate leaf name 'x'", 5),
            ("(a:0)a;", "duplicate leaf name 'a'", 7),  # a root name: at the end
            ("(a:0) a ;", "duplicate leaf name 'a'", 9),
            ("(a:0);", "root with a single child needs a name", 0),
            # offsets count the text after CRLF and CR become LF
            ("( a:0 ,\r\n b:7 )r;", "edge label must be 0 or 1", 11),
            ("\t(a:0,\r\n\r\n  b:0)r;\r\n x", "trailing characters after ';'", 18),
        ],
    )
    def test_error_message_and_position(self, text, message, pos):
        with pytest.raises(ParseError) as err:
            parse_newick(text)
        assert (err.value.message, err.value.pos) == (message, pos)

    @pytest.mark.parametrize("text", ["((a:0,b:0):1,c:1)r;", "((a:0,b:0):1,c:7)r;"])
    def test_leaves_no_cyclic_garbage(self, text):
        gc.collect()
        gc.disable()
        try:
            try:
                parse_newick(text)
            except ParseError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()


def check_walk_matches_a_fresh_walk(t):
    """The walk a tree was built with names, vertex for vertex, the parent
    and top that a fresh depth-first walk over its adjacency finds."""
    walk, fresh = t.walk, _walk(t.adjacency, t.root)
    assert list(walk.order) == list(range(len(t.vertices)))
    for v in t.vertices:
        assert walk.parent[v] == fresh.parent[v]
        assert walk.top[v] == fresh.top[v]


class TestParsedWalk:
    @pytest.mark.parametrize("text", [
        "a;", "(a:1)b;", "(a:0)b;", "(a:0,b:1)r;",
        "((a:1,b:1):1,(c:0,(d:1,e:0):0):1)r;",
        "(((a:0,b:1):0,c:1):1,(d:0,e:0):0)r;",
        "((a:0,b:0)x:1)r;", "(a:0,b:0);",
    ])
    def test_hand_made(self, text):
        t = parse_newick(text)
        assert "walk" in vars(t) and "adjacency" not in vars(t)
        check_walk_matches_a_fresh_walk(t)

    def test_random_trees(self, rng):
        for n in (2, 3, 7, 30):
            for p_one in (0.0, 0.3, 1.0):
                names = [f"l{i}" for i in range(n)]
                t = random_tree(rng, names, p_one)
                t = reroot(t, max(v for v in t.vertices if not t.is_leaf(v)) if n > 2 else 0)
                check_walk_matches_a_fresh_walk(parse_newick(serialize_newick(t)))
                if n > 2:
                    cat = caterpillar(rng, names, p_one)
                    check_walk_matches_a_fresh_walk(parse_newick(serialize_newick(cat)))


class TestSerializeNewick:
    def test_star_canonical_text(self):
        t = canonical_tree(Partition.canonical([{"a", "b", "c"}]))
        assert serialize_newick(t) == "(a:0,b:0,c:0)r;"

    def test_golden_3211(self):
        t = canonical_tree(
            Partition.canonical([{"a", "b", "c"}, {"d", "e"}, {"f"}, {"g"}])
        )
        assert serialize_newick(t) == "((a:0,b:0,c:0):1,(d:0,e:0):1,f:1,g:1)r;"

    def test_single_leaf(self):
        from fitchgraph.tree import LabeledTree

        assert serialize_newick(LabeledTree.single("a")) == "a;"

    def test_leaf_root(self):
        from fitchgraph.tree import LabeledTree

        t = minimal_tree(Partition.canonical([{"a"}, {"b"}]))
        assert serialize_newick(t) == "(b:1)a;"
        # A leaf root above an inner vertex: parsed (preorder ids, list
        # walk) and built with ids out of preorder (dict walk).
        text = "((a:0,b:1):1)c;"
        built = LabeledTree.build(
            [(7, 3, 1), (3, 9, 0), (3, 1, 1)], {7: "c", 9: "a", 1: "b"}, root=7
        )
        for t in (parse_newick(text), built):
            assert serialize_newick(t) == text

    def test_unrooted_rejected(self):
        t = enumerate_trees(3)[0]
        with pytest.raises(ValueError, match="rooted"):
            serialize_newick(t)

    def test_children_sorted_by_min_descendant(self):
        t = parse_newick("((z:0,d:0):1,(c:0,y:0):1,m:1)r;")
        assert serialize_newick(t) == "((c:0,y:0):1,(d:0,z:0):1,m:1)r;"

    def test_round_trip_synthesis_trees(self):
        for n in range(1, 7):
            for blocks in set_partitions(ascii_lowercase[:n]):
                p = Partition.canonical(blocks)
                for t in (canonical_tree(p), minimal_tree(p)):
                    text = serialize_newick(t)
                    back = parse_newick(text)
                    assert validate(back) is None
                    assert serialize_newick(back) == text
                    assert back.leaf_name_set == t.leaf_name_set
                    for x, y in combinations(sorted(t.leaf_name_set), 2):
                        assert path_label_or(back, x, y) == path_label_or(t, x, y)

    def test_round_trip_enumerated_trees(self):
        for n in (2, 3, 4):
            for topo in enumerate_trees(n):
                for t in edge_labelings(topo):
                    internal = [v for v in sorted(t.vertices) if not t.is_leaf(v)]
                    rooted = reroot(t, internal[0] if internal else min(t.vertices))
                    text = serialize_newick(rooted)
                    back = parse_newick(text)
                    assert serialize_newick(back) == text
                    for x, y in combinations(sorted(t.leaf_name_set), 2):
                        assert path_label_or(back, x, y) == path_label_or(t, x, y)

    def test_deep_caterpillar_canonical(self):
        # 10^5 leaves nested 10^5 deep; built directly, as parse_newick recurses.
        n = 100_000
        parts = ["(x000000:1,x000001:0,"]
        parts += [f"(x{k + 1:06d}:0," for k in range(1, n - 3)]
        parts.append(f"(x{n - 2:06d}:0,x{n - 1:06d}:0)")
        parts.append(":1)")  # the lowest spine edge
        parts += [":0)"] * (n - 4)
        parts.append("r;")
        assert serialize_newick(deep_caterpillar(n)) == "".join(parts)


class TestEdgeList:
    def test_parse_p3(self):
        g = parse_edgelist("vertices: a b c\na b\nb c\n")
        assert g == SimpleGraph.build("abc", [("a", "b"), ("b", "c")])

    def test_serialize_p3_canonical(self):
        g = SimpleGraph.build("abc", [("b", "c"), ("b", "a")])
        assert serialize_edgelist(g) == "vertices: a b c\na b\nb c\n"
        # names that are prefixes of one another; pairs in sorted(pairs) order
        g = SimpleGraph.build(
            ["b", "ab", "a1", "a"], [("b", "a"), ("ab", "a"), ("a1", "b"), ("ab", "a1"), ("b", "ab")]
        )
        text = serialize_edgelist(g)
        assert text == "vertices: a a1 ab b\na ab\na b\na1 ab\na1 b\nab b\n"
        assert text == "vertices: a a1 ab b\n" + "".join(f"{x} {y}\n" for x, y in sorted(g.edges))

    def test_round_trip_idempotent(self, rng):
        from conftest import random_graph

        names = [f"v{i}" for i in range(12)]
        for _ in range(20):
            g = random_graph(rng, names, 0.4)
            text = serialize_edgelist(g)
            assert parse_edgelist(text) == g
            assert serialize_edgelist(parse_edgelist(text)) == text

    def test_neighbours_are_the_header_name_objects(self, rng):
        from conftest import random_graph

        g = random_graph(rng, [f"v{i}" for i in range(30)], 0.5)
        parsed = parse_edgelist(serialize_edgelist(g))
        header = {v: v for v in parsed.adjacency}
        assert all(header[v] is v for v in parsed.vertices)
        for nbrs in parsed.adjacency.values():
            assert all(header[y] is y for y in nbrs)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError, match="self-loop"):
            parse_edgelist("vertices: a\na a\n")

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ParseError, match="unknown endpoint"):
            parse_edgelist("vertices: a b\na z\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ParseError, match="duplicate edge") as err:
            parse_edgelist("vertices: a b\na b\nb a\n")
        assert (err.value.message, err.value.line) == ("duplicate edge b a", 3)

    def test_missing_header_rejected(self):
        with pytest.raises(ParseError, match="vertices:"):
            parse_edgelist("a b\n")

    def test_empty_rejected(self):
        with pytest.raises(ParseError, match="empty input"):
            parse_edgelist("# nothing here\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ParseError, match="two endpoint names"):
            parse_edgelist("vertices: a b c\na b c\n")

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ParseError, match="duplicate vertex"):
            parse_edgelist("vertices: a a\n")

    def test_comments_and_blanks(self):
        g = parse_edgelist("# graph\nvertices: a b # names\n\na b # edge\n")
        assert g.edges == frozenset({("a", "b")})

    def test_error_carries_line(self):
        try:
            parse_edgelist("vertices: a b\n\na b\na b\n")
        except ParseError as exc:
            assert exc.line == 4
        else:
            pytest.fail("expected ParseError")

    @pytest.mark.parametrize(
        "text,message,line",
        [
            # the earlier of two errors wins
            ("vertices: a b\na b\nb a\na z\n", "duplicate edge b a", 3),
            # four names over two lines: the line, not the total, is counted
            ("vertices: a b c d\na b c\nd\n", "expected two endpoint names", 2),
            ("vertices: a b\nx y\n", "unknown endpoint 'x'", 2),
            ("vertices: a b\na y\n", "unknown endpoint 'y'", 2),
            ("vertices:\ta b\n   \n\t\na\tb\n\t \nb\ta\n", "duplicate edge b a", 6),
            # a and b share one neighbour set, and d's repeat still shrinks
            # its own set, so the degree sum sees the duplicate
            ("vertices: a b c d\na c\na d\nb c\nb d\nd a\n", "duplicate edge d a", 6),
            # b's list (p x x) and x's (q b c b) each have the size of an
            # earlier set that holds their names, q's and p's: a freeze that
            # reused such a set would hide the repeat from the degree sum
            ("vertices: p q b x c d y\np b\np c\np d\np q\nq x\nq y\nx b\nx c\nb x\n",
             "duplicate edge b x", 10),
            ("# one\n  # two\nvertices: a b # c\na c\n", "unknown endpoint 'c'", 4),
            ("vertices: a b #\n#\na#b\n", "expected two endpoint names", 3),
            ("vertices: a b\ra b\r\ra a\r", "self-loop at 'a'", 4),
            ("vertices: a b\r\n\r\na b\r\nb x\r\n", "unknown endpoint 'x'", 4),
            ("\n# c\na b\nvertices: a b\n", "expected 'vertices:' header line", 3),
            ("vertices: a\x0bb\x1cc\na\x0bb\nb\x1cc\nc\x0bc\n", "self-loop at 'c'", 4),
            ("vertices: a b c\na\x0bb\x1cc\n", "expected two endpoint names", 2),
            ("\r\n \t\r\n", "empty input (expected 'vertices:' header)", 1),
            ("\nvertices: a b a\n", "duplicate vertex name", 2),
        ],
    )
    def test_exact_errors(self, text, message, line):
        with pytest.raises(ParseError) as err:
            parse_edgelist(text)
        assert (err.value.message, err.value.line) == (message, line)


class TestLooksLikeEdgelist:
    @pytest.mark.parametrize(
        "text,verdict",
        [
            ("vertices: a b\na b\n", True),
            ("vertices: a b\r\na b\r\n", True),
            ("\r\n \t\r\nvertices: a\r\n", True),
            ("\n\n   \nvertices: a\n", True),
            ("# a graph\n   # of one vertex\nvertices: a\n", True),
            ("   vertices: a b\n", True),
            ("vertices:a", True),
            ("vertices:", True),
            ("#vertices: a b\n(a:0,b:0)r;\n", False),
            ("#vertices: a b\n", False),
            ("x # vertices: a\n", False),
            ("vertices a b\n", False),
            ("", False),
            ("\r\n\n  \n", False),
            ("((a:0,b:0):1,c:1)r;", False),
            ("(a:0,b:0)r;\nvertices: a b\n", False),
            ("# c\rvertices: a b\ra b\r", True),
            ("\r\r \t\rvertices: a\r", True),
            ("# c\r(a:0,b:0)r;\r", False),
        ],
    )
    def test_verdicts(self, text, verdict):
        assert looks_like_edgelist(text) is verdict


class TestDot:
    def test_simple_graph(self):
        g = SimpleGraph.build("ab", [("a", "b")])
        text = to_dot(g)
        assert text.startswith("graph {")
        assert '"a" -- "b";' in text

    def test_digraph(self):
        d = DirectedGraph.build("ab", [("b", "a")])
        text = to_dot(d)
        assert text.startswith("digraph {")
        assert '"b" -> "a";' in text

    def test_tree_edge_labels(self):
        t = canonical_tree(Partition.canonical([{"a"}, {"b"}]))
        text = to_dot(t)
        assert text.count('[label="1"]') == 2
        assert '[label="a"]' in text

    def test_other_objects_rejected(self):
        with pytest.raises(TypeError, match="^cannot render int as DOT$"):
            to_dot(3)

    def test_deterministic(self):
        g = SimpleGraph.build("abcd", [("d", "a"), ("c", "b")])
        assert to_dot(g) == to_dot(SimpleGraph.build("abcd", [("b", "c"), ("a", "d")]))

    def test_golden_prefix_names(self):
        # names that are prefixes of one another; pairs in sorted(pairs) order
        g = SimpleGraph.build(
            ["b", "ab", "a1", "a"], [("b", "a"), ("ab", "a"), ("a1", "b"), ("ab", "a1"), ("b", "ab")]
        )
        text = to_dot(g)
        assert text == (
            'graph {\n  "a";\n  "a1";\n  "ab";\n  "b";\n'
            '  "a" -- "ab";\n  "a" -- "b";\n  "a1" -- "ab";\n  "a1" -- "b";\n  "ab" -- "b";\n}\n'
        )
        assert text.endswith("".join(f'  "{x}" -- "{y}";\n' for x, y in sorted(g.edges)) + "}\n")
        d = DirectedGraph.build(
            ["ab", "a", "b", "a1"], [("ab", "a"), ("a", "ab"), ("b", "a1"), ("a1", "b"), ("a1", "a"), ("b", "ab")]
        )
        text = to_dot(d)
        assert text == (
            'digraph {\n  "a";\n  "a1";\n  "ab";\n  "b";\n'
            '  "a" -> "ab";\n  "a1" -> "a";\n  "a1" -> "b";\n  "ab" -> "a";\n  "b" -> "a1";\n  "b" -> "ab";\n}\n'
        )
        assert text.endswith("".join(f'  "{x}" -> "{y}";\n' for x, y in sorted(d.arcs)) + "}\n")

    def test_arclist(self):
        d = DirectedGraph.build("ab", [("b", "a")])
        assert serialize_arclist(d) == "vertices: a b\nb a\n"
        # arcs both ways between names that are prefixes of one another
        d = DirectedGraph.build(
            ["ab", "a", "b", "a1"], [("ab", "a"), ("a", "ab"), ("b", "a1"), ("a1", "b"), ("a1", "a"), ("b", "ab")]
        )
        text = serialize_arclist(d)
        assert text == "vertices: a a1 ab b\na ab\na1 a\na1 b\nab a\nb a1\nb ab\n"
        assert text == "vertices: a a1 ab b\n" + "".join(f"{x} {y}\n" for x, y in sorted(d.arcs))


def agreement_graphs(rng):
    """Sparse random and dense multipartite graphs, each with and without
    one flipped edge, made by every route that yields a SimpleGraph."""
    for _ in range(40):
        names = [f"v{i}" for i in range(rng.randint(0, 24))]
        rng.shuffle(names)
        cuts = sorted(rng.sample(range(1, len(names)), rng.randint(0, len(names) - 1))) if names else []
        blocks = [names[i:j] for i, j in zip([0] + cuts, cuts + [len(names)])]
        dense = complete_multipartite(blocks) if names else SimpleGraph.build([], [])
        for g in (random_graph(rng, names, rng.choice([0.05, 0.15, 0.3])), dense):
            variants = [g]
            if len(names) >= 2:
                x, y = sorted(rng.sample(names, 2))
                variants.append(SimpleGraph.build(g.vertices, g.edges ^ {(x, y)}))
            for h in variants:
                pairs = [(y, x) if rng.random() < 0.5 else (x, y) for x, y in h.edges]
                rng.shuffle(pairs)
                text = "vertices: " + " ".join(names) + "\n" + "".join(f"{x} {y}\n" for x, y in pairs)
                yield from (
                    h,
                    SimpleGraph(h.vertices, h.edges),
                    SimpleGraph.build(h.vertices, pairs),
                    parse_edgelist(text),
                    h.induced(rng.sample(names, rng.randint(0, len(names)))),
                    h.complement(),
                )


def test_serializers_agree_with_sorted_edges(rng):
    # Neighbour sets holding at least half the names and smaller ones are
    # listed by different means; both must occur.
    large_set_seen = set()
    for g in agreement_graphs(rng):
        names, edges = sorted(g.vertices), sorted(g.edges)
        large_set_seen |= {2 * len(g.adjacency[v]) >= len(names) for v in names}
        assert serialize_edgelist(g) == (
            "vertices: " + " ".join(names) + "\n" + "".join(f"{x} {y}\n" for x, y in edges)
        )
        assert to_dot(g) == (
            "graph {\n"
            + "".join(f'  "{v}";\n' for v in names)
            + "".join(f'  "{x}" -- "{y}";\n' for x, y in edges)
            + "}\n"
        )
    assert large_set_seen == {True, False}


MUTATION_ALPHABET = "abcxyz01(),:;# \n-v"


def mutate(rng: random.Random, text: str) -> str:
    i = rng.randrange(len(text))
    op = rng.random()
    if op < 0.4:
        return text[:i] + rng.choice(MUTATION_ALPHABET) + text[i + 1 :]
    if op < 0.7:
        return text[:i] + rng.choice(MUTATION_ALPHABET) + text[i:]
    return text[:i] + text[i + 1 :]


class TestFuzz:
    """Mutated inputs must parse cleanly or fail with ParseError, only."""

    def test_newick_mutations(self, rng):
        base = "((a:0,b:0):1,(c:0,d:0):1,e:1)r;"
        for _ in range(1500):
            text = mutate(rng, base)
            try:
                tree = parse_newick(text)
            except ParseError:
                continue
            assert validate(tree) is None

    def test_edgelist_mutations(self, rng):
        base = "vertices: a b c d\na b\nb c\nc d\n"
        for _ in range(1500):
            text = mutate(rng, base)
            try:
                g = parse_edgelist(text)
            except ParseError:
                continue
            assert isinstance(g, SimpleGraph)
