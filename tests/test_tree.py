"""Tests for labeled-tree construction and manipulation."""

import random
from itertools import combinations

import pytest

from fitchgraph.tree import (
    LabeledTree,
    contract_edge,
    edge_key,
    lca,
    path_label_or,
    reroot,
    restrict_leaves,
    suppress_degree2,
    validate,
)

from conftest import (
    deep_caterpillar,
    lca_bruteforce,
    or_between,
    path_or_bruteforce,
    random_tree,
    subdivide_edge,
)


def t21() -> LabeledTree:
    """T[2,1]: root 0, inner child 1 over leaves a,b, leaf child c."""
    return LabeledTree.build(
        [(0, 1, 1), (0, 2, 1), (1, 3, 0), (1, 4, 0)],
        {2: "c", 3: "a", 4: "b"},
        root=0,
    )


def test_value_semantics():
    t = LabeledTree.build([(0, 1, 0)], {0: "a", 1: "b"})
    assert repr(t) == (
        "LabeledTree(vertices=frozenset({0, 1}), edge_labels={(0, 1): 0}, "
        "leaf_names={0: 'a', 1: 'b'}, root=None)"
    )
    # Equality reads the four fields only, not a cached walk.
    assert t == LabeledTree(frozenset({1, 0}), {(0, 1): 0}, {1: "b", 0: "a"})
    assert t.walk and t == LabeledTree.build([(1, 0, 0)], {0: "a", 1: "b"}, None)
    assert LabeledTree.single("a") == LabeledTree(frozenset({0}), {}, {0: "a"}, 0)
    assert LabeledTree.single("a") != LabeledTree(frozenset({0}), {}, {0: "a"})
    assert t != (t.vertices, t.edge_labels, t.leaf_names, t.root)
    with pytest.raises(TypeError, match="unhashable"):
        hash(t)  # a tree defines no hash
    for attr in ("root", "vertices", "walk", "other"):
        with pytest.raises(AttributeError):
            setattr(t, attr, None)
        with pytest.raises(AttributeError):
            delattr(t, attr)
    assert t.root is None and t.vertices == frozenset({0, 1})


class TestValidate:
    def test_minimal_valid_tree(self):
        t = LabeledTree.build([(0, 1, 0)], {0: "a", 1: "b"})
        assert validate(t) is None

    def test_single_vertex_tree(self):
        assert validate(LabeledTree.single("a")) is None

    def test_two_disjoint_edges(self):
        t = LabeledTree.build(
            [(0, 1, 0), (2, 3, 0)], {0: "a", 1: "b", 2: "c", 3: "d"}
        )
        assert validate(t) == "not connected"

    def test_duplicate_leaf_name(self):
        t = LabeledTree.build(
            [(0, 1, 0), (0, 2, 0), (0, 3, 0)], {1: "x", 2: "x", 3: "y"}
        )
        assert "duplicate leaf name" in validate(t)
        # The message names the repeated name, not the first one.
        t = LabeledTree.build(
            [(0, 1, 0), (0, 2, 0), (0, 3, 0)], {1: "y", 2: "x", 3: "x"}
        )
        assert validate(t) == "duplicate leaf name 'x'"

    def test_edge_not_normalized(self):
        t = LabeledTree(frozenset({0, 1}), {(1, 0): 0}, {0: "a", 1: "b"})
        assert validate(t) == "edge (1, 0) is not normalized"

    def test_edge_with_one_endpoint_outside(self):
        t = LabeledTree(
            frozenset({0, 1, 2}), {(0, 1): 0, (1, 5): 0}, {0: "a", 2: "b"}
        )
        assert validate(t) == "edge (1, 5) endpoint is not a vertex"

    def test_leaf_name_on_unknown_vertex(self):
        t = LabeledTree(
            frozenset({0, 1}), {(0, 1): 0}, {0: "a", 1: "b", 9: "c"}
        )
        assert validate(t) == "leaf name 'c' on unknown vertex 9"

    def test_empty_leaf_name(self):
        t = LabeledTree.build([(0, 1, 0)], {0: "a", 1: ""})
        assert validate(t) == "empty leaf name on vertex 1"

    def test_cycle(self):
        t = LabeledTree.build(
            [(0, 1, 0), (1, 2, 0), (0, 2, 0)], {}
        )
        assert validate(t) == "contains a cycle"

    def test_bad_label(self):
        t = LabeledTree(
            frozenset({0, 1}), {(0, 1): 2}, {0: "a", 1: "b"}
        )
        assert "edge label must be 0 or 1" in validate(t)

    def test_unnamed_leaf(self):
        t = LabeledTree.build([(0, 1, 0), (0, 2, 0)], {1: "a"})
        assert "unnamed leaf" in validate(t)

    def test_name_on_internal_vertex(self):
        t = LabeledTree.build(
            [(0, 1, 0), (0, 2, 0), (0, 3, 0)],
            {0: "center", 1: "a", 2: "b", 3: "c"},
        )
        assert "internal vertex" in validate(t)

    def test_root_not_a_vertex(self):
        t = LabeledTree.build([(0, 1, 0)], {0: "a", 1: "b"}, root=7)
        assert "root" in validate(t)

    def test_empty(self):
        assert validate(LabeledTree(frozenset(), {}, {})) == "empty vertex set"

    def test_self_loop(self):
        t = LabeledTree(frozenset({0}), {(0, 0): 0}, {0: "a"})
        assert "self-loop" in validate(t)


class TestSuppressDegree2:
    def test_or_rule_one(self):
        # a --0-- v --1-- b collapses to a --1-- b
        t = LabeledTree.build([(0, 1, 0), (1, 2, 1)], {0: "a", 2: "b"})
        s = suppress_degree2(t)
        assert s.vertices == frozenset({0, 2})
        assert s.edge_labels == {(0, 2): 1}

    def test_or_rule_zero(self):
        t = LabeledTree.build([(0, 1, 0), (1, 2, 0)], {0: "a", 2: "b"})
        s = suppress_degree2(t)
        assert s.edge_labels == {(0, 2): 0}

    def test_star_unchanged(self):
        t = LabeledTree.build(
            [(0, 1, 0), (0, 2, 1), (0, 3, 0), (0, 4, 1)],
            {1: "a", 2: "b", 3: "c", 4: "d"},
        )
        assert suppress_degree2(t) == t

    def test_named_degree2_rejected(self):
        t = LabeledTree(
            frozenset({0, 1, 2}),
            {(0, 1): 0, (1, 2): 0},
            {0: "a", 1: "mid", 2: "b"},
        )
        with pytest.raises(ValueError, match="cannot suppress leaf"):
            suppress_degree2(t)

    def test_long_chain(self):
        # a --0-- x --1-- y --0-- z --0-- b
        t = LabeledTree.build(
            [(0, 1, 0), (1, 2, 1), (2, 3, 0), (3, 4, 0)], {0: "a", 4: "b"}
        )
        s = suppress_degree2(t)
        assert s.edge_labels == {(0, 4): 1}

    def test_root_suppression_unroots(self):
        t = LabeledTree.build([(0, 1, 0), (1, 2, 1)], {0: "a", 2: "b"}, root=1)
        s = suppress_degree2(t)
        assert s.root is None
        assert s.edge_labels == {(0, 2): 1}

    def test_smallest_vertex_suppressed_in_unrooted_tree(self):
        # An unrooted tree's walk would start at vertex 0, which is doomed.
        t = LabeledTree.build([(0, 1, 1), (0, 2, 0)], {1: "a", 2: "b"})
        s = suppress_degree2(t)
        assert (s.vertices, s.root) == (frozenset({1, 2}), None)
        assert s.edge_labels == {(1, 2): 1}

    def test_idempotent_and_path_preserving(self, rng):
        names = [f"l{i}" for i in range(8)]
        for _ in range(25):
            t = random_tree(rng, names)
            # splice a few degree-2 vertices in, preserving path label ORs
            for _ in range(3):
                e = rng.choice(sorted(t.edge_labels))
                lab = t.edge_labels[e]
                splits = [(0, 0)] if lab == 0 else [(1, 0), (0, 1), (1, 1)]
                lab1, lab2 = rng.choice(splits)
                t = subdivide_edge(t, e, lab1, lab2)
            s = suppress_degree2(t)
            assert validate(s) is None
            assert suppress_degree2(s) == s
            assert not any(s.degree(v) == 2 for v in s.vertices)
            for x, y in combinations(names, 2):
                assert path_label_or(s, x, y) == path_or_bruteforce(t, x, y)


class TestReroot:
    def test_reroot_inner(self):
        t = reroot(t21(), 1)
        assert t.root == 1
        assert t.edge_labels == t21().edge_labels
        assert t != t21() and t21() != t

    def test_reroot_identity(self):
        assert reroot(t21(), 0) == t21()

    def test_leaf_root_rejected(self):
        star = LabeledTree.build(
            [(0, 1, 0), (0, 2, 0), (0, 3, 0)], {1: "a", 2: "b", 3: "c"}
        )
        with pytest.raises(ValueError, match="leaf root not allowed"):
            reroot(star, 1)
        path = LabeledTree.build([(0, 1, 0), (1, 2, 0)], {0: "a", 2: "b"})
        with pytest.raises(ValueError, match="leaf root not allowed"):
            reroot(path, 0)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValueError, match="not a vertex"):
            reroot(t21(), 99)

    def test_two_vertex_tree_any_root(self):
        t = LabeledTree.build([(0, 1, 1)], {0: "a", 1: "b"})
        assert reroot(t, 1).root == 1


class TestContractEdge:
    def test_contract_inner_edge_of_t21(self):
        # Exhaustively checked elsewhere that the result still explains
        # K_{2,1}; here: shape, counts, and labels after the merge.
        t = contract_edge(t21(), (0, 1))
        assert len(t.vertices) == 4
        assert len(t.edge_labels) == 3
        assert validate(t) is None
        assert t.root == 0  # merged vertex keeps the smaller id
        assert t.edge_labels[(0, 3)] == 0 and t.edge_labels[(0, 4)] == 0
        assert t.edge_labels[(0, 2)] == 1

    def test_contract_cherry_tree_gives_star(self):
        # ((a,b)(c,d)) with one inner edge -> S4
        t = LabeledTree.build(
            [(0, 1, 1), (0, 2, 0), (0, 3, 0), (1, 4, 0), (1, 5, 0)],
            {2: "a", 3: "b", 4: "c", 5: "d"},
        )
        s = contract_edge(t, (0, 1))
        assert len(s.vertices) == 5
        assert all(s.degree(v) == 1 for v in s.vertices if v != 0)
        assert s.degree(0) == 4

    def test_contract_leaf_edge_rejected(self):
        with pytest.raises(ValueError, match="cannot contract leaf edge"):
            contract_edge(t21(), (0, 2))

    def test_contract_missing_edge_rejected(self):
        with pytest.raises(ValueError, match="no edge"):
            contract_edge(t21(), (1, 2))

    def test_leaf_set_preserved(self):
        t = contract_edge(t21(), (0, 1))
        assert set(t.leaf_names.values()) == {"a", "b", "c"}

    def test_root_follows_the_merge(self):
        # Inner path 0 - 1 - 6; contracting (0, 1) keeps 0 and removes 1.
        t = LabeledTree.build(
            [(0, 1, 1), (1, 6, 0), (0, 2, 0), (0, 3, 0), (1, 4, 0), (6, 5, 0), (6, 7, 0)],
            {2: "a", 3: "b", 4: "c", 5: "d", 7: "e"},
        )
        assert contract_edge(reroot(t, 1), (0, 1)).root == 0
        assert contract_edge(reroot(t, 6), (0, 1)).root == 6
        assert contract_edge(t, (0, 1)).root is None


class TestPathLabelOr:
    def test_all_zero_star(self, star3_all_zero):
        assert path_label_or(star3_all_zero, "a", "b") == 0

    def test_one_edge_star_through_one(self, star3_one_edge):
        assert path_label_or(star3_one_edge, "a", "b") == 1

    def test_one_edge_star_avoiding_one(self, star3_one_edge):
        assert path_label_or(star3_one_edge, "b", "c") == 0

    def test_same_leaf_rejected(self, star3_all_zero):
        with pytest.raises(ValueError, match="distinct"):
            path_label_or(star3_all_zero, "a", "a")

    def test_unknown_leaf_rejected(self, star3_all_zero):
        with pytest.raises(ValueError, match="unknown leaf name"):
            path_label_or(star3_all_zero, "a", "zz")

    def test_symmetry_random(self, rng):
        names = [f"l{i}" for i in range(7)]
        for _ in range(30):
            t = random_tree(rng, names)
            for x, y in combinations(names, 2):
                assert path_label_or(t, x, y) == path_label_or(t, y, x)
                assert path_label_or(t, x, y) == path_or_bruteforce(t, x, y)


class TestLca:
    def test_two_singletons(self):
        t = LabeledTree.build([(0, 1, 1), (0, 2, 1)], {1: "a", 2: "b"}, root=0)
        assert lca(t, "a", "b") == 0

    def test_same_leaf(self):
        t = t21()
        assert lca(t, "a", "a") == t.name_to_leaf["a"]

    def test_cherry_lca_is_inner_child(self):
        assert lca(t21(), "a", "b") == 1

    def test_unrooted_rejected(self):
        t = LabeledTree.build([(0, 1, 0)], {0: "a", 1: "b"})
        with pytest.raises(ValueError, match="rooted"):
            lca(t, "a", "b")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown leaf name"):
            lca(t21(), "a", "zz")

    def test_path_or_splits_at_lca(self, rng):
        # For rooted trees: OR(x..y) == OR(x..lca) | OR(lca..y).
        names = [f"l{i}" for i in range(6)]
        for _ in range(25):
            t = random_tree(rng, names)
            root = min(v for v in t.vertices if not t.is_leaf(v))
            t = reroot(t, root)
            for x, y in combinations(names, 2):
                w = lca(t, x, y)
                ax = t.name_to_leaf[x]
                ay = t.name_to_leaf[y]
                left = or_between(t, ax, w)
                right = or_between(t, w, ay)
                assert path_label_or(t, x, y) == (left | right)

    def test_matches_root_path_oracle(self, rng):
        names = [f"l{i}" for i in range(7)]
        for _ in range(20):
            t = random_tree(rng, names)
            for v in sorted(t.vertices):
                if not t.is_leaf(v):
                    rooted = reroot(t, v)
                    for x, y in combinations(names, 2):
                        assert lca(rooted, x, y) == lca_bruteforce(rooted, x, y)


class TestDeepTree:
    def test_queries_at_depth(self):
        # 10^4 leaves nested 10^4 deep; the spine vertices are s_k = n + k.
        n = 10_000
        t = deep_caterpillar(n)
        first, low, last = "x000000", f"x{n - 3:06d}", f"x{n - 1:06d}"
        assert validate(t) is None
        assert path_label_or(t, "x000001", low) == 0
        assert path_label_or(t, f"x{n - 2:06d}", last) == 0
        assert path_label_or(t, "x000001", last) == 1
        assert path_label_or(t, first, "x000001") == 1
        assert lca(t, first, last) == n
        assert lca(t, low, last) == 2 * n - 4
        assert lca(t, f"x{n - 2:06d}", last) == 2 * n - 3


class TestRestrictLeaves:
    def test_restrict_to_pair(self):
        t = t21()
        r = restrict_leaves(t, {"a", "c"})
        assert validate(r) is None
        assert set(r.leaf_names.values()) == {"a", "c"}
        assert path_label_or(r, "a", "c") == 1

    def test_restrict_to_single(self):
        r = restrict_leaves(t21(), {"b"})
        assert len(r.vertices) == 1
        assert validate(r) is None

    def test_restrict_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown leaf name"):
            restrict_leaves(t21(), {"zz"})

    def test_restrict_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            restrict_leaves(t21(), set())

    def test_restrict_preserves_path_or(self, rng):
        names = [f"l{i}" for i in range(7)]
        for _ in range(20):
            t = random_tree(rng, names)
            keep = rng.sample(names, 4)
            r = restrict_leaves(t, keep)
            assert validate(r) is None
            for x, y in combinations(sorted(keep), 2):
                assert path_label_or(r, x, y) == path_or_bruteforce(t, x, y)
