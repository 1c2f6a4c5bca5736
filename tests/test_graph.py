"""Unit tests for repro.graph (node, graph, union, canon, squash)."""

import pytest

from repro.graph import (
    Frame,
    Graph,
    Node,
    canonical_form,
    node_path,
    trees_isomorphic,
    union_graphs,
    union_many,
)
from repro.graph.squash import squash_graph


def tree(spec):
    return Graph.from_literal(spec)


SIMPLE = [{"frame": {"name": "main"}, "children": [
    {"frame": {"name": "foo"}, "children": [{"frame": {"name": "baz"}}]},
    {"frame": {"name": "bar"}},
]}]


class TestFrame:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            Frame({})

    def test_equality_and_hash(self):
        assert Frame(name="a") == Frame(name="a")
        assert Frame(name="a") != Frame(name="b")
        assert hash(Frame(name="a", type="region")) == hash(
            Frame({"name": "a", "type": "region"}))

    def test_kwargs_merge(self):
        f = Frame({"name": "x"}, type="loop")
        assert f["type"] == "loop"
        assert f.get("missing", 7) == 7

    def test_ordering(self):
        assert Frame(name="a") < Frame(name="b")

    def test_str(self):
        assert str(Frame(name="solve")) == "solve"


class TestNode:
    def test_connect_builds_both_links(self):
        a, b = Node(Frame(name="a")), Node(Frame(name="b"))
        a.connect(b)
        assert b in a.children and b.parent is a

    def test_connect_idempotent(self):
        a, b = Node(Frame(name="a")), Node(Frame(name="b"))
        a.connect(b)
        a.connect(b)
        assert len(a.children) == 1

    def test_connect_refuses_second_parent(self):
        a, b, c = (Node(Frame(name=n)) for n in "abc")
        a.connect(c)
        with pytest.raises(ValueError, match="already has a parent"):
            b.connect(c)
        assert c.parent is a and b.children == []

    def test_connect_refuses_self(self):
        a = Node(Frame(name="a"))
        with pytest.raises(ValueError, match="cycle"):
            a.connect(a)
        assert a.parent is None and a.children == []

    def test_connect_refuses_root_of_own_tree(self):
        g = tree(SIMPLE)
        main, baz = g.find("main"), g.find("baz")
        with pytest.raises(ValueError, match="cycle"):
            baz.connect(main)
        assert main.parent is None and baz.children == []

    def test_connect_accepts_other_trees_root(self):
        a, b = tree(SIMPLE), tree(SIMPLE)
        a.find("baz").connect(b.roots[0])
        assert b.roots[0].parent is a.find("baz")

    def test_identity_hash(self):
        a1, a2 = Node(Frame(name="a")), Node(Frame(name="a"))
        assert a1 != a2
        assert len({a1, a2}) == 2

    def test_identity_dunders_are_the_object_defaults(self):
        # Nodes key the dicts behind union_many, the node ranks of the
        # composition row order and the node level of every (node,
        # profile) MultiIndex, whose construction hashes each row's
        # node once.  A Python-level __hash__/__eq__ (even
        # `return id(self)`) turns each of those lookups into a
        # function call.
        assert "__hash__" not in Node.__dict__
        assert "__eq__" not in Node.__dict__

    def test_traverse_pre_and_post(self):
        g = tree(SIMPLE)
        pre = [n.name for n in g.roots[0].traverse("pre")]
        post = [n.name for n in g.roots[0].traverse("post")]
        assert pre == ["main", "foo", "baz", "bar"]
        assert post == ["baz", "foo", "bar", "main"]

    def test_node_path(self):
        g = tree(SIMPLE)
        baz = g.find("baz")
        assert [f.name for f in node_path(baz)] == ["main", "foo", "baz"]


class TestGraph:
    def test_root_with_parent_refused(self):
        g = tree(SIMPLE)
        with pytest.raises(ValueError, match="has a parent"):
            Graph([g.find("foo")])

    def test_len_and_iteration(self):
        g = tree(SIMPLE)
        assert len(g) == 4
        assert [n.name for n in g] == ["main", "foo", "baz", "bar"]

    def test_literal_round_trip(self):
        g = tree(SIMPLE)
        assert Graph.from_literal(g.to_literal()) == g

    def test_enumerate_assigns_nids(self):
        g = tree(SIMPLE)
        assert [n._nid for n in g.traverse()] == [0, 1, 2, 3]

    def test_find_and_find_all(self):
        g = tree(SIMPLE)
        assert g.find("bar").name == "bar"
        assert g.find("ghost") is None
        assert len(g.find_all(lambda n: len(n.children) == 0)) == 2

    def test_copy_is_deep(self):
        g = tree(SIMPLE)
        clone, mapping = g.copy()
        assert clone == g
        assert all(mapping[n] is not n for n in g.traverse())

    def test_structural_equality_ignores_sibling_order(self):
        g1 = tree(SIMPLE)
        g2 = tree([{"frame": {"name": "main"}, "children": [
            {"frame": {"name": "bar"}},
            {"frame": {"name": "foo"}, "children": [{"frame": {"name": "baz"}}]},
        ]}])
        assert g1 == g2

    def test_inequality_on_label_change(self):
        g1 = tree(SIMPLE)
        g2 = tree([{"frame": {"name": "main"}, "children": [
            {"frame": {"name": "foo"}, "children": [{"frame": {"name": "qux"}}]},
            {"frame": {"name": "bar"}},
        ]}])
        assert not (g1 == g2)


class TestCanon:
    def test_isomorphic_trees(self):
        a = tree(SIMPLE)
        b = tree(SIMPLE)
        assert trees_isomorphic(a, b)

    def test_shape_difference_detected(self):
        a = tree([{"frame": {"name": "r"}, "children": [
            {"frame": {"name": "x"}, "children": [{"frame": {"name": "y"}}]}]}])
        b = tree([{"frame": {"name": "r"}, "children": [
            {"frame": {"name": "x"}}, {"frame": {"name": "y"}}]}])
        assert not trees_isomorphic(a, b)

    def test_forest_root_order_irrelevant(self):
        a = Graph.from_literal([{"frame": {"name": "a"}},
                                {"frame": {"name": "b"}}])
        b = Graph.from_literal([{"frame": {"name": "b"}},
                                {"frame": {"name": "a"}}])
        assert canonical_form(a) == canonical_form(b)


class TestUnion:
    def test_union_identical_is_same_shape(self):
        a, b = tree(SIMPLE), tree(SIMPLE)
        u, ma, mb = union_graphs(a, b)
        assert len(u) == 4
        assert u == a

    def test_union_merges_distinct_subtrees(self):
        a = tree(SIMPLE)
        b = tree([{"frame": {"name": "main"}, "children": [
            {"frame": {"name": "qux"}}]}])
        u, ma, mb = union_graphs(a, b)
        assert len(u) == 5
        names = {n.name for n in u}
        assert names == {"main", "foo", "baz", "bar", "qux"}

    def test_union_maps_cover_inputs(self):
        a, b = tree(SIMPLE), tree(SIMPLE)
        u, ma, mb = union_graphs(a, b)
        assert set(ma) == set(a.traverse())
        assert set(mb) == set(b.traverse())
        # same path -> same union node
        assert ma[a.find("baz")] is mb[b.find("baz")]

    def test_same_name_different_path_not_merged(self):
        a = tree([{"frame": {"name": "r"}, "children": [
            {"frame": {"name": "x"}, "children": [{"frame": {"name": "leaf"}}]},
            {"frame": {"name": "y"}, "children": [{"frame": {"name": "leaf"}}]},
        ]}])
        u, ms = union_many([a])
        leaves = [n for n in u if n.name == "leaf"]
        assert len(leaves) == 2

    def test_union_idempotent(self):
        a = tree(SIMPLE)
        u1, _, _ = union_graphs(a, a)
        u2, _, _ = union_graphs(u1, a)
        assert u1 == u2


class TestSquash:
    def test_squash_reparents_across_gap(self):
        g = tree(SIMPLE)
        keep = {g.find("main"), g.find("baz")}
        new_g, mapping = squash_graph(g, keep)
        assert len(new_g) == 2
        main_clone = mapping[g.find("main")]
        assert [c.name for c in main_clone.children] == ["baz"]

    def test_squash_original_untouched(self):
        g = tree(SIMPLE)
        before = g.to_literal()
        squash_graph(g, {g.find("foo")})
        assert g.to_literal() == before

    def test_squash_dropped_root_promotes_children(self):
        g = tree(SIMPLE)
        keep = {g.find("foo"), g.find("bar")}
        new_g, _ = squash_graph(g, keep)
        assert {r.name for r in new_g.roots} == {"foo", "bar"}
