"""Property-based tests for labelled-tree canonical forms and unions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import Graph, canonical_form, trees_isomorphic, union_many
from repro.graph.squash import squash_graph
from repro.readers.caliper import read_cali_dict

# --- random labelled tree generator -----------------------------------

labels = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def literal_tree(draw, depth=0):
    name = draw(labels)
    spec = {"frame": {"name": name}}
    if depth < 3:
        n_children = draw(st.integers(0, 3 if depth < 2 else 1))
        if n_children:
            spec["children"] = [
                draw(literal_tree(depth=depth + 1)) for _ in range(n_children)
            ]
    return spec


forests = st.lists(literal_tree(), min_size=1, max_size=2)


def shuffle_children(spec, rng_sign):
    """Deterministically permute children at every level."""
    out = {"frame": dict(spec["frame"])}
    children = spec.get("children")
    if children:
        reordered = list(reversed(children)) if rng_sign else list(children)
        out["children"] = [shuffle_children(c, not rng_sign) for c in reordered]
    return out


@settings(max_examples=60)
@given(forests)
def test_canonical_form_invariant_under_child_reordering(forest):
    g1 = Graph.from_literal(forest)
    g2 = Graph.from_literal([shuffle_children(t, True) for t in forest])
    assert canonical_form(g1) == canonical_form(g2)
    assert trees_isomorphic(g1, g2)


@settings(max_examples=60)
@given(forests)
def test_union_with_self_is_isomorphic_to_self(forest):
    g = Graph.from_literal(forest)
    h = Graph.from_literal(forest)
    u, _ = union_many([g, h])
    # union may merge same-path duplicates within one input, so compare
    # against the self-union (the union fixed point), not the raw input
    u_fixed, _ = union_many([g])
    assert trees_isomorphic(u, u_fixed)


@settings(max_examples=40)
@given(forests, forests)
def test_union_commutative_up_to_isomorphism(fa, fb):
    a1, b1 = Graph.from_literal(fa), Graph.from_literal(fb)
    a2, b2 = Graph.from_literal(fa), Graph.from_literal(fb)
    u_ab, _ = union_many([a1, b1])
    u_ba, _ = union_many([b2, a2])
    assert trees_isomorphic(u_ab, u_ba)


@settings(max_examples=40)
@given(forests, forests)
def test_union_contains_both_inputs_node_counts(fa, fb):
    a, b = Graph.from_literal(fa), Graph.from_literal(fb)
    u, maps = union_many([a, b])
    # every input node maps into the union
    assert set(maps[0]) == set(a.traverse())
    assert set(maps[1]) == set(b.traverse())
    # union is no larger than the sum and no smaller than either side's
    # distinct path count
    paths_a = {tuple(f.name for f in p) for p in
               (tuple(__import__("repro.graph.node", fromlist=["node_path"])
                      .node_path(n)) for n in a.traverse())}
    assert len(u) <= len(a) + len(b)
    assert len(u) >= len(paths_a)


def cali_payload(forest):
    """The cali-JSON dict of a literal forest: nodes in pre-order."""
    nodes = []

    def add(spec, parent):
        nodes.append({"label": spec["frame"]["name"], "parent": parent})
        here = len(nodes) - 1
        for child in spec.get("children", []):
            add(child, here)

    for spec in forest:
        add(spec, None)
    return {"nodes": nodes, "columns": ["path", "time"],
            "data": [[i, 1.0] for i in range(len(nodes))]}


def assert_forest_of_trees(graph):
    nodes = list(graph.traverse())
    assert len(nodes) == len(set(nodes))
    assert ({id(n) for n in nodes if n.parent is None}
            == {id(r) for r in graph.roots})
    for node in nodes:
        if node.parent is not None:
            assert any(c is node for c in node.parent.children)


@settings(max_examples=60)
@given(forests, forests, st.data())
def test_traversal_visits_each_node_once(forest, other, data):
    # every builder of graphs yields trees: the reader, the literal
    # constructor, the union, squash and copy
    g = Graph.from_literal(forest)
    keep = {n for n in g.traverse() if data.draw(st.booleans())}
    built = [read_cali_dict(cali_payload(forest)).graph, g,
             union_many([g, Graph.from_literal(other)])[0],
             squash_graph(g, keep)[0], g.copy()[0]]
    for graph in built:
        assert_forest_of_trees(graph)
    shape = [[(n.name, n.parent and n.parent._nid) for n in graph.traverse()]
             for graph in (built[0], g, built[4])]
    assert shape[0] == shape[1] == shape[2]


def walk(nodes, order):
    """Nodes of *nodes*' subtrees by plain recursion."""
    out = []
    for node in nodes:
        if order == "pre":
            out.append(node)
        out.extend(walk(node.children, order))
        if order == "post":
            out.append(node)
    return out


@settings(max_examples=60)
@given(forests)
def test_graph_snapshot_matches_recursive_walk(forest):
    graph = Graph.from_literal(forest)
    pre = walk(graph.roots, "pre")
    assert len(graph) == len(pre)
    assert graph.node_order() == pre
    assert list(graph.traverse("pre")) == pre == list(graph)
    assert list(graph.traverse("post")) == walk(graph.roots, "post")
    assert [n._nid for n in pre] == list(range(len(pre)))
    for name in {n.frame.name for n in pre} | {"ghost"}:
        named = [n for n in pre if n.frame.name == name]
        assert graph.find(name) is (named[0] if named else None)
        assert graph.find_all(name) == named
    leaves = [n for n in pre if not n.children]
    assert graph.find_all(lambda n: not n.children) == leaves
    # node_order hands out a copy: changing it leaves the graph as it was
    graph.node_order().clear()
    assert graph.node_order() == pre
