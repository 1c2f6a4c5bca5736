"""Unit tests for the Call Path Query Language (repro.query)."""

import pytest

from repro.graph import GraphFrame
from repro.query import (
    QueryMatcher,
    QueryNode,
    attr_predicate,
    match_paths,
    parse_quantifier,
)

FIG8_TREE = [{"frame": {"name": "Base_CUDA"}, "metrics": {"t": 0.001},
              "children": [
    {"frame": {"name": "Algorithm"}, "metrics": {"t": 0.0}, "children": [
        {"frame": {"name": "Algorithm_MEMCPY"}, "metrics": {"t": 0.0},
         "children": [
            {"frame": {"name": "Algorithm_MEMCPY.block_128"},
             "metrics": {"t": 0.002}},
            {"frame": {"name": "Algorithm_MEMCPY.block_256"},
             "metrics": {"t": 0.009}},
            {"frame": {"name": "Algorithm_MEMCPY.library"},
             "metrics": {"t": 0.001}},
        ]},
        {"frame": {"name": "Algorithm_MEMSET"}, "metrics": {"t": 0.0},
         "children": [
            {"frame": {"name": "Algorithm_MEMSET.block_128"},
             "metrics": {"t": 0.001}},
            {"frame": {"name": "Algorithm_MEMSET.block_256"},
             "metrics": {"t": 0.002}},
        ]},
    ]},
]}]


@pytest.fixture
def gf():
    return GraphFrame.from_literal(FIG8_TREE)


def row_view_of(gf):
    def row_view(node):
        pos = gf.dataframe.index.get_loc(node)
        return {c: gf.dataframe.column(c)[pos] for c in gf.dataframe.columns}

    return row_view


class TestQuantifiers:
    def test_parse(self):
        assert parse_quantifier(".") == (1, 1)
        assert parse_quantifier("*") == (0, None)
        assert parse_quantifier("+") == (1, None)
        assert parse_quantifier(3) == (3, 3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            parse_quantifier("?")
        with pytest.raises(ValueError):
            parse_quantifier(-1)
        with pytest.raises(TypeError):
            parse_quantifier(True)


class TestMatcherConstruction:
    def test_rel_before_match_rejected(self):
        with pytest.raises(ValueError):
            QueryMatcher().rel(".")

    def test_match_resets(self):
        q = QueryMatcher().match(".").rel("*")
        q.match("+")
        assert len(q) == 1

    def test_from_spec(self):
        q = QueryMatcher.from_spec([(".", {"name": "a"}), ("*",)])
        assert len(q) == 2

    def test_from_spec_bad_step(self):
        with pytest.raises(ValueError):
            QueryMatcher.from_spec([(".", {}, "extra")])


class TestFig8Query:
    """The paper's exact query: Base_CUDA → * → *.block_128."""

    def test_matches_paper_result(self, gf):
        q = (QueryMatcher()
             .match(".", lambda row: row["name"] == "Base_CUDA")
             .rel("*")
             .rel(".", lambda row: row["name"].endswith("block_128")))
        names = [n.frame.name for n in q.apply(gf.graph, row_view_of(gf))]
        assert names == [
            "Base_CUDA", "Algorithm", "Algorithm_MEMCPY",
            "Algorithm_MEMCPY.block_128", "Algorithm_MEMSET",
            "Algorithm_MEMSET.block_128",
        ]

    def test_object_dialect_equivalent(self, gf):
        q = QueryMatcher.from_spec([
            (".", {"name": "Base_CUDA"}),
            ("*",),
            (".", {"name": "~.*block_128"}),
        ])
        names = {n.frame.name for n in q.apply(gf.graph, row_view_of(gf))}
        assert "Algorithm_MEMCPY.block_128" in names
        assert "Algorithm_MEMCPY.block_256" not in names


class TestSemantics:
    def test_single_node_query(self, gf):
        q = QueryMatcher().match(".", lambda r: r["name"] == "Algorithm")
        out = q.apply(gf.graph, row_view_of(gf))
        assert [n.frame.name for n in out] == ["Algorithm"]

    def test_star_matches_zero_nodes(self, gf):
        # Base_CUDA -> * -> Algorithm must match with * consuming nothing
        q = (QueryMatcher()
             .match(".", lambda r: r["name"] == "Base_CUDA")
             .rel("*")
             .rel(".", lambda r: r["name"] == "Algorithm"))
        names = {n.frame.name for n in q.apply(gf.graph, row_view_of(gf))}
        assert names == {"Base_CUDA", "Algorithm"}

    def test_plus_requires_one(self, gf):
        # Base_CUDA -> + -> Algorithm: + must consume >=1, but Algorithm
        # is a direct child, so nothing can sit between them
        q = (QueryMatcher()
             .match(".", lambda r: r["name"] == "Base_CUDA")
             .rel("+", lambda r: r["name"] == "nonexistent")
             .rel(".", lambda r: r["name"] == "Algorithm"))
        assert q.apply(gf.graph, row_view_of(gf)) == []

    def test_exact_count_quantifier(self, gf):
        q = QueryMatcher.from_spec([
            (".", {"name": "Base_CUDA"}),
            (2,),
            (".", {"name": "~.*block_256"}),
        ])
        names = {n.frame.name for n in q.apply(gf.graph, row_view_of(gf))}
        assert "Algorithm_MEMCPY.block_256" in names

    def test_match_can_start_anywhere(self, gf):
        q = QueryMatcher().match(".", lambda r: r["name"].endswith("library"))
        out = q.apply(gf.graph, row_view_of(gf))
        assert [n.frame.name for n in out] == ["Algorithm_MEMCPY.library"]

    def test_numeric_predicate_spec(self, gf):
        q = QueryMatcher.from_spec([(".", {"t": "> 0.005"})])
        names = {n.frame.name for n in q.apply(gf.graph, row_view_of(gf))}
        assert names == {"Algorithm_MEMCPY.block_256"}

    def test_empty_query_returns_nothing(self, gf):
        assert QueryMatcher().apply(gf.graph, row_view_of(gf)) == []

    def test_match_paths_are_contiguous(self, gf):
        q = QueryMatcher.from_spec([
            (".", {"name": "Algorithm"}),
            (".", {"name": "Algorithm_MEMSET"}),
        ])
        paths = match_paths(gf.graph, q.query_nodes, row_view_of(gf))
        assert len(paths) >= 1
        for path in paths:
            for parent, child in zip(path, path[1:]):
                assert child in parent.children


class TestAttrPredicate:
    def test_missing_key_is_false(self):
        pred = attr_predicate({"ghost": 1})
        assert not pred({"name": "x"})

    def test_series_all_semantics(self):
        from repro.frame import Series

        pred = attr_predicate({"name": "a"})
        assert pred({"name": Series(["a", "a"])})
        assert not pred({"name": Series(["a", "b"])})

    def test_regex(self):
        pred = attr_predicate({"name": "~Stream_.*"})
        assert pred({"name": "Stream_DOT"})
        assert not pred({"name": "Apps_VOL3D"})

    def test_order_spec_on_a_non_number_is_false(self):
        pred = attr_predicate({"name": "< 0.5"})
        assert not pred({"name": "main"})
        assert not pred({"name": None})
        assert pred({"name": 0.25})


def test_object_dialect_order_spec_on_a_string_column(raja_thicket):
    """Like ``p."name" < 0.5`` in the string dialect: no node matches."""
    out = raja_thicket.query([(".", {"name": "< 0.5"})], validate=False)
    assert len(out.dataframe) == 0
    assert len(raja_thicket.query('MATCH (".", p) WHERE p."name" < 0.5',
                                  validate=False).dataframe) == 0
