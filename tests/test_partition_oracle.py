"""Differential oracle for the partitioned per-node operations.

Every ``core.stats`` reduction, every named ``GroupBy.agg``, and the
rows kept by ``filter_profile``, ``filter_stats``, ``query_thicket``
and ``Thicket.intersection``, and ``stats.grouped_by_metadata`` are
compared with a deliberately naive reference: a dict of per-node value
lists plus numpy.  Drawn string-dialect queries are compared with the
frozen per-node evaluator of ``frozen_query``.  The generated
ensembles carry NaN and ±inf values, nodes with no rows, nodes whose
values are all non-finite, an object-dtype numeric column holding
``None``, perf rows in shuffled (not node) order, single-profile
ensembles, and tuple (multi-architecture) columns from
``concat_thickets(axis="columns")``.  Every output thicket must also
validate and survive save → load → save byte-identically.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Thicket, concat_thickets
from repro.core import stats
from repro.core.filtering import filter_profile, filter_stats
from repro.core.querying import query_thicket
from repro.frame import DataFrame, Index, MultiIndex
from repro.frame.index import sort_positions
from repro.graph import GraphFrame
from repro.graph.squash import squash_graph
from repro.query import parse_string_dialect

from . import frozen_query

RTOL = 1e-9
ATOL = 1e-12  # values that are zero up to rounding (a constant's variance)
NAMES = ["main", "solve", "init", "kernel_a", "kernel_b", "io"]
TREE = [{
    "frame": {"name": "main"}, "metrics": {"t": 0.0},
    "children": [
        {"frame": {"name": "solve"}, "metrics": {"t": 0.0}, "children": [
            {"frame": {"name": "kernel_a"}, "metrics": {"t": 0.0}},
            {"frame": {"name": "kernel_b"}, "metrics": {"t": 0.0}},
        ]},
        {"frame": {"name": "init"}, "metrics": {"t": 0.0}},
        {"frame": {"name": "io"}, "metrics": {"t": 0.0}},
    ],
}]
NON_FINITE = [math.nan, math.inf, -math.inf]
finite = st.floats(0.001, 1000.0)
metric_value = st.one_of(finite, finite, finite, st.sampled_from(NON_FINITE))
object_value = st.one_of(st.none(), st.integers(1, 50), finite,
                         st.sampled_from(NON_FINITE))


@st.composite
def ensembles(draw):
    """Spec of one ensemble: profiles, present rows, values, row order."""
    n_profiles = draw(st.integers(1, 4))
    n_nodes = len(NAMES)
    present = draw(st.lists(st.booleans(), min_size=n_nodes * n_profiles,
                            max_size=n_nodes * n_profiles))
    empty_node = draw(st.none() | st.integers(0, n_nodes - 1))
    poisoned_node = draw(st.none() | st.integers(0, n_nodes - 1))
    cells = [divmod(k, n_profiles) for k, p in enumerate(present)
             if p and divmod(k, n_profiles)[0] != empty_node]
    time = [math.inf if node == poisoned_node else draw(metric_value)
            for node, _ in cells]
    obj = [None if node == poisoned_node else draw(object_value)
           for node, _ in cells]
    order = draw(st.permutations(range(len(cells))))
    return {"n_profiles": n_profiles, "cells": [cells[i] for i in order],
            "time": [time[i] for i in order], "obj": [obj[i] for i in order]}


def build(spec, scale: float = 1.0, metadata: dict | None = None
          ) -> Thicket:
    graph = GraphFrame.from_literal(TREE).graph
    by_name = {n.frame.name: n for n in graph}
    nodes = [by_name[name] for name in NAMES]
    profiles = [100 + p for p in range(spec["n_profiles"])]
    index = MultiIndex([(nodes[n], profiles[p]) for n, p in spec["cells"]],
                       names=["node", "profile"])
    perf = DataFrame({
        "name": [NAMES[n] for n, _ in spec["cells"]],
        "time": [scale * v for v in spec["time"]],
        "obj": np.array(spec["obj"], dtype=object),
    }, index=index)
    meta = DataFrame(metadata or {"run": list(range(len(profiles)))},
                     index=Index(profiles, name="profile"))
    return Thicket(graph, perf, meta, profiles=profiles,
                   exc_metrics=["time"])


def multi_arch(spec) -> Thicket:
    """Two architectures over the same tree and profiles, as tuple columns."""
    return concat_thickets([build(spec), build(spec, scale=2.5)],
                           axis="columns", headers=["CPU", "GPU"])


# --- the naive reference -------------------------------------------------

def naive_values(tk, column, nodes, drop_inf: bool) -> dict:
    """Node → list of non-missing float values, in row order."""
    out = {n: [] for n in nodes}
    for (node, _), v in zip(tk.dataframe.index.values,
                            tk.dataframe.column(column)):
        if v is None or math.isnan(float(v)):
            continue
        if drop_inf and math.isinf(float(v)):
            continue
        if node in out:
            out[node].append(float(v))
    return out


def sample_var(a):
    return float(np.var(a, ddof=1)) if len(a) > 1 else 0.0


REFERENCE = {
    "mean": np.mean, "median": np.median, "min": np.min, "max": np.max,
    "sum": np.sum, "var": sample_var,
    "std": lambda a: float(np.std(a, ddof=1)) if len(a) > 1 else 0.0,
}
STATS = {"mean": stats.mean, "median": stats.median, "min": stats.minimum,
         "max": stats.maximum, "sum": stats.sum_profiles,
         "var": stats.variance, "std": stats.std}


def reduce_naive(values: dict, fn) -> list:
    return [float(fn(np.asarray(a))) if a else math.nan
            for a in values.values()]


def assert_close(got, want):
    np.testing.assert_allclose(np.asarray(got, dtype=np.float64),
                               np.asarray(want, dtype=np.float64),
                               rtol=RTOL, atol=ATOL, equal_nan=True)


def assert_stored_cleanly(tk):
    report = tk.validate()
    assert report.ok, [i.describe() for i in report.issues]
    first = tk.to_json()
    assert Thicket.from_json(first).to_json() == first


def row_keys(tk) -> list:
    return [(t[0].frame.name, t[1]) for t in tk.dataframe.index.values]


def metric_columns(tk) -> list:
    return [c for c in tk.dataframe.columns
            if (c[-1] if isinstance(c, tuple) else c) in ("time", "obj")]


# --- aggregated statistics -----------------------------------------------

def check_stats(tk):
    nodes = list(tk.statsframe.index.values)
    columns = metric_columns(tk)
    for stat, fn in STATS.items():
        created = fn(tk, columns)
        for col, key in zip(columns, created):
            values = naive_values(tk, col, nodes, drop_inf=True)
            assert_close(tk.statsframe.column(key),
                         reduce_naive(values, REFERENCE[stat]))
    quantiles = (0.0, 0.1, 0.25, 0.5, 0.9, 1.0)
    created = stats.percentiles(tk, columns, quantiles=quantiles)
    assert len(created) == len(quantiles) * len(columns)
    for k, q in enumerate(quantiles):
        for col, key in zip(columns, created[k * len(columns):]):
            values = naive_values(tk, col, nodes, drop_inf=True)
            assert_close(tk.statsframe.column(key), reduce_naive(
                values, lambda a, q=q: np.percentile(a, q * 100.0)))
    created = stats.boxplot_stats(tk, columns, whisker=1.5)
    for col in columns:
        values = naive_values(tk, col, nodes, drop_inf=True)
        q1 = np.asarray(reduce_naive(values,
                                     lambda a: np.percentile(a, 25)))
        q3 = np.asarray(reduce_naive(values,
                                     lambda a: np.percentile(a, 75)))
        want = {"q1": q1, "q3": q3, "iqr": q3 - q1,
                "lowerfence": q1 - 1.5 * (q3 - q1),
                "upperfence": q3 + 1.5 * (q3 - q1)}
        for part, expected in want.items():
            assert_close(tk.statsframe.column(stats.suffix_key(col, part)),
                         expected)
    for col in columns:
        got_nodes, arrays = stats.grouped_values(tk, col)
        values = naive_values(tk, col, nodes, drop_inf=True)
        assert got_nodes == nodes
        for node, a in zip(nodes, arrays):
            assert list(a) == values[node]
    assert_stored_cleanly(tk)


@settings(max_examples=60, deadline=None)
@given(ensembles())
def test_stats_match_naive_reference(spec):
    check_stats(build(spec))


@settings(max_examples=25, deadline=None)
@given(ensembles())
def test_stats_on_tuple_columns_match_naive_reference(spec):
    tk = multi_arch(spec)
    assert ("GPU", "time") in tk.dataframe
    assert_stored_cleanly(tk)
    check_stats(tk)


# --- grouping by call-tree node and metadata value ------------------------

group_value = st.one_of(st.none(), st.just(math.nan), st.integers(0, 2),
                        st.sampled_from(["a", "b"]))


def is_missing(v) -> bool:
    return v is None or (isinstance(v, float) and math.isnan(v))


def naive_by_metadata(tk, column, by) -> dict:
    """Node → key → list of finite values, in row order; nodes in the
    order of their first row, keys in the order of their first row of
    the node; a node or key with no values left out."""
    names = list(by) if isinstance(by, tuple) else [by]
    meta = {pid: tuple(tk.metadata.column(n)[i] for n in names)
            for i, pid in enumerate(tk.metadata.index.values)}
    out: dict = {}
    for (node, pid), v in zip(tk.dataframe.index.values,
                              tk.dataframe.column(column)):
        out.setdefault(node, {})
        parts = meta[pid]
        if any(is_missing(p) for p in parts):
            continue
        key = parts if isinstance(by, tuple) else parts[0]
        values = out.setdefault(node, {}).setdefault(key, [])
        if not is_missing(v) and not math.isinf(float(v)):
            values.append(float(v))
    out = {node: {k: vs for k, vs in by_key.items() if vs}
           for node, by_key in out.items()}
    return {node: by_key for node, by_key in out.items() if by_key}


def plain(key) -> bool:
    return not any(isinstance(k, np.generic)
                   for k in (key if isinstance(key, tuple) else (key,)))


@settings(deadline=None)
@given(ensembles(), st.data())
def test_grouped_by_metadata_matches_naive_reference(spec, data):
    n = spec["n_profiles"]
    columns = {name: data.draw(st.lists(group_value, min_size=n, max_size=n))
               for name in ("size", "arch")}
    columns["ranks"] = data.draw(st.lists(st.integers(1, 3), min_size=n,
                                          max_size=n))
    tk = build(spec, metadata=columns)
    for by in ("size", "ranks", ("size", "arch"), ("ranks", "arch")):
        for col in ("time", "obj"):
            got = stats.grouped_by_metadata(tk, col, by)
            want = naive_by_metadata(tk, col, by)
            assert list(got) == list(want)
            for node, by_key in want.items():
                assert list(got[node]) == list(by_key)
                assert all(plain(k) for k in got[node])
                for key, values in by_key.items():
                    assert list(got[node][key]) == values


# --- splitting into sub-thickets by metadata ------------------------------

split_value = st.one_of(group_value, st.sampled_from([0.5, 2.0]))


def naive_plain(v):
    """One metadata cell as a plain key: numpy scalars unwrapped, every
    NaN the one ``math.nan``."""
    v = v.item() if isinstance(v, np.generic) else v
    return math.nan if isinstance(v, float) and math.isnan(v) else v


def naive_split(tk, by) -> dict:
    """Profiles bucketed row by row, in sorted key order, each bucket
    through ``filter_profile``."""
    names = [by] if isinstance(by, str) else list(by)
    buckets: dict = {}
    for i, pid in enumerate(tk.metadata.index.values):
        key = tuple(naive_plain(tk.metadata.column(n)[i]) for n in names)
        buckets.setdefault(key, []).append(pid)
    keys = list(buckets)
    return {(k[0] if len(names) == 1 else k): filter_profile(tk, buckets[k])
            for k in (keys[i] for i in sort_positions(keys))}


def assert_same_cells(a, b):
    assert a.dtype == b.dtype
    assert [naive_plain(v) for v in a] == [naive_plain(v) for v in b]


def same_thicket(got, want):
    assert row_keys(got) == row_keys(want)
    assert list(got.metadata.index.values) == list(want.metadata.index.values)
    assert got.profile == want.profile
    assert got.graph is want.graph
    assert list(got.statsframe.index.values) == got.graph.node_order()
    assert got.dataframe.columns == want.dataframe.columns
    for col in got.dataframe.columns:
        assert_same_cells(got.dataframe.column(col),
                          want.dataframe.column(col))
    assert (got.exc_metrics, got.inc_metrics, got.default_metric) == (
        want.exc_metrics, want.inc_metrics, want.default_metric)


@settings(deadline=None)
@given(ensembles(), st.data())
def test_groupby_metadata_matches_naive_split(spec, data):
    n = spec["n_profiles"]
    columns = {name: data.draw(st.lists(split_value, min_size=n, max_size=n))
               for name in ("size", "arch")}
    columns["ranks"] = data.draw(st.lists(st.integers(1, 3), min_size=n,
                                          max_size=n))
    tk = build(spec, metadata=columns)
    # a profile list in another order than the metadata rows
    tk.profile = data.draw(st.permutations(tk.profile))
    stats.mean(tk, ["time"])  # the partitions are cached before splitting
    for by in ("size", "ranks", ["arch"], ("size", "arch"),
               ["ranks", "arch"]):
        got = tk.groupby(by)
        want = naive_split(tk, by)
        assert list(got) == list(want)  # same keys, same order
        for key in got:
            parts = key if isinstance(key, tuple) else (key,)
            assert plain(key)
            assert all(p is math.nan for p in parts
                       if isinstance(p, float) and math.isnan(p))
            same_thicket(got[key], want[key])
            assert row_keys(got[key]) == naive_kept(
                tk, lambda t: t[1] in set(got[key].profile))
        # the groups partition the profiles
        listed = [p for sub in got.values() for p in sub.profile]
        assert sorted(listed) == sorted(tk.profile)
        if isinstance(by, str):
            nan_keys = [k for k in got if isinstance(k, float)
                        and math.isnan(k)]
            assert len(nan_keys) == (any(
                naive_plain(v) is math.nan
                for v in tk.metadata.column(by)))
    for sub in got.values():
        assert_stored_cleanly(sub)


@settings(deadline=None)
@given(ensembles(), st.data())
def test_get_unique_metadata_matches_naive_reference(spec, data):
    n = spec["n_profiles"]
    tk = build(spec, metadata={
        name: data.draw(st.lists(split_value, min_size=n, max_size=n))
        for name in ("size", "arch")})
    got = tk.get_unique_metadata()
    for col in ("size", "arch"):
        seen: list = []
        for v in tk.metadata.column(col):
            v = naive_plain(v)
            if v not in seen:  # identity, then equality
                seen.append(v)
        assert got[col] == [seen[i] for i in sort_positions(seen)]
        assert sum(v is math.nan for v in got[col]) <= 1
        assert all(plain(v) for v in got[col])


# --- GroupBy.agg ---------------------------------------------------------

AGG_REFERENCE = dict(REFERENCE, first=lambda a: a[0] if a else None,
                     last=lambda a: a[-1] if a else None,
                     count=len, nunique=lambda a: len(set(a)))


def naive_groups(keys, values) -> dict:
    groups: dict = {}
    for key, v in zip(keys, values):
        groups.setdefault(key, [])
        if v is None or (isinstance(v, float) and math.isnan(v)):
            continue
        groups[key].append(v)
    ordered = list(groups)
    return {ordered[i]: groups[ordered[i]]
            for i in sort_positions(ordered)}


def check_agg(frame, keys, grouped):
    columns = [c for c in frame.columns
               if (c[-1] if isinstance(c, tuple) else c) in ("time", "obj")]
    names = list(AGG_REFERENCE)
    out = grouped.agg({c: names for c in columns})
    for col in columns:
        groups = naive_groups(keys, list(frame.column(col)))
        assert list(out.index.values) == list(groups)
        for name, fn in AGG_REFERENCE.items():
            got = out.column(stats.suffix_key(col, name))
            if name in ("first", "last", "count", "nunique"):
                want = [fn(a) for a in groups.values()]
                # a list mixing numbers and None becomes a float column
                assert_close([math.nan if v is None else v for v in got],
                             [math.nan if v is None else v for v in want])
            else:
                assert_close(got, [float(fn(np.asarray(a, dtype=float)))
                                   if a else math.nan
                                   for a in groups.values()])


@settings(max_examples=40, deadline=None)
@given(ensembles())
def test_groupby_agg_by_level_matches_naive_reference(spec):
    perf = build(spec).dataframe
    check_agg(perf, [t[0] for t in perf.index.values],
              perf.groupby(level="node"))


@settings(max_examples=20, deadline=None)
@given(ensembles())
def test_groupby_agg_by_column_matches_naive_reference(spec):
    perf = multi_arch(spec).dataframe
    key = ("CPU", "name")
    check_agg(perf, list(perf.column(key)), perf.groupby(key))


def test_groupby_agg_rejects_non_numeric_objects():
    perf = DataFrame({"k": ["a", "a", "b"],
                      "v": np.array([1.0, "x", 2.0], dtype=object)})
    with pytest.raises(TypeError):
        perf.groupby("k").agg({"v": "mean"})


def test_groupby_agg_custom_callable_sees_each_group():
    perf = DataFrame({"t": [1.0, 2.0, 5.0]}, index=MultiIndex(
        [("b", 1), ("a", 1), ("b", 2)], names=["node", "profile"]))
    out = perf.groupby(level="node").agg({"t": lambda a: list(a)})
    assert list(out.index.values) == ["a", "b"]
    assert list(out.column("t")) == [[2.0], [1.0, 5.0]]


# --- row selection -------------------------------------------------------

def naive_kept(tk, keep_row) -> list:
    return [(t[0].frame.name, t[1]) for t in tk.dataframe.index.values
            if keep_row(t)]


@settings(max_examples=40, deadline=None)
@given(ensembles(), st.data())
def test_filter_profile_keeps_naive_rows(spec, data):
    tk = build(spec)
    stats.mean(tk, ["time"])  # the partition is cached before filtering
    wanted = data.draw(st.lists(st.sampled_from(tk.profile), unique=True))
    out = filter_profile(tk, wanted)
    assert row_keys(out) == naive_kept(tk, lambda t: t[1] in wanted)
    assert out.profile == [p for p in tk.profile if p in wanted]
    assert_stored_cleanly(out)


@settings(max_examples=40, deadline=None)
@given(ensembles(), st.floats(0.0, 1000.0))
def test_filter_stats_keeps_naive_rows(spec, threshold):
    tk = build(spec)
    stats.mean(tk, ["time"])
    keep = {n for n, m in zip(tk.statsframe.index.values,
                              tk.statsframe.column("time_mean"))
            if m > threshold}
    out = filter_stats(tk, lambda row: row["time_mean"] > threshold)
    assert row_keys(out) == naive_kept(tk, lambda t: t[0] in keep)
    assert set(out.statsframe.index.values) == keep
    assert_stored_cleanly(out)


def naive_all_above(values, threshold) -> bool:
    def above(v):
        try:
            return float(v) > threshold
        except (TypeError, ValueError):
            return False
    return all(above(v) for v in values)


@settings(max_examples=40, deadline=None)
@given(ensembles(), st.integers(0, 1000), st.booleans())
def test_query_keeps_naive_rows(spec, whole, squash):
    tk = build(spec)
    threshold = whole + 0.5
    per_node: dict = {n: [] for n in tk.graph}
    for (node, _), v in zip(tk.dataframe.index.values,
                            tk.dataframe.column("obj")):
        per_node[node].append(v)
    matched = {n for n, vals in per_node.items()
               if naive_all_above(vals, threshold)}
    query = parse_string_dialect(
        f'MATCH (".", p) WHERE p."obj" > {whole}.5')
    out = query_thicket(tk, query, squash=squash)
    assert row_keys(out) == naive_kept(tk, lambda t: t[0] in matched)
    if squash:
        assert ({n.frame.name for n in out.graph}
                == {n.frame.name for n in matched})
    assert_stored_cleanly(out)


# --- string-dialect queries against the frozen per-node evaluator ----------

NUMBERS = st.sampled_from([("0", 0.0), ("1", 1.0), ("2", 2.0), ("-1", -1.0),
                           ("0.5", 0.5), ("25", 25.0), ("1000", 1000.0)])
# per column: literals that split its cells, then some that do not
LITERALS = {
    "name": st.sampled_from(["main", "solve", "kernel_a", "io", "", "1"]),
    "time": NUMBERS | st.sampled_from(["25", "0.5", "nan", "inf", "main"]),
    "obj": NUMBERS | st.sampled_from(["1", "1.0", "25", "nan", "None"]),
    "missing": NUMBERS | st.just("main"),
}
REGEXES = {
    "name": st.sampled_from(["k.*", "(io|init)", ".*n.*", "main", "k"]),
    "time": st.sampled_from([".*", r"[0-9.]+", r"[0-9]\..*", "nan", "inf"]),
    "obj": st.sampled_from([".*", "[0-9]+", r"[0-9.]+", r"1\.0", "nan",
                            "None|[0-9]+", "inf"]),
    "missing": st.just(".*"),
}


@st.composite
def comparisons(draw):
    attr = draw(st.sampled_from(["name", "name", "time", "obj", "obj",
                                 "missing"]))
    op = draw(st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "=~"]))
    literal = draw(REGEXES[attr] | NUMBERS if op == "=~" else LITERALS[attr])
    return ("cmp", draw(st.sampled_from(["p", "p", "p", "q"])), attr, op,
            literal)


where_clauses = st.recursive(comparisons(), lambda inner: st.one_of(
    st.tuples(st.just("not"), inner),
    st.tuples(st.sampled_from(["and", "or"]), inner, inner)), max_leaves=4)


@st.composite
def queries(draw):
    """Up to three steps, one of them (at least) bound to ``p``."""
    steps = draw(st.lists(st.tuples(
        st.sampled_from([".", ".", "*", "+", 0, 1, 2]),
        st.sampled_from([None, "p", "q"])), min_size=1, max_size=3))
    k = draw(st.integers(0, len(steps) - 1))
    steps[k] = (steps[k][0], "p")
    return steps, draw(st.one_of(where_clauses, st.none()))


def query_answer(tk, matched, squash: bool) -> tuple:
    """Row keys and graph names of keeping the *matched* nodes."""
    keep = set(matched)
    graph = squash_graph(tk.graph, keep)[0] if squash else tk.graph
    return (naive_kept(tk, lambda t: t[0] in keep),
            [n.frame.name for n in graph.traverse()])


@settings(deadline=None)
@given(ensembles(), queries(), st.sampled_from([build, build, multi_arch]),
       st.booleans())
@example(spec={"n_profiles": 2, "cells": [(0, 0), (0, 1)], "time": [1.0, 1.0],
               "obj": [None, 2]},
         query=([(".", "p")], ("cmp", "p", "obj", "=~", ".*")), make=build,
         squash=True)
def test_string_query_matches_frozen_evaluator(spec, query, make, squash):
    tk = make(spec)
    out = query_thicket(tk, parse_string_dialect(frozen_query.render(query)),
                        squash=squash)
    got = (row_keys(out), [n.frame.name for n in out.graph.traverse()])
    want = query_answer(tk, frozen_query.matched_nodes(tk, query), squash)
    if got != want:
        # the one allowed difference, test_regex_reads_stored_object_cells
        assert frozen_query.uses(query[1], "=~", "obj")
        assert got == query_answer(
            tk, frozen_query.matched_nodes(tk, query, infer=False), squash)


def test_regex_reads_stored_object_cells():
    """``=~`` sees ``str()`` of the stored cell of an object column.

    The per-node evaluator inferred a float array for a node whose
    object cells mixed ``None``/bool/int/float, so ``=~`` saw
    ``'nan'``/``'1.0'`` where the stored cell is ``None``/``1``/``True``.
    """
    spec = {"n_profiles": 2, "cells": [(0, 0), (0, 1), (1, 0), (1, 1),
                                       (2, 0), (2, 1)],
            "time": [1.0] * 6, "obj": [None, 2.5, 1, 2.5, True, 2.5]}
    tk = build(spec)  # main: None, 2.5; solve: 1, 2.5; init: True, 2.5
    measured = {"main", "solve", "init"}
    for regex, now, before in [
            (r"nan|2\.5", set(), {"main"}),
            (r"1\.0|2\.5", set(), {"solve", "init"}),
            (r"1|2\.5", {"solve"}, set()),
            (r"True|2\.5", {"init"}, set())]:
        query = ([(".", "p")], ("cmp", "p", "obj", "=~", regex))
        out = tk.query(frozen_query.render(query), squash=False,
                       validate=False)
        assert {t[0].frame.name for t in out.dataframe.index.values} == now
        old = frozen_query.matched_nodes(tk, query)
        assert {n.frame.name for n in old} & measured == before


@settings(max_examples=40, deadline=None)
@given(ensembles())
def test_intersection_keeps_naive_rows(spec):
    tk = build(spec)
    measured: dict = {}
    for node, profile in tk.dataframe.index.values:
        measured.setdefault(node, set()).add(profile)
    everywhere = {n for n, ps in measured.items() if ps == set(tk.profile)}
    out = tk.intersection()
    assert row_keys(out) == naive_kept(tk, lambda t: t[0] in everywhere)
    assert_stored_cleanly(out)
