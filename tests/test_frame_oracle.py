"""Differential oracle for the frame's row keys and thicket composition.

The reference below is a frozen copy of the tuple-based code that
keyed every row by one Python tuple: a dict over the tuples for
lookups, set operations over the tuples, and a Python sort for each of
the three composition row orders (``from_caliperreader``,
``concat_thickets(axis="index")`` and ``concat_thickets(axis=
"columns")``).  It works on plain lists of labels and dicts of numpy
columns and uses no index or join code of :mod:`repro.frame`; only the
cell-level :func:`~repro.frame.ops.coerce_column` and the graph code
(union, squash, name matching, the query engine) are shared.  A query
is answered by the frozen per-node evaluator of ``frozen_query``.

Under hypothesis, on duplicate labels, mixed int/str/None labels that
cannot be compared, empty frames and partly overlapping call trees, the
live code must give the same outcome: the same exception type, or the
same index labels and names, the same row order and the same column
bits.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Thicket, concat_thickets
from repro.frame import (
    DataFrame,
    Index,
    MultiIndex,
    concat_columns,
    concat_rows,
    join_on_index,
    merge,
)
from repro.frame.ops import coerce_column
from repro.graph import GraphFrame, union_many
from repro.graph.squash import squash_graph

from . import frozen_query

NAMES = ["k", "p"]


# ----------------------------------------------------------------------
# the reference: frames as (labels, names, columns), keyed by tuples
# ----------------------------------------------------------------------

class Ref(NamedTuple):
    labels: list
    names: Any  # a list for a MultiIndex, the index name otherwise
    cols: dict


def ref_of(df: DataFrame) -> Ref:
    return Ref(list(df.index.values), _names(df.index),
               {c: df.column(c).copy() for c in df.columns})


def _names(index) -> Any:
    return list(index.names) if isinstance(index, MultiIndex) else index.name


def ref_loc(labels: list) -> dict:
    loc: dict = {}
    for i, v in enumerate(labels):
        loc.setdefault(v, i)  # first occurrence wins
    return loc


def ref_get_indexer(labels: list, targets: list) -> np.ndarray:
    loc = ref_loc(labels)
    return np.array([loc.get(t, -1) for t in targets], dtype=np.intp)


def ref_unique(a: list) -> list:
    return list(dict.fromkeys(a))


def ref_intersection(a: list, b: list) -> list:
    other = set(b)
    return [v for v in ref_unique(a) if v in other]


def ref_union(a: list, b: list) -> list:
    return list(dict.fromkeys(list(a) + list(b)))


def ref_difference(a: list, b: list) -> list:
    other = set(b)
    return [v for v in ref_unique(a) if v not in other]


def ref_take(ref: Ref, positions) -> Ref:
    positions = np.asarray(positions, dtype=np.intp)
    return Ref([ref.labels[i] for i in positions], ref.names,
               {c: col[positions] for c, col in ref.cols.items()})


def ref_reindex(ref: Ref, labels: list, names: Any) -> Ref:
    positions = ref_get_indexer(ref.labels, labels)
    present = positions >= 0
    cols = {}
    for c, col in ref.cols.items():
        # Only the rows found are gathered: the tuple code gathered
        # position 0 for every missing row too, which raised IndexError
        # when the frame had no rows.
        if col.dtype.kind in "fib":
            taken = np.full(len(labels), np.nan)
        else:
            taken = np.full(len(labels), None, dtype=object)
        taken[present] = col[positions[present]].astype(taken.dtype)
        cols[c] = taken
    return Ref(list(labels), names, cols)


def _suffixed(col, suffix: str):
    if not suffix:
        return col
    if isinstance(col, tuple):
        return col[:-1] + (f"{col[-1]}{suffix}",)
    return f"{col}{suffix}"


def _put(cols: dict, key, values, n: int) -> None:
    """``frame[key] = values``: coerced, a repeated key overwritten."""
    cols[key] = coerce_column(values, n)


def ref_join_on_index(left: Ref, right: Ref, how: str, lsuffix: str,
                      rsuffix: str) -> Ref:
    # A repeated label is refused: the tuple code joined it by silently
    # dropping every row of it after the first.
    for side in (left, right):
        if len(ref_unique(side.labels)) != len(side.labels):
            raise ValueError("duplicate row label")
    if how == "inner":
        labels = ref_intersection(left.labels, right.labels)
    elif how == "left":
        labels = ref_unique(left.labels)
    elif how == "outer":
        labels = ref_union(left.labels, right.labels)
    else:
        raise ValueError(how)
    la = ref_reindex(left, labels, left.names)
    ra = ref_reindex(right, labels, left.names)
    cols: dict = {}
    for c, col in la.cols.items():
        _put(cols, c if c not in ra.cols else _suffixed(c, lsuffix), col,
             len(labels))
    for c, col in ra.cols.items():
        _put(cols, c if c not in la.cols else _suffixed(c, rsuffix), col,
             len(labels))
    return Ref(labels, left.names, cols)


def ref_merge(left: Ref, right: Ref, on: list, how: str,
              suffixes: tuple[str, str]) -> Ref:
    for k in on:
        if k not in left.cols or k not in right.cols:
            raise KeyError(k)

    def keys_of(ref: Ref) -> list:
        if len(on) == 1:
            return list(ref.cols[on[0]])
        return list(zip(*(ref.cols[k] for k in on)))

    buckets: dict = {}
    for i, key in enumerate(keys_of(right)):
        buckets.setdefault(key, []).append(i)
    l_pos: list[int] = []
    r_pos: list[int] = []
    for i, key in enumerate(keys_of(left)):
        matches = buckets.get(key)
        if matches:
            for j in matches:
                l_pos.append(i)
                r_pos.append(j)
        elif how == "left":
            l_pos.append(i)
            r_pos.append(-1)
    n = len(l_pos)
    l_take = ref_take(left, l_pos)
    shared = set(left.cols) & set(right.cols) - set(on)
    cols: dict = {}
    for c, col in l_take.cols.items():
        _put(cols, _suffixed(c, suffixes[0]) if c in shared else c, col, n)
    r_arr = np.asarray(r_pos, dtype=np.intp)
    present = r_arr >= 0
    safe = np.where(present, r_arr, 0)
    for c, col in right.cols.items():
        if c in on:
            continue
        col = col[safe] if len(safe) else col[:0]
        if not present.all():
            if col.dtype.kind in "ibf":
                col = col.astype(np.float64)
                col[~present] = np.nan
            else:
                col = col.astype(object)
                col[~present] = None
        _put(cols, _suffixed(c, suffixes[1]) if c in shared else c, col, n)
    return Ref(list(range(n)), None, cols)


def _stack(pieces: list, n_total: int) -> np.ndarray:
    kinds = {p.dtype.kind for p in pieces}
    if kinds <= {"f", "i", "b"}:
        return np.concatenate([p.astype(np.float64) for p in pieces])
    out = np.empty(n_total, dtype=object)
    pos = 0
    for p in pieces:
        for v in p:
            out[pos] = None if isinstance(v, float) and np.isnan(v) else v
            pos += 1
    return out


def ref_concat_rows(frames: list[Ref]) -> Ref:
    columns = list(dict.fromkeys(c for f in frames for c in f.cols))
    labels = [v for f in frames for v in f.labels]
    multi = [f.names for f in frames if isinstance(f.names, list)]
    names = multi[0] if len(multi) == len(frames) else frames[0].names
    n = len(labels)
    cols = {c: _stack([f.cols[c] if c in f.cols
                       else np.full(len(f.labels), np.nan)
                       for f in frames], n) for c in columns}
    return Ref(labels, names, cols)


def ref_concat_columns(frames: list[Ref], keys, join: str) -> Ref:
    common = frames[0].labels
    for f in frames[1:]:
        if join == "inner":
            common = ref_intersection(common, f.labels)
        elif join == "outer":
            common = ref_union(common, f.labels)
        else:
            raise ValueError(join)
    names = frames[0].names
    cols: dict = {}
    for i, f in enumerate(frames):
        aligned = f if f.labels == common else ref_reindex(f, common, names)
        for c, col in aligned.cols.items():
            key = c
            if keys is not None:
                key = (keys[i],) + (c if isinstance(c, tuple) else (c,))
            if key in cols:
                raise ValueError(f"duplicate column {key!r}")
            _put(cols, key, col, len(common))
    return Ref(list(common), names, cols)


def ref_sort_perfdata(ref: Ref, graph, profile_ids: list) -> Ref:
    node_rank = {n: i for i, n in enumerate(graph.traverse())}
    prof_rank = {p: i for i, p in enumerate(profile_ids)}
    keys = [(node_rank.get(t[0], len(node_rank)),
             prof_rank.get(t[1], len(prof_rank))) for t in ref.labels]
    return ref_take(ref, sorted(range(len(keys)), key=keys.__getitem__))


def ref_sort_concat_index(ref: Ref, graph, profiles: list) -> Ref:
    node_rank = {n: i for i, n in enumerate(graph.traverse())}
    prof_rank = {p: i for i, p in enumerate(profiles)}
    order = sorted(range(len(ref.labels)),
                   key=lambda i: (node_rank[ref.labels[i][0]],
                                  prof_rank[ref.labels[i][1]]))
    return ref_take(ref, order)


def _orderable(value):
    try:
        return (0, float(value))
    except (TypeError, ValueError):
        return (1, str(value))


def ref_sort_composed(ref: Ref, graph) -> Ref:
    node_rank = {n: i for i, n in enumerate(graph.traverse())}
    keys = [(node_rank.get(t[0], len(node_rank)), _orderable(t[1]))
            for t in ref.labels]
    return ref_take(ref, sorted(range(len(keys)), key=keys.__getitem__))


def ref_rekey(ref: Ref, mapping: dict, names=("node", "profile")) -> Ref:
    return Ref([(mapping[t[0]], t[1]) for t in ref.labels], list(names),
               ref.cols)


# ----------------------------------------------------------------------
# the reference compositions
# ----------------------------------------------------------------------

class RefThicket(NamedTuple):
    graph: Any
    perf: Ref


def ref_compose(gfs, profile_ids, intersection: bool,
                fill_perfdata: bool) -> RefThicket:
    union_graph, maps = union_many([gf.graph for gf in gfs])
    per_profile = [
        Ref([(mapping[n], pid) for n in gf.dataframe.index.values],
            ["node", "profile"],
            {c: gf.dataframe.column(c).copy() for c in gf.dataframe.columns})
        for gf, mapping, pid in zip(gfs, maps, profile_ids)]
    perf = ref_concat_rows(per_profile)
    node_filter = None
    if intersection:
        counts: dict = {}
        for mapping in maps:
            for un in set(mapping.values()):
                counts[un] = counts.get(un, 0) + 1
        node_filter = {n for n, c in counts.items() if c == len(gfs)}
    if fill_perfdata:
        nodes = [n for n in union_graph.node_order()
                 if node_filter is None or n in node_filter]
        perf = ref_reindex(perf, [(n, p) for n in nodes for p in profile_ids],
                           ["node", "profile"])
        _put(perf.cols, "name", [t[0].frame.name for t in perf.labels],
             len(perf.labels))
    else:
        perf = ref_sort_perfdata(perf, union_graph, profile_ids)
        if node_filter is not None:
            perf = ref_take(perf, [i for i, t in enumerate(perf.labels)
                                   if t[0] in node_filter])
    if node_filter is not None:
        union_graph, node_map = squash_graph(union_graph, node_filter)
        perf = ref_rekey(perf, node_map)
    return RefThicket(union_graph, perf)


def ref_concat_thickets(thickets, axis: str, headers, metadata_key,
                        match_on: str) -> RefThicket:
    from repro.core.horizontal import _match_by_name

    if axis == "index":
        union_graph, maps = union_many([tk.graph for tk in thickets])
        frames = [ref_rekey(ref_of(tk.dataframe), m)
                  for tk, m in zip(thickets, maps)]
        profiles = [p for tk in thickets for p in tk.profile]
        if len(set(profiles)) != len(profiles):
            raise ValueError("duplicate profile ids across thickets")
        perf = ref_sort_concat_index(ref_concat_rows(frames), union_graph,
                                     profiles)
        return RefThicket(union_graph, perf)
    if match_on == "path":
        union_graph, maps = union_many([tk.graph for tk in thickets])
    else:
        union_graph, maps = _match_by_name(thickets)
    frames = []
    for tk, mapping in zip(thickets, maps):
        df = ref_of(tk.dataframe)
        labels, keep = [], []
        for i, (node, pid) in enumerate(df.labels):
            if mapping.get(node) is None:
                continue
            if metadata_key is not None:
                pid = tk.metadata.loc[pid][metadata_key]
            labels.append((mapping[node], pid))
            keep.append(i)
        if len(keep) != len(df.labels):
            df = ref_take(df, keep)
        frames.append(Ref(labels, ["node", metadata_key or "profile"],
                          df.cols))
    perf = ref_concat_columns(frames, list(headers), "inner")
    return RefThicket(union_graph, ref_sort_composed(perf, union_graph))


def ref_thicket_intersection(tk) -> RefThicket:
    labels = list(tk.dataframe.index.values)
    profiles: dict = {}
    for node, pid in labels:
        profiles.setdefault(node, set()).add(pid)
    keep = {n for n, ps in profiles.items() if ps == set(tk.profile)}
    graph, node_map = squash_graph(tk.graph, keep)
    perf = ref_take(ref_of(tk.dataframe),
                    [i for i, t in enumerate(labels) if t[0] in keep])
    return RefThicket(graph, ref_rekey(perf, node_map))


def ref_query(tk, query) -> RefThicket:
    labels = list(tk.dataframe.index.values)
    matched = set(frozen_query.matched_nodes(tk, query))
    perf = ref_take(ref_of(tk.dataframe),
                    [i for i, t in enumerate(labels) if t[0] in matched])
    graph, node_map = squash_graph(tk.graph, matched)
    return RefThicket(graph, ref_rekey(perf, node_map))


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

def outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as e:  # the type is the outcome compared
        return "raise", type(e)


def same_cell(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (type(a) is type(b) and len(a) == len(b)
                and all(same_cell(x, y) for x, y in zip(a, b)))
    if type(a) is not type(b):
        return False
    return a is b or a == b or (a != a and b != b)


def same_column(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == object:
        return all(same_cell(x, y) for x, y in zip(a, b))
    return a.tobytes() == b.tobytes()


def assert_same_labels(got: list, want: list) -> None:
    assert len(got) == len(want), (got, want)
    for g, w in zip(got, want):
        assert same_cell(g, w), (got, want)


def assert_same_frame(df: DataFrame, ref: Ref, labels=None) -> None:
    """*df* equals *ref*; *labels* maps both sides' labels first."""
    got, want = list(df.index.values), ref.labels
    if labels is not None:
        got, want = labels[0](got), labels[1](want)
    assert_same_labels(got, want)
    assert _names(df.index) == ref.names
    assert df.columns == list(ref.cols)
    for c in df.columns:
        assert same_column(df.column(c), ref.cols[c]), c


def assert_same_outcome(live, ref, compare) -> None:
    assert live[0] == ref[0], (live, ref)
    if live[0] == "raise":
        assert live[1] is ref[1], (live, ref)
    else:
        compare(live[1], ref[1])


def assert_same_thicket(tk, ref: RefThicket) -> None:
    assert tk.graph.to_literal() == ref.graph.to_literal()

    def by_position(graph):
        pos = {n: i for i, n in enumerate(graph.node_order())}
        return lambda labels: [(pos[n], p) for n, p in labels]

    assert_same_frame(tk.dataframe, ref.perf,
                      labels=(by_position(tk.graph), by_position(ref.graph)))


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

# ints, strings and None: labels that cannot all be ordered together
LABEL = st.one_of(st.integers(-2, 2), st.sampled_from(["a", "b", "c"]),
                  st.none())
PAIR = st.tuples(LABEL, LABEL)
COLUMNS = ["x", "y", "s", ("g", "x")]
FLOATS = [0.5, -1.0, 2.0, np.nan, np.inf, -np.inf]
OBJECTS = ["u", "v", None]


@st.composite
def column_values(draw, n: int) -> np.ndarray:
    kind = draw(st.sampled_from("fio"))
    if kind == "f":
        return np.array(draw(st.lists(st.sampled_from(FLOATS), min_size=n,
                                      max_size=n)), dtype=np.float64)
    if kind == "i":
        return np.array(draw(st.lists(st.integers(-5, 5), min_size=n,
                                      max_size=n)), dtype=np.int64)
    out = np.empty(n, dtype=object)
    out[:] = draw(st.lists(st.sampled_from(OBJECTS), min_size=n, max_size=n))
    return out


@st.composite
def frames(draw, multi: bool = True, max_rows: int = 6,
           key_column: bool = False) -> DataFrame:
    labels = draw(st.lists(PAIR if multi else LABEL, max_size=max_rows))
    n = len(labels)
    cols = {c: draw(column_values(n)) for c in
            draw(st.lists(st.sampled_from(COLUMNS), unique=True,
                          max_size=3))}
    if key_column:
        keys = np.empty(n, dtype=object)
        keys[:] = draw(st.lists(LABEL, min_size=n, max_size=n))
        cols["key"] = keys
    index = (MultiIndex(labels, names=NAMES) if multi
             else Index(labels, name="k"))
    return DataFrame(cols, index=index)


def index_of(labels: list, multi: bool):
    return MultiIndex(labels, names=NAMES) if multi else Index(labels)


# ----------------------------------------------------------------------
# frame operations
# ----------------------------------------------------------------------

@pytest.mark.parametrize("multi", [True, False], ids=["multi", "flat"])
@given(data=st.data())
def test_index_lookups_and_set_operations(multi, data):
    strat = st.lists(PAIR if multi else LABEL, max_size=8)
    a, b = data.draw(strat), data.draw(strat)
    ia, ib = index_of(a, multi), index_of(b, multi)
    assert list(ia.get_indexer(b)) == list(ref_get_indexer(a, b))
    assert list(ia.get_indexer(ib.values)) == list(ref_get_indexer(a, b))
    for live, ref in ((ia.unique(), ref_unique(a)),
                      (ia.intersection(ib), ref_intersection(a, b)),
                      (ia.union(ib), ref_union(a, b)),
                      (ia.difference(ib), ref_difference(a, b))):
        assert_same_labels(list(live.values), ref)
        assert isinstance(live, MultiIndex) == multi
        if multi:
            assert live.names == NAMES
    assert ia.has_duplicates() == (len(ref_unique(a)) != len(a))
    loc = ref_loc(a)
    for label in b:
        assert (label in ia) == (label in loc)
        if label in loc:
            assert ia.get_loc(label) == loc[label]


@pytest.mark.parametrize("multi", [True, False], ids=["multi", "flat"])
@given(data=st.data())
def test_reindex(multi, data):
    df = data.draw(frames(multi=multi))
    target = data.draw(st.lists(PAIR if multi else LABEL, max_size=8))
    names = NAMES if multi else None
    assert_same_outcome(
        outcome(df.reindex, index_of(target, multi)),
        outcome(ref_reindex, ref_of(df), target, names),
        assert_same_frame)


@pytest.mark.parametrize("how", ["inner", "left", "outer"])
@given(data=st.data())
def test_join_on_index(how, data):
    multi = data.draw(st.booleans())
    left, right = data.draw(frames(multi)), data.draw(frames(multi))
    suffixes = data.draw(st.sampled_from([("", "_right"), ("_l", "_r")]))
    assert_same_outcome(
        outcome(join_on_index, left, right, how, *suffixes),
        outcome(ref_join_on_index, ref_of(left), ref_of(right), how,
                *suffixes),
        assert_same_frame)


@pytest.mark.parametrize("how", ["inner", "left"])
@given(data=st.data())
def test_merge(how, data):
    left = data.draw(frames(multi=False, key_column=True))
    right = data.draw(frames(multi=False, key_column=True))
    on = data.draw(st.sampled_from([["key"], ["key", "x"]]))
    assert_same_outcome(
        outcome(merge, left, right, on=on, how=how),
        outcome(ref_merge, ref_of(left), ref_of(right), on, how,
                ("_x", "_y")),
        assert_same_frame)


@given(data=st.data())
def test_concat_rows_with_missing_columns(data):
    multi = data.draw(st.booleans())
    parts = data.draw(st.lists(frames(multi), min_size=1, max_size=4))
    assert_same_frame(concat_rows(parts),
                      ref_concat_rows([ref_of(f) for f in parts]))


@pytest.mark.parametrize("join", ["inner", "outer"])
@given(data=st.data())
def test_concat_columns(join, data):
    parts = data.draw(st.lists(frames(), min_size=1, max_size=3))
    keys = data.draw(st.sampled_from(
        [None, [f"h{i}" for i in range(len(parts))]]))
    assert_same_outcome(
        outcome(concat_columns, parts, keys=keys, join=join),
        outcome(ref_concat_columns, [ref_of(f) for f in parts], keys, join),
        assert_same_frame)


# ----------------------------------------------------------------------
# composition over partly overlapping call trees
# ----------------------------------------------------------------------

TREE = ("main", [("init", []),
                 ("solve", [("dot", []), ("axpy", []), ("init", [])]),
                 ("io", [("write", [])])])


@st.composite
def partial_literals(draw, n_min: int = 1, n_max: int = 4) -> list:
    """Literals of partly overlapping subtrees of TREE, one per profile.

    The root is always kept; every other subtree is kept or dropped.
    """

    def prune(spec, path):
        name, children = spec
        kept = [prune(c, path + (c[0],)) for c in children
                if draw(st.booleans())]
        return {"frame": {"name": name},
                "metrics": {"time (exc)": draw(st.sampled_from(FLOATS)),
                            "reps": draw(st.integers(0, 3))},
                "children": kept}

    return [[prune(TREE, (TREE[0],))]
            for _ in range(draw(st.integers(n_min, n_max)))]


SIZES = [1, "1", 2, 4, "8", "big", "a"]


def graphframes(literals: list, sizes: list, run0: int = 0) -> list:
    gfs = []
    for i, (lit, size) in enumerate(zip(literals, sizes)):
        gf = GraphFrame.from_literal(lit)
        gf.metadata = {"run": run0 + i, "size": size}
        gfs.append(gf)
    return gfs


OPTIONS = settings(deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@OPTIONS
@given(literals=partial_literals(), intersection=st.booleans(),
       fill=st.booleans())
def test_from_caliperreader(literals, intersection, fill):
    sizes = [1] * len(literals)
    tk = Thicket.from_caliperreader(graphframes(literals, sizes),
                                    intersection=intersection,
                                    fill_perfdata=fill)
    ref = ref_compose(graphframes(literals, sizes), tk.profile,
                      intersection, fill)
    assert_same_thicket(tk, ref)


def _compose(literals, sizes, run0=0):
    return Thicket.from_caliperreader(graphframes(literals, sizes, run0))


@OPTIONS
@given(data=st.data(), match_on=st.sampled_from(["path", "name"]),
       metadata_key=st.sampled_from([None, "size"]))
def test_concat_thickets_columns(data, match_on, metadata_key):
    # distinct sizes within a thicket keep its profile key unique; the
    # same runs on both sides give both the same profile hashes
    sizes = data.draw(st.permutations(SIZES))
    thickets = [_compose(data.draw(partial_literals()), sizes)
                for _ in range(2)]
    args = ("columns", ["CPU", "GPU"], metadata_key, match_on)
    assert_same_outcome(
        outcome(concat_thickets, thickets, *args),
        outcome(ref_concat_thickets, thickets, *args),
        assert_same_thicket)


@OPTIONS
@given(data=st.data())
def test_concat_thickets_index(data):
    thickets = [_compose(data.draw(partial_literals()), [1] * 4, run0)
                for run0 in (0, 100)]
    assert_same_outcome(
        outcome(concat_thickets, thickets, axis="index"),
        outcome(ref_concat_thickets, thickets, "index", None, None, None),
        assert_same_thicket)


@OPTIONS
@given(literals=partial_literals(n_min=2))
def test_thicket_intersection(literals):
    tk = _compose(literals, [1] * len(literals))
    assert_same_thicket(tk.intersection(), ref_thicket_intersection(tk))


QUERIES = [
    ([(".", "p")], ("cmp", "p", "name", "=", "init")),
    ([(".", "p"), ("*", None)], ("cmp", "p", "name", "=", "solve")),
    ([(".", "p")], ("cmp", "p", "name", "=~", "(io|dot|write)")),
]


@OPTIONS
@given(literals=partial_literals(), query=st.sampled_from(QUERIES))
def test_query_squash(literals, query):
    tk = _compose(literals, [1] * len(literals))
    assert_same_thicket(tk.query(frozen_query.render(query), squash=True,
                                 validate=False),
                        ref_query(tk, query))
