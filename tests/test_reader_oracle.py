"""Differential oracle for the one strict cali-JSON parser.

``read_cali_dict`` checks a payload and builds it in one pass over the
rows, where ingest used to run a separate validator and then a lenient
reader.  The reference below is a frozen copy of that validator and
reader, run the way the ingest pipeline ran them.  On every input,
fuzzed corruptions included, the fused parser must give the same
verdict with the same exception type and stage; on an input with a
single fault, the same message; and on an accepted input, the same
GraphFrame: columns, dtypes, values, row frames, parent links and
metadata.  The one input read differently on purpose is
``"globals": null``: the fused parser reads it as absent globals, where
the reference crashed on ``dict(None)`` at build, so it is compared
against the reference run without its globals.
"""

from __future__ import annotations

import copy
import numbers
import time
from decimal import Decimal
from typing import Any, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReaderError, ReproError, SchemaError
from repro.frame import DataFrame, Index
from repro.graph import Frame, Graph, GraphFrame, Node
from repro.ingest import validate_cali_payload
from repro.ingest.pipeline import _build
from repro.readers import read_cali_dict

from .test_failure_injection import (
    _CORRUPTIONS,
    _apply_corruption,
    _base_payload,
)

SOURCE = "oracle.json"


# ----------------------------------------------------------------------
# the reference: the validator and lenient reader the parser replaced
# ----------------------------------------------------------------------

def _fail(message: str, source: Any) -> None:
    raise SchemaError(message, source=source)


def reference_validate(payload: Any, source: Any = None) -> None:
    if not isinstance(payload, Mapping):
        _fail(f"payload must be a JSON object, got {type(payload).__name__}",
              source)
    missing = [s for s in ("nodes", "columns", "data") if s not in payload]
    if missing:
        _fail("missing required section(s) "
              + ", ".join(repr(s) for s in missing), source)
    nodes = payload["nodes"]
    columns = payload["columns"]
    data = payload["data"]
    for name, section in (("nodes", nodes), ("columns", columns),
                          ("data", data)):
        if not isinstance(section, (list, tuple)):
            _fail(f"section {name!r} must be a list, got "
                  f"{type(section).__name__}", source)
    for j, col in enumerate(columns):
        if not isinstance(col, str):
            _fail(f"column name {j} must be a string, got {col!r}", source)
    col_meta = payload.get("column_metadata")
    if col_meta is not None:
        if not isinstance(col_meta, (list, tuple)):
            _fail("'column_metadata' must be a list", source)
        if len(col_meta) != len(columns):
            _fail(f"'column_metadata' has {len(col_meta)} entries for "
                  f"{len(columns)} columns", source)
        for j, m in enumerate(col_meta):
            if not isinstance(m, Mapping):
                _fail(f"column_metadata entry {j} must be an object", source)
    for i, spec in enumerate(nodes):
        if not isinstance(spec, Mapping):
            _fail(f"node entry {i} must be an object", source)
        if "label" not in spec:
            _fail(f"node entry {i} has no 'label'", source)
        parent = spec.get("parent")
        if parent is not None:
            if isinstance(parent, bool) or not isinstance(parent, int):
                _fail(f"node entry {i} parent must be an integer node id, "
                      f"got {parent!r}", source)
            if not 0 <= parent < i:
                _fail(f"node entry {i} has dangling parent reference "
                      f"{parent} (must point at an earlier node)", source)
    try:
        path_pos = list(columns).index("path")
    except ValueError:
        path_pos = 0

    def is_value_col(j: int) -> bool:
        if j == path_pos:
            return False
        if col_meta is None:
            return True
        return bool(col_meta[j].get("is_value", True))

    seen_nodes: set[int] = set()
    for r, row in enumerate(data):
        if not isinstance(row, (list, tuple)):
            _fail(f"data row {r} must be a list", source)
        if len(row) != len(columns):
            _fail(f"data row {r} has {len(row)} cells for "
                  f"{len(columns)} columns", source)
        if columns:
            nid = row[path_pos]
            if isinstance(nid, bool) or not isinstance(nid, int):
                _fail(f"data row {r} node id must be an integer, "
                      f"got {nid!r}", source)
            if not 0 <= nid < len(nodes):
                _fail(f"data row {r} references unknown node id {nid} "
                      f"(profile has {len(nodes)} nodes)", source)
            if nid in seen_nodes:
                _fail(f"data row {r} duplicates node id {nid} — a node "
                      f"may appear at most once per profile", source)
            seen_nodes.add(nid)
        for j, cell in enumerate(row):
            if j == path_pos or not is_value_col(j):
                continue
            if cell is None or isinstance(cell, numbers.Number):
                continue
            _fail(f"data row {r}, column {columns[j]!r}: metric cell must "
                  f"be numeric or null, got {cell!r}", source)
    globs = payload.get("globals")
    if globs is not None and not isinstance(globs, Mapping):
        _fail("'globals' must be an object of run metadata", source)


def reference_read(payload: Mapping[str, Any], source: Any = None
                   ) -> GraphFrame:
    """The lenient reader; only ever run after ``reference_validate``."""
    node_specs = payload["nodes"]
    columns = payload["columns"]
    data = payload["data"]
    col_meta = payload.get("column_metadata") or [{} for _ in columns]
    nodes: list[Node] = []
    roots: list[Node] = []
    for spec in node_specs:
        node = Node(Frame(name=spec["label"], type=spec.get("column", "path")))
        parent_id = spec.get("parent")
        if parent_id is None:
            roots.append(node)
        else:
            nodes[parent_id].connect(node)
        nodes.append(node)
    graph = Graph(roots)
    try:
        path_pos = columns.index("path")
    except ValueError:
        path_pos = 0
    value_cols = [
        (j, c) for j, c in enumerate(columns)
        if j != path_pos and (not isinstance(col_meta[j], Mapping)
                              or col_meta[j].get("is_value", True))
    ]
    row_nodes: list[Node] = []
    col_values: dict[str, list] = {c: [] for _, c in value_cols}
    for row in data:
        row_nodes.append(nodes[row[path_pos]])
        for j, c in value_cols:
            v = row[j]
            col_values[c].append(np.nan if v is None else v)
    frame_data: dict[Any, Any] = {"name": [n.frame.name for n in row_nodes]}
    frame_data.update(col_values)
    df = DataFrame(frame_data, index=Index(row_nodes, name="node"))
    exc = [c for c in col_values if "(inc)" not in c]
    inc = [c for c in col_values if "(inc)" in c]
    default = "time (exc)" if "time (exc)" in col_values else None
    return GraphFrame(graph, df, metadata=dict(payload.get("globals", {})),
                      exc_metrics=exc, inc_metrics=inc, default_metric=default)


def reference_build(payload: Any, source: str) -> GraphFrame:
    """Validate, then read, typing a build failure as ingest did."""
    reference_validate(payload, source)
    try:
        return reference_read(payload, source)
    except (KeyError, IndexError, TypeError, ValueError,
            AttributeError) as e:
        raise ReaderError(
            f"failed to build call tree from {source}: "
            f"{type(e).__name__}: {e}", source=source, stage="build") from e


def fused_build(payload: Any, source: str) -> GraphFrame:
    return _build(payload, source, {})


# ----------------------------------------------------------------------
# faults beyond tests/test_failure_injection.py's _CORRUPTIONS
# ----------------------------------------------------------------------

def _rows(payload):
    data = payload.get("data")
    return data if isinstance(data, list) and data and all(
        isinstance(r, list) and len(r) > 1 for r in data) else None


def _exotic_node_id(payload, draw):
    if (rows := _rows(payload)) is not None:
        r = draw(st.integers(0, len(rows) - 1))
        nid = rows[r][0]
        rows[r][0] = draw(st.sampled_from(
            [bool(nid), np.int64(nid), float(nid)]))


def _exotic_metric(payload, draw):
    if (rows := _rows(payload)) is not None:
        r = draw(st.integers(0, len(rows) - 1))
        rows[r][draw(st.integers(1, len(rows[r]) - 1))] = draw(
            st.sampled_from([True, False, complex(1, 2), Decimal("1.5"),
                             np.float64(2.5), np.float32(-0.5),
                             np.int64(7), np.bool_(True), np.nan]))


def _string_number(payload, draw):
    if (rows := _rows(payload)) is not None:
        rows[draw(st.integers(0, len(rows) - 1))][1] = "1.5"


def _none_in_int_column(payload, draw):
    if (rows := _rows(payload)) is not None:
        for r, row in enumerate(rows):
            row[1] = r * 3
        rows[draw(st.integers(0, len(rows) - 1))][1] = None


def _column_metadata_length(payload, draw):
    meta = payload.get("column_metadata")
    if isinstance(meta, list) and meta:
        if draw(st.booleans()):
            meta.pop()
        else:
            meta.append({"is_value": True})


def _globals_not_object(payload, draw):
    payload["globals"] = draw(st.sampled_from([[1, 2], "run", 3, None, []]))


def _empty_data(payload, draw):
    payload["data"] = []


def _zero_columns(payload, draw):
    payload["columns"] = []
    if "column_metadata" in payload:
        payload["column_metadata"] = []
    if isinstance(payload.get("data"), list):
        payload["data"] = [] if draw(st.booleans()) else [
            [] for _ in payload["data"]]


_EXTRA_FAULTS = {
    "exotic_node_id": _exotic_node_id,
    "exotic_metric": _exotic_metric,
    "string_number": _string_number,
    "none_in_int_column": _none_in_int_column,
    "column_metadata_length": _column_metadata_length,
    "globals_not_object": _globals_not_object,
    "empty_data": _empty_data,
    "zero_columns": _zero_columns,
}
_FAULTS = [c for c in _CORRUPTIONS if c != "none"] + list(_EXTRA_FAULTS)


def _apply(payload, name, draw):
    if name in _EXTRA_FAULTS:
        _EXTRA_FAULTS[name](payload, draw)
        return payload
    return _apply_corruption(payload, name, draw)


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

def _outcome(build, payload):
    try:
        return build(copy.deepcopy(payload), SOURCE), None
    except ReproError as e:
        return None, e


def _same_cells(a: np.ndarray, b: np.ndarray) -> bool:
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype != object:
        return a.tobytes() == b.tobytes()  # NaN payloads and -0.0 too
    return all(type(x) is type(y) and (x == y or (x != x and y != y))
               for x, y in zip(a, b))


def _tree(graph: Graph) -> list:
    order = list(graph.traverse())
    pos = {node: i for i, node in enumerate(order)}
    return [(n.frame.attrs, n._nid,
             None if n.parent is None else pos[n.parent])
            for n in order]


def assert_same_graphframe(got: GraphFrame, want: GraphFrame) -> None:
    assert _tree(got.graph) == _tree(want.graph)
    gdf, wdf = got.dataframe, want.dataframe
    assert gdf.columns == wdf.columns
    for col in wdf.columns:
        assert _same_cells(gdf.column(col), wdf.column(col)), col
    assert gdf.index.name == wdf.index.name
    assert [n.frame.attrs for n in gdf.index] == \
        [n.frame.attrs for n in wdf.index]
    assert [n._nid for n in gdf.index] == [n._nid for n in wdf.index]
    assert got.metadata == want.metadata
    assert got.exc_metrics == want.exc_metrics
    assert got.inc_metrics == want.inc_metrics
    assert got.default_metric == want.default_metric


def _no_node_id_column(payload) -> bool:
    """Rows with no cells: both fail at build, but the fused parser names
    the cause where the reference reported an IndexError."""
    return (isinstance(payload, Mapping) and payload.get("columns") == []
            and bool(payload.get("data")))


def _reference_input(payload):
    """``"globals": null`` means no run metadata, as an absent section
    does; the reference failed on it at build with a TypeError."""
    if isinstance(payload, Mapping) and payload.get("globals", {}) is None:
        payload = {k: v for k, v in payload.items() if k != "globals"}
    return payload


def check_agreement(payload, single_fault: bool) -> None:
    got, got_err = _outcome(fused_build, payload)
    want, want_err = _outcome(reference_build, _reference_input(payload))
    if want_err is not None:
        assert got_err is not None, f"accepted, reference: {want_err}"
        assert type(got_err) is type(want_err)
        assert got_err.stage == want_err.stage
        if single_fault and not _no_node_id_column(payload):
            assert str(got_err) == str(want_err)
        return
    assert got_err is None, f"rejected: {got_err}"
    assert_same_graphframe(got, want)
    # the public reader gives the same frame as the pipeline
    assert_same_graphframe(read_cali_dict(copy.deepcopy(payload)), want)


@given(data=st.data())
@settings(deadline=None)
def test_single_fault_matches_reference(data):
    payload = _base_payload(data.draw)
    name = data.draw(st.sampled_from(_FAULTS))
    check_agreement(_apply(payload, name, data.draw), single_fault=True)


@given(data=st.data())
@settings(deadline=None)
def test_fault_combinations_match_reference(data):
    payload = _base_payload(data.draw)
    for name in data.draw(st.lists(st.sampled_from(_FAULTS), max_size=3)):
        try:  # a fault may not apply after an earlier one broke a section
            payload = _apply(copy.deepcopy(payload), name, data.draw)
        except (AttributeError, IndexError, KeyError, TypeError):
            pass
    check_agreement(payload, single_fault=False)


# ----------------------------------------------------------------------
# pinned cases
# ----------------------------------------------------------------------

def _payload():
    return {
        "columns": ["path", "time (exc)", "Reps", "time (inc)"],
        "column_metadata": [{"is_value": False}, {"is_value": True},
                            {"is_value": True}, {"is_value": True}],
        "nodes": [{"label": "main", "column": "path"},
                  {"label": "solve", "column": "path", "parent": 0},
                  {"label": "io", "column": "path", "parent": 0}],
        "data": [[0, 1.5, 10, 4.0], [2, None, 10, 0.5], [1, 2.0, 10, 2.0]],
        "globals": {"cluster": "quartz", "rep": 0},
    }


@pytest.mark.parametrize("mutate", [
    lambda p: None,
    lambda p: p["data"][0].__setitem__(0, True),
    lambda p: p["data"][0].__setitem__(0, np.int64(0)),
    lambda p: p["data"][0].__setitem__(0, 0.0),
    lambda p: p["data"][1].__setitem__(2, Decimal("3")),
    lambda p: p["data"][1].__setitem__(2, complex(0, 1)),
    lambda p: p["data"][1].__setitem__(2, np.float32(0.25)),
    lambda p: p["data"][1].__setitem__(2, True),
    lambda p: p["data"][1].__setitem__(1, "1.5"),
    lambda p: p["data"][1].__setitem__(2, None),
    lambda p: p["column_metadata"].pop(),
    lambda p: p["column_metadata"].append({}),
    lambda p: p.__setitem__("globals", ["quartz"]),
    lambda p: p.__setitem__("globals", None),
    lambda p: p.__setitem__("data", []),
    lambda p: p.update(columns=[], column_metadata=[], data=[]),
    lambda p: p.update(columns=[], column_metadata=[], data=[[], []]),
    lambda p: p["nodes"][2].__setitem__("parent", True),
    lambda p: p["data"].append([1, 0.0, 1, 0.0]),
], ids=["clean", "bool-id", "numpy-id", "float-id", "decimal-cell",
        "complex-cell", "numpy-cell", "bool-cell", "string-cell",
        "none-in-int-column", "short-metadata", "long-metadata",
        "list-globals", "null-globals", "empty-data", "zero-columns",
        "zero-columns-with-rows", "bool-parent", "duplicate-node"])
def test_pinned_case_matches_reference(mutate):
    payload = _payload()
    mutate(payload)
    check_agreement(payload, single_fault=True)


def test_int_column_stays_int64_and_none_makes_it_float():
    gf = read_cali_dict(_payload())
    assert gf.dataframe.column("Reps").dtype == np.int64
    assert gf.dataframe.column("time (exc)").dtype == np.float64
    assert np.isnan(gf.dataframe.column("time (exc)")[1])
    payload = _payload()
    payload["data"][1][2] = None
    assert read_cali_dict(payload).dataframe.column("Reps").dtype == \
        np.float64


def test_reader_is_as_strict_as_the_validator():
    payload = _payload()
    payload["column_metadata"].pop()  # once padded by the reader
    with pytest.raises(SchemaError, match="'column_metadata' has 3"):
        read_cali_dict(payload)
    payload = _payload()
    payload["nodes"][1]["parent"] = True  # once taken as node 1
    with pytest.raises(SchemaError, match="parent must be an integer"):
        read_cali_dict(payload)


def test_null_globals_read_as_no_metadata():
    # new with the fused parser: the reference's dict(None) escaped the
    # public reader as a bare TypeError
    payload = _payload()
    payload["globals"] = None
    assert read_cali_dict(payload).metadata == {}
    assert fused_build(payload, SOURCE).metadata == {}


def test_duplicate_column_names_are_rejected():
    # new with the fused parser: the reference dropped or mis-sized the
    # second column's cells instead of naming the problem
    payload = _payload()
    payload["columns"][2] = "time (exc)"
    with pytest.raises(SchemaError, match="appears more than once"):
        validate_cali_payload(payload, source=SOURCE)


def test_int_beyond_int64_fails_typed_at_build():
    payload = _payload()
    payload["data"][0][2] = 2 ** 64  # an all-int column: int64 overflows
    with pytest.raises(ReaderError, match="OverflowError") as exc:
        fused_build(payload, SOURCE)
    assert exc.value.stage == "build"


def test_zero_columns_with_rows_fail_at_build():
    payload = _payload()
    payload.update(columns=[], column_metadata=[], data=[[], []])
    validate_cali_payload(payload)  # a row of zero cells fits zero columns
    with pytest.raises(ReaderError, match="no node-id column") as exc:
        fused_build(payload, SOURCE)
    assert exc.value.stage == "build"
