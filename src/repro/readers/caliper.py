"""Reader for cali-JSON ("json-split") profiles → GraphFrame.

The inverse of :mod:`repro.caliper.writer`: rebuilds the call tree from
the node/parent table, attaches per-node metric rows, and carries the
profile globals as GraphFrame metadata.  This is the single-profile
loading path Thicket builds on (the paper: "Thicket uses Hatchet's
readers for loading in a single profile at a time").

It is the one strict parser of the format: :func:`read_cali_dict` is
``_assemble(_check(payload))``, and
:func:`repro.ingest.validate_cali_payload` is ``_check`` alone.
``_check`` requires the ``nodes``/``columns``/``data`` lists; distinct
string column names and, if present, one ``column_metadata`` object per
column; node objects with a ``label`` whose ``parent`` is an earlier
node; rows as wide as ``columns`` whose node-id cells name distinct
nodes; numeric or null metric cells (NaN and ±inf pass, to degrade to
missing values in the NaN-aware statistics); and ``globals``, if
present and not null, an object.  Rows are checked a whole column at
a time, from one ``zip(*data)`` and one set of cell types per column; a
column is searched cell by cell only when its types are unusual, to
accept exotic numbers and to name the first bad row and column.

Malformed payloads never escape as raw ``KeyError``/``IndexError``:
structural problems raise :class:`repro.errors.SchemaError` naming the
missing/broken section and the source file, and undecodable JSON raises
:class:`repro.errors.ReaderError` chained onto the original
``json.JSONDecodeError`` so the file path is part of the traceback.
"""

from __future__ import annotations

import json
import numbers
from pathlib import Path
from typing import Any, Mapping, NamedTuple

import numpy as np

from ..errors import ReaderError, SchemaError
from ..frame import DataFrame, Index
from ..frame.ops import _infer_array
from ..graph import Frame, Graph, GraphFrame, Node

__all__ = ["read_cali_json", "read_cali_dict"]

REQUIRED_SECTIONS = ("nodes", "columns", "data")
# metric cell types a column may hold without a cell-by-cell search
_PLAIN = frozenset({float, int, type(None)})


class _Checked(NamedTuple):
    """The pieces of a payload that passed :func:`_check`."""

    nodes: list          # node specs
    ids: tuple | None    # node-id column; None when rows have no cells
    values: list         # (name, cells, set of cell types) per metric column
    globals: Any


def _check(payload: Any, source: Any = None) -> _Checked:
    """Raise :class:`SchemaError` unless *payload* is valid cali-JSON;
    return its checked pieces."""
    def fail(message: str):
        raise SchemaError(message, source=source)

    if not isinstance(payload, Mapping):
        fail(f"payload must be a JSON object, got {type(payload).__name__}")
    missing = [s for s in REQUIRED_SECTIONS if s not in payload]
    if missing:
        fail("missing required section(s) "
             + ", ".join(repr(s) for s in missing))
    nodes, columns, data = (payload[s] for s in REQUIRED_SECTIONS)
    for name, section in (("nodes", nodes), ("columns", columns),
                          ("data", data)):
        if not isinstance(section, (list, tuple)):
            fail(f"section {name!r} must be a list, got "
                 f"{type(section).__name__}")

    for j, col in enumerate(columns):
        if not isinstance(col, str):
            fail(f"column name {j} must be a string, got {col!r}")
    if len(set(columns)) != len(columns):
        dup = next(c for j, c in enumerate(columns) if c in columns[:j])
        fail(f"column name {dup!r} appears more than once")
    col_meta = payload.get("column_metadata")
    if col_meta is not None:
        if not isinstance(col_meta, (list, tuple)):
            fail("'column_metadata' must be a list")
        if len(col_meta) != len(columns):
            fail(f"'column_metadata' has {len(col_meta)} entries for "
                 f"{len(columns)} columns")
        for j, m in enumerate(col_meta):
            if not isinstance(m, Mapping):
                fail(f"column_metadata entry {j} must be an object")

    for i, spec in enumerate(nodes):
        if type(spec) is not dict and not isinstance(spec, Mapping):
            fail(f"node entry {i} must be an object")
        if "label" not in spec:
            fail(f"node entry {i} has no 'label'")
        parent = spec.get("parent")
        if parent is None:
            continue
        if type(parent) is not int and (isinstance(parent, bool)
                                        or not isinstance(parent, int)):
            fail(f"node entry {i} parent must be an integer node id, "
                 f"got {parent!r}")
        if not 0 <= parent < i:
            fail(f"node entry {i} has dangling parent reference "
                 f"{parent} (must point at an earlier node)")

    width = len(columns)
    if not (set(map(type, data)) <= {list, tuple}
            and set(map(len, data)) <= {width}):
        for r, row in enumerate(data):
            if not isinstance(row, (list, tuple)):
                fail(f"data row {r} must be a list")
            if len(row) != width:
                fail(f"data row {r} has {len(row)} cells for "
                     f"{width} columns")
    cols = list(zip(*data)) if data else [()] * width
    path_pos = columns.index("path") if "path" in columns else 0
    # rows of zero cells have no node-id column; no rows need none
    ids = cols[path_pos] if cols else (None if data else ())
    if ids:
        if set(map(type, ids)) != {int}:
            for r, nid in enumerate(ids):
                if isinstance(nid, bool) or not isinstance(nid, int):
                    fail(f"data row {r} node id must be an integer, "
                         f"got {nid!r}")
        if min(ids) < 0 or max(ids) >= len(nodes):
            r = next(r for r, nid in enumerate(ids)
                     if not 0 <= nid < len(nodes))
            fail(f"data row {r} references unknown node id {ids[r]} "
                 f"(profile has {len(nodes)} nodes)")
        if len(set(ids)) != len(ids):
            seen: set[int] = set()
            for r, nid in enumerate(ids):
                if nid in seen:
                    fail(f"data row {r} duplicates node id {nid} — a node "
                         f"may appear at most once per profile")
                seen.add(nid)

    value_pos = [j for j in range(width) if j != path_pos and (
        col_meta is None or col_meta[j].get("is_value", True))]
    values = [(columns[j], cols[j], set(map(type, cols[j])))
              for j in value_pos]
    odd = [j for j, (_, _, types) in zip(value_pos, values)
           if not types <= _PLAIN]
    if odd:  # exotic numbers pass; the first non-number is named
        for r, row in enumerate(data):
            for j in odd:
                cell = row[j]
                if cell is not None and not isinstance(cell, numbers.Number):
                    fail(f"data row {r}, column {columns[j]!r}: metric "
                         f"cell must be numeric or null, got {cell!r}")

    globs = payload.get("globals")
    if globs is None:  # absent and null both mean no run metadata
        globs = {}
    elif not isinstance(globs, Mapping):
        fail("'globals' must be an object of run metadata")
    return _Checked(nodes, ids, values, globs)


def _column(cells: tuple, types: set) -> np.ndarray:
    """One metric column with the dtype the frame layer infers for it."""
    if types == {int}:
        return np.array(cells, dtype=np.int64)
    if types and types <= _PLAIN:
        return np.array(cells, dtype=np.float64)  # None becomes NaN
    return _infer_array([np.nan if v is None else v for v in cells])


def _assemble(checked: _Checked, source: Any = None) -> GraphFrame:
    """Build the call tree and the metric frame of a checked payload."""
    nodes: list[Node] = []
    roots: list[Node] = []
    for spec in checked.nodes:
        node = Node(Frame(name=spec["label"],
                          type=spec.get("column", "path")))
        parent = spec.get("parent")
        if parent is None:
            roots.append(node)
        else:
            nodes[parent].connect(node)
        nodes.append(node)
    graph = Graph(roots)

    if checked.ids is None:
        # rows without a single cell cannot name their node
        raise ReaderError(f"data rows of {source} have no node-id column",
                          source=source, stage="build")
    row_nodes = [nodes[i] for i in checked.ids]
    frame_data: dict[Any, Any] = {"name": [n.frame.name for n in row_nodes]}
    for name, cells, types in checked.values:
        frame_data[name] = _column(cells, types)
    df = DataFrame(frame_data, index=Index(row_nodes, name="node"))

    names = [name for name, _, _ in checked.values]
    exc = [c for c in names if "(inc)" not in c]
    inc = [c for c in names if "(inc)" in c]
    default = "time (exc)" if "time (exc)" in names else None
    return GraphFrame(graph, df, metadata=dict(checked.globals),
                      exc_metrics=exc, inc_metrics=inc, default_metric=default)


def read_cali_dict(payload: Mapping[str, Any],
                   source: Any = None) -> GraphFrame:
    """Check a json-split dict and build its GraphFrame.

    ``source`` (a file path, when known) is attached to the
    :class:`SchemaError` raised for an invalid payload.
    """
    return _assemble(_check(payload, source), source)


def read_cali_json(path: str | Path) -> GraphFrame:
    """Read one ``*.json`` profile file from disk."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise ReaderError(
            f"invalid JSON in {path}: {e}", source=path) from e
    gf = read_cali_dict(payload, source=path)
    gf.metadata.setdefault("profile.file", str(path))
    return gf
