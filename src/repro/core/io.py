"""Thicket persistence: lossless, crash-safe JSON round trip.

Analyses are often iterative (the paper's Jupyter workflows); saving a
composed thicket avoids re-reading hundreds of raw profiles, which
makes the saved file the unit of durable state.  The current format,
``repro-thicket-v2``, therefore hardens the store:

* **Atomic writes** — :func:`save_thicket` goes through
  :func:`repro.ioutil.atomic_write_text` (temp file + fsync +
  ``os.replace``), so a crash mid-save leaves the previous store
  intact, never a truncated hybrid.
* **Content checksum** — the document embeds a sha256 of the canonical
  payload encoding; :func:`load_thicket` verifies it and raises
  :class:`repro.errors.CorruptStoreError` on any mismatch, undecodable
  file, or unknown format (never a bare ``json.JSONDecodeError``).
* **Typed dtype hints** — each table records its float columns so a
  sparse thicket's ``NaN`` cells (stored as ``null``) come back as
  ``np.nan`` in a float column, even when the column is entirely NaN.

Legacy ``repro-thicket-v1`` files (no checksum, flat layout) still
load; saving always produces v2.  The payload layout itself is
unchanged: the call graph as a nested literal, node-indexed tables
with positional node references, and the metadata table verbatim.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import CorruptStoreError, PersistenceError
from ..frame import DataFrame, Index, MultiIndex
from ..frame.ops import coerce_column
from ..graph import Graph
from ..ioutil import atomic_write_text, canonical_json, sha256_of

__all__ = ["thicket_to_json", "thicket_from_json", "save_thicket",
           "load_thicket", "FORMAT_V1", "FORMAT_V2"]

FORMAT_V1 = "repro-thicket-v1"
FORMAT_V2 = "repro-thicket-v2"


def _jsonable(v: Any) -> Any:
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, float) and np.isnan(v):
        return None
    return v


def _encode_key(c: Any) -> Any:
    return list(c) if isinstance(c, tuple) else c


def _decode_key(c: Any) -> Any:
    return tuple(c) if isinstance(c, list) else c


def _float_columns(df: DataFrame) -> list:
    return [_encode_key(c) for c in df.columns
            if df.column(c).dtype.kind == "f"]


def _decode_columns(table: dict, cols: list) -> dict:
    """Column → values, with ``null`` restored to ``np.nan`` in the
    columns the store marked as floats (v2; v1 has no marks and relies
    on mixed-value inference in the frame layer).  An unmarked v2
    column comes back as an object column where inference would make
    it float (numbers mixed with ``None``), as it was when saved, so
    save → load → save is byte-identical."""
    float_cols = {_decode_key(c) for c in table.get("float_columns", [])}
    marked = "float_columns" in table
    data = table["data"]
    out = {}
    for j, c in enumerate(cols):
        values = [row[j] for row in data]
        if c in float_cols:  # an array, so an empty column stays float
            values = np.array([np.nan if v is None else v for v in values],
                              dtype=np.float64)
        elif marked and coerce_column(values).dtype.kind == "f":
            values = np.fromiter(values, dtype=object, count=len(values))
        out[c] = values
    return out


def thicket_to_payload(tk) -> dict:
    """The checksummed body of a v2 store (no envelope)."""
    node_pos = {n: i for i, n in enumerate(tk.graph.node_order())}

    perf = {
        "columns": [_encode_key(c) for c in tk.dataframe.columns],
        "float_columns": _float_columns(tk.dataframe),
        "index": [[node_pos[t[0]], _jsonable(t[1])]
                  for t in tk.dataframe.index.values],
        "index_names": list(tk.dataframe.index.names),
        "data": [
            [_jsonable(tk.dataframe.column(c)[i])
             for c in tk.dataframe.columns]
            for i in range(len(tk.dataframe))
        ],
    }
    meta = {
        "columns": [_encode_key(c) for c in tk.metadata.columns],
        "float_columns": _float_columns(tk.metadata),
        "index": [_jsonable(p) for p in tk.metadata.index.values],
        "data": [
            [_jsonable(tk.metadata.column(c)[i]) for c in tk.metadata.columns]
            for i in range(len(tk.metadata))
        ],
    }
    stats_cols = [c for c in tk.statsframe.columns]
    stats = {
        "columns": [_encode_key(c) for c in stats_cols],
        "float_columns": _float_columns(tk.statsframe),
        "index": [node_pos[n] for n in tk.statsframe.index.values],
        "data": [
            [_jsonable(tk.statsframe.column(c)[i]) for c in stats_cols]
            for i in range(len(tk.statsframe))
        ],
    }
    return {
        "graph": tk.graph.to_literal(),
        "performance_data": perf,
        "metadata": meta,
        "statsframe": stats,
        "profiles": [_jsonable(p) for p in tk.profile],
        "exc_metrics": [_encode_key(m) for m in tk.exc_metrics],
        "inc_metrics": [_encode_key(m) for m in tk.inc_metrics],
        "default_metric": _encode_key(tk.default_metric)
        if tk.default_metric is not None else None,
    }


def thicket_to_json(tk) -> str:
    """Serialize a Thicket to a v2 JSON document (envelope + checksum).

    The serialization is deterministic: save → load → save produces
    byte-identical output.
    """
    payload = thicket_to_payload(tk)
    return json.dumps(
        {"format": FORMAT_V2,
         "checksum": sha256_of(canonical_json(payload)),
         "payload": payload},
        separators=(",", ":"), sort_keys=True)


def _payload_to_thicket(payload: dict):
    from .thicket import Thicket

    graph = Graph.from_literal(payload["graph"])
    nodes = graph.node_order()

    perf_p = payload["performance_data"]
    perf_cols = [_decode_key(c) for c in perf_p["columns"]]
    perf_index = MultiIndex(
        [(nodes[i], pid) for i, pid in perf_p["index"]],
        names=perf_p["index_names"],
    )
    perf = DataFrame(_decode_columns(perf_p, perf_cols),
                     index=perf_index, columns=perf_cols)

    meta_p = payload["metadata"]
    meta_cols = [_decode_key(c) for c in meta_p["columns"]]
    metadata = DataFrame(_decode_columns(meta_p, meta_cols),
                         index=Index(meta_p["index"], name="profile"),
                         columns=meta_cols)

    stats_p = payload["statsframe"]
    stats_cols = [_decode_key(c) for c in stats_p["columns"]]
    statsframe = DataFrame(_decode_columns(stats_p, stats_cols),
                           index=Index([nodes[i] for i in stats_p["index"]],
                                       name="node"),
                           columns=stats_cols)

    default = payload.get("default_metric")
    return Thicket(
        graph, perf, metadata, statsframe=statsframe,
        profiles=payload["profiles"],
        exc_metrics=[_decode_key(m) for m in payload["exc_metrics"]],
        inc_metrics=[_decode_key(m) for m in payload["inc_metrics"]],
        default_metric=_decode_key(default) if default is not None else None,
    )


def thicket_from_json(text: str, source: Any = None):
    """Rebuild a Thicket from :func:`thicket_to_json` output.

    Accepts both the current checksummed ``repro-thicket-v2`` envelope
    and legacy flat ``repro-thicket-v1`` documents.  Every failure mode
    — undecodable JSON, unknown format, checksum mismatch, missing or
    malformed sections — raises :class:`CorruptStoreError` (which is
    also a ``ValueError`` for backward compatibility).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CorruptStoreError(
            f"store is not valid JSON (truncated or overwritten?): {e}",
            source=source, stage="load") from e
    if not isinstance(doc, dict):
        raise CorruptStoreError(
            f"store is not a JSON object, got {type(doc).__name__}",
            source=source, stage="load")

    fmt = doc.get("format")
    if fmt == FORMAT_V2:
        payload = doc.get("payload")
        if not isinstance(payload, dict):
            raise CorruptStoreError("v2 store has no payload object",
                                    source=source)
        stored = doc.get("checksum")
        actual = sha256_of(canonical_json(payload))
        if stored != actual:
            raise CorruptStoreError(
                f"checksum mismatch: stored {stored!r}, computed "
                f"{actual!r} — the store was modified or corrupted "
                f"after it was written", source=source)
    elif fmt == FORMAT_V1:
        payload = doc  # flat legacy layout, no checksum to verify
    else:
        raise CorruptStoreError(
            f"not a repro thicket store (format={fmt!r}; expected "
            f"{FORMAT_V1!r} or {FORMAT_V2!r})", source=source, stage="load")

    try:
        return _payload_to_thicket(payload)
    except CorruptStoreError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise CorruptStoreError(
            f"store payload is structurally invalid: "
            f"{type(e).__name__}: {e}", source=source) from e


def save_thicket(tk, path: str | Path) -> Path:
    """Atomically write *tk* to *path* as a checksummed v2 store.

    The write goes temp-file → fsync → ``os.replace``: a crash at any
    point leaves either the old store or the complete new one.
    """
    path = Path(path)
    try:
        return atomic_write_text(path, thicket_to_json(tk))
    except OSError as e:
        raise PersistenceError(f"cannot write thicket store: {e}",
                               source=path, stage="save") from e


def load_thicket(path: str | Path, verify: bool = False):
    """Load a thicket store, verifying its content checksum.

    With ``verify=True`` the cross-component structural invariants are
    additionally checked (:meth:`Thicket.validate`) and a store whose
    components are inconsistent is rejected with
    :class:`CorruptStoreError`.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError as e:
        raise PersistenceError(f"no such thicket store: {path}",
                               source=path, stage="load") from e
    except OSError as e:
        raise PersistenceError(f"cannot read thicket store: {e}",
                               source=path, stage="load") from e
    tk = thicket_from_json(text, source=path)
    if verify:
        report = tk.validate()
        if not report.ok:
            raise CorruptStoreError(
                "store loaded but its components are inconsistent:\n"
                + report.summary(), source=path)
    return tk
