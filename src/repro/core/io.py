"""Thicket persistence: lossless, crash-safe JSON round trip.

Analyses are often iterative (the paper's Jupyter workflows); saving a
composed thicket avoids re-reading hundreds of raw profiles, which
makes the saved file the unit of durable state.  The current format,
``repro-thicket-v2``, therefore hardens the store:

* **Atomic writes** — :func:`save_thicket` goes through
  :func:`repro.ioutil.atomic_write_text` (temp file + fsync +
  ``os.replace``), so a crash mid-save leaves the previous store
  intact, never a truncated hybrid.
* **Content checksum** — the payload is encoded once and the sha256
  covers that text exactly as embedded.  :func:`load_thicket` hashes
  the embedded bytes and parses the same bytes; only a file that is
  not the exact envelope the writer emits (re-indented, say) or that
  fails the hash is parsed whole and re-encoded canonically for the
  check, so a reformatted store keeps its verdict.  Any mismatch,
  undecodable file, or unknown format raises
  :class:`repro.errors.CorruptStoreError`.
* **Whole-column encoding** — :func:`encode_table` converts each
  column in one pass and transposes the columns into rows;
  :func:`decode_table` transposes back.
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
import re
from pathlib import Path
from typing import Any

import numpy as np

from ..errors import CorruptStoreError, PersistenceError
from ..frame import DataFrame, Index, MultiIndex
from ..graph import Graph
from ..ioutil import atomic_write_text, canonical_json, sha256_of

__all__ = ["thicket_to_json", "thicket_from_json", "save_thicket",
           "load_thicket", "FORMAT_V1", "FORMAT_V2"]

FORMAT_V1 = "repro-thicket-v1"
FORMAT_V2 = "repro-thicket-v2"


def jsonable(v: Any) -> Any:
    """One cell as a JSON-ready Python value (numpy scalars unwrapped,
    NaN as ``None``)."""
    if hasattr(v, "item"):
        v = v.item()
    if isinstance(v, float) and np.isnan(v):
        return None
    return v


def _encode_key(c: Any) -> Any:
    return list(c) if isinstance(c, tuple) else c


def _decode_key(c: Any) -> Any:
    return tuple(c) if isinstance(c, list) else c


def _column_cells(col: np.ndarray) -> list:
    if col.dtype.kind not in "fiub":
        return [jsonable(v) for v in col]
    cells = col.tolist()
    if col.dtype.kind == "f":
        for i in np.flatnonzero(np.isnan(col)).tolist():
            cells[i] = None
    return cells


def encode_table(df: DataFrame) -> dict:
    """``columns``, ``float_columns`` and row-major ``data`` of *df*.

    Each column is encoded whole (``tolist()`` for numeric columns,
    :func:`jsonable` per cell only for object columns) and the rows
    are its transpose.  The float-column marks let :func:`decode_table`
    restore ``null`` cells as ``np.nan``, even in an all-NaN column.
    """
    cols = [_column_cells(df.column(c)) for c in df.columns]
    return {"columns": [_encode_key(c) for c in df.columns],
            "float_columns": [_encode_key(c) for c in df.columns
                              if df.column(c).dtype.kind == "f"],
            "data": list(zip(*cols)) if cols else [()] * len(df)}


def decode_table(table: dict, index: Index) -> DataFrame:
    """Rebuild an :func:`encode_table` table on *index*, column by column.

    ``null`` comes back as ``np.nan`` in the columns marked as floats
    (v2; v1 has no marks and relies on the frame's inference).  An
    unmarked v2 column that inference would make float (numbers mixed
    with ``None``) stays an object column, as it was when saved.  A row
    shorter than the header, or a row count other than the index length,
    is a :class:`CorruptStoreError`.
    """
    cols = [_decode_key(c) for c in table["columns"]]
    float_cols = {_decode_key(c) for c in table.get("float_columns", [])}
    marked = "float_columns" in table
    data = table["data"]
    columns = list(zip(*data)) if data else [()] * len(cols)
    if len(columns) < len(cols):
        raise CorruptStoreError(
            f"a data row has fewer than its table's {len(cols)} columns")
    try:
        # None → NaN in float columns; an array, so an empty one stays float
        df = DataFrame({c: np.array(v, dtype=np.float64) if c in float_cols
                        else list(v) for c, v in zip(cols, columns)},
                       index=index, columns=cols)
    except ValueError as e:
        raise CorruptStoreError(f"a table of {len(data)} rows on "
                                f"{len(index)} index entries: {e}") from e
    for c, values in zip(cols, columns):
        if marked and c not in float_cols and df.column(c).dtype.kind == "f":
            df[c] = np.fromiter(values, dtype=object, count=len(values))
    return df


def thicket_to_payload(tk) -> dict:
    """The checksummed body of a v2 store (no envelope)."""
    node_pos = {n: i for i, n in enumerate(tk.graph.node_order())}
    index = tk.dataframe.index
    perf = {**encode_table(tk.dataframe),
            "index": list(zip(index.map_labels(node_pos.__getitem__),
                              index.map_labels(jsonable, level=1))),
            "index_names": list(index.names)}
    meta = {**encode_table(tk.metadata),
            "index": [jsonable(p) for p in tk.metadata.index.values]}
    stats = {**encode_table(tk.statsframe),
             "index": [node_pos[n] for n in tk.statsframe.index.values]}
    return {
        "graph": tk.graph.to_literal(),
        "performance_data": perf,
        "metadata": meta,
        "statsframe": stats,
        "profiles": [jsonable(p) for p in tk.profile],
        "exc_metrics": [_encode_key(m) for m in tk.exc_metrics],
        "inc_metrics": [_encode_key(m) for m in tk.inc_metrics],
        "default_metric": _encode_key(tk.default_metric)
        if tk.default_metric is not None else None,
    }


# The envelope keys sort as checksum < format < payload, so splicing the
# payload text in here yields the same bytes as sorted-keys ``json.dumps``
# of the whole document.
_ENVELOPE = '{"checksum":"%s","format":"' + FORMAT_V2 + '","payload":%s}'
_ENVELOPE_HEAD = re.compile(
    r'\{"checksum":"(sha256:[0-9a-f]{64})","format":"'
    + re.escape(FORMAT_V2) + r'","payload":')


def thicket_to_json(tk) -> str:
    """Serialize a Thicket to a v2 JSON document (envelope + checksum).

    The payload is encoded once; the checksum covers exactly that text
    as embedded.  The serialization is deterministic: save → load →
    save produces byte-identical output.
    """
    body = canonical_json(thicket_to_payload(tk))
    return _ENVELOPE % (sha256_of(body), body)


def _parse(text: str, source: Any) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise CorruptStoreError(
            f"store is not valid JSON (truncated or overwritten?): {e}",
            source=source, stage="load") from e


def _reencoded_payload(doc: Any, source: Any) -> Any:
    """The payload of a whole parsed document: v2 checked against its
    canonical re-encoding, v1 unchecked."""
    if not isinstance(doc, dict):
        raise CorruptStoreError(
            f"store is not a JSON object, got {type(doc).__name__}",
            source=source, stage="load")
    fmt = doc.get("format")
    if fmt == FORMAT_V1:
        return doc  # flat legacy layout, no checksum to verify
    if fmt != FORMAT_V2:
        raise CorruptStoreError(
            f"not a repro thicket store (format={fmt!r}; expected "
            f"{FORMAT_V1!r} or {FORMAT_V2!r})", source=source, stage="load")
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
    return payload


def _payload_to_thicket(payload: dict):
    from .thicket import Thicket

    graph = Graph.from_literal(payload["graph"])
    nodes = graph.node_order()
    perf_p = payload["performance_data"]
    perf = decode_table(perf_p, MultiIndex(
        [(nodes[i], pid) for i, pid in perf_p["index"]],
        names=perf_p["index_names"]))
    meta_p = payload["metadata"]
    metadata = decode_table(meta_p, Index(meta_p["index"], name="profile"))
    stats_p = payload["statsframe"]
    statsframe = decode_table(stats_p, Index(
        [nodes[i] for i in stats_p["index"]], name="node"))
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

    The exact envelope :func:`thicket_to_json` writes has its embedded
    payload bytes hashed, then those bytes parsed.  Anything else (a
    re-indented store, a legacy flat ``repro-thicket-v1`` document, a
    corrupt file) is parsed whole and its canonical re-encoding is
    checked against the stored checksum.  Every failure
    mode — undecodable JSON, unknown format, checksum mismatch, missing
    or malformed sections — raises :class:`CorruptStoreError` (which is
    also a ``ValueError`` for backward compatibility).
    """
    head = _ENVELOPE_HEAD.match(text)
    body = text[head.end():-1] if head and text.endswith("}") else ""
    if head and body.isascii() and sha256_of(body) == head.group(1):
        payload = _parse(body, source)
    else:
        payload = _reencoded_payload(_parse(text, source), source)
    try:
        return _payload_to_thicket(payload)
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
    except UnicodeDecodeError as e:
        raise CorruptStoreError(f"store is not UTF-8 text: {e}",
                                source=path, stage="load") from e
    tk = thicket_from_json(text, source=path)
    if verify:
        report = tk.validate()
        if not report.ok:
            raise CorruptStoreError(
                "store loaded but its components are inconsistent:\n"
                + report.summary(), source=path)
    return tk
