"""The v2 thicket store codec against frozen bytes and a slow oracle.

Three guarantees of :mod:`repro.core.io` are pinned here:

* **Frozen bytes.** ``tests/data/store_v2_*.json`` were written by
  the row-by-row encoder that preceded the whole-column one, for the
  fixed ensembles built below.  The current encoder must reproduce
  them byte for byte, and they must load and re-save unchanged.  Never
  regenerate them: a diff here means the store format drifted.
  ``tests/data/ckpt_payload_v1.json`` is a checkpoint payload in a
  format checkpoints no longer write; a resume must re-ingest it.
* **Same verdict as the slow loader.** :func:`reference_load` is the
  obviously correct loader: parse the whole document, re-encode the
  payload canonically and compare checksums.  The fast loader must
  accept and reject exactly the same mutated stores.
* **Typed structural errors.** A short ``data`` row raises
  :class:`CorruptStoreError`; a zero-column table keeps its rows.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Thicket
from repro.core.io import (
    FORMAT_V1,
    FORMAT_V2,
    _payload_to_thicket,
    decode_table,
    load_thicket,
    save_thicket,
    thicket_from_json,
    thicket_to_json,
)
from repro.errors import CorruptStoreError
from repro.frame import DataFrame, Index, MultiIndex
from repro.graph import Graph
from repro.ingest import load_ensemble
from repro.ioutil import canonical_json, sha256_of

DATA = Path(__file__).parent / "data"


# ----------------------------------------------------------------------
# the fixed ensembles behind the frozen fixtures
# ----------------------------------------------------------------------

def _graph() -> Graph:
    return Graph.from_literal([
        {"frame": {"name": "main"},
         "children": [{"frame": {"name": "solve"},
                       "children": [{"frame": {"name": "halo"}}]},
                      {"frame": {"name": "io"}}]},
    ])


def rich_thicket() -> Thicket:
    """Two profiles over a four-node tree, one profile missing a node,
    with every cell kind the store distinguishes."""
    graph = _graph()
    nodes = graph.node_order()
    profiles = [-4611686018427387904, 7]
    rows = [(n, p) for n in nodes for p in profiles][:-1]
    n = len(rows)
    edge = [np.nan, np.inf, -np.inf, -0.0, 1e300, 5e-324, 0.1]
    perf = DataFrame({
        "time": np.linspace(0.5, 4.0, n),
        "edge": np.array(edge[:n]),
        "gone": np.full(n, np.nan),
        "calls": np.arange(n, dtype=np.int64) * 3 - 4,
        "hot": np.arange(n) % 2 == 0,
        "name": np.array([r[0].frame.name for r in rows], dtype=object),
        "mixed": np.array([1, None, 2.5, -3, None, 0, 7.25][:n],
                          dtype=object),
        ("gpu", "time"): np.array([1.5, np.nan, 2.0, 0.0, -1.0, 9.0,
                                   3.0][:n]),
        ("gpu", "calls"): np.arange(n, dtype=np.int64),
    }, index=MultiIndex(rows, names=["node", "profile"]))
    metadata = DataFrame({
        "ranks": np.array([8, 16], dtype=np.int64),
        "debug": np.array([True, False]),
        "arch": np.array(["cpu", "gpu é"], dtype=object),
        "clock": np.array([2.5, np.nan]),
        ("env", "nodes"): np.array([1, 4], dtype=np.int64),
    }, index=Index(profiles, name="profile"))
    statsframe = DataFrame({
        "name": np.array([nd.frame.name for nd in nodes], dtype=object),
        "time_mean": np.array([1.0, np.nan, -0.0, np.inf]),
        ("gpu", "time_std"): np.array([np.nan] * len(nodes)),
        "time_count": np.array([2, 2, 2, 1], dtype=np.int64),
    }, index=Index(nodes, name="node"))
    return Thicket(graph, perf, metadata, statsframe=statsframe,
                   profiles=profiles, exc_metrics=["time", ("gpu", "time")],
                   inc_metrics=[], default_metric=("gpu", "time"))


def bare_thicket() -> Thicket:
    """Zero-column performance and metadata tables that still have
    rows, and an empty statsframe."""
    graph = _graph()
    nodes = graph.node_order()
    profiles = ["a", "b"]
    perf = DataFrame({}, index=MultiIndex(
        [(nodes[0], "a"), (nodes[0], "b"), (nodes[3], "b")],
        names=["node", "profile"]))
    metadata = DataFrame({}, index=Index(profiles, name="profile"))
    statsframe = DataFrame({}, index=Index([], name="node"))
    return Thicket(graph, perf, metadata, statsframe=statsframe,
                   profiles=profiles)


FROZEN = {"store_v2_rich.json": rich_thicket,
          "store_v2_bare.json": bare_thicket}


# ----------------------------------------------------------------------
# frozen bytes
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FROZEN))
def test_encoder_reproduces_frozen_store(name):
    assert thicket_to_json(FROZEN[name]()) == (DATA / name).read_text()


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_store_loads_and_resaves_identically(name, tmp_path):
    path = tmp_path / name
    shutil.copyfile(DATA / name, path)
    tk = load_thicket(path)
    save_thicket(tk, path)
    assert path.read_bytes() == (DATA / name).read_bytes()


def test_frozen_store_keeps_dtypes_and_row_counts():
    rich = thicket_from_json((DATA / "store_v2_rich.json").read_text())
    for c in ("time", "edge", "gone", ("gpu", "time")):
        assert rich.dataframe.column(c).dtype.kind == "f"
    assert np.isnan(rich.dataframe.column("gone")).all()
    assert rich.dataframe.column("mixed").dtype == object
    assert rich.dataframe.column("hot").dtype == bool
    assert np.signbit(rich.dataframe.column("edge")[3])

    bare = thicket_from_json((DATA / "store_v2_bare.json").read_text())
    assert len(bare.dataframe) == 3 and not bare.dataframe.columns
    assert len(bare.metadata) == 2 and not bare.metadata.columns
    assert len(bare.statsframe) == 0


def test_checkpoint_payload_written_before_the_change_resumes(
        tmp_path, monkeypatch):
    """``ckpt_payload_v1.json`` is the ``repro-gf-v1`` GraphFrame payload
    an older checkpoint wrote for ``cali_profile.json`` read as
    ``p.json``.  Checkpoints now save the cali-JSON payload itself, so a
    journal pointing at the old file re-ingests the source — never
    quarantines it — and composes the same thicket."""
    import repro.obs as obs

    monkeypatch.chdir(tmp_path)
    shutil.copyfile(DATA / "cali_profile.json", "p.json")
    fresh, _ = load_ensemble(["p.json"], checkpoint="ckpt")
    (payload,) = (tmp_path / "ckpt" / "profiles").iterdir()
    payload.write_bytes((DATA / "ckpt_payload_v1.json").read_bytes())

    obs.reset()
    obs.enable()
    try:
        resumed, report = load_ensemble(["p.json"], checkpoint="ckpt")
        invalid = obs.get_telemetry().metrics.counter_value(
            "ingest.checkpoint.payload_invalid")
    finally:
        obs.disable()
        obs.reset()
    assert report.resumed == [] and not report.quarantined
    assert invalid == 1
    assert resumed.to_json() == fresh.to_json()


# ----------------------------------------------------------------------
# structural edge cases of the column decoder
# ----------------------------------------------------------------------

def _resealed(payload: dict) -> str:
    return json.dumps({"checksum": sha256_of(canonical_json(payload)),
                       "format": FORMAT_V2, "payload": payload},
                      separators=(",", ":"), sort_keys=True)


def test_short_data_row_is_a_typed_error():
    payload = json.loads(thicket_to_json(rich_thicket()))["payload"]
    payload["performance_data"]["data"][2].pop()
    with pytest.raises(CorruptStoreError, match="structurally invalid"):
        thicket_from_json(_resealed(payload))


def test_row_count_other_than_the_index_is_a_typed_error():
    table = {"columns": ["a"], "data": [[1.0], [2.0]]}
    with pytest.raises(CorruptStoreError, match="2 rows on 3 index"):
        decode_table(table, Index([10, 11, 12]))


def test_zero_column_table_keeps_its_row_count():
    payload = json.loads(thicket_to_json(bare_thicket()))["payload"]
    assert payload["performance_data"]["data"] == [[], [], []]
    back = thicket_from_json(_resealed(payload))
    assert len(back.dataframe) == 3 and len(back.metadata) == 2


def test_non_utf8_store_is_a_typed_error(tmp_path):
    """Bit rot that breaks UTF-8 is a corrupt store, not a bare
    ``UnicodeDecodeError``."""
    data = bytearray((DATA / "store_v2_rich.json").read_bytes())
    data[len(data) // 2] = 0xFF
    path = tmp_path / "rot.json"
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptStoreError, match="UTF-8"):
        load_thicket(path)


# ----------------------------------------------------------------------
# fast loader vs. the slow reference loader
# ----------------------------------------------------------------------

def reference_load(text: str) -> Thicket:
    """Full parse, canonical re-encode, checksum compare, then build."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise CorruptStoreError(f"not JSON: {e}") from e
    if not isinstance(doc, dict):
        raise CorruptStoreError("not an object")
    if doc.get("format") == FORMAT_V2:
        payload = doc.get("payload")
        if not isinstance(payload, dict):
            raise CorruptStoreError("no payload")
        if doc.get("checksum") != sha256_of(canonical_json(payload)):
            raise CorruptStoreError("checksum mismatch")
    elif doc.get("format") == FORMAT_V1:
        payload = doc
    else:
        raise CorruptStoreError("unknown format")
    try:
        return _payload_to_thicket(payload)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise CorruptStoreError(f"invalid: {e}") from e


def _verdict(load, text):
    try:
        return load(text)
    except CorruptStoreError:
        return None


def _reindent(text: str) -> str:
    return json.dumps(json.loads(text), indent=1, sort_keys=True)


def _second_payload(text: str) -> str:
    tail = json.dumps(json.loads(text)["payload"], sort_keys=True,
                      separators=(",", ":"))
    return text[:-1] + ',"payload":' + tail + "}"


def _second_payload_altered(text: str) -> str:
    doc = json.loads(text)
    doc["payload"]["profiles"].append("<tampered>")
    return text[:-1] + ',"payload":' + canonical_json(doc["payload"]) + "}"


def _bad_checksum(text: str) -> str:
    i = text.index("sha256:") + 7
    return text[:i] + ("0" if text[i] != "0" else "1") + text[i + 1:]


def _as_v1(text: str) -> str:
    return json.dumps({"format": FORMAT_V1, **json.loads(text)["payload"]})


WHOLE_MUTATIONS = [lambda t: t, _reindent, _second_payload,
                   _second_payload_altered, _bad_checksum, _as_v1,
                   lambda t: t + "\n", lambda t: " " + t]

STORES = {name: (DATA / name).read_text() for name in FROZEN}


@st.composite
def mutated_stores(draw):
    text = STORES[draw(st.sampled_from(sorted(STORES)))]
    text = draw(st.sampled_from(WHOLE_MUTATIONS))(text)
    kind = draw(st.sampled_from(["none", "flip", "truncate", "splice"]))
    if kind == "flip":
        i = draw(st.integers(0, len(text) - 1))
        ch = draw(st.sampled_from([chr(ord(text[i]) ^ 0x20), "0", "9",
                                   "é", '"', "}", ","]))
        text = text[:i] + ch + text[i + 1:]
    elif kind == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif kind == "splice":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(['"', " ", "[]", "{"])) \
            + text[i:]
    return text


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_stores())
def test_fast_loader_matches_reference_verdict(text):
    fast = _verdict(thicket_from_json, text)
    ref = _verdict(reference_load, text)
    assert (fast is None) == (ref is None)
    if fast is not None:
        assert thicket_to_json(fast) == thicket_to_json(ref)
        if FORMAT_V1 not in text:  # v1 has no checksum to reject edits
            assert thicket_to_json(fast) in STORES.values()


@pytest.mark.parametrize("mutate", WHOLE_MUTATIONS)
@pytest.mark.parametrize("name", sorted(STORES))
def test_whole_document_mutations_match_reference(name, mutate):
    text = mutate(STORES[name])
    fast = _verdict(thicket_from_json, text)
    assert (fast is None) == (_verdict(reference_load, text) is None)
    if fast is not None:
        assert thicket_to_json(fast) == STORES[name]


def test_reindented_store_is_accepted():
    text = _reindent(STORES["store_v2_rich.json"])
    assert thicket_to_json(thicket_from_json(text)) \
        == STORES["store_v2_rich.json"]

