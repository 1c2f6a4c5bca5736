"""Crash-safe persistence: atomic checksummed stores, checkpointed
resumable ingestion, and structural invariant validation.

Covers the durability guarantees end to end:

* save → load → save is byte-identical (property-based, incl. NaN and
  hierarchical columns), so a resumed pipeline is indistinguishable
  from a from-scratch one;
* a crash mid-save never leaves a readable-but-wrong store;
* every :data:`repro.workloads.STORE_CORRUPTION_MODES` fault is caught
  by :func:`repro.core.io.load_thicket` as a typed
  :class:`CorruptStoreError`;
* an interrupted checkpointed campaign resumes exactly the remaining
  profiles and composes the same thicket;
* :meth:`Thicket.validate` holds on every pipeline output and
  ``repair=True`` fixes what can be fixed without inventing data.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Thicket, concat_thickets
from repro.core.io import (
    FORMAT_V1,
    FORMAT_V2,
    load_thicket,
    save_thicket,
    thicket_to_payload,
)
from repro.errors import (
    CorruptStoreError,
    PersistenceError,
    ReproError,
    SchemaError,
)
from repro.graph import GraphFrame
from repro.ingest import CheckpointJournal, load_ensemble
from repro.resilience import ResiliencePolicy
from repro.workloads import (
    QUARTZ,
    STORE_CORRUPTION_MODES,
    corrupt_store,
    generate_rajaperf_profile,
    inject_slow_io,
    write_marbl_campaign,
)


def _chain_gf(values, ident):
    """A linear call chain with one metric value per node."""
    entry = None
    for depth in reversed(range(len(values))):
        node = {"frame": {"name": f"n{depth}"},
                "metrics": {"t": values[depth]}}
        if entry is not None:
            node["children"] = [entry]
        entry = node
    gf = GraphFrame.from_literal([entry])
    gf.metadata["id"] = ident
    return gf


def _sparse_thicket():
    """Two profiles where metric ``y`` exists only in the first, plus
    ``fill_perfdata`` — the sparse shape whose NaN cells historically
    came back as ``None`` after a round trip."""
    a = GraphFrame.from_literal([
        {"frame": {"name": "m"}, "metrics": {"x": 1.0, "y": 3.5},
         "children": [{"frame": {"name": "c"},
                       "metrics": {"x": 2.0, "y": 0.25}}]},
    ])
    a.metadata["id"] = 1
    b = GraphFrame.from_literal([
        {"frame": {"name": "m"}, "metrics": {"x": 5.0}},
    ])
    b.metadata["id"] = 2
    return Thicket.from_caliperreader([a, b], fill_perfdata=True)


# ----------------------------------------------------------------------
# byte-identical round trips
# ----------------------------------------------------------------------

class TestByteIdentity:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.lists(st.floats(allow_nan=True, allow_infinity=False,
                           width=32),
                 min_size=1, max_size=4),
        min_size=1, max_size=3))
    def test_save_load_save_byte_identical(self, profiles):
        """The store encoding is deterministic: serializing a re-loaded
        thicket reproduces the original document byte for byte, for any
        ensemble shape (ragged chains, NaN cells included)."""
        gfs = [_chain_gf(values, i) for i, values in enumerate(profiles)]
        tk = Thicket.from_caliperreader(gfs)
        first = tk.to_json()
        second = Thicket.from_json(first).to_json()
        assert first == second

    def test_file_round_trip_byte_identical(self, raja_thicket, tmp_path):
        from repro.core import stats

        stats.mean(raja_thicket, ["time (exc)"])
        path = save_thicket(raja_thicket, tmp_path / "tk.json")
        text = path.read_text()
        save_thicket(load_thicket(path), path)
        assert path.read_text() == text

    def test_hierarchical_columns_byte_identical(self, raja_thicket):
        other = raja_thicket.copy()
        other.metadata["copy"] = ["b"] * len(other.metadata)
        tk = concat_thickets([raja_thicket, other], axis="columns",
                             headers=["A", "B"], match_on="name")
        assert len(tk.dataframe)  # profiles aligned, not an empty join
        first = tk.to_json()
        back = Thicket.from_json(first)
        assert ("A", "time (exc)") in back.dataframe
        assert back.to_json() == first
        assert back.validate().ok

    def test_sparse_fill_perfdata_nan_round_trip(self):
        """Regression: NaN cells of a sparse thicket must come back as
        ``np.nan`` in float columns, not ``None`` in object columns —
        including columns that are entirely NaN."""
        tk = _sparse_thicket()
        tk.dataframe["z"] = np.full(len(tk.dataframe), np.nan)
        back = Thicket.from_json(tk.to_json())
        y = back.dataframe.column("y")
        z = back.dataframe.column("z")
        assert y.dtype.kind == "f" and z.dtype.kind == "f"
        assert int(np.isnan(y).sum()) == int(
            np.isnan(tk.dataframe.column("y").astype(float)).sum())
        assert np.isnan(z).all()
        assert back.to_json() == tk.to_json()


# ----------------------------------------------------------------------
# atomic save
# ----------------------------------------------------------------------

class TestAtomicSave:
    def test_crash_mid_save_preserves_old_store(self, raja_thicket,
                                                tmp_path, monkeypatch):
        """A failure at the rename step must leave the previous store
        byte-identical and no readable half-written file."""
        path = save_thicket(raja_thicket, tmp_path / "tk.json")
        before = path.read_text()

        modified = raja_thicket.copy()
        modified.metadata["note"] = ["changed"] * len(modified.metadata)

        def boom(src, dst):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(PersistenceError):
            save_thicket(modified, path)
        monkeypatch.undo()

        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["tk.json"]
        assert load_thicket(path).to_json() == raja_thicket.to_json()

    def test_success_leaves_no_temp_files(self, raja_thicket, tmp_path):
        save_thicket(raja_thicket, tmp_path / "tk.json")
        assert [p.name for p in tmp_path.iterdir()] == ["tk.json"]

    def test_missing_store_is_typed(self, tmp_path):
        with pytest.raises(PersistenceError) as exc:
            load_thicket(tmp_path / "nope.json")
        assert exc.value.stage == "load"

    def test_unwritable_destination_is_typed(self, raja_thicket, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(PersistenceError):
            save_thicket(raja_thicket, blocker / "tk.json")


# ----------------------------------------------------------------------
# corruption detection
# ----------------------------------------------------------------------

STORE_MODES = sorted(set(STORE_CORRUPTION_MODES) - {"journal_tail_chop"})


class TestCorruptionDetection:
    @pytest.fixture
    def store(self, raja_thicket, tmp_path):
        return save_thicket(raja_thicket, tmp_path / "tk.json")

    @pytest.mark.parametrize("mode", STORE_MODES)
    def test_every_store_mode_is_caught(self, store, mode):
        corrupt_store(store, mode, seed=3)
        with pytest.raises(CorruptStoreError):
            load_thicket(store)

    def test_corruption_error_is_a_value_error(self, store):
        """Back-compat: callers that caught ``ValueError`` keep working."""
        corrupt_store(store, "truncate")
        with pytest.raises(ValueError):
            load_thicket(store)

    def test_checksum_mismatch_names_the_cause(self, store):
        corrupt_store(store, "checksum_mismatch")
        with pytest.raises(CorruptStoreError, match="checksum mismatch"):
            load_thicket(store)

    def test_structurally_broken_payload_is_typed(self, store):
        """A well-formed envelope whose payload is garbage must raise
        CorruptStoreError, never a bare KeyError/IndexError."""
        from repro.ioutil import canonical_json, sha256_of

        payload = {"graph": [], "bogus": True}
        store.write_text(json.dumps({
            "format": FORMAT_V2,
            "checksum": sha256_of(canonical_json(payload)),
            "payload": payload,
        }))
        with pytest.raises(CorruptStoreError, match="structurally invalid"):
            load_thicket(store)

    def test_legacy_v1_store_still_loads(self, raja_thicket, tmp_path):
        payload = thicket_to_payload(raja_thicket)
        for table in ("performance_data", "metadata", "statsframe"):
            payload[table].pop("float_columns")  # v1 had no dtype marks
        doc = {"format": FORMAT_V1, **payload}
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        back = load_thicket(path)
        assert len(back) == len(raja_thicket)
        assert back.graph == raja_thicket.graph
        # re-saving a legacy store upgrades it to the checksummed format
        save_thicket(back, path)
        assert json.loads(path.read_text())["format"] == FORMAT_V2


# ----------------------------------------------------------------------
# checkpointed, resumable ingestion
# ----------------------------------------------------------------------

class _CrashAfter:
    """Patchable ``_read_text`` stand-in that dies after *k* reads."""

    def __init__(self, k):
        self.k = k
        self.reads = 0

    def __call__(self, path):
        if self.reads >= self.k:
            raise RuntimeError("simulated crash")
        self.reads += 1
        return Path(path).read_text()


class _CountReads:
    def __init__(self):
        self.reads = 0

    def __call__(self, path):
        self.reads += 1
        return Path(path).read_text()


@pytest.fixture
def campaign(tmp_path):
    paths = write_marbl_campaign(tmp_path / "profiles", scale=0.2)
    return [Path(p) for p in paths]  # 12 profiles


class TestCheckpointResume:
    def test_interrupt_then_resume_ingests_only_the_rest(
            self, campaign, tmp_path, monkeypatch):
        import repro.ingest.pipeline as pipe

        baseline = load_ensemble(campaign).thicket.to_json()
        ckpt = tmp_path / "ckpt"

        crash = _CrashAfter(5)
        monkeypatch.setattr(pipe, "_read_text", crash)
        with pytest.raises(RuntimeError):
            load_ensemble(campaign, checkpoint=ckpt)
        assert crash.reads == 5

        counter = _CountReads()
        monkeypatch.setattr(pipe, "_read_text", counter)
        tk, report = load_ensemble(campaign, checkpoint=ckpt)
        assert counter.reads == len(campaign) - 5
        assert report.n_resumed == 5
        assert sorted(report.resumed) == sorted(
            str(p) for p in campaign[:5])
        assert tk.to_json() == baseline

    def test_completed_run_resumes_everything(self, campaign, tmp_path,
                                              monkeypatch):
        import repro.ingest.pipeline as pipe

        ckpt = tmp_path / "ckpt"
        first, _ = load_ensemble(campaign, checkpoint=ckpt)
        counter = _CountReads()
        monkeypatch.setattr(pipe, "_read_text", counter)
        tk, report = load_ensemble(campaign, checkpoint=ckpt)
        assert counter.reads == 0
        assert report.n_resumed == len(campaign)
        assert tk.to_json() == first.to_json()

    def test_200_profile_campaign_resume(self, tmp_path, monkeypatch):
        """Acceptance shape: a 200-profile campaign interrupted mid-run
        resumes exactly the remaining profiles and composes a thicket
        equal to the from-scratch one."""
        import repro.ingest.pipeline as pipe
        from repro.caliper import write_cali_json

        prof_dir = tmp_path / "profiles"
        prof_dir.mkdir()
        paths = []
        for i in range(200):
            prof = generate_rajaperf_profile(
                QUARTZ, 1048576, kernels=["Stream_DOT"], seed=i,
                metadata={"rep": i})
            paths.append(write_cali_json(prof, prof_dir / f"p{i:03d}.json"))

        baseline = load_ensemble(paths).thicket.to_json()
        ckpt = tmp_path / "ckpt"
        crash = _CrashAfter(73)
        monkeypatch.setattr(pipe, "_read_text", crash)
        with pytest.raises(RuntimeError):
            load_ensemble(paths, checkpoint=ckpt)

        counter = _CountReads()
        monkeypatch.setattr(pipe, "_read_text", counter)
        tk, report = load_ensemble(paths, checkpoint=ckpt)
        assert counter.reads == 200 - 73
        assert report.n_resumed == 73
        assert tk.to_json() == baseline

    def test_quarantined_profiles_skipped_on_resume(self, campaign,
                                                    tmp_path, monkeypatch):
        import repro.ingest.pipeline as pipe

        campaign[3].write_text("{broken")
        ckpt = tmp_path / "ckpt"
        _, first = load_ensemble(campaign, on_error="collect",
                                 checkpoint=ckpt)
        assert first.n_quarantined == 1

        counter = _CountReads()
        monkeypatch.setattr(pipe, "_read_text", counter)
        tk, report = load_ensemble(campaign, on_error="collect",
                                   checkpoint=ckpt)
        assert counter.reads == 0  # neither good nor bad files re-read
        assert report.n_resumed == len(campaign) - 1
        assert report.resumed_quarantined == 1
        assert report.quarantined[0].error_type == "ReaderError"
        assert str(campaign[3]) in report.quarantined[0].source

    @pytest.mark.parametrize("error_type", ["NoSuchError", "Any"])
    def test_journaled_quarantine_of_an_unknown_type_resumes_as_repro_error(
            self, campaign, tmp_path, error_type):
        """A journaled class name that is not a ``ReproError`` of
        ``repro.errors`` (``Any`` is a name there, but no error class)
        resumes as a plain ``ReproError`` with the journaled message."""
        campaign[3].write_text("{broken")
        ckpt = tmp_path / "ckpt"
        load_ensemble(campaign, on_error="collect", checkpoint=ckpt)
        with CheckpointJournal(ckpt) as journal:
            [key] = [k for k, r in journal.records.items()
                     if r["status"] == "quarantined"]
            unknown = type(error_type, (ReproError,), {})
            journal.record_quarantined(
                key, unknown("journaled failure", stage="read"))
        _, report = load_ensemble(campaign, on_error="collect",
                                  checkpoint=ckpt)
        assert report.resumed_quarantined == 1
        [q] = report.quarantined
        assert type(q.error) is ReproError
        assert str(q.error).startswith("journaled failure")
        assert q.error.stage == "read"

    def test_quarantine_journaled_before_records_resumes(self, campaign,
                                                         tmp_path):
        """A quarantine line from before errors were journaled as
        records (``stage``/``error_type``/``error`` only, no ``source``
        or ``fields``) resumes as its class, attributed to its key."""
        key = str(campaign[3])
        with CheckpointJournal(tmp_path / "ckpt") as journal:
            journal._append({"kind": "profile", "key": key,
                             "status": "quarantined", "stage": "validate",
                             "error_type": "SchemaError",
                             "error": "missing nodes [source: p3]"})
        _, report = load_ensemble(campaign, on_error="collect",
                                  checkpoint=tmp_path / "ckpt")
        [q] = report.quarantined
        assert type(q.error) is SchemaError
        assert (str(q.error), q.error.source, q.error.stage) == (
            "missing nodes [source: p3]", key, "validate")

    def test_strict_retries_previously_quarantined_source(
            self, campaign, tmp_path, monkeypatch):
        """strict must not trust a journaled quarantine: the file may
        have been fixed since, so it is re-read."""
        import repro.ingest.pipeline as pipe

        good = campaign[3].read_text()
        campaign[3].write_text("{broken")
        ckpt = tmp_path / "ckpt"
        load_ensemble(campaign, on_error="collect", checkpoint=ckpt)

        campaign[3].write_text(good)  # the operator fixed the file
        counter = _CountReads()
        monkeypatch.setattr(pipe, "_read_text", counter)
        tk, report = load_ensemble(campaign, checkpoint=ckpt)
        assert counter.reads == 1  # only the fixed file
        assert report.n_loaded == len(campaign)
        assert not report.quarantined

    def test_journal_tail_chop_is_repaired(self, campaign, tmp_path,
                                           monkeypatch):
        import repro.ingest.pipeline as pipe

        ckpt = tmp_path / "ckpt"
        first, _ = load_ensemble(campaign, checkpoint=ckpt)
        corrupt_store(ckpt / "journal.jsonl", "journal_tail_chop", seed=1)

        journal = CheckpointJournal(ckpt)
        assert journal.repaired_tail_lines >= 1
        journal.close()

        counter = _CountReads()
        monkeypatch.setattr(pipe, "_read_text", counter)
        tk, report = load_ensemble(campaign, checkpoint=ckpt)
        assert counter.reads == 1  # exactly the torn final record
        assert report.n_resumed == len(campaign) - 1
        assert tk.to_json() == first.to_json()

    def test_lost_payload_falls_back_to_reingest(self, campaign, tmp_path,
                                                 monkeypatch):
        """An ``ok`` journal record whose payload file vanished must
        re-ingest the raw source, never fail or drop the profile."""
        import repro.ingest.pipeline as pipe

        ckpt = tmp_path / "ckpt"
        first, _ = load_ensemble(campaign, checkpoint=ckpt)
        victim = sorted((ckpt / "profiles").iterdir())[0]
        victim.unlink()

        counter = _CountReads()
        monkeypatch.setattr(pipe, "_read_text", counter)
        tk, report = load_ensemble(campaign, checkpoint=ckpt)
        assert counter.reads == 1
        assert report.n_resumed == len(campaign) - 1
        assert tk.to_json() == first.to_json()

    @pytest.mark.parametrize("first_jobs, second_jobs", [(2, 1), (1, 2)])
    def test_resume_crosses_pool_and_serial(self, campaign, tmp_path,
                                            monkeypatch, first_jobs,
                                            second_jobs):
        """A pool run and a serial run journal the same payloads, so
        either resumes the other's checkpoint in full."""
        import repro.ingest.pipeline as pipe

        baseline = load_ensemble(campaign).thicket.to_json()
        ckpt = tmp_path / "ckpt"
        load_ensemble(campaign, checkpoint=ckpt,
                      policy=ResiliencePolicy(jobs=first_jobs))
        counter = _CountReads()
        monkeypatch.setattr(pipe, "_read_text", counter)
        tk, report = load_ensemble(campaign, checkpoint=ckpt,
                                   policy=ResiliencePolicy(jobs=second_jobs))
        assert counter.reads == 0
        assert report.n_resumed == len(campaign)
        assert tk.to_json() == baseline

    def test_slow_io_profile_resumes_without_stalling(self, campaign,
                                                      tmp_path):
        """The journal keeps the payload inside the fault wrapper, so a
        resume does not run the injected stall again."""
        inject_slow_io(campaign[1], seconds=0.25)
        ckpt = tmp_path / "ckpt"
        stalls = []
        first, _ = load_ensemble(campaign, checkpoint=ckpt,
                                 sleep=stalls.append)
        assert stalls == [0.25]
        stalls.clear()
        tk, report = load_ensemble(campaign, checkpoint=ckpt,
                                   sleep=stalls.append)
        assert report.n_resumed == len(campaign)
        assert stalls == []
        assert tk.to_json() == first.to_json()

    def test_in_memory_sources_are_not_journaled(self, tmp_path):
        """Payload dicts are labelled by position (``<payload #0>``), so
        a journal keyed by label would resume one run's profile in
        place of another's; only path sources are journaled."""
        from repro.caliper import profile_to_cali_dict

        a, b = (profile_to_cali_dict(generate_rajaperf_profile(
            QUARTZ, 1048576, kernels=["Stream_DOT"], seed=1,
            metadata={"rep": rep})) for rep in "AB")
        ckpt = tmp_path / "ckpt"
        load_ensemble([a], checkpoint=ckpt)
        tk, report = load_ensemble([b], checkpoint=ckpt)
        assert report.resumed == []
        assert list(tk.metadata.column("rep")) == ["B"]
        assert tk.to_json() == load_ensemble([b]).thicket.to_json()
        assert not any((ckpt / "profiles").iterdir())

    def test_resume_counters_surface_in_obs(self, campaign, tmp_path):
        import repro.obs as obs

        ckpt = tmp_path / "ckpt"
        load_ensemble(campaign, checkpoint=ckpt)
        obs.reset()
        obs.enable()
        try:
            load_ensemble(campaign, checkpoint=ckpt)
            metrics = obs.get_telemetry().metrics
            assert metrics.counter_value(
                "ingest.checkpoint.resumed") == len(campaign)
            assert metrics.counter_value(
                "ingest.checkpoint.recorded") == 0
        finally:
            obs.disable()
            obs.reset()

    def test_foreign_journal_format_rejected(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        from repro.ingest.checkpoint import _encode_record

        (ckpt / "journal.jsonl").write_text(
            _encode_record({"kind": "begin", "format": "other-v9"}) + "\n")
        with pytest.raises(PersistenceError, match="unsupported format"):
            CheckpointJournal(ckpt)

    def test_checkpoint_report_fields(self, campaign, tmp_path):
        ckpt = tmp_path / "ckpt"
        _, report = load_ensemble(campaign, checkpoint=ckpt)
        assert report.checkpoint_path == str(ckpt)
        doc = report.to_dict()
        assert doc["checkpoint"]["path"] == str(ckpt)
        assert f"checkpoint: {ckpt}" in report.summary()


# ----------------------------------------------------------------------
# structural invariant validation
# ----------------------------------------------------------------------

class TestValidate:
    def test_ok_after_ingest(self, raja_thicket):
        report = raja_thicket.validate()
        assert report.ok
        assert "ok" in report.summary()

    def test_ok_after_filter_groupby_concat(self, raja_thicket):
        filtered = raja_thicket.filter_metadata(
            lambda m: m["compiler"].startswith("clang"))
        assert filtered.validate().ok
        for _, sub in raja_thicket.groupby("compiler").items():
            assert sub.validate().ok
        unioned = concat_thickets(
            [filtered, raja_thicket.filter_metadata(
                lambda m: not m["compiler"].startswith("clang"))],
            axis="index")
        assert unioned.validate().ok

    def test_ok_after_load(self, raja_thicket, tmp_path):
        path = save_thicket(raja_thicket, tmp_path / "tk.json")
        assert load_thicket(path, verify=True).validate().ok

    def test_stale_metric_lists_repaired(self, raja_thicket):
        tk = raja_thicket.copy()
        tk.exc_metrics = list(tk.exc_metrics) + ["ghost (exc)"]
        tk.inc_metrics = list(tk.inc_metrics) + ["ghost (inc)"]
        report = tk.validate()
        assert not report.ok
        assert {i.code for i in report.issues} == {"exc-metric-missing",
                                                   "inc-metric-missing"}
        assert report.repairable
        fixed = tk.validate(repair=True)
        assert fixed.repaired and fixed.ok
        assert "ghost (exc)" not in tk.exc_metrics
        assert tk.validate().ok

    def test_missing_default_metric_repaired(self, raja_thicket):
        tk = raja_thicket.copy()
        tk.default_metric = "ghost"
        report = tk.validate()
        assert [i.code for i in report.issues] == ["default-metric-missing"]
        tk.validate(repair=True)
        assert tk.default_metric in tk.dataframe.columns
        assert tk.validate().ok

    def test_orphan_perf_rows_repaired(self, raja_thicket):
        from repro.frame import MultiIndex

        tk = raja_thicket.copy()
        alien = GraphFrame.from_literal(
            [{"frame": {"name": "alien"}, "metrics": {"t": 1.0}}])
        alien_node = alien.graph.node_order()[0]
        tuples = list(tk.dataframe.index.values)
        tuples[0] = (alien_node, tuples[0][1])
        tk.dataframe.index = MultiIndex(tuples, names=["node", "profile"])
        report = tk.validate()
        assert [i.code for i in report.issues] == ["perf-node-unknown"]
        tk.validate(repair=True)
        assert len(tk.dataframe) == len(raja_thicket.dataframe) - 1
        assert tk.validate().ok

    def test_duplicate_perf_rows_repaired(self, raja_thicket):
        from repro.frame import MultiIndex

        tk = raja_thicket.copy()
        tuples = list(tk.dataframe.index.values)
        tuples[1] = tuples[0]
        tk.dataframe.index = MultiIndex(tuples, names=["node", "profile"])
        report = tk.validate()
        assert [i.code for i in report.issues] == ["perf-index-duplicate"]
        tk.validate(repair=True)
        assert tk.validate().ok

    def test_duplicate_metadata_rows_repaired(self, raja_thicket):
        from repro.frame import concat_rows

        tk = raja_thicket.copy()
        first = np.arange(len(tk.metadata)) == 0
        tk.metadata = concat_rows([tk.metadata, tk.metadata[first]])
        report = tk.validate()
        assert [i.code for i in report.issues] == ["metadata-index-duplicate"]
        tk.validate(repair=True)
        assert len(tk.metadata) == len(raja_thicket.metadata)
        assert tk.validate().ok

    def test_unknown_perf_profile_is_not_repairable(self, raja_thicket):
        tk = raja_thicket.copy()
        keep = np.arange(len(tk.metadata)) != 0  # drop one profile's row
        tk.metadata = tk.metadata[keep]
        report = tk.validate()
        codes = {i.code for i in report.issues}
        assert "perf-profile-unknown" in codes
        assert "profile-list-mismatch" in codes
        assert not report.repairable
        after = tk.validate(repair=True)
        # the profile list is reset, but measurements without metadata
        # are never silently dropped
        assert [i.code for i in after.issues] == ["perf-profile-unknown"]

    def test_statsframe_orphans_repaired(self, raja_thicket):
        from repro.core import stats
        from repro.frame import Index

        tk = raja_thicket.copy()
        stats.mean(tk, ["time (exc)"])
        alien = GraphFrame.from_literal(
            [{"frame": {"name": "alien"}, "metrics": {"t": 1.0}}])
        nodes = list(tk.statsframe.index.values)
        nodes[0] = alien.graph.node_order()[0]
        nodes[2] = nodes[1]
        tk.statsframe.index = Index(nodes, name="node")
        report = tk.validate()
        assert {i.code for i in report.issues} == {"stats-node-unknown",
                                                   "stats-index-duplicate"}
        tk.validate(repair=True)
        assert tk.validate().ok
        assert len(tk.statsframe) == len(tk.graph)

    def test_report_to_dict(self, raja_thicket):
        tk = raja_thicket.copy()
        tk.default_metric = "ghost"
        doc = tk.validate().to_dict()
        assert doc["ok"] is False
        assert doc["issues"][0]["code"] == "default-metric-missing"
        assert doc["issues"][0]["repairable"] is True

    def test_load_verify_rejects_inconsistent_store(self, raja_thicket,
                                                    tmp_path):
        tk = raja_thicket.copy()
        tk.exc_metrics = list(tk.exc_metrics) + ["ghost"]
        path = save_thicket(tk, tmp_path / "tk.json")
        assert len(load_thicket(path).exc_metrics) == len(tk.exc_metrics)
        with pytest.raises(CorruptStoreError, match="inconsistent"):
            load_thicket(path, verify=True)
        with pytest.raises(CorruptStoreError):
            Thicket.load(path, verify=True)


# ----------------------------------------------------------------------
# the other durable writers
# ----------------------------------------------------------------------

class TestFrameAndProfileWriters:
    def test_frame_from_json_typed_error_on_garbage(self, tmp_path):
        from repro.frame.io import from_json

        bad = tmp_path / "frame.json"
        bad.write_text("{truncated")
        with pytest.raises(PersistenceError) as exc:
            from_json(bad)
        assert isinstance(exc.value, ValueError)
        assert exc.value.stage == "load"

    def test_frame_from_json_typed_error_on_wrong_shape(self):
        from repro.frame.io import from_json

        with pytest.raises(PersistenceError, match="columns/index/data"):
            from_json('{"something": "else"}')

    def test_frame_to_json_is_atomic(self, tmp_path, monkeypatch):
        from repro.frame import DataFrame
        from repro.frame.io import from_json, to_json

        df = DataFrame({"a": [1, 2]})
        path = tmp_path / "frame.json"
        to_json(df, path)
        before = path.read_text()

        monkeypatch.setattr(os, "replace",
                            lambda s, d: (_ for _ in ()).throw(OSError()))
        with pytest.raises(OSError):
            to_json(DataFrame({"a": [9, 9]}), path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert list(from_json(path).column("a")) == [1, 2]
        assert [p.name for p in tmp_path.iterdir()] == ["frame.json"]

    def test_profile_writer_is_atomic(self, tmp_path, monkeypatch):
        from repro.caliper import write_cali_json

        prof = generate_rajaperf_profile(QUARTZ, 1048576,
                                         kernels=["Stream_DOT"], seed=0)
        path = write_cali_json(prof, tmp_path / "p.json")
        before = path.read_text()

        monkeypatch.setattr(os, "replace",
                            lambda s, d: (_ for _ in ()).throw(OSError()))
        with pytest.raises(OSError):
            write_cali_json(prof, path)
        monkeypatch.undo()
        assert path.read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["p.json"]
