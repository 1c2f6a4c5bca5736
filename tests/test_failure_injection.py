"""Failure-injection tests: malformed inputs must fail loudly and early.

A tool that silently mis-reads a profile poisons every downstream
analysis; these tests pin the error behaviour of the readers, the
fault-tolerant ingestion pipeline (error policies, quarantine
reporting, retry, profile-id repair), and the frame layer under
corrupt input.  The invariant everything here enforces: no malformed
payload ever escapes as a bare ``KeyError``/``IndexError`` — every
failure is a typed :class:`repro.errors.ReproError` subclass carrying
the offending source.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Thicket
from repro.caliper import profile_to_cali_dict, write_cali_json
from repro.errors import (
    CompositionError,
    ProfileConflictError,
    ReaderError,
    ReproError,
    SchemaError,
)
from repro.ingest import (
    IngestReport,
    load_ensemble,
    validate_cali_payload,
)
from repro.readers import read_cali_dict, read_cali_json
from repro.resilience import ResiliencePolicy


def valid_payload():
    return profile_to_cali_dict({
        "records": [
            {"path": ("main",), "metrics": {"t": 1.0}},
            {"path": ("main", "solve"), "metrics": {"t": 2.0}},
        ],
        "globals": {"id": 1},
    })


def write_profile(path, i, t=1.0):
    return write_cali_json({
        "records": [
            {"path": ("main",), "metrics": {"t": t}},
            {"path": ("main", "solve"), "metrics": {"t": t * 2}},
        ],
        "globals": {"id": i},
    }, path)


class TestCorruptProfiles:
    def test_truncated_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"data": [[0, 1.0]], "columns": ["path"')
        with pytest.raises(ReaderError) as exc:
            read_cali_json(path)
        assert str(path) in str(exc.value)
        # the original JSONDecodeError is chained for full context
        assert isinstance(exc.value.__cause__, json.JSONDecodeError)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_cali_json(tmp_path / "nope.json")

    @pytest.mark.parametrize("section", ["nodes", "columns", "data"])
    def test_missing_required_section(self, section):
        payload = valid_payload()
        del payload[section]
        with pytest.raises(SchemaError) as exc:
            read_cali_dict(payload, source="p.json")
        message = str(exc.value)
        assert section in message
        assert "p.json" in message
        assert not isinstance(exc.value, KeyError)

    def test_dangling_parent_reference(self):
        payload = valid_payload()
        payload["nodes"][1]["parent"] = 99
        with pytest.raises(SchemaError):
            read_cali_dict(payload)

    def test_row_referencing_unknown_node(self):
        payload = valid_payload()
        payload["data"][0][0] = 42
        with pytest.raises(SchemaError):
            read_cali_dict(payload)

    def test_null_metric_cells_become_nan(self):
        payload = valid_payload()
        payload["data"][0][1] = None
        gf = read_cali_dict(payload)
        assert np.isnan(gf.dataframe.column("t")[0])

    def test_empty_records_profile(self):
        payload = profile_to_cali_dict({"records": [], "globals": {}})
        gf = read_cali_dict(payload)
        assert len(gf.graph) == 0
        assert len(gf.dataframe) == 0


class TestSchemaValidation:
    def test_valid_payload_passes(self):
        validate_cali_payload(valid_payload())

    def test_wrong_typed_metric_cell(self):
        payload = valid_payload()
        payload["data"][0][1] = "fast"
        with pytest.raises(SchemaError) as exc:
            validate_cali_payload(payload, source="x.json")
        assert "'t'" in str(exc.value)

    def test_duplicate_node_ids_in_data(self):
        payload = valid_payload()
        payload["data"].append(list(payload["data"][0]))
        with pytest.raises(SchemaError) as exc:
            validate_cali_payload(payload)
        assert "duplicates node id" in str(exc.value)

    def test_row_length_mismatch(self):
        payload = valid_payload()
        payload["data"][0] = payload["data"][0] + [1.0]
        with pytest.raises(SchemaError):
            validate_cali_payload(payload)

    def test_section_wrong_type(self):
        payload = valid_payload()
        payload["nodes"] = "oops"
        with pytest.raises(SchemaError):
            validate_cali_payload(payload)

    def test_nan_and_inf_metrics_are_allowed(self):
        payload = valid_payload()
        payload["data"][0][1] = float("nan")
        payload["data"][1][1] = float("inf")
        validate_cali_payload(payload)  # must not raise


class TestErrorPolicies:
    @pytest.fixture
    def mixed_dir(self, tmp_path):
        """Three good profiles plus one per failure stage."""
        for i in range(3):
            write_profile(tmp_path / f"good{i}.json", i)
        (tmp_path / "k_bad_json.json").write_text("not json at all")
        bad_schema = valid_payload()
        del bad_schema["nodes"]
        (tmp_path / "l_bad_schema.json").write_text(json.dumps(bad_schema))
        return tmp_path

    def paths(self, d):
        return sorted(d.glob("*.json"))

    def test_strict_raises_first_typed_error(self, mixed_dir):
        with pytest.raises(ReproError) as exc:
            load_ensemble(self.paths(mixed_dir), on_error="strict")
        assert "k_bad_json.json" in str(exc.value)

    def test_skip_drops_and_warns(self, mixed_dir):
        with pytest.warns(UserWarning, match="skipping profile"):
            tk, report = load_ensemble(self.paths(mixed_dir),
                                       on_error="skip")
        assert len(tk.profile) == 3
        assert report.n_quarantined == 2

    def test_collect_loads_valid_and_reports_rest(self, mixed_dir):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # collect must be silent
            tk, report = load_ensemble(self.paths(mixed_dir),
                                       on_error="collect")
        assert len(tk.profile) == 3
        assert {q.source.rsplit("/", 1)[-1] for q in report.quarantined} == \
            {"k_bad_json.json", "l_bad_schema.json"}
        stages = {q.source.rsplit("/", 1)[-1]: q.stage
                  for q in report.quarantined}
        assert stages["k_bad_json.json"] == "read"
        assert stages["l_bad_schema.json"] == "validate"
        for q in report.quarantined:
            assert isinstance(q.error, ReproError)

    def test_unknown_policy_rejected(self, mixed_dir):
        with pytest.raises(ValueError):
            load_ensemble(self.paths(mixed_dir), on_error="yolo")

    def test_all_bad_returns_none_thicket(self, tmp_path):
        (tmp_path / "a.json").write_text("junk")
        tk, report = load_ensemble([tmp_path / "a.json"], on_error="collect")
        assert tk is None
        assert report.n_quarantined == 1

    def test_all_bad_strict_from_caliperreader(self, tmp_path):
        (tmp_path / "a.json").write_text("junk")
        with pytest.raises(ReproError):
            Thicket.from_caliperreader([tmp_path / "a.json"])

    def test_provenance_on_thicket(self, mixed_dir):
        tk = Thicket.from_caliperreader(self.paths(mixed_dir),
                                        on_error="collect")
        dropped = tk.provenance["dropped_profiles"]
        assert len(dropped) == 2
        assert all(d["error_type"] in ("ReaderError", "SchemaError")
                   for d in dropped)
        assert tk.copy().provenance == tk.provenance


class TestIngestReport:
    def test_report_counts_and_dict(self, tmp_path):
        write_profile(tmp_path / "good.json", 1)
        (tmp_path / "bad.json").write_text("{")
        tk, report = load_ensemble(sorted(tmp_path.glob("*.json")),
                                   on_error="collect")
        assert isinstance(report, IngestReport)
        assert report.requested == 2
        assert report.n_loaded == 1
        assert not report.ok
        assert report.errors_by_stage() == {"read": 1}
        q = report.quarantined[0]
        assert q.error_type == "ReaderError"
        assert q.index == 0  # bad.json sorts first
        d = report.to_dict()
        assert d["quarantined"][0]["stage"] == "read"
        assert "bad.json" in d["quarantined"][0]["source"]
        text = report.summary()
        assert "1/2 profiles loaded" in text
        assert "bad.json" in text

    def test_clean_ingest_report_ok(self, tmp_path):
        write_profile(tmp_path / "good.json", 1)
        tk, report = load_ensemble([tmp_path / "good.json"],
                                   on_error="collect")
        assert report.ok
        assert report.n_quarantined == 0
        assert len(tk.profile) == 1


class TestTransientIORetry:
    def test_transient_oserror_is_retried(self, tmp_path, monkeypatch):
        from repro.ingest import pipeline

        path = write_profile(tmp_path / "p.json", 1)
        real = pipeline._read_text
        failures = {"left": 2}
        delays = []

        def flaky(p):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient NFS hiccup")
            return real(p)

        monkeypatch.setattr(pipeline, "_read_text", flaky)
        tk, report = load_ensemble(
            [path], on_error="collect",
            policy=ResiliencePolicy(max_retries=2, backoff=0.01),
            sleep=delays.append)
        assert tk is not None and report.ok
        assert delays == [0.01, 0.02]  # bounded exponential backoff

    def test_exhausted_retries_surface_as_reader_error(self, tmp_path,
                                                       monkeypatch):
        from repro.ingest import pipeline

        path = write_profile(tmp_path / "p.json", 1)

        def always_fails(p):
            raise OSError("stale file handle")

        monkeypatch.setattr(pipeline, "_read_text", always_fails)
        with pytest.raises(ReaderError, match="3 attempt"):
            load_ensemble([path], on_error="strict",
                          policy=ResiliencePolicy(max_retries=2,
                                                  backoff=0.0),
                          sleep=lambda s: None)

    def test_serial_retry_backoff_is_jittered(self, tmp_path,
                                              monkeypatch):
        """Serial ingest draws its delays from the policy's jittered
        formula under a ``random.Random(0)``, like the executor."""
        from repro.ingest import pipeline

        path = write_profile(tmp_path / "p.json", 1)
        real = pipeline._read_text
        failures = {"left": 2}
        delays = []

        def flaky(p):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient NFS hiccup")
            return real(p)

        monkeypatch.setattr(pipeline, "_read_text", flaky)
        policy = ResiliencePolicy(max_retries=2, backoff=0.01,
                                  backoff_jitter=0.5)
        tk, report = load_ensemble([path], on_error="collect",
                                   policy=policy, sleep=delays.append)
        assert tk is not None and report.ok
        rng = random.Random(0)
        expected = [policy.delay_for(0, rng), policy.delay_for(1, rng)]
        assert delays == pytest.approx(expected)
        assert delays == pytest.approx([0.014222, 0.027579], abs=1e-6)

    def test_exhausted_retries_quarantine_alike_for_any_jobs(
            self, tmp_path, monkeypatch):
        from repro.ingest import pipeline

        path = write_profile(tmp_path / "p.json", 1)

        def always_fails(p):
            raise OSError("stale file handle")

        monkeypatch.setattr(pipeline, "_read_text", always_fails)
        seen = []
        for jobs in (1, 2):
            tk, report = load_ensemble(
                [path], on_error="collect",
                policy=ResiliencePolicy(jobs=jobs, backoff=0.0),
                sleep=lambda s: None)
            assert tk is None
            [q] = report.quarantined
            seen.append((q.stage, q.error_type, str(q.error)))
        assert seen[0] == seen[1]
        assert seen[0] == (
            "read", "ReaderError",
            f"I/O error reading {path} after 3 attempt(s): "
            f"stale file handle")

    def test_missing_file_not_retried(self, tmp_path):
        calls = []
        with pytest.raises(ReaderError, match="not found"):
            load_ensemble([tmp_path / "nope.json"], on_error="strict",
                          sleep=calls.append)
        assert calls == []


class TestProfileIdRepair:
    def make_identical(self, tmp_path):
        prof = {"records": [{"path": ("a",), "metrics": {"t": 1.0}}],
                "globals": {"same": "metadata"}}
        # identical payload dicts (no profile.file to disambiguate)
        return [profile_to_cali_dict(prof), profile_to_cali_dict(prof)]

    def test_strict_raises_profile_conflict(self, tmp_path):
        with pytest.raises(ProfileConflictError):
            load_ensemble(self.make_identical(tmp_path), on_error="strict")

    def test_collect_repairs_deterministically(self, tmp_path):
        tk1, rep1 = load_ensemble(self.make_identical(tmp_path),
                                  on_error="collect")
        tk2, rep2 = load_ensemble(self.make_identical(tmp_path),
                                  on_error="collect")
        assert len(tk1.profile) == 2
        assert len(set(tk1.profile)) == 2
        assert tk1.profile == tk2.profile  # deterministic repair
        assert len(rep1.repaired) == 1
        assert rep1.repaired[0].original in tk1.profile or \
            rep1.repaired[0].repaired in tk1.profile

    def test_metadata_key_collision_repaired(self):
        from repro.graph import GraphFrame

        gfs = []
        for t in (1.0, 2.0, 3.0):
            gf = GraphFrame.from_literal(
                [{"frame": {"name": "m"}, "metrics": {"t": t}}])
            gf.metadata.update({"size": 64})
            gfs.append(gf)
        tk, report = load_ensemble(gfs, metadata_key="size",
                                   on_error="collect")
        assert len(set(tk.profile)) == 3
        assert 64 in tk.profile
        assert {r.repaired for r in report.repaired} <= set(tk.profile)

    def test_missing_metadata_key_quarantined_per_profile(self):
        from repro.graph import GraphFrame

        good = GraphFrame.from_literal(
            [{"frame": {"name": "m"}, "metrics": {"t": 1.0}}])
        good.metadata.update({"size": 1})
        bad = GraphFrame.from_literal(
            [{"frame": {"name": "m"}, "metrics": {"t": 2.0}}])
        bad.metadata.update({"other": 9})
        tk, report = load_ensemble([good, bad], metadata_key="size",
                                   on_error="collect")
        assert tk.profile == [1]
        assert report.n_quarantined == 1
        assert report.quarantined[0].stage == "compose"
        assert isinstance(report.quarantined[0].error, ProfileConflictError)


class TestThicketConstructionFailures:
    def test_mixed_good_and_bad_files(self, tmp_path):
        good = write_cali_json({
            "records": [{"path": ("a",), "metrics": {"t": 1.0}}],
            "globals": {"id": 1},
        }, tmp_path / "good.json")
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        with pytest.raises(ReaderError) as exc:
            Thicket.from_caliperreader([good, bad])
        assert "bad.json" in str(exc.value)

    def test_duplicate_hash_profiles_disambiguated_by_file(self, tmp_path):
        """Two byte-identical runs hash identically — "profile.file"
        (set by the reader) disambiguates them."""
        prof = {"records": [{"path": ("a",), "metrics": {"t": 1.0}}],
                "globals": {"same": "metadata"}}
        p1 = write_cali_json(prof, tmp_path / "p1.json")
        p2 = write_cali_json(prof, tmp_path / "p2.json")
        tk = Thicket.from_caliperreader([p1, p2])
        assert len(tk.profile) == 2

    def test_truly_identical_metadata_rejected(self):
        from repro.graph import GraphFrame

        a = GraphFrame.from_literal([{"frame": {"name": "m"},
                                      "metrics": {"t": 1.0}}])
        b = GraphFrame.from_literal([{"frame": {"name": "m"},
                                      "metrics": {"t": 2.0}}])
        a.metadata.update({"id": 1})
        b.metadata.update({"id": 1})
        # ProfileConflictError doubles as ValueError for old callers
        with pytest.raises(ValueError):
            Thicket.from_caliperreader([a, b])
        with pytest.raises(ProfileConflictError):
            Thicket.from_caliperreader([a, b])

    def test_empty_sources_rejected(self):
        with pytest.raises(CompositionError):
            Thicket.from_caliperreader([])


# ----------------------------------------------------------------------
# hypothesis-driven fuzzing: every corruption surfaces as a typed error
# ----------------------------------------------------------------------

_PATHS = st.lists(
    st.sampled_from([("main",), ("main", "a"), ("main", "a", "b"),
                     ("main", "c"), ("other",)]),
    unique=True, min_size=1, max_size=5,
)
_METRIC = st.one_of(
    st.none(),
    st.integers(-10 ** 6, 10 ** 6),
    # width=32 keeps NaN/±inf coverage while float64 aggregates of
    # finite values cannot themselves overflow to inf
    st.floats(allow_nan=True, allow_infinity=True, width=32),
)


def _base_payload(draw):
    paths = draw(_PATHS)
    records = [{"path": p, "metrics": {"t": draw(_METRIC),
                                       "mem": draw(_METRIC)}}
               for p in sorted(paths, key=len)]
    return profile_to_cali_dict({"records": records,
                                 "globals": {"id": draw(st.integers(0, 99))}})


_CORRUPTIONS = [
    "drop_nodes", "drop_columns", "drop_data", "section_wrong_type",
    "string_metric_cell", "duplicate_row", "dangling_parent",
    "parent_wrong_type", "nonint_node_id", "row_too_long",
    "label_missing", "node_not_object", "none",
]


def _apply_corruption(payload, name, draw):
    if name == "drop_nodes":
        payload.pop("nodes", None)
    elif name == "drop_columns":
        payload.pop("columns", None)
    elif name == "drop_data":
        payload.pop("data", None)
    elif name == "section_wrong_type":
        payload[draw(st.sampled_from(["nodes", "columns", "data"]))] = \
            draw(st.sampled_from([None, 7, "xx", {"a": 1}]))
    elif name == "string_metric_cell" and payload["data"]:
        payload["data"][0][1] = "<<corrupt>>"
    elif name == "duplicate_row" and payload["data"]:
        payload["data"].append(list(payload["data"][0]))
    elif name == "dangling_parent" and payload["nodes"]:
        payload["nodes"][-1]["parent"] = draw(st.integers(50, 10 ** 6))
    elif name == "parent_wrong_type" and payload["nodes"]:
        payload["nodes"][-1]["parent"] = draw(
            st.sampled_from(["0", 1.5, -3, True]))
    elif name == "nonint_node_id" and payload["data"]:
        payload["data"][0][0] = draw(st.sampled_from(["0", None, 2.5]))
    elif name == "row_too_long" and payload["data"]:
        payload["data"][0] = list(payload["data"][0]) + [1.0]
    elif name == "label_missing" and payload["nodes"]:
        payload["nodes"][0].pop("label", None)
    elif name == "node_not_object" and payload["nodes"]:
        payload["nodes"][0] = draw(st.sampled_from([None, 3, "n", [1]]))
    return payload


class TestFuzzedCorruption:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_corrupt_payloads_never_raise_bare_errors(self, data):
        payload = _base_payload(data.draw)
        name = data.draw(st.sampled_from(_CORRUPTIONS))
        payload = _apply_corruption(payload, name, data.draw)
        try:
            tk, report = load_ensemble([payload], on_error="strict")
        except ReproError:
            return  # typed failure: exactly the contract
        # (a KeyError/IndexError/TypeError would fail the test here)
        assert tk is not None
        assert len(tk.profile) == 1

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_collect_policy_never_raises(self, data):
        payloads = []
        for _ in range(data.draw(st.integers(1, 4))):
            p = _base_payload(data.draw)
            name = data.draw(st.sampled_from(_CORRUPTIONS))
            payloads.append(_apply_corruption(p, name, data.draw))
        tk, report = load_ensemble(payloads, on_error="collect")
        assert report.requested == len(payloads)
        assert report.n_loaded + report.n_quarantined == len(payloads)
        for q in report.quarantined:
            assert isinstance(q.error, ReproError)
            assert q.stage in ("read", "validate", "build", "compose")

    @given(values=st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=32),
        min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_nan_inf_metrics_load_and_aggregate(self, values):
        from repro.core import stats

        payloads = []
        for i, v in enumerate(values):
            payloads.append(profile_to_cali_dict({
                "records": [{"path": ("main",), "metrics": {"t": v}}],
                "globals": {"id": i},
            }))
        tk, report = load_ensemble(payloads, on_error="strict")
        assert report.ok
        stats.mean(tk, ["t"])
        stats.std(tk, ["t"])
        mean_vals = tk.statsframe.column("t_mean").astype(float)
        # non-finite inputs degrade to missing, never poison the stats
        assert all(np.isfinite(m) or np.isnan(m) for m in mean_vals)
        finite = [v for v in values if np.isfinite(v)]
        if finite:
            assert mean_vals[0] == pytest.approx(np.mean(finite))
        else:
            assert np.isnan(mean_vals[0])


class TestCampaignAcceptance:
    """The headline scenario: 200 profiles, 5% corrupt."""

    def test_200_profile_campaign_with_corruption(self, tmp_path):
        from repro.workloads import corrupt_campaign, load_campaign

        paths = [write_profile(tmp_path / f"prof_{i:03d}.json", i,
                               t=1.0 + i * 0.01)
                 for i in range(200)]
        corrupted = corrupt_campaign(paths, fraction=0.05, seed=42)
        assert len(corrupted) == 10

        tk, report = load_campaign(tmp_path, on_error="collect")
        assert len(tk.profile) == 190
        assert report.n_quarantined == 10
        assert {q.source for q in report.quarantined} == \
            {str(p) for p in corrupted}
        for q in report.quarantined:
            assert isinstance(q.error, ReproError)
            assert q.stage in ("read", "validate", "build")
        # NaN-aware stats on the surviving sparse ensemble
        from repro.core import stats

        stats.mean(tk, ["t"])
        assert np.isfinite(
            tk.statsframe.column("t_mean").astype(float)).all()

        # same dirt, strict policy: typed error naming the first bad file
        with pytest.raises(ReproError) as exc:
            load_campaign(tmp_path, on_error="strict")
        first_bad = str(sorted(corrupted)[0])
        assert first_bad in str(exc.value)


class TestFrameEdgeCases:
    def test_boolean_mask_length_mismatch(self):
        from repro.frame import DataFrame

        df = DataFrame({"a": [1, 2, 3]})
        with pytest.raises(ValueError):
            df[np.array([True, False])]

    def test_stats_on_all_nan_column(self):
        from repro.core import stats
        from repro.graph import GraphFrame

        a = GraphFrame.from_literal([{"frame": {"name": "m"},
                                      "metrics": {"t": 1.0}}])
        a.metadata["id"] = 1
        b = GraphFrame.from_literal([{"frame": {"name": "m"},
                                      "metrics": {"t": 2.0, "extra": 5.0}}])
        b.metadata["id"] = 2
        tk = Thicket.from_caliperreader([a, b])
        stats.mean(tk, ["extra"])  # one NaN row — must not crash
        vals = tk.statsframe.column("extra_mean").astype(float)
        assert vals[0] == pytest.approx(5.0)

    def test_query_on_empty_thicket(self, tmp_path):
        from repro import QueryMatcher

        prof = {"records": [{"path": ("a",), "metrics": {"t": 1.0}}],
                "globals": {"id": 9}}
        path = write_cali_json(prof, tmp_path / "p.json")
        tk = Thicket.from_caliperreader(path)
        out = tk.query(QueryMatcher().match(".", lambda r: False))
        assert len(out.dataframe) == 0
        assert len(out.graph) == 0
