"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro import errors
from repro.cli import main
from repro.workloads import write_marbl_campaign, write_raja_campaign


@pytest.fixture(scope="module")
def marbl_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("marbl_profiles")
    write_marbl_campaign(d, scale=0.2)
    return str(d)


@pytest.fixture(scope="module")
def raja_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("raja_profiles")
    write_raja_campaign(d, scale=0.1,
                        kernels=["Stream_DOT", "Apps_VOL3D"])
    return str(d)


class TestSummarize:
    def test_prints_overview(self, marbl_dir, capsys):
        assert main(["summarize", marbl_dir]) == 0
        out = capsys.readouterr().out
        assert "profiles : 12" in out
        assert "Avg time/rank" in out

    def test_empty_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["summarize", str(tmp_path)])


class TestMetadata:
    def test_column_subset(self, marbl_dir, capsys):
        assert main(["metadata", marbl_dir, "--columns",
                     "cluster,numhosts"]) == 0
        out = capsys.readouterr().out
        assert "rztopaz" in out
        assert "walltime" not in out

    def test_unknown_column(self, marbl_dir):
        with pytest.raises(SystemExit):
            main(["metadata", marbl_dir, "--columns", "ghost"])


class TestTree:
    def test_tree_with_stat(self, marbl_dir, capsys):
        assert main(["tree", marbl_dir, "--metric", "Avg time/rank",
                     "--stat", "mean"]) == 0
        out = capsys.readouterr().out
        assert "timeStepLoop" in out
        assert "M_solver->Mult" in out

    def test_unknown_stat(self, marbl_dir):
        with pytest.raises(SystemExit):
            main(["tree", marbl_dir, "--metric", "Avg time/rank",
                  "--stat", "bogus"])


class TestStats:
    def test_stats_table(self, marbl_dir, capsys):
        assert main(["stats", marbl_dir, "--metrics", "Avg time/rank",
                     "--functions", "mean,std"]) == 0
        out = capsys.readouterr().out
        assert "Avg time/rank_mean" in out
        assert "Avg time/rank_std" in out

    def test_unknown_function(self, marbl_dir):
        with pytest.raises(SystemExit):
            main(["stats", marbl_dir, "--metrics", "Avg time/rank",
                  "--functions", "bogus"])


class TestQuery:
    def test_query_matches(self, marbl_dir, capsys):
        rc = main(["query", marbl_dir, "--query",
                   'MATCH (".", p)->("+") WHERE p."name" = "timeStepLoop"',
                   "--metric", "Avg time/rank"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hydro" in out
        assert "main" not in out.splitlines()[0]

    def test_query_no_match_exit_code(self, marbl_dir, capsys):
        rc = main(["query", marbl_dir, "--query",
                   'MATCH (".", p) WHERE p."name" = "ghost"'])
        assert rc == 1
        assert "no matches" in capsys.readouterr().out


class TestModelScaling:
    def test_model_lists_every_region(self, marbl_dir, capsys):
        assert main(["model", marbl_dir, "--parameter", "mpi.world.size",
                     "--metric", "Avg time/rank"]) == 0
        out = capsys.readouterr().out
        assert "M_solver->Mult" in out
        assert "R2=" in out

    def test_scaling_table(self, marbl_dir, capsys):
        assert main(["scaling", marbl_dir, "--node", "timeStepLoop",
                     "--metric", "time per cycle (inc)"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "karp_flatt" in out

    def test_raja_summarize(self, raja_dir, capsys):
        assert main(["summarize", raja_dir]) == 0
        assert "time (exc)" in capsys.readouterr().out


class TestErrorPolicyFlag:
    @pytest.fixture
    def dirty_dir(self, tmp_path):
        """A small campaign with one corrupt profile."""
        from repro.workloads import write_marbl_campaign

        paths = write_marbl_campaign(tmp_path, scale=0.2)
        paths[0].write_text("not json at all")
        return str(tmp_path)

    def test_strict_default_exits_2(self, dirty_dir, capsys):
        rc = main(["summarize", dirty_dir])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ReaderError" in err

    def test_collect_partial_exits_3_with_summary(self, dirty_dir, capsys):
        rc = main(["summarize", dirty_dir, "--on-error", "collect"])
        assert rc == 3
        captured = capsys.readouterr()
        assert "profiles : 11" in captured.out
        assert "11/12 profiles loaded" in captured.err
        assert "ReaderError" in captured.err

    def test_skip_also_composes(self, dirty_dir, capsys):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["summarize", dirty_dir, "--on-error", "skip"])
        assert rc == 3

    def test_clean_dir_stays_exit_0(self, marbl_dir):
        assert main(["summarize", marbl_dir, "--on-error", "collect"]) == 0


class TestIngestCommand:
    def test_ingest_clean(self, marbl_dir, capsys):
        assert main(["ingest", marbl_dir]) == 0
        out = capsys.readouterr().out
        assert "12/12 profiles loaded" in out
        assert "composed: Thicket" in out

    def test_ingest_dirty_collect(self, tmp_path, capsys):
        from repro.workloads import write_marbl_campaign

        paths = write_marbl_campaign(tmp_path, scale=0.2)
        paths[0].write_text("{broken")
        rc = main(["ingest", str(tmp_path), "--on-error", "collect"])
        assert rc == 3
        assert "11/12 profiles loaded" in capsys.readouterr().out

    def test_ingest_json_report(self, tmp_path, capsys):
        import json

        from repro.workloads import write_marbl_campaign

        paths = write_marbl_campaign(tmp_path, scale=0.2)
        paths[0].write_text("{broken")
        rc = main(["ingest", str(tmp_path), "--on-error", "collect",
                   "--json"])
        assert rc == 3
        report = json.loads(capsys.readouterr().out)
        assert report["policy"] == "collect"
        assert len(report["quarantined"]) == 1
        assert report["quarantined"][0]["error_type"] == "ReaderError"

    def test_ingest_nothing_loadable_exits_2(self, tmp_path, capsys):
        (tmp_path / "only.json").write_text("junk")
        rc = main(["ingest", str(tmp_path), "--on-error", "collect"])
        assert rc == 2


class TestIngestCheckpointAndSave:
    def test_save_writes_a_loadable_store(self, marbl_dir, tmp_path,
                                          capsys):
        from repro.core.io import load_thicket

        store = tmp_path / "tk.json"
        assert main(["ingest", marbl_dir, "--save", str(store)]) == 0
        assert f"saved: {store}" in capsys.readouterr().out
        assert len(load_thicket(store).profile) == 12

    def test_checkpoint_resumes_on_second_run(self, marbl_dir, tmp_path,
                                              capsys):
        import json

        ckpt = tmp_path / "ckpt"
        assert main(["ingest", marbl_dir, "--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        assert main(["ingest", marbl_dir, "--checkpoint", str(ckpt),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checkpoint"]["path"] == str(ckpt)
        assert report["checkpoint"]["resumed"] == 12

    def test_checkpoint_summary_line(self, marbl_dir, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        main(["ingest", marbl_dir, "--checkpoint", str(ckpt)])
        capsys.readouterr()
        assert main(["ingest", marbl_dir, "--checkpoint", str(ckpt)]) == 0
        assert "12 resumed" in capsys.readouterr().out


class TestValidateCommand:
    @pytest.fixture
    def store(self, marbl_dir, tmp_path, capsys):
        path = tmp_path / "tk.json"
        assert main(["ingest", marbl_dir, "--save", str(path)]) == 0
        capsys.readouterr()
        return path

    def test_good_store_exits_0(self, store, capsys):
        assert main(["validate", str(store)]) == 0
        out = capsys.readouterr().out
        assert "checksum ok" in out
        assert "validate: ok" in out

    def test_corrupt_store_exits_4(self, store, capsys):
        from repro.workloads import corrupt_store

        corrupt_store(store, "byte_flip")
        assert main(["validate", str(store)]) == 4
        assert "CorruptStoreError" in capsys.readouterr().err

    def test_missing_store_exits_4(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 4
        assert "PersistenceError" in capsys.readouterr().err

    def test_inconsistent_store_exits_4_and_repair_fixes(self, store,
                                                         capsys):
        from repro.core.io import load_thicket, save_thicket

        tk = load_thicket(store)
        tk.exc_metrics = list(tk.exc_metrics) + ["ghost"]
        save_thicket(tk, store)
        assert main(["validate", str(store)]) == 4
        capsys.readouterr()
        assert main(["validate", str(store), "--repair"]) == 0
        assert "repaired" in capsys.readouterr().out
        # the repair was re-saved, so a fresh check is clean
        assert main(["validate", str(store)]) == 0

    def test_json_report(self, store, capsys):
        import json

        assert main(["validate", str(store), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["store"] == str(store)
        assert doc["issues"] == []


class TestTypedErrorExitCodes:
    """``main`` turns an escaping ``ReproError`` into one stderr line
    and an exit code chosen by class: client/serve 7, persistence 4,
    any other 2 (a class that is both picks the first)."""

    @pytest.mark.parametrize("error, code", [
        (errors.TransportError("refused", source="GET h:1/healthz"), 7),
        (errors.ClientCircuitOpenError("open", source="h:1"), 7),
        (errors.OverloadedError("shed", reason="queue_full"), 7),
        (errors.CorruptStoreError("bad sha", source="s.json"), 4),
        (errors.PersistenceError("unwritable", source="s.json"), 4),
        (errors.SchemaError("no nodes", source="p.json"), 2),
        (errors.TaskTimeoutError("slow", source="p.json"), 2),
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else v)
    def test_exit_code_by_class(self, error, code, monkeypatch, tmp_path,
                                capsys):
        import repro.cli as cli

        def fail(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_validate", fail)
        assert main(["validate", str(tmp_path / "s.json")]) == code
        assert capsys.readouterr().err == (
            f"error [{error.stage}]: {type(error).__name__}: {error}\n")


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def _quiesce_telemetry(self):
        import repro.obs as obs

        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_trace_flag_writes_chrome_trace(self, marbl_dir, tmp_path,
                                            capsys):
        import json

        trace = tmp_path / "trace.json"
        assert main(["--trace", str(trace), "summarize", marbl_dir]) == 0
        err = capsys.readouterr().err
        assert f"trace written to {trace}" in err
        doc = json.loads(trace.read_text())
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert "ingest.load_ensemble" in names
        assert all(ev["ph"] == "X" for ev in doc["traceEvents"])

    def test_trace_flag_after_subcommand_and_jsonl(self, marbl_dir,
                                                   tmp_path):
        import json

        import repro.obs as obs

        # the suffix does not pick the format: it is always Chrome JSON
        trace = tmp_path / "trace.jsonl"
        assert main(["summarize", marbl_dir, "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        assert "ingest.load_ensemble" in {ev["name"] for ev in events}
        roots, _ = obs.load_trace(trace)
        assert roots and roots[0].name == "ingest.load_ensemble"

    def test_metrics_flag_prints_summary(self, marbl_dir, capsys):
        assert main(["--metrics", "summarize", marbl_dir]) == 0
        err = capsys.readouterr().err
        assert "ingest.load_ensemble" in err
        assert "ingest.profiles.loaded" in err

    def test_metrics_flag_does_not_clash_with_stats(self, marbl_dir,
                                                    capsys):
        # `stats` keeps its own --metrics option; the telemetry flag is
        # accepted in the root position.
        rc = main(["--metrics", "stats", marbl_dir,
                   "--metrics", "Avg time/rank", "--functions", "mean"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "Avg time/rank_mean" in captured.out
        assert "stats.apply_nodewise" in captured.err

    def test_obs_subcommand_summarizes_trace(self, marbl_dir, tmp_path,
                                             capsys):
        trace = tmp_path / "trace.json"
        main(["--trace", str(trace), "summarize", marbl_dir])
        capsys.readouterr()
        assert main(["obs", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "ingest.load_ensemble" in out
        assert "root span(s)" in out

    def test_obs_subcommand_tree_renders_thicket(self, marbl_dir,
                                                 tmp_path, capsys):
        trace = tmp_path / "trace.json"
        main(["--trace", str(trace), "summarize", marbl_dir])
        capsys.readouterr()
        assert main(["obs", str(trace), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "ingest.profile" in out

    def test_obs_subcommand_json(self, marbl_dir, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        main(["--trace", str(trace), "summarize", marbl_dir])
        capsys.readouterr()
        assert main(["obs", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["roots"] >= 1
        assert doc["spans"] > doc["roots"]
        assert doc["wall_seconds"] > 0

    def test_obs_subcommand_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["obs", str(tmp_path / "nope.json")])

    def test_log_level_flag_emits_ingest_logs(self, marbl_dir, capsys):
        import logging

        assert main(["--log-level", "info", "summarize", marbl_dir]) == 0
        err = capsys.readouterr().err
        assert "repro.ingest" in err
        # avoid polluting later tests with a stale captured stream
        logging.getLogger("repro").handlers.clear()


class TestIngestJsonSchema:
    def test_ingest_json_schema_is_stable(self, marbl_dir, capsys):
        """The --json report is a documented machine interface; its key
        set (including per-stage wall times) must not drift silently."""
        import json

        assert main(["ingest", marbl_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"policy", "requested", "loaded",
                               "quarantined", "repaired", "stage_seconds",
                               "checkpoint", "execution"}
        assert set(report["stage_seconds"]) == {
            "read", "validate", "build", "compose"}
        assert all(isinstance(v, float) and v >= 0
                   for v in report["stage_seconds"].values())
        assert set(report["checkpoint"]) == {"path", "resumed",
                                             "resumed_quarantined"}
        assert report["checkpoint"]["path"] is None  # no --checkpoint given
        assert set(report["execution"]) == {"jobs", "timeouts",
                                            "worker_crashes",
                                            "breaker_trips"}
        assert report["execution"] == {"jobs": 1, "timeouts": 0,
                                       "worker_crashes": 0,
                                       "breaker_trips": 0}
        assert report["requested"] == 12
