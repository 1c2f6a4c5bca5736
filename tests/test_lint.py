"""The ``repro.lint`` static-analysis subsystem.

Each hardening rule (RPR001–RPR007) and query rule (RPQ101/RPQ102) is
exercised against a minimal known-bad snippet that must produce exactly
one finding on the expected line, plus a known-good variant that must
stay clean.  The engine itself is covered for suppression (used and
stale), rule selection, the JSON report shape, and unparseable input.
Finally a meta-test runs the full rule set over ``src/repro`` and
requires the tree to be clean — the same gate ``scripts/check.sh``
enforces.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import EXIT_LINT_FINDINGS, EXIT_OK, main
from repro.lint import (
    QUERY_RULE_IDS,
    REPO_RULE_IDS,
    all_rules,
    format_json,
    format_text,
    lint_file,
    run_lint,
)

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"


def lint_source(tmp_path, source, rel="repro/analysis.py", **kwargs):
    """Write *source* under a fake repro package and lint just that file."""
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return run_lint([path], **kwargs)


def sole_finding(result, rule_id):
    """Assert the run produced exactly one finding of *rule_id*."""
    assert [f.rule_id for f in result.findings] == [rule_id], \
        format_text(result)
    return result.findings[0]


# ----------------------------------------------------------------------
# Family A: hardening rules
# ----------------------------------------------------------------------

class TestBroadExcept:
    def test_bare_except_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            def f():
                try:
                    g()
                except:
                    pass
            """), "RPR001")
        assert f.line == 4
        assert "everything" in f.message

    def test_broad_except_exception_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            try:
                g()
            except Exception as e:
                log(e)
            """), "RPR001")
        assert f.line == 3

    def test_broad_in_tuple_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            try:
                g()
            except (ValueError, BaseException):
                pass
            """), "RPR001")

    def test_reraise_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            try:
                g()
            except BaseException:
                cleanup()
                raise
            """)
        assert result.ok, format_text(result)

    def test_pragma_justification_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            try:
                g()
            except Exception:  # pragma: no cover - best-effort probe
                pass
            """)
        assert result.ok, format_text(result)

    def test_narrow_except_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            try:
                g()
            except (KeyError, OSError):
                pass
            """)
        assert result.ok, format_text(result)


class TestTypedRaise:
    def test_unlisted_builtin_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            def f():
                raise RuntimeError("boom")
            """), "RPR002")
        assert f.line == 2
        assert "RuntimeError" in f.message

    def test_global_builtin_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f():
                raise ValueError("bad argument")
            """)
        assert result.ok, format_text(result)

    def test_typed_error_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            from repro.errors import SchemaError

            def f(path):
                raise SchemaError("missing columns", source=path)
            """)
        assert result.ok, format_text(result)

    def test_strict_module_bans_builtins(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            def read(path):
                raise ValueError("bad profile")
            """, rel="repro/readers/custom.py"), "RPR002")
        assert "strict module readers/custom.py" in f.message

    def test_module_whitelist_extends(self, tmp_path):
        result = lint_source(tmp_path, """\
            def begin():
                raise RuntimeError("begin() before end()")
            """, rel="repro/caliper/extra.py")
        assert result.ok, format_text(result)

    def test_bare_reraise_and_variables_skipped(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(exc):
                try:
                    g()
                except KeyError:
                    raise
                raise exc
            """)
        assert result.ok, format_text(result)


class TestAtomicWrite:
    def test_write_text_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            def save(path, text):
                path.write_text(text)
            """), "RPR003")
        assert f.line == 2
        assert "atomic_write_text" in f.message

    def test_open_for_writing_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            def save(path, text):
                with open(path, "w") as fh:
                    fh.write(text)
            """), "RPR003")

    def test_path_open_mode_in_first_arg_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            def save(path, text):
                with path.open("a") as fh:
                    fh.write(text)
            """), "RPR003")

    def test_reads_and_nonmode_strings_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            def load(path, archive):
                with open(path) as fh:
                    a = fh.read()
                with open(path, "rb") as fh:
                    b = fh.read()
                c = archive.open("data")
                return a, b, c
            """)
        assert result.ok, format_text(result)

    def test_atomic_write_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            from repro.ioutil import atomic_write_text

            def save(path, text):
                atomic_write_text(path, text)
            """)
        assert result.ok, format_text(result)

    def test_ioutil_module_exempt(self, tmp_path):
        result = lint_source(tmp_path, """\
            def raw_write(path, text):
                path.write_text(text)
            """, rel="repro/ioutil.py")
        assert result.ok, format_text(result)


class TestWallClock:
    def test_time_time_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            import time

            def stamp():
                return time.time()
            """), "RPR004")
        assert f.line == 4

    def test_datetime_now_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            import datetime

            def stamp():
                return datetime.datetime.now()
            """), "RPR004")

    def test_clock_seam_module_exempt(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            def read_clock():
                return time.time()
            """, rel="repro/obs/core.py")
        assert result.ok, format_text(result)

    def test_injected_clock_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            def stamp(clock):
                return clock()
            """)
        assert result.ok, format_text(result)


class TestDeterminism:
    def test_dumps_without_sort_keys_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            import json

            def encode(d):
                return json.dumps(d)
            """), "RPR005")
        assert "sort_keys" in f.message

    def test_dumps_with_sort_keys_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            import json

            def encode(d):
                return json.dumps(d, sort_keys=True)
            """)
        assert result.ok, format_text(result)

    def test_set_feeding_checksum_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            from repro.ioutil import sha256_of

            def digest(items):
                return sha256_of(",".join(set(items)))
            """), "RPR005")
        assert "set(...)" in f.message

    def test_sorted_set_feeding_checksum_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            from repro.ioutil import sha256_of

            def digest(items):
                return sha256_of(",".join(sorted(set(items))))
            """)
        assert result.ok, format_text(result)

    def test_keys_feeding_hashlib_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            import hashlib

            def digest(d):
                return hashlib.sha256(",".join(d.keys()).encode())
            """), "RPR005")


class TestDocstrings:
    def test_public_function_without_docstring_warned(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            \"\"\"Module docstring.\"\"\"

            def compute(x):
                return x + 1
            """, rel="repro/core/extra.py"), "RPR006")
        assert f.severity == "warning"
        assert "compute" in f.message
        assert f.line == 3

    def test_public_method_without_docstring_warned(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            \"\"\"Module docstring.\"\"\"

            class Widget:
                \"\"\"A widget.\"\"\"

                def render(self):
                    return ""
            """, rel="repro/core/extra.py"), "RPR006")
        assert "Widget.render" in f.message

    def test_documented_and_private_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            \"\"\"Module docstring.\"\"\"

            def compute(x):
                \"\"\"Add one.\"\"\"
                return x + 1

            def _helper(x):
                return x
            """, rel="repro/core/extra.py")
        assert result.ok, format_text(result)

    def test_non_exported_module_exempt(self, tmp_path):
        result = lint_source(tmp_path, """\
            def compute(x):
                return x + 1
            """, rel="repro/viz/extra.py")
        assert result.ok, format_text(result)


class TestResilienceRouting:
    def test_sleep_in_retry_loop_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            import time

            def fetch(path):
                for attempt in range(3):
                    try:
                        return open(path).read()
                    except OSError:
                        time.sleep(0.1 * attempt)
            """), "RPR007")
        assert "retry/poll loop" in f.message

    def test_aliased_sleep_in_while_loop_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            from time import sleep as snooze

            def poll(q):
                while q.empty():
                    snooze(1)
            """), "RPR007")
        assert f.line == 5

    def test_bare_pool_constructions_flagged(self, tmp_path):
        result = lint_source(tmp_path, """\
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            def fan_out(fn, items):
                with ProcessPoolExecutor() as ex:
                    list(ex.map(fn, items))
                multiprocessing.Pool(4)
                multiprocessing.Process(target=fn)
            """)
        assert [f.rule_id for f in result.findings] == ["RPR007"] * 3, \
            format_text(result)
        assert all("SupervisedExecutor" in f.message
                   for f in result.findings)

    def test_injected_sleep_seam_allowed(self, tmp_path):
        """The sanctioned retry loops live in resilience/ and client/."""
        result = lint_source(tmp_path, """\
            def retry(fn, sleep, delays):
                for delay in delays:
                    try:
                        return fn()
                    except OSError:
                        sleep(delay)
            """, rel="repro/client/retry.py")
        assert result.ok, format_text(result)

    def test_injected_sleep_retry_loop_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            class Reader:
                def read(self, path, retries):
                    attempt = 0
                    while True:
                        try:
                            return self.read_text(path)
                        except OSError:
                            if attempt >= retries:
                                raise
                            self.sleep(0.05 * 2 ** attempt)
                            attempt += 1
            """), "RPR007")
        assert f.line == 10
        assert "call_with_retries" in f.message

    def test_injected_sleep_outside_except_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            def poll(ready, sleep):
                while not ready():
                    sleep(0.1)
            """)
        assert result.ok, format_text(result)

    def test_sleep_outside_loop_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            import time

            def settle():
                time.sleep(0.1)
            """)
        assert result.ok, format_text(result)

    def test_resilience_package_exempt(self, tmp_path):
        result = lint_source(tmp_path, """\
            import multiprocessing
            import time

            def supervisor(tasks):
                while tasks:
                    multiprocessing.Process(target=tasks.pop())
                    time.sleep(0.02)
            """, rel="repro/resilience/executor2.py")
        assert result.ok, format_text(result)

    def test_unrelated_process_class_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            from models import Pool

            def swim(p):
                return Pool(p)
            """)
        # a local class named Pool is not a multiprocessing pool
        assert result.ok, format_text(result)


class TestTelemetryNames:
    def test_fstring_name_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            from repro.obs import counter

            def note(stage):
                counter(f"ingest.{stage}.done")
            """), "RPR008")
        assert f.line == 4

    def test_computed_name_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            from repro.obs import span

            def trace(prefix):
                with span(prefix + ".load"):
                    pass
            """), "RPR008")

    def test_uppercase_literal_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            import repro.obs as obs

            def work():
                obs.gauge("Ingest.QueueDepth", 3.0)
            """), "RPR008")
        assert "Ingest.QueueDepth" in f.message

    def test_spaced_literal_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            from repro.obs import observe

            def work():
                observe("load latency", 0.5)
            """), "RPR008")

    def test_static_dotted_names_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            import repro.obs as obs
            from repro.obs import counter
            from repro.obs import span as obs_span

            def work():
                with obs_span("perf.workload.ingest"):
                    counter("ingest.profiles_loaded", 2)
                    obs.gauge("pool.queue_depth", 1.0)
            """)
        assert result.ok, format_text(result)

    def test_defining_module_exempt(self, tmp_path):
        # obs.core forwards caller-supplied names by design
        result = lint_source(tmp_path, """\
            def counter(name, value=1.0):
                return _get().metrics.increment(name, value)

            def forward(name):
                return counter(name)
            """, rel="repro/obs/core.py")
        assert result.ok, format_text(result)

    def test_deep_attribute_calls_not_matched(self, tmp_path):
        # registry methods take caller-supplied names; only the
        # module-level helpers and obs.<fn> form are checked
        result = lint_source(tmp_path, """\
            def relay(telemetry, name):
                return telemetry.metrics.observe(name, 1.0)
            """)
        assert result.ok, format_text(result)


# ----------------------------------------------------------------------
# Family B: query-literal rules
# ----------------------------------------------------------------------

class TestQueryLiterals:
    def test_malformed_string_query_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            from repro.query import parse_string_dialect

            M = parse_string_dialect('MATCH (".", p WHERE')
            """), "RPQ101")
        assert f.line == 3
        assert "does not parse" in f.message

    def test_malformed_thicket_query_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            def run(tk):
                return tk.query('MATCH ("???",')
            """), "RPQ101")

    def test_valid_query_and_sql_string_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            from repro.query import parse_string_dialect

            GOOD = parse_string_dialect(
                'MATCH (".", p)->("*") WHERE p."name" =~ "solve.*"')

            def unrelated(db):
                return db.query("SELECT * FROM runs")
            """)
        assert result.ok, format_text(result)

    def test_bad_regex_in_query_literal_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            from repro.query import parse_string_dialect

            M = parse_string_dialect(
                'MATCH (".", p) WHERE p."name" =~ "(unclosed"')
            """), "RPQ101")

    def test_bad_spec_quantifier_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            from repro.query import QueryMatcher

            M = QueryMatcher.from_spec([("**",), (".", {"name": "main"})])
            """), "RPQ102")
        assert "quantifier" in f.message

    def test_bad_spec_arity_flagged(self, tmp_path):
        sole_finding(lint_source(tmp_path, """\
            from repro.query import QueryMatcher

            M = QueryMatcher.from_spec([(".", {"name": "a"}, "extra")])
            """), "RPQ102")

    def test_valid_and_dynamic_specs_allowed(self, tmp_path):
        result = lint_source(tmp_path, """\
            from repro.query import QueryMatcher

            GOOD = QueryMatcher.from_spec([("+",), (".", {"name": "main"})])

            def dynamic(steps):
                return QueryMatcher.from_spec(steps)
            """)
        assert result.ok, format_text(result)


# ----------------------------------------------------------------------
# engine: suppression, selection, reporting
# ----------------------------------------------------------------------

class TestSuppression:
    def test_noqa_suppresses_finding(self, tmp_path):
        result = lint_source(tmp_path, """\
            def save(path, text):
                path.write_text(text)  # repro: noqa[RPR003] fault injector
            """)
        assert result.ok, format_text(result)

    def test_noqa_multiple_rules_on_one_line(self, tmp_path):
        result = lint_source(tmp_path, """\
            import json

            def save(path, d):
                path.write_text(json.dumps(d))  # repro: noqa[RPR003, RPR005]
            """)
        assert result.ok, format_text(result)

    def test_unused_suppression_is_a_finding(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            def load(path):
                return path.read_text()  # repro: noqa[RPR003]
            """), "RPR000")
        assert f.line == 2
        assert "unused suppression" in f.message

    def test_noqa_only_silences_named_rule(self, tmp_path):
        result = lint_source(tmp_path, """\
            import json

            def save(path, d):
                path.write_text(json.dumps(d))  # repro: noqa[RPR003]
            """)
        assert [f.rule_id for f in result.findings] == ["RPR005"]

    def test_noqa_in_docstring_is_not_a_suppression(self, tmp_path):
        # the docstring shows the syntax; it must neither suppress nor
        # count as a stale suppression
        result = lint_source(tmp_path, '''\
            def helper():
                """Example: x.write_text(t)  # repro: noqa[RPR003]"""
                return None
            ''')
        assert result.ok, format_text(result)

    def test_suppression_for_deselected_rule_not_stale(self, tmp_path):
        result = lint_source(tmp_path, """\
            def save(path, text):
                path.write_text(text)  # repro: noqa[RPR003]
            """, select=["RPR001"])
        assert result.ok, format_text(result)


class TestEngine:
    def test_select_limits_rules(self, tmp_path):
        result = lint_source(tmp_path, """\
            import json

            def save(path, d):
                path.write_text(json.dumps(d))
            """, select=["RPR003"])
        assert [f.rule_id for f in result.findings] == ["RPR003"]

    def test_ignore_drops_rules(self, tmp_path):
        result = lint_source(tmp_path, """\
            import json

            def save(path, d):
                path.write_text(json.dumps(d))
            """, ignore=["RPR003"])
        assert [f.rule_id for f in result.findings] == ["RPR005"]

    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="NOPE001"):
            lint_source(tmp_path, "x = 1\n", select=["NOPE001"])
        with pytest.raises(ValueError, match="NOPE001"):
            lint_source(tmp_path, "x = 1\n", ignore=["NOPE001"])

    def test_syntax_error_yields_rpr999(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, "def broken(:\n"), "RPR999")
        assert "syntax error" in f.message

    def test_registry_has_both_families(self):
        registry = all_rules()
        for rule_id in REPO_RULE_IDS + QUERY_RULE_IDS:
            assert rule_id in registry
            cls = registry[rule_id]
            assert cls.description and cls.rationale
            assert cls.severity in ("error", "warning")

    def test_findings_sorted_and_counted(self, tmp_path):
        result = lint_source(tmp_path, """\
            import json, time

            def f(path, d):
                path.write_text(json.dumps(d))
                return time.time()
            """)
        assert [f.rule_id for f in result.findings] == [
            "RPR003", "RPR005", "RPR004"]  # line order, then rule id
        assert result.counts_by_rule() == {
            "RPR003": 1, "RPR004": 1, "RPR005": 1}

    def test_json_report_shape(self, tmp_path):
        result = lint_source(tmp_path, """\
            def save(path, text):
                path.write_text(text)
            """)
        doc = json.loads(format_json(result))
        assert set(doc) == {"files", "rules", "findings", "counts", "ok",
                            "project", "cache"}
        assert doc["files"] == 1 and doc["ok"] is False
        assert doc["project"] is False
        assert set(doc["cache"]) == {"hits", "misses"}
        (finding,) = doc["findings"]
        assert set(finding) == {"rule", "path", "line", "col",
                                "severity", "message"}
        assert finding["rule"] == "RPR003" and finding["line"] == 2

    def test_text_report_names_location(self, tmp_path):
        result = lint_source(tmp_path, """\
            def save(path, text):
                path.write_text(text)
            """)
        text = format_text(result)
        assert "analysis.py:2:" in text and "RPR003" in text

    def test_lint_file_accepts_explicit_rules(self, tmp_path):
        path = tmp_path / "repro" / "m.py"
        path.parent.mkdir(parents=True)
        path.write_text("def f(p, t):\n    p.write_text(t)\n")
        registry = all_rules()
        findings = lint_file(path, [registry["RPR003"]])
        assert [f.rule_id for f in findings] == ["RPR003"]


# ----------------------------------------------------------------------
# the gate: src/repro itself must be clean
# ----------------------------------------------------------------------

def test_source_tree_is_lint_clean():
    result = run_lint([SRC_REPRO])
    assert result.ok, "\n" + format_text(result)
    assert result.n_files > 50  # the whole tree was actually discovered


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------

class TestLintCli:
    def test_findings_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(p, t):\n    p.write_text(t)\n")
        rc = main(["lint", str(bad)])
        assert rc == EXIT_LINT_FINDINGS
        out = capsys.readouterr().out
        assert "RPR003" in out

    def test_clean_exit_code(self, tmp_path, capsys):
        good = tmp_path / "repro" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text('"""Clean module."""\nX = 1\n')
        rc = main(["lint", str(good)])
        assert rc == EXIT_OK
        assert "clean" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import json\nT = json.dumps({})\n")
        rc = main(["lint", str(bad), "--json"])
        assert rc == EXIT_LINT_FINDINGS
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert doc["counts"] == {"RPR005": 1}

    def test_select_flag(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import json\nT = json.dumps({})\n")
        rc = main(["lint", str(bad), "--select", "RPR003"])
        assert rc == EXIT_OK

    def test_unknown_rule_exits_with_message(self, tmp_path):
        good = tmp_path / "x.py"
        good.write_text("X = 1\n")
        with pytest.raises(SystemExit, match="unknown rule"):
            main(["lint", str(good), "--select", "NOPE001"])


# ----------------------------------------------------------------------
# Family C: serving-boundary rule (RPR009)
# ----------------------------------------------------------------------

class TestServeErrorMapping:
    def test_unguarded_do_handler_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            class Handler:
                def do_GET(self):
                    body = self.compute()
                    self.wfile.write(body)
            """, rel="repro/serve/http.py", select=["RPR009"]), "RPR009")
        assert "do_GET" in f.message
        assert f.line == 2

    def test_guarded_handler_without_mapper_flagged(self, tmp_path):
        # the try/except is there, but the handler improvises a raw
        # 500 instead of routing through the mapping helpers
        result = lint_source(tmp_path, """\
            class Handler:
                def do_POST(self):
                    try:
                        self.work()
                    except Exception:
                        self.send_response(500)
            """, rel="repro/serve/http.py", select=["RPR009"])
        assert {f.rule_id for f in result.findings} == {"RPR009"}
        assert len(result.findings) == 2  # handler shape + swallow

    def test_swallowing_broad_except_in_serve_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            def evict(cache):
                try:
                    cache.clear()
                except Exception:
                    pass
            """, rel="repro/serve/service.py", select=["RPR009"]),
            "RPR009")
        assert "typed JSON error" in f.message

    def test_raise_from_handler_except_flagged(self, tmp_path):
        f = sole_finding(lint_source(tmp_path, """\
            class Handler:
                def do_GET(self):
                    try:
                        self.work()
                    except Exception as exc:
                        self._send_json(*error_payload(exc))
                        raise RuntimeError("escaped the socket layer")
            """, rel="repro/serve/http.py", select=["RPR009"]), "RPR009")
        assert "socket layer" in f.message

    def test_compliant_handler_clean(self, tmp_path):
        result = lint_source(tmp_path, """\
            class Handler:
                def do_GET(self):
                    try:
                        status, body, headers = self.dispatch()
                        self._send_json(status, body, headers)
                    except Exception as exc:
                        self._send_json(*error_payload(exc))
            """, rel="repro/serve/http.py", select=["RPR009"])
        assert result.findings == []

    def test_undefined_mapper_names_flagged(self, tmp_path):
        # error_payload is the one mapper; names that nothing in
        # serve/ defines do not satisfy the rule
        for helper in ("self._send_json_error", "send_json_error",
                       "map_error"):
            result = lint_source(tmp_path, f"""\
                class Handler:
                    def do_GET(self):
                        try:
                            self.dispatch()
                        except Exception as exc:
                            {helper}(exc)
                """, rel="repro/serve/http.py", select=["RPR009"])
            assert {f.rule_id for f in result.findings} == {"RPR009"}
            assert len(result.findings) == 2  # handler shape + swallow

    def test_reraising_broad_except_in_serve_clean(self, tmp_path):
        result = lint_source(tmp_path, """\
            def admit(pool, fn):
                try:
                    return pool.run(fn)
                except BaseException:
                    pool.failure()
                    raise
            """, rel="repro/serve/service.py", select=["RPR009"])
        assert result.findings == []

    def test_error_payload_call_satisfies_mapper(self, tmp_path):
        result = lint_source(tmp_path, """\
            def dispatch(fn):
                try:
                    return 200, fn(), {}
                except BaseException as exc:
                    return error_payload(exc)
            """, rel="repro/serve/service.py", select=["RPR009"])
        assert result.findings == []

    def test_worker_transport_module_exempt(self, tmp_path):
        # the pool boundary captures exceptions to transport them to
        # the waiter, which re-raises into the mapper; allowed there
        result = lint_source(tmp_path, """\
            def worker_loop(item):
                try:
                    result, error = item.fn(), None
                except BaseException as exc:
                    result, error = None, exc
                return result, error
            """, rel="repro/serve/workers.py", select=["RPR009"])
        assert result.findings == []

    def test_rule_ignores_code_outside_serve(self, tmp_path):
        result = lint_source(tmp_path, """\
            class Handler:
                def do_GET(self):
                    return self.compute()
            """, rel="repro/analysis.py", select=["RPR009"])
        assert result.findings == []

    def test_suppressible_like_any_rule(self, tmp_path):
        result = lint_source(tmp_path, """\
            class Handler:
                def do_GET(self):  # repro: noqa[RPR009]
                    return self.compute()
            """, rel="repro/serve/http.py", select=["RPR009"])
        assert result.findings == []
