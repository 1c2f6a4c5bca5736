"""The whole-program tier of ``repro.lint``.

Each interprocedural rule (RPC201–RPC203, RPR010) is exercised against
a staged multi-file fixture that must produce findings with *exact*
lines and chains — the chain in the message is the proof of the
violation, so it is asserted verbatim.  The incremental cache is
covered for hits, content/ruleset invalidation, and corruption
fallback; the SARIF reporter for 2.1.0 shape; a tree's accepted
findings, recorded as noqa comments, for suppress / new-finding /
stale-entry semantics; and the CLI for the new flags.
Finally a meta-test requires ``src/repro`` itself to be clean under
the project pass — the gate ``scripts/check.sh`` enforces.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import EXIT_LINT_FINDINGS, EXIT_OK, main
from repro.lint import (
    CONCURRENCY_RULE_IDS,
    EXCFLOW_RULE_IDS,
    LintCache,
    ProjectIndex,
    extract_summary,
    format_sarif,
    propagate_raises,
    ruleset_signature,
    run_lint,
)

SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"
PROJECT_IDS = CONCURRENCY_RULE_IDS + EXCFLOW_RULE_IDS


def write_tree(tmp_path, files: dict[str, str]) -> Path:
    """Write a fake ``repro`` package tree; returns its root."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def project_lint(root: Path, select=None, **kwargs):
    return run_lint([root], project=True,
                    select=select or PROJECT_IDS, **kwargs)


# ----------------------------------------------------------------------
# RPC201: blocking work reached while a lock is held
# ----------------------------------------------------------------------

class TestBlockingUnderLock:
    def test_direct_blocking_under_lock(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import threading
            import time

            _LOCK = threading.Lock()

            def tick():
                with _LOCK:
                    time.sleep(0.5)
            """})
        result = project_lint(root)
        (f,) = result.findings
        assert f.rule_id == "RPC201" and f.line == 8
        assert "time.sleep" in f.message and "_LOCK" in f.message

    def test_chain_two_calls_deep_names_every_hop(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import threading
            import time

            _LOCK = threading.Lock()

            def top():
                with _LOCK:
                    helper()

            def helper():
                io_work()

            def io_work():
                time.sleep(1)
            """})
        result = project_lint(root)
        (f,) = result.findings
        assert f.rule_id == "RPC201"
        assert f.line == 8  # the call site under the lock
        assert "call to helper while holding" in f.message
        assert "top:8 -> helper:11 -> io_work:14 -> " \
               "time.sleep at line 14" in f.message
        assert f.message.endswith("narrow the lock scope")

    def test_chain_through_method_dispatch(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import threading
            import subprocess

            class Runner:
                def __init__(self):
                    self._lock = threading.Lock()

                def run(self):
                    with self._lock:
                        self._spawn()

                def _spawn(self):
                    subprocess.run(["true"])
            """})
        result = project_lint(root)
        (f,) = result.findings
        assert f.rule_id == "RPC201" and f.line == 10
        assert "Runner.run:10 -> Runner._spawn:13" in f.message

    def test_no_lock_no_finding(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import time

            def tick():
                time.sleep(0.5)
            """})
        assert project_lint(root).ok

    def test_bounded_join_under_guard_tolerated(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            from repro.ioutil import SignalGuard

            def drain(thread):
                with SignalGuard():
                    thread.join(1.0)
            """})
        assert project_lint(root).ok

    def test_unbounded_join_under_guard_flagged(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            from repro.ioutil import SignalGuard

            def drain(thread):
                with SignalGuard():
                    thread.join()
            """})
        (f,) = project_lint(root).findings
        assert f.rule_id == "RPC201" and f.line == 5
        assert "SignalGuard" in f.message

    def test_join_on_untyped_receiver_is_not_guessed(self, tmp_path):
        # conservative by construction: `worker.join()` where nothing
        # proves `worker` is a thread (by type or name) stays silent —
        # str.join on a list of paths must never fire RPC201
        root = write_tree(tmp_path, {"app.py": """\
            import threading

            _LOCK = threading.Lock()

            def fmt(sep, parts):
                with _LOCK:
                    return sep.join(parts)
            """})
        assert project_lint(root).ok

    def test_file_io_under_guard_tolerated(self, tmp_path):
        # the guard exists precisely to cover short journal writes
        root = write_tree(tmp_path, {"app.py": """\
            from repro.ioutil import SignalGuard, atomic_write_text

            def journal(path, text):
                with SignalGuard():
                    atomic_write_text(path, text)
            """})
        assert project_lint(root).ok

    def test_file_io_under_real_lock_flagged(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import threading
            from repro.ioutil import atomic_write_text

            _LOCK = threading.Lock()

            def journal(path, text):
                with _LOCK:
                    atomic_write_text(path, text)
            """})
        (f,) = project_lint(root).findings
        assert f.rule_id == "RPC201" and f.line == 8


    def test_project_method_named_connect_is_not_a_socket_op(self,
                                                             tmp_path):
        root = write_tree(tmp_path, {
            "node.py": """\
                class Node:
                    def connect(self, child):
                        self.child = child
                """,
            "app.py": """\
                import socket
                import threading

                from .node import Node

                _LOCK = threading.Lock()

                def link(parent: Node, child):
                    with _LOCK:
                        parent.connect(child)

                def dial(addr):
                    with _LOCK:
                        socket.socket(socket.AF_INET).connect(addr)
                """})
        findings = project_lint(root).findings
        assert {(f.rule_id, f.line) for f in findings} == {("RPC201", 14)}
        assert any("socket connect()" in f.message for f in findings)


# ----------------------------------------------------------------------
# RPC202: lock-acquisition-order cycles
# ----------------------------------------------------------------------

class TestLockOrderCycle:
    def test_cross_module_cycle_with_provenance(self, tmp_path):
        # x takes A then (via grab_b) B; y takes B then A — a staged
        # deadlock spread over three modules and an import alias
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/locks.py": """\
                import threading

                LOCK_A = threading.Lock()
                LOCK_B = threading.Lock()
                """,
            "pkg/x.py": """\
                from .locks import LOCK_A, LOCK_B

                def forward():
                    with LOCK_A:
                        grab_b()

                def grab_b():
                    with LOCK_B:
                        pass
                """,
            "pkg/y.py": """\
                from .locks import LOCK_A, LOCK_B

                def backward():
                    with LOCK_B:
                        with LOCK_A:
                            pass
                """,
        })
        result = project_lint(root)
        (f,) = result.findings
        assert f.rule_id == "RPC202"
        assert "lock ordering cycle" in f.message
        assert "pkg.locks.LOCK_A" in f.message
        assert "pkg.locks.LOCK_B" in f.message
        # edge provenance: who took what where, through which call
        assert "via grab_b" in f.message
        assert "backward:5" in f.message
        assert f.message.endswith("pick one global acquisition order")

    def test_consistent_order_clean(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/locks.py": """\
                import threading

                LOCK_A = threading.Lock()
                LOCK_B = threading.Lock()
                """,
            "pkg/x.py": """\
                from .locks import LOCK_A, LOCK_B

                def one():
                    with LOCK_A:
                        with LOCK_B:
                            pass

                def two():
                    with LOCK_A:
                        with LOCK_B:
                            pass
                """,
        })
        assert project_lint(root).ok

    def test_same_lock_nested_is_not_a_cycle(self, tmp_path):
        # instance identity is unknowable statically: cls._lock with
        # cls._lock nested must not self-cycle
        root = write_tree(tmp_path, {"app.py": """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """})
        assert project_lint(root, select=["RPC202"]).ok


# ----------------------------------------------------------------------
# RPC203: lock held across yield
# ----------------------------------------------------------------------

class TestLockAcrossYield:
    def test_yield_under_lock_flagged(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import threading

            _LOCK = threading.Lock()

            def items(data):
                with _LOCK:
                    for item in data:
                        yield item
            """})
        (f,) = project_lint(root).findings
        assert f.rule_id == "RPC203" and f.line == 8
        assert "yield in items while holding" in f.message

    def test_snapshot_then_yield_clean(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import threading

            _LOCK = threading.Lock()

            def items(data):
                with _LOCK:
                    snapshot = list(data)
                for item in snapshot:
                    yield item
            """})
        assert project_lint(root).ok


# ----------------------------------------------------------------------
# RPR010: public API exception leaks
# ----------------------------------------------------------------------

class TestPublicLeak:
    def test_keyerror_two_calls_deep(self, tmp_path):
        root = write_tree(tmp_path, {"ingest/api.py": """\
            def load(src):
                return _pick(src)

            def _pick(d):
                return _inner(d)

            def _inner(d):
                raise KeyError(d)
            """})
        (f,) = project_lint(root, select=EXCFLOW_RULE_IDS).findings
        assert f.rule_id == "RPR010" and f.line == 1
        assert f.message == (
            "public load in strict module ingest/api.py can leak "
            "KeyError (via load:2 -> _pick:5 -> _inner:8); wrap it in "
            "a typed ReproError at the boundary")

    def test_typed_error_is_fine(self, tmp_path):
        root = write_tree(tmp_path, {"ingest/api.py": """\
            from repro.errors import SchemaError

            def load(src):
                return _inner(src)

            def _inner(d):
                raise SchemaError("bad profile")
            """})
        assert project_lint(root, select=EXCFLOW_RULE_IDS).ok

    def test_subclass_aware_handler_absorbs_leak(self, tmp_path):
        # `except LookupError` must absorb a propagating KeyError —
        # handler matching consults the real class hierarchy
        root = write_tree(tmp_path, {"ingest/api.py": """\
            from repro.errors import ReaderError

            def load(src):
                try:
                    return _inner(src)
                except LookupError as exc:
                    raise ReaderError(str(exc)) from exc

            def _inner(d):
                raise KeyError(d)
            """})
        assert project_lint(root, select=EXCFLOW_RULE_IDS).ok

    def test_private_helpers_are_not_entry_points(self, tmp_path):
        root = write_tree(tmp_path, {"ingest/api.py": """\
            def _load(src):
                raise KeyError(src)
            """})
        assert project_lint(root, select=EXCFLOW_RULE_IDS).ok

    def test_exported_module_keeps_builtin_whitelist(self, tmp_path):
        # core/ allows ValueError/KeyError per RPR002's global builtin
        # whitelist, but a RuntimeError must still be flagged
        root = write_tree(tmp_path, {"core/frame.py": """\
            def pick(d, key):
                return _get(d, key)

            def _get(d, key):
                if not d:
                    raise RuntimeError("empty frame")
                return d[key]

            def check(n):
                if n < 0:
                    raise ValueError(n)
            """})
        (f,) = project_lint(root, select=EXCFLOW_RULE_IDS).findings
        assert f.rule_id == "RPR010"
        assert "public pick in exported module core/frame.py can " \
               "leak RuntimeError" in f.message

    def test_method_reached_through_annotated_receiver(self, tmp_path):
        # a parameter annotated with a project class, and subscripts of
        # a parameter / local annotated list[X] / dict[K, X], type the
        # receiver; an unannotated receiver is never guessed
        root = write_tree(tmp_path, {
            "__init__.py": "", "graph/__init__.py": "",
            "ingest/__init__.py": "", "graph/node.py": """\
            class Node:
                def connect(self, child):
                    if child is self:
                        raise RuntimeError("cycle")
                    return child
            """, "ingest/api.py": """\
            from repro.graph.node import Node

            def link(parent: Node | None, child: Node):
                return parent.connect(child)

            def assemble(nodes: list[Node], child):
                return nodes[0].connect(child)

            def by_id(ids, child):
                table: dict[int, Node] = {}
                return table[ids[0]].connect(child)

            def unannotated(parent, child):
                return parent.connect(child)
            """})
        findings = project_lint(root, select=EXCFLOW_RULE_IDS).findings
        assert [(f.rule_id, f.line) for f in findings] == [
            ("RPR010", 3), ("RPR010", 6), ("RPR010", 9)]
        assert findings[0].message == (
            "public link in strict module ingest/api.py can leak "
            "RuntimeError (via link:4 -> Node.connect:4); wrap it in a "
            "typed ReproError at the boundary")
        assert "(via assemble:7 -> Node.connect:4)" in findings[1].message
        assert "(via by_id:11 -> Node.connect:4)" in findings[2].message

    def test_propagate_raises_fixpoint(self, tmp_path):
        root = write_tree(tmp_path, {"ingest/api.py": """\
            def a():
                b()

            def b():
                raise KeyError("x")
            """})
        summaries = [extract_summary(
            root / "ingest/api.py",
            __import__("ast").parse((root / "ingest/api.py").read_text()))]
        index = ProjectIndex(summaries)
        raises = propagate_raises(index)
        by_short = {q.split(":", 1)[1]: set(r) for q, r in raises.items()}
        assert by_short["b"] == {"KeyError"}
        assert by_short["a"] == {"KeyError"}


# ----------------------------------------------------------------------
# Suppression integration: noqa + RPR000 work for project findings
# ----------------------------------------------------------------------

class TestProjectSuppression:
    def test_noqa_silences_project_finding(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import threading
            import time

            _LOCK = threading.Lock()

            def tick():
                with _LOCK:
                    time.sleep(0.5)  # repro: noqa[RPC201]
            """})
        assert project_lint(root).ok

    def test_stale_project_noqa_is_rpr000(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import time

            def tick():
                time.sleep(0.5)  # repro: noqa[RPC201]
            """})
        (f,) = project_lint(root).findings
        assert f.rule_id == "RPR000" and f.line == 4
        assert "RPC201" in f.message


# ----------------------------------------------------------------------
# Incremental cache
# ----------------------------------------------------------------------

class TestIncrementalCache:
    def tree(self, tmp_path):
        return write_tree(tmp_path, {"app.py": """\
            import threading
            import time

            _LOCK = threading.Lock()

            def top():
                with _LOCK:
                    helper()

            def helper():
                time.sleep(1)
            """, "util.py": """\
            def double(x):
                return 2 * x
            """})

    def test_warm_run_hits_and_agrees(self, tmp_path):
        root = self.tree(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = project_lint(root, cache_dir=cache_dir)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        warm = project_lint(root, cache_dir=cache_dir)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        # identical findings — including the project-pass chain, which
        # on the warm run was rebuilt purely from cached summaries
        assert [f.message for f in warm.findings] == \
               [f.message for f in cold.findings]
        assert warm.findings[0].rule_id == "RPC201"

    def test_content_change_invalidates_one_file(self, tmp_path):
        root = self.tree(tmp_path)
        cache_dir = tmp_path / "cache"
        project_lint(root, cache_dir=cache_dir)
        (root / "util.py").write_text("def triple(x):\n    return 3 * x\n")
        warm = project_lint(root, cache_dir=cache_dir)
        assert (warm.cache_hits, warm.cache_misses) == (1, 1)

    def test_ruleset_change_invalidates(self, tmp_path):
        root = self.tree(tmp_path)
        cache_dir = tmp_path / "cache"
        project_lint(root, cache_dir=cache_dir)
        narrowed = project_lint(root, cache_dir=cache_dir,
                                select=["RPC202"])
        assert narrowed.cache_hits == 0 and narrowed.cache_misses == 2

    def test_signature_folds_in_rule_ids(self):
        assert ruleset_signature(["RPC201"]) != \
               ruleset_signature(["RPC201", "RPC202"])
        assert ruleset_signature(["RPC202", "RPC201"]) == \
               ruleset_signature(["RPC201", "RPC202"])

    def test_corrupt_entries_fall_back_to_reparse(self, tmp_path):
        root = self.tree(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = project_lint(root, cache_dir=cache_dir)
        for entry in cache_dir.glob("*.json"):
            entry.write_text("{ not json at all")
        rebuilt = project_lint(root, cache_dir=cache_dir)
        assert rebuilt.cache_misses == 2 and rebuilt.cache_hits == 0
        assert [f.message for f in rebuilt.findings] == \
               [f.message for f in cold.findings]

    def test_truncated_and_wrong_schema_entries_are_misses(self, tmp_path):
        root = self.tree(tmp_path)
        cache_dir = tmp_path / "cache"
        project_lint(root, cache_dir=cache_dir)
        entries = sorted(cache_dir.glob("*.json"))
        entries[0].write_text("")  # truncated
        doc = json.loads(entries[1].read_text())
        doc["schema"] = 999  # future schema
        entries[1].write_text(json.dumps(doc))
        warm = project_lint(root, cache_dir=cache_dir)
        assert warm.cache_misses == 2 and warm.cache_hits == 0

    def test_cache_load_never_raises(self, tmp_path):
        cache = LintCache(tmp_path / "cache", "sig")
        source = tmp_path / "x.py"
        source.write_text("pass\n")
        assert cache.load(source, "pass\n") is None  # no entry at all
        cache.store(source, "pass\n", [], {}, None)
        assert cache.load(source, "pass\n") is not None
        assert cache.load(source, "changed\n") is None  # content moved


# ----------------------------------------------------------------------
# SARIF reporter
# ----------------------------------------------------------------------

class TestSarif:
    def test_sarif_2_1_0_shape(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": """\
            import threading
            import time

            _LOCK = threading.Lock()

            def tick():
                with _LOCK:
                    time.sleep(0.5)
            """})
        result = project_lint(root)
        doc = json.loads(format_sarif(result))
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0.json" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "RPC201" in rule_ids
        by_id = {r["id"]: r for r in driver["rules"]}
        assert by_id["RPC201"]["shortDescription"]["text"]
        assert by_id["RPC201"]["defaultConfiguration"]["level"] == "error"
        (res,) = run["results"]
        assert res["ruleId"] == "RPC201" and res["level"] == "error"
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"].endswith("repro/app.py")
        assert "\\" not in loc["artifactLocation"]["uri"]
        assert loc["region"] == {"startLine": 8, "startColumn": 1}

    def test_clean_run_has_empty_results(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": "X = 1\n"})
        doc = json.loads(format_sarif(project_lint(root)))
        assert doc["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# Baselines
# ----------------------------------------------------------------------

class TestBaseline:
    """A tree's accepted findings (its lint baseline) are recorded as
    ``# repro: noqa[...]`` comments on the lines they fire on: they are
    suppressed exactly, new findings still fail, and a recorded entry
    that stops firing is itself a finding."""

    ACCEPTED = """\
        import threading
        import time

        _LOCK = threading.Lock()

        def tick():
            with _LOCK:
                time.sleep(0.5)  # repro: noqa[RPC201]
        """

    def test_record_then_suppress_exactly(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": self.ACCEPTED})
        assert project_lint(root).ok
        # the entry names one rule: another rule firing on the same
        # line is not suppressed by it
        (root / "app.py").write_text(textwrap.dedent(
            self.ACCEPTED.replace("noqa[RPC201]", "noqa[RPC203]")))
        result = project_lint(root)
        assert [(f.rule_id, f.line) for f in result.findings] == [
            ("RPC201", 8), ("RPR000", 8)]

    def test_new_finding_still_fails(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": self.ACCEPTED})
        (root / "gen.py").write_text(textwrap.dedent("""\
            import threading

            _L = threading.Lock()

            def items(xs):
                with _L:
                    yield from xs
            """))
        result = project_lint(root)
        assert [f.rule_id for f in result.findings] == ["RPC203"]

    def test_stale_entry_is_rpr000(self, tmp_path):
        root = write_tree(tmp_path, {"app.py": self.ACCEPTED})
        # fix the debt: blocking call moves out of the critical section
        (root / "app.py").write_text(textwrap.dedent("""\
            import threading
            import time

            _LOCK = threading.Lock()

            def tick():
                with _LOCK:
                    pass
                time.sleep(0.5)  # repro: noqa[RPC201]
            """))
        (f,) = project_lint(root).findings
        assert f.rule_id == "RPR000" and f.line == 9
        assert "unused suppression: RPC201" in f.message
        assert "remove the noqa" in f.message


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestCli:
    def bad_tree(self, tmp_path):
        return write_tree(tmp_path / "t", {"app.py": textwrap.dedent("""\
            import threading
            import time

            _LOCK = threading.Lock()

            def tick():
                with _LOCK:
                    time.sleep(0.5)
            """)})

    def test_project_default_on_for_directories(self, tmp_path, capsys):
        root = self.bad_tree(tmp_path)
        rc = main(["lint", str(root), "--select", "RPC201",
                   "--cache-dir", str(tmp_path / "cache")])
        assert rc == EXIT_LINT_FINDINGS
        assert "RPC201" in capsys.readouterr().out

    def test_no_project_skips_interprocedural(self, tmp_path, capsys):
        root = self.bad_tree(tmp_path)
        rc = main(["lint", str(root), "--select", "RPC201",
                   "--no-project", "--no-cache"])
        assert rc == EXIT_OK

    def test_sarif_written_atomically(self, tmp_path, capsys):
        root = self.bad_tree(tmp_path)
        sarif = tmp_path / "out" / "lint.sarif"
        sarif.parent.mkdir()
        rc = main(["lint", str(root), "--select", "RPC201",
                   "--no-cache", "--sarif", str(sarif)])
        assert rc == EXIT_LINT_FINDINGS
        doc = json.loads(sarif.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_baseline_roundtrip_via_cli(self, tmp_path, capsys):
        root = self.bad_tree(tmp_path)
        rc = main(["lint", str(root), "--no-cache"])
        assert rc == EXIT_LINT_FINDINGS
        # record the accepted finding where it fires, then lint clean
        app = root / "app.py"
        app.write_text(app.read_text().replace(
            "time.sleep(0.5)", "time.sleep(0.5)  # repro: noqa[RPC201]"))
        rc = main(["lint", str(root), "--no-cache"])
        assert rc == EXIT_OK

    def test_cache_counters_in_json_report(self, tmp_path, capsys):
        root = self.bad_tree(tmp_path)
        cache_dir = tmp_path / "cache"
        main(["lint", str(root), "--json", "--select", "RPC201",
              "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        main(["lint", str(root), "--json", "--select", "RPC201",
              "--cache-dir", str(cache_dir)])
        doc = json.loads(capsys.readouterr().out)
        assert doc["project"] is True
        assert doc["cache"] == {"hits": 1, "misses": 0}


# ----------------------------------------------------------------------
# Meta: the repo's own tree is clean under the whole-program pass
# ----------------------------------------------------------------------

class TestSelfHosting:
    def test_package_init_anchors_its_relative_imports(self):
        # `from .node import Node` in repro/graph/__init__.py names
        # repro.graph.node.Node, so calls through the package re-export
        # resolve, and `nodes[parent].connect(node)` in the reader is
        # the project's Node.connect, not a socket operation
        index = ProjectIndex(
            extract_summary(path, ast.parse(path.read_text()))
            for path in SRC_REPRO.rglob("*.py"))
        assert index.resolve_name("repro.graph", "Node") == (
            "class", ("repro.graph.node", "Node"))
        assert index.functions["repro.readers.caliper:_assemble"][
            "blocking"] == []

    def test_src_repro_clean_under_project_rules(self):
        result = run_lint([SRC_REPRO], project=True)
        assert result.ok, "\n".join(
            f"{f.path}:{f.line}: {f.rule_id} {f.message}"
            for f in result.findings)
        assert result.project
        assert set(PROJECT_IDS) <= set(result.rules)
