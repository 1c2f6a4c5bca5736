"""Family D: whole-program concurrency rules (``RPC201``–``RPC203``).

The repo runs real concurrent machinery — a supervised process pool,
a threaded HTTP service with worker pools and watchdogs, thread-safe
telemetry — and the invariants that keep it live are all *interactions*
between functions: no blocking work while a lock is held, one global
lock-acquisition order, no generator parked on a held lock.  These
rules check them over the conservative call graph built by
:mod:`repro.lint.callgraph`, so a violation three calls away from the
``with lock:`` line is still caught, and the finding message prints the
hold → call → … → block chain that proves it.

======  ==============================================================
RPC201  blocking call (sleep, I/O, subprocess, join, queue/lock
        acquire) reached while a lock or SignalGuard is held
RPC202  lock-acquisition-order cycle across functions (potential
        deadlock)
RPC203  lock held across a ``yield``
======  ==============================================================
"""

from __future__ import annotations

from .callgraph import find_lock_cycles
from .engine import Finding
from .project import GUARD_TOKEN, ProjectIndex, ProjectRule, \
    register_project

__all__ = ["CONCURRENCY_RULE_IDS"]

#: blocking kinds that are acceptable inside a SignalGuard critical
#: section: the guard exists precisely to keep signals out of short
#: bounded I/O, so only *unbounded* blocking is flagged there
_GUARD_SAFE_PREFIXES = ("file ", "open(", "os.", "shutil.",
                        "atomic_write_text", "fsync_path")


def _pretty_lock(token: str) -> str:
    if token == GUARD_TOKEN:
        return "SignalGuard critical section"
    return token.replace(":", ".", 1)


def _chain_text(chain: list[tuple[str, int]]) -> str:
    hops = []
    for name, line in chain[:-1]:
        short = name.split(":", 1)[1] if ":" in name else name
        hops.append(f"{short}:{line}")
    kind, line = chain[-1]
    hops.append(f"{kind} at line {line}")
    return " -> ".join(hops)


def _guard_tolerates(kind: str, bounded: bool) -> bool:
    """Whether a SignalGuard (not a lock) tolerates this blocking op."""
    if kind.startswith(_GUARD_SAFE_PREFIXES):
        return True
    return bounded


@register_project
class BlockingUnderLockRule(ProjectRule):
    rule_id = "RPC201"
    severity = "error"
    description = ("blocking call (sleep, file/socket I/O, subprocess, "
                   "join, queue/lock acquire) reached while a "
                   "threading lock or SignalGuard is held")
    rationale = ("a lock held across blocking work serializes every "
                 "other thread behind an I/O latency; at service scale "
                 "that is the difference between a p99 and an outage")

    def check(self, index: ProjectIndex) -> list[Finding]:
        graph = index.call_graph
        findings: list[Finding] = []
        for qual, fn, summary in index.iter_functions():
            short = qual.split(":", 1)[1]
            # direct blocking operations under a held lock/guard
            direct_lines: set[int] = set()
            for b in fn["blocking"]:
                locks = b["locks"]
                if not locks:
                    continue
                real = [t for t in locks if t != GUARD_TOKEN]
                if not real and _guard_tolerates(b["kind"], b["bounded"]):
                    continue
                held = _pretty_lock((real or locks)[0])
                direct_lines.add(b["line"])
                findings.append(Finding(
                    self.rule_id, summary.path, b["line"], 0,
                    self.severity,
                    f"{b['kind']} while holding {held} in {short}; "
                    f"move the blocking work outside the critical "
                    f"section"))
            # calls made under a held lock that transitively block
            for callee, call in graph.edges.get(qual, ()):
                locks = call["locks"]
                if not locks or call["line"] in direct_lines:
                    continue
                chain = graph.blocking_chain(callee)
                if chain is None:
                    continue
                kind, _line = chain[-1]
                real = [t for t in locks if t != GUARD_TOKEN]
                if not real:
                    # guard-only hold: consult the actual op's bounds
                    target = index.functions.get(
                        chain[-2][0] if len(chain) >= 2 else callee)
                    bounded = bool(target and target["blocking"]
                                   and target["blocking"][0]["bounded"])
                    if _guard_tolerates(kind, bounded):
                        continue
                held = _pretty_lock((real or locks)[0])
                callee_short = callee.split(":", 1)[1]
                findings.append(Finding(
                    self.rule_id, summary.path, call["line"], 0,
                    self.severity,
                    f"call to {callee_short} while holding {held} in "
                    f"{short} reaches blocking "
                    f"{_chain_text([(qual, call['line'])] + chain)}; "
                    f"narrow the lock scope"))
        return findings


@register_project
class LockOrderCycleRule(ProjectRule):
    rule_id = "RPC202"
    severity = "error"
    description = ("lock-acquisition-order cycle across functions "
                   "(potential deadlock)")
    rationale = ("two threads taking the same pair of locks in "
                 "opposite orders deadlock under load and only under "
                 "load; a consistent global acquisition order is the "
                 "one static guarantee that prevents it")

    def check(self, index: ProjectIndex) -> list[Finding]:
        edges = index.call_graph.lock_order_edges()
        findings: list[Finding] = []
        for cycle in find_lock_cycles(edges):
            # anchor the finding on the first edge of the cycle
            site = edges[(cycle[0], cycle[1])]
            pretty = " -> ".join(_pretty_lock(t) for t in cycle)
            hops = []
            for a, b in zip(cycle, cycle[1:]):
                e = edges[(a, b)]
                where = e["func"].split(":", 1)[1]
                via = f" via {e['via'][0].split(':', 1)[1]}" if e["via"] \
                    else ""
                hops.append(f"{_pretty_lock(b)} taken at "
                            f"{where}:{e['line']}{via}")
            findings.append(Finding(
                self.rule_id, index.finding_path(site["func"]),
                site["line"], 0, self.severity,
                f"lock ordering cycle {pretty} ({'; '.join(hops)}); "
                f"pick one global acquisition order"))
        return findings


@register_project
class LockAcrossYieldRule(ProjectRule):
    rule_id = "RPC203"
    severity = "error"
    description = "lock held across a yield"
    rationale = ("a generator suspended inside `with lock:` keeps the "
                 "lock until the consumer chooses to resume or drop "
                 "it — an unbounded critical section controlled by "
                 "code that does not know the lock exists")

    def check(self, index: ProjectIndex) -> list[Finding]:
        findings: list[Finding] = []
        for qual, fn, summary in index.iter_functions():
            for y in fn["yields"]:
                real = [t for t in y["locks"] if t != GUARD_TOKEN]
                if not real:
                    continue
                short = qual.split(":", 1)[1]
                findings.append(Finding(
                    self.rule_id, summary.path, y["line"], 0,
                    self.severity,
                    f"yield in {short} while holding "
                    f"{_pretty_lock(real[0])}; copy the data out and "
                    f"yield outside the critical section"))
        return findings


CONCURRENCY_RULE_IDS = ["RPC201", "RPC202", "RPC203"]
