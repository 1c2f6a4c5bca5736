"""Conservative intra-project call graph over a :class:`ProjectIndex`.

Edges are *resolved call sites*: a call in function ``F`` whose dotted
name pins down a project function ``G`` (through import aliases,
``self.``/``super()`` dispatch, or constructor-typed receivers).  Calls
that cannot be resolved are dropped — the graph under-approximates
execution, which is the right bias for lint: every reported chain is a
chain that exists in the source, at the cost of missing chains routed
through dynamic dispatch.

On top of the raw edges this module provides the two derived views the
concurrency rules need:

* :meth:`CallGraph.blocking_chain` — the shortest call chain from a
  function to a blocking operation (``time.sleep``, file/socket I/O,
  ``join``/``acquire``/queue ops), used by ``RPC201`` to print the
  hold → call → … → block trace.
* :meth:`CallGraph.lock_order_edges` / :func:`find_lock_cycles` — the
  lock-ordering digraph (lock *A* → lock *B* when *B* is acquired,
  directly or through any call chain, while *A* is held) and its
  elementary cycles, used by ``RPC202`` to report potential deadlocks.
"""

from __future__ import annotations

from typing import Any

from .project import ProjectIndex

__all__ = ["CallGraph", "find_lock_cycles"]

#: chains longer than this are almost certainly resolver artifacts;
#: capping the search keeps the pass linear in practice
MAX_CHAIN_DEPTH = 24


class CallGraph:
    """Resolved call edges plus the derived blocking/lock analyses.

    Built once per index, as :attr:`ProjectIndex.call_graph`.
    """

    def __init__(self, index: ProjectIndex):
        self.index = index
        #: caller qual → [(callee qual, call record), ...]
        self.edges: dict[str, list[tuple[str, dict[str, Any]]]] = {}
        for qual, fn, summary in index.iter_functions():
            out: list[tuple[str, dict[str, Any]]] = []
            for call in fn["calls"]:
                callee = index.resolve_call(summary, fn, call)
                if callee is not None and callee != qual:
                    out.append((callee, call))
            self.edges[qual] = out
        self._acq_cache: dict[str, set[str]] = {}

    # -- blocking reachability ----------------------------------------

    def blocking_chain(self, start: str) -> list[tuple[str, int]] | None:
        """Shortest call chain ``[(func, call line), …]`` from *start*
        to a function whose body blocks, ending with
        ``(blocking kind, line)``; None when nothing blocking is
        reachable."""
        # BFS for the shortest chain, deterministic via insertion order
        seen = {start}
        queue: list[tuple[str, list[tuple[str, int]]]] = [(start, [])]
        while queue:
            qual, chain = queue.pop(0)
            if len(chain) > MAX_CHAIN_DEPTH:
                continue
            fn = self.index.functions.get(qual)
            if fn is None:
                continue
            if fn["blocking"]:
                b = fn["blocking"][0]
                return chain + [(qual, b["line"]), (b["kind"], b["line"])]
            for callee, call in self.edges.get(qual, ()):
                if callee not in seen:
                    seen.add(callee)
                    queue.append((callee, chain + [(qual, call["line"])]))
        return None

    # -- lock acquisition reachability --------------------------------

    def acquired_locks(self, qual: str,
                       _stack: set | None = None) -> set[str]:
        """Locks *qual* may acquire during its execution, transitively
        through everything it calls."""
        if qual in self._acq_cache:
            return self._acq_cache[qual]
        _stack = _stack if _stack is not None else set()
        if qual in _stack:
            return set()
        _stack.add(qual)
        fn = self.index.functions.get(qual)
        out: set[str] = set()
        if fn is not None:
            out.update(a["lock"] for a in fn["acquires"])
            for callee, _call in self.edges.get(qual, ()):
                out.update(self.acquired_locks(callee, _stack))
        _stack.discard(qual)
        self._acq_cache[qual] = out
        return out

    def lock_order_edges(self) -> dict[tuple[str, str], dict[str, Any]]:
        """The lock-ordering digraph: ``(held, acquired)`` → provenance
        (function, line, and the call chain for indirect edges)."""
        edges: dict[tuple[str, str], dict[str, Any]] = {}

        def add(held: str, acq: str, site: dict[str, Any]) -> None:
            if held == acq:
                # class-level lock identity cannot distinguish two
                # instances' locks, so self-edges would be noise
                return
            edges.setdefault((held, acq), site)

        for qual, fn, summary in self.index.iter_functions():
            for a in fn["acquires"]:
                for held in a["held"]:
                    add(held, a["lock"],
                        {"func": qual, "line": a["line"], "via": []})
            for callee, call in self.edges.get(qual, ()):
                held_locks = [t for t in call["locks"]
                              if not t.startswith("guard:")]
                if not held_locks:
                    continue
                for acq in sorted(self.acquired_locks(callee)):
                    for held in held_locks:
                        add(held, acq, {"func": qual, "line": call["line"],
                                        "via": [callee]})
        return edges


def find_lock_cycles(
        edges: dict[tuple[str, str], dict[str, Any]],
) -> list[list[str]]:
    """Elementary cycles of the lock-ordering digraph.

    Returns each cycle as a lock-token list ``[A, B, …, A]``; cycles
    are canonicalized (rotated to start at the smallest token) and
    deduplicated, so a two-lock deadlock is reported exactly once.
    """
    graph: dict[str, list[str]] = {}
    for held, acq in edges:
        graph.setdefault(held, []).append(acq)
    for outs in graph.values():
        outs.sort()

    cycles: list[list[str]] = []
    seen_keys: set[tuple[str, ...]] = set()

    def canonical(path: list[str]) -> tuple[str, ...]:
        body = path[:-1]
        pivot = body.index(min(body))
        return tuple(body[pivot:] + body[:pivot])

    def dfs(node: str, path: list[str], on_path: set[str]) -> None:
        for nxt in graph.get(node, ()):
            if nxt in on_path:
                if nxt == path[0]:
                    cycle = path + [nxt]
                    key = canonical(cycle)
                    if key not in seen_keys:
                        seen_keys.add(key)
                        cycles.append(cycle)
                continue
            if len(path) < 16:
                on_path.add(nxt)
                dfs(nxt, path + [nxt], on_path)
                on_path.discard(nxt)

    for start in sorted(graph):
        dfs(start, [start], {start})
    # keep only the canonical rotation of each cycle for stable output
    return sorted(cycles)
