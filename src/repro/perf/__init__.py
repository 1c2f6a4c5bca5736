"""``repro.perf`` — the self-hosted performance sentinel.

The paper's §6 workflow — collect profiles from recurring runs,
compose them into an ensemble, ask "which regions got slower since the
baseline?" — applied to this library's own traces:

* :class:`PerfStore` (``store.py``) persists each recorded run (the
  root spans of one ``repro --trace`` file, or of a perfbench trace)
  into an append-only, checksummed on-disk history with machine /
  commit / timestamp metadata, retention pruning, and
  ``load_history()`` returning the composed multi-run baseline
  ensemble Thicket.
* :class:`PerfPolicy` / :class:`PerfVerdict` / :func:`check_regression`
  (``sentinel.py``) compare a candidate run against that baseline via
  :func:`repro.core.regression.compare_thickets` and produce a typed
  verdict: regressions, improvements, new and vanished nodes.

The sentinel runs no workload of its own: whatever produced the trace
is what gets judged.  CLI: ``repro perf record|check|history`` with
exit code 6 on a detected regression; ``scripts/check.sh`` runs the
loop on traced ``repro ingest`` runs as a CI gate.
"""

from .sentinel import (
    DEFAULT_POLICY,
    PerfPolicy,
    PerfVerdict,
    check_regression,
    check_store,
)
from .store import PerfRunInfo, PerfStore

__all__ = [
    "PerfStore", "PerfRunInfo",
    "PerfPolicy", "PerfVerdict", "DEFAULT_POLICY",
    "check_regression", "check_store",
]
