"""Expected outputs computed from the raw generated profiles.

Every check behind ``ok_ratio`` compares the library's answer with a
value derived here, straight from the profile dicts the workload
generator produced (``{"records": [{"path", "metrics"}], "globals"}``).
Nothing here calls the library, and nothing is taken from an earlier
library answer.

A node is identified by its call path (a tuple of frame names), which
is how the library unions trees across profiles.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np

METRIC = "time (exc)"
RTOL = 1e-9


def close(a, b) -> bool:
    """Equal within the relative tolerance the checks use."""
    return math.isclose(float(a), float(b), rel_tol=RTOL)


class Ensemble:
    """Per-path facts about a list of raw profiles.

    ``plant`` adds a deliberate error to the expected row count and to
    the expected statistics of one node, so a self-test can prove that
    the checks catch a wrong answer.
    """

    def __init__(self, profiles: list[dict], plant: bool = False):
        self.profiles = profiles
        self.plant = plant
        self.values: dict[tuple, dict[str, list]] = defaultdict(
            lambda: defaultdict(list))
        self.present: dict[tuple, int] = Counter()
        self.metric_names: dict[str, None] = {}
        for prof in profiles:
            for rec in prof["records"]:
                path = tuple(rec["path"])
                self.present[path] += 1
                for name, v in rec["metrics"].items():
                    self.metric_names.setdefault(name, None)
                    self.values[path][name].append(float(v))
        self._cache: dict = {}

    # -- shape -----------------------------------------------------------
    @property
    def n_profiles(self) -> int:
        return len(self.profiles)

    @property
    def n_nodes(self) -> int:
        return len(self.present)

    @property
    def n_rows(self) -> int:
        return sum(self.present.values())

    def shape(self) -> tuple[int, int, int]:
        """(profiles, nodes, rows) of the composed ensemble."""
        rows = self.n_rows + (1 if self.plant else 0)
        return self.n_profiles, self.n_nodes, rows

    # -- per-node reductions of ``time (exc)`` ---------------------------
    def reduced(self, stat: str) -> dict[tuple, float]:
        """Per-path ``stat`` of ``time (exc)`` across profiles."""
        if stat not in self._cache:
            out = {}
            for path in self.present:
                a = np.asarray(self.values[path].get(METRIC, []))
                out[path] = _reduce(stat, a)
            if self.plant:
                first = next(iter(out))
                out[first] = out[first] * (1 + 1e-6) + 1e-6
            self._cache[stat] = out
        return self._cache[stat]

    # -- query predicates ------------------------------------------------
    def paths_under(self, name: str) -> list[tuple]:
        """Paths matched by ``MATCH (".", p)->("*") WHERE p."name" = name``."""
        return [p for p in self.present if name in p]

    def paths_named(self, pattern) -> list[tuple]:
        """Paths whose last frame fully matches the compiled regex."""
        return [p for p in self.present if pattern.fullmatch(p[-1])]

    def paths_above(self, threshold: float) -> list[tuple]:
        """Paths where every profile's ``time (exc)`` exceeds threshold."""
        return [p for p in self.present
                if all(v > threshold for v in self.values[p][METRIC])]

    def query_answer(self, paths: list[tuple]) -> dict:
        """Node names, node count and row count for matched paths."""
        return {"node_names": sorted({p[-1] for p in paths}),
                "matched_nodes": len(paths),
                "rows": sum(self.present[p] for p in paths)}

    # -- metadata --------------------------------------------------------
    def group_sizes(self, keys: list[str]) -> dict[tuple, int]:
        """Profile count per metadata key combination."""
        return dict(Counter(tuple(p["globals"][k] for k in keys)
                            for p in self.profiles))

    def subset(self, predicate) -> "Ensemble":
        """The ensemble of profiles whose globals satisfy predicate."""
        return Ensemble([p for p in self.profiles
                         if predicate(p["globals"])])

    def common_paths(self) -> set[tuple]:
        """Paths present in every profile (``Thicket.intersection``)."""
        return {p for p, n in self.present.items() if n == self.n_profiles}


def _reduce(stat: str, a: np.ndarray) -> float:
    a = a[np.isfinite(a)]
    if not len(a):
        return float("nan")
    if stat == "mean":
        return float(math.fsum(a) / len(a))
    if stat == "std":
        if len(a) < 2:
            return 0.0
        mu = math.fsum(a) / len(a)
        return math.sqrt(math.fsum((x - mu) ** 2 for x in a) / (len(a) - 1))
    if stat == "median":
        s = np.sort(a)
        mid = len(s) // 2
        if len(s) % 2:
            return float(s[mid])
        return float((s[mid - 1] + s[mid]) / 2)
    if stat.startswith("p"):
        # linear interpolation between closest ranks
        q = float(stat[1:]) / 100.0
        s = np.sort(a)
        pos = q * (len(s) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(s) - 1)
        return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))
    raise ValueError(f"unknown statistic {stat!r}")


def shared_names(a: "Ensemble", b: "Ensemble") -> set[str]:
    """Frame names present in both ensembles (``match_on="name"``)."""
    return {p[-1] for p in a.present} & {p[-1] for p in b.present}
