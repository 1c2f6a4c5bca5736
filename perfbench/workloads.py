"""The three benchmark workloads: ``compose``, ``eda`` and ``serve-mixed``.

Each workload is a closed loop driven by one thread: the next op starts
when the previous one has returned.  A workload builds its inputs from
the seed, sets itself up (generate, ingest, start the server, warm up),
then hands out the ops of one *cycle* at a time.  Every op carries its
own check against :mod:`oracle`; a failed check or an exception is a
failed op.

Calls into the library go through ``self.t.call(span_name, fn, ...)``,
so a traced run records them as spans while an untraced run makes the
same calls directly.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple

from oracle import METRIC, Ensemble, close, shared_names
from tracing import Tracer, all_spans

from repro import concat_thickets, load_thicket, save_thicket
from repro.caliper.writer import profile_to_cali_dict, write_cali_json
from repro.core import Thicket, stats
from repro.core.filtering import filter_metadata
from repro.core.groupby import groupby_metadata
from repro.core.querying import query_thicket
from repro.frame import MultiIndex, concat_rows, join_on_index
from repro.graph import node_path, union_many
from repro.ingest import load_ensemble, validate_cali_payload
from repro.query import parse_string_dialect, validate_query
from repro.readers import read_cali_json
from repro.workloads.campaign import iter_raja_profiles


class Op(NamedTuple):
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def shape(tk) -> tuple[int, int, int]:
    return len(tk.profile), len(tk.graph), len(tk.dataframe)


def path_of(node) -> tuple:
    return tuple(f.name for f in node_path(node))


def is_cuda(g: dict) -> bool:
    return g["variant"] == "CUDA"


class Workload:
    """Shared set-up and loop plumbing; subclasses define the ops."""

    name = ""

    def __init__(self, seed: int, scale: float, workdir: Path,
                 tracer: Tracer, plant: bool = False,
                 server_metrics: bool = False):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.t = tracer
        self.plant = plant
        self.server_metrics = server_metrics

    # set-up phases; each is timed separately by the caller
    def generate(self) -> None:
        raise NotImplementedError

    def ingest(self) -> None:
        raise NotImplementedError

    def start_server(self) -> bool:
        """Start a server if the workload has one; True if it did."""
        return False

    def warmup(self) -> None:
        """Run each kind of op once, unchecked and untimed."""
        seen = set()
        for op in self.cycle(0):
            if op.kind not in seen:
                seen.add(op.kind)
                op.run()

    def cycle(self, k: int) -> list[Op]:
        raise NotImplementedError

    def probe(self) -> dict[str, float]:
        """Extra per-layer calls made only by the traced run."""
        return {}

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb()

    def close(self) -> None:
        pass

    def shuffled(self, ops: list[Op], k: int) -> list[Op]:
        """The ops of cycle *k* in an order fixed by the seed."""
        order = list(ops)
        random.Random(self.seed * 7919 + k).shuffle(order)
        return order


# ---------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------
class Compose(Workload):
    """Compose fixed 40-profile slices of the Fig. 13 campaign from files.

    Each op runs ``load_ensemble(on_error="collect")`` on one slice,
    saves the thicket as a store and loads it back.
    """

    name = "compose"
    n_slices = 14  # 560 profiles -> 14 slices of 40

    def generate(self) -> None:
        self.raw = list(iter_raja_profiles(scale=self.scale,
                                           base_seed=self.seed))
        # strided slices: every slice mixes CPU and CUDA trees
        self.slices = [list(range(i, len(self.raw), self.n_slices))
                       for i in range(self.n_slices)]
        self._expect: dict[int, Ensemble] = {}

    def ingest(self) -> None:
        prof_dir = self.workdir / "profiles"
        prof_dir.mkdir(parents=True)
        (self.workdir / "stores").mkdir()
        self.paths = [write_cali_json(p, prof_dir / f"p{i:04d}.json")
                      for i, p in enumerate(self.raw)]
        self.store_bytes: list[int] = []

    def expected(self, i: int) -> Ensemble:
        if i not in self._expect:
            self._expect[i] = Ensemble([self.raw[j] for j in self.slices[i]],
                                       plant=self.plant and i == 0)
        return self._expect[i]

    def cycle(self, k: int) -> list[Op]:
        return self.shuffled([self._op(i) for i in range(self.n_slices)], k)

    def _op(self, i: int) -> Op:
        paths = [self.paths[j] for j in self.slices[i]]
        store = self.workdir / "stores" / f"slice{i:02d}.json"

        def run():
            tk, report = self.t.call("ingest.load_ensemble", load_ensemble,
                                     paths, on_error="collect")
            self.t.call("core.io.save_thicket", save_thicket, tk, store)
            loaded = self.t.call("core.io.load_thicket", load_thicket, store)
            return tk, report, loaded

        def check(out) -> bool:
            tk, report, loaded = out
            if self.t.enabled:
                self.store_bytes.append(store.stat().st_size)
            want = self.expected(i).shape()
            return (report.n_quarantined == 0 and shape(tk) == want
                    and shape(loaded) == want)

        return Op("compose", run, check)

    def probe(self) -> dict[str, float]:
        """Run the stages of three slices one public call at a time."""
        for i in range(3):
            paths = [self.paths[j] for j in self.slices[i]]
            gfs = []
            for path in paths:
                payload = json.loads(Path(path).read_text())
                self.t.call("ingest.validate_cali_payload",
                            validate_cali_payload, payload, path)
                gfs.append(self.t.call("readers.read_cali_json",
                                       read_cali_json, path))
            self.t.call("graph.union_many", union_many,
                        [gf.graph for gf in gfs])
            self.t.call("frame.concat_rows", concat_rows,
                        [gf.dataframe for gf in gfs])
            self.t.call("core.from_caliperreader",
                        Thicket.from_caliperreader, gfs)
        return {"core.store_bytes": statistics.median(self.store_bytes)}


# ---------------------------------------------------------------------
# eda
# ---------------------------------------------------------------------
EDA_QUERY = 'MATCH (".", p)->("*") WHERE p."name" = "Stream"'
GROUP_KEYS = ["compiler", "compiler optimizations"]
# ops per cycle: with these counts the p50 falls inside the query band
# and the p90 inside the mean/std band, not on the edge between bands
EDA_WEIGHTS = {"mean": 2, "std": 2, "median": 1, "percentiles": 1,
               "groupby": 2, "query": 4, "filter_metadata": 1, "tree": 1,
               "concat_thickets": 1, "intersection": 1}


def fig15_cpu(g: dict) -> bool:
    return (g["variant"] == "Sequential" and g["compiler"] == "clang++-9.0.0"
            and g["compiler optimizations"] == "-O3" and g["rep"] == 0)


def fig15_gpu(g: dict) -> bool:
    return is_cuda(g) and g.get("block size") == 256 and g["rep"] == 0


class Eda(Workload):
    """The paper's §4 operations on one resident 560-profile thicket."""

    name = "eda"

    def generate(self) -> None:
        self.raw = list(iter_raja_profiles(scale=self.scale,
                                           base_seed=self.seed))
        self.payloads = [profile_to_cali_dict(p) for p in self.raw]

    def ingest(self) -> None:
        self.tk = load_ensemble(self.payloads, on_error="collect").thicket
        # fixed inputs of the Fig. 15 CPU x GPU composition
        self.cpu = load_ensemble([pl for pl, p in zip(self.payloads, self.raw)
                                  if fig15_cpu(p["globals"])]).thicket
        self.gpu = load_ensemble([pl for pl, p in zip(self.payloads, self.raw)
                                  if fig15_gpu(p["globals"])]).thicket
        self.cuda = filter_metadata(self.tk, is_cuda)
        self.node_paths = {n: path_of(n) for n in self.tk.graph}
        self._ens: Ensemble | None = None

    @property
    def ens(self) -> Ensemble:
        if self._ens is None:
            self._ens = Ensemble(self.raw, plant=self.plant)
        return self._ens

    def cycle(self, k: int) -> list[Op]:
        ops = [op for kind, w in EDA_WEIGHTS.items()
               for op in [getattr(self, "op_" + kind)()] * w]
        return self.shuffled(ops, k)

    # -- checks ----------------------------------------------------------
    def _stat_ok(self, tk, column: str, stat: str) -> bool:
        want = self.ens.reduced(stat)
        got = tk.statsframe.column(column)
        nodes = list(tk.statsframe.index.values)
        return len(nodes) == len(want) and all(
            close(v, want[self.node_paths[n]]) for n, v in zip(nodes, got))

    def _all_columns(self, created, suffix: str) -> bool:
        return sorted(created) == sorted(f"{m}_{suffix}"
                                         for m in self.ens.metric_names)

    # -- ops -------------------------------------------------------------
    def _stat_op(self, kind: str, fn, columns, expect) -> Op:
        def run():
            work = self.t.call("core.copy", self.tk.copy)
            created = self.t.call("core.stats." + kind, fn, work, columns)
            return work, created

        return Op(kind, run, lambda out: expect(*out))

    def op_mean(self) -> Op:
        return self._stat_op("mean", stats.mean, None, lambda w, c: (
            self._all_columns(c, "mean")
            and self._stat_ok(w, f"{METRIC}_mean", "mean")))

    def op_std(self) -> Op:
        return self._stat_op("std", stats.std, None, lambda w, c: (
            self._all_columns(c, "std")
            and self._stat_ok(w, f"{METRIC}_std", "std")))

    def op_median(self) -> Op:
        return self._stat_op("median", stats.median, [METRIC], lambda w, c: (
            self._stat_ok(w, f"{METRIC}_median", "median")))

    def op_percentiles(self) -> Op:
        return self._stat_op("percentiles", stats.percentiles, [METRIC],
                             lambda w, c: all(
                                 self._stat_ok(w, f"{METRIC}_percentiles_{q}",
                                               f"p{q}")
                                 for q in (25, 50, 75)))

    def op_groupby(self) -> Op:
        def run():
            groups = self.t.call("core.groupby_metadata", groupby_metadata,
                                 self.tk, GROUP_KEYS)
            for sub in groups.values():
                self.t.call("core.stats.mean_group", stats.mean, sub, [METRIC])
            return groups

        def check(groups) -> bool:
            want = self.ens.group_sizes(GROUP_KEYS)
            got = {k: len(sub.profile) for k, sub in groups.items()}
            return got == want and all(
                f"{METRIC}_mean" in sub.statsframe for sub in groups.values())

        return Op("groupby", run, check)

    def op_filter_metadata(self) -> Op:
        def run():
            return self.t.call("core.filter_metadata", filter_metadata,
                               self.tk, is_cuda)

        def check(sub) -> bool:
            want = self.ens.subset(is_cuda)
            return (len(sub.profile), len(sub.dataframe)) == (
                want.n_profiles, want.shape()[2])

        return Op("filter_metadata", run, check)

    def op_query(self) -> Op:
        def run():
            matcher = self.t.call("query.parse_string_dialect",
                                  parse_string_dialect, EDA_QUERY)
            self.t.call("query.validate_query", validate_query, matcher,
                        self.tk)
            return self.t.call("core.query_thicket", query_thicket, self.tk,
                               matcher)

        def check(sub) -> bool:
            want = self.ens.query_answer(self.ens.paths_under("Stream"))
            names = sorted({n.frame.name for n in sub.graph})
            return (names == want["node_names"]
                    and len(sub.graph) == want["matched_nodes"]
                    and len(sub.dataframe) == want["rows"])

        return Op("query", run, check)

    def op_tree(self) -> Op:
        def run():
            return self.t.call("viz.render_tree", self.tk.tree)

        def check(text: str) -> bool:
            # every line ends "<mean:.3f> <name>"; compare per name
            got = defaultdict(list)
            for line in text.splitlines():
                value, name = line.lstrip("│├└─ ").split(" ", 1)
                got[name].append(float(value))
            want = defaultdict(list)
            for path, v in self.ens.reduced("mean").items():
                want[path[-1]].append(v)
            return got.keys() == want.keys() and all(
                len(got[n]) == len(want[n]) and all(
                    abs(a - b) <= 5.001e-4
                    for a, b in zip(sorted(got[n]), sorted(want[n])))
                for n in want)

        return Op("tree", run, check)

    def op_concat_thickets(self) -> Op:
        def run():
            return self.t.call(
                "core.concat_thickets", concat_thickets, [self.cpu, self.gpu],
                axis="columns", headers=["CPU", "GPU"],
                metadata_key="problem_size", match_on="name")

        def check(tk) -> bool:
            cpu = self.ens.subset(fig15_cpu)
            names = shared_names(cpu, self.ens.subset(fig15_gpu))
            return (len(tk.graph) == len(names)
                    and len(tk.dataframe) == len(names) * cpu.n_profiles
                    and ("GPU", "time (gpu)") in tk.dataframe)

        return Op("concat_thickets", run, check)

    def op_intersection(self) -> Op:
        def run():
            return self.t.call("core.intersection", self.cuda.intersection)

        def check(tk) -> bool:
            cuda = self.ens.subset(is_cuda)
            common = cuda.common_paths()
            return (sorted(path_of(n) for n in tk.graph) == sorted(common)
                    and len(tk.dataframe) == len(common) * cuda.n_profiles)

        return Op("intersection", run, check)

    def probe(self) -> dict[str, float]:
        """Frame kernels and ``grouped_values`` on the resident thicket."""
        from repro import obs
        from repro.core.stats import grouped_values

        perf = self.tk.dataframe
        tuples = list(perf.index.values)
        for _ in range(3):
            self.t.call("core.stats.grouped_values", grouped_values, self.tk,
                        METRIC)
            self.t.call("frame.multiindex_build", MultiIndex, tuples,
                        names=["node", "profile"])
            fresh = MultiIndex(tuples, names=["node", "profile"])
            self.t.call("frame.get_indexer", fresh.get_indexer, tuples)
            self.t.call("frame.groupby_agg", lambda: perf.groupby(
                level="node").agg({METRIC: "mean"}))
            self.t.call("frame.join_on_index", join_on_index,
                        perf.select([METRIC]), perf.select(["Reps"]))
        # the library's own counter, over one untraced cycle
        self.t.disable()
        obs.reset()
        obs.enable()
        try:
            for op in self.cycle(0):
                op.run()
            calls = obs.get_telemetry().metrics.counter_value(
                "stats.grouped_values")
        finally:
            obs.disable()
            obs.reset()
            self.t.enable()
        return {"core.stats.grouped_values_calls": calls}


# ---------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------
SERVE_SCALE = 0.4
STORES = {  # dataset name -> (compiler, variant) of one Fig. 13 row
    "seq-clang": ("clang++-9.0.0", "Sequential"),
    "seq-gcc": ("g++-8.3.1", "Sequential"),
    "omp-clang": ("clang++-9.0.0", "OpenMP"),
    "omp-gcc": ("g++-8.3.1", "OpenMP"),
    "cuda": ("nvcc-11.2.152", "CUDA"),
}
SCRATCH = ("scratch-a", "scratch-b")
# repeated queries, each with the paths it matches: the result cache
# answers all but the first of each after an ingest
APPS = re.compile("Apps_.*")
REPEATED = [
    ("seq-clang", 'MATCH (".", p)->("*") WHERE p."name" = "Stream"',
     lambda ens: ens.paths_under("Stream")),
    ("cuda", 'MATCH (".", p) WHERE p."name" =~ "Apps_.*"',
     lambda ens: ens.paths_named(APPS)),
]


def serve_template() -> list[str]:
    """One cycle of 90 requests, the same for every seed.

    Two bursts of 9 ingests, each followed by 36 reads: 8 repeated
    queries, 10 queries with unique thresholds, 16 stats and 2 dataset
    listings.  Ingests are the slowest kind; at 20 % of the requests the
    p90 falls in the middle of their band, not on its lower edge.
    """
    reads = ["rep0", "rep1"] * 4 + ["new"] * 10 + ["stats"] * 16 \
        + ["datasets"] * 2
    random.Random(0).shuffle(reads)
    burst = ["ingest"] * 9
    return burst + reads + burst + reads


class Request(NamedTuple):
    kind: str
    method: str
    path: str
    body: dict | None
    check: Callable[[Any], bool]


class ServeMixed(Workload):
    """One ``ReproClient`` connection against ``repro serve`` in a child."""

    name = "serve-mixed"

    def generate(self) -> None:
        raw = list(iter_raja_profiles(scale=SERVE_SCALE * self.scale,
                                      base_seed=self.seed))
        self.raw = {name: [p for p in raw
                           if (p["globals"]["compiler"],
                               p["globals"]["variant"]) == key]
                    for name, key in STORES.items()}
        self.payloads = {name: [profile_to_cali_dict(p) for p in profs]
                         for name, profs in self.raw.items()}
        # the two 16-profile write sets, both 48-node CPU trees
        n = min(16, len(self.raw["seq-gcc"]), len(self.raw["omp-gcc"]))
        self.write_sets = [("seq-gcc", n), ("omp-gcc", n)]
        self._ens: dict[str, Ensemble] = {}
        self.written: set[str] = set()
        self.reply_bytes: list[int] = []

    def ingest(self) -> None:
        self.store_dir = self.workdir / "stores"
        self.store_dir.mkdir(parents=True)
        for name, payloads in self.payloads.items():
            save_thicket(load_ensemble(payloads).thicket,
                         self.store_dir / f"{name}.json")

    def start_server(self) -> bool:
        from repro.client import ReproClient

        cmd = [sys.executable, "-m", "repro", "serve", "--store",
               str(self.store_dir), "--port", "0"]
        if self.server_metrics:
            cmd.append("--metrics")
        self.proc = subprocess.Popen(cmd, stderr=subprocess.PIPE, text=True,
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL)
        # the banner is printed once the socket is bound
        banner = self.proc.stderr.readline()
        m = re.search(r"http://[^ ]+:(\d+)", banner)
        if m is None:
            self.close()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self._drain = threading.Thread(target=self.proc.stderr.read,
                                       daemon=True)
        self._drain.start()
        self.client = ReproClient(f"http://127.0.0.1:{m.group(1)}",
                                  client_id="perfbench")
        self.client.health()
        return True

    def ens(self, name: str) -> Ensemble:
        if name not in self._ens:
            if name in SCRATCH:
                src, n = self.write_sets[SCRATCH.index(name)]
                profs = self.raw[src][:n]
            else:
                profs = self.raw[name]
            self._ens[name] = Ensemble(profs, plant=self.plant)
        return self._ens[name]

    # -- the request mix -------------------------------------------------
    def requests(self, k: int) -> list[Request]:
        """The requests of cycle *k*; thresholds come from the seed."""
        rng = random.Random(self.seed * 104729 + k)
        stores = list(STORES)
        out, n_ingest, n_new, n_stats = [], 0, 0, 0
        for kind in serve_template():
            if kind.startswith("rep"):
                out.append(self._query(*REPEATED[int(kind[3:])]))
            elif kind == "new":
                t = float(f"{rng.uniform(0.02, 0.2):.9f}")
                out.append(self._query(
                    stores[n_new % len(stores)],
                    f'MATCH (".", p) WHERE p."{METRIC}" > {t:.9f}',
                    lambda ens, t=t: ens.paths_above(t)))
                n_new += 1
            elif kind == "stats":
                out.append(self._stats(stores[n_stats % len(stores)]))
                n_stats += 1
            elif kind == "ingest":
                out.append(self._ingest(SCRATCH[n_ingest % 2]))
                n_ingest += 1
            else:
                out.append(Request("datasets", "GET", "/v1/datasets", None,
                                   self._check_datasets))
        return out

    def cycle(self, k: int) -> list[Op]:
        return [Op(r.kind, self._sender(r), r.check)
                for r in self.requests(k)]

    def _sender(self, r: Request) -> Callable[[], Any]:
        c, b = self.client, r.body
        if r.kind == "query":
            return lambda: self.t.call("client.query", c.query, b["dataset"],
                                       b["query"])
        if r.kind == "stats":
            return lambda: self.t.call("client.stats", c.stats, b["dataset"],
                                       metrics=b["metrics"],
                                       columns=b["columns"])
        if r.kind == "ingest":
            def send():
                out = self.t.call("client.ingest", c.ingest, b["dataset"],
                                  b["profiles"], overwrite=True)
                self.written.add(b["dataset"])
                return out
            return send
        return lambda: {"datasets": self.t.call("client.datasets",
                                                c.datasets)}

    def _sized(self, body: dict) -> None:
        if self.t.enabled:
            self.reply_bytes.append(
                len(json.dumps(body, sort_keys=True).encode("utf-8")))

    def _query(self, dataset: str, expr: str, paths) -> Request:
        def check(body) -> bool:
            self._sized(body)
            ens = self.ens(dataset)
            want = ens.query_answer(paths(ens))
            return (body["node_names"] == want["node_names"]
                    and body["matched_nodes"] == want["matched_nodes"]
                    and body["rows"] == want["rows"]
                    and body["profiles"] == ens.n_profiles)

        return Request("query", "POST", "/v1/query",
                       {"dataset": dataset, "query": expr, "squash": True},
                       check)

    def _stats(self, dataset: str) -> Request:
        def check(body) -> bool:
            self._sized(body)
            ens = self.ens(dataset)
            if body["columns"] != {"mean": [f"{METRIC}_mean"],
                                   "std": [f"{METRIC}_std"]}:
                return False
            table = body["nodes"]
            return len(table) == ens.n_nodes and all(
                close(table[path[-1]][f"{METRIC}_{stat}"], v)
                for stat in ("mean", "std")
                for path, v in ens.reduced(stat).items())

        return Request("stats", "POST", "/v1/stats",
                       {"dataset": dataset, "metrics": ["mean", "std"],
                        "columns": [METRIC]}, check)

    def _ingest(self, dataset: str) -> Request:
        src, n = self.write_sets[SCRATCH.index(dataset)]

        def check(body) -> bool:
            self._sized(body)
            want = self.ens(dataset)
            return (body["dataset"] == dataset
                    and (body["profiles"], body["nodes"])
                    == want.shape()[:2])

        return Request("ingest", "POST", "/v1/ingest",
                       {"dataset": dataset, "profiles": self.payloads[src][:n],
                        "overwrite": True}, check)

    def _check_datasets(self, body) -> bool:
        self._sized(body)
        return body["datasets"] == sorted(set(STORES) | self.written)

    def probe(self) -> dict[str, float]:
        """Replay cycle 0 in process through ``AnalysisService.dispatch``,
        then read the server's counters and the client's diagnostics."""
        from repro.serve import AnalysisService

        replay_dir = self.workdir / "replay-stores"
        shutil.copytree(self.store_dir, replay_dir)
        svc = AnalysisService(replay_dir)
        try:
            for name in STORES:  # load every dataset before timing
                svc.load(name)
            for r in self.requests(0):
                endpoint = r.path.rsplit("/", 1)[1]
                status, _, _ = self.t.call(
                    f"serve.dispatch_{endpoint}", svc.dispatch, r.method,
                    r.path, r.body, "perfbench")
                if status != 200:
                    raise RuntimeError(f"dispatch {r.path} returned {status}")
        finally:
            svc.shutdown()
        counters = self.client.metrics().get("counters", {})
        hits = counters.get("serve.cache.hits", 0.0)
        misses = counters.get("serve.cache.misses", 0.0)
        diag = self.client.to_dict()
        spans = all_spans(self.t)
        client = [s.self_time for s in spans
                  if s.name in ("client.query", "client.stats")]
        served = [s.self_time for s in spans if s.name
                  in ("serve.dispatch_query", "serve.dispatch_stats")]
        return {
            "serve.cache_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "serve.sheds": counters.get("serve.sheds", 0.0),
            "serve.response_bytes": statistics.median(self.reply_bytes),
            "serve.http_overhead_ms": (statistics.median(client)
                                       - statistics.median(served)) * 1e3,
            "client.hedges": float(diag["hedges"]),
            "client.retries": float(diag["retries"]),
        }

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def close(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is None:
            return
        self.proc = None
        if getattr(self, "client", None) is not None:
            self.client.close()
        proc.terminate()
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if getattr(self, "_drain", None) is not None:
            self._drain.join(timeout=5)


WORKLOADS = {w.name: w for w in (Compose, Eda, ServeMixed)}
