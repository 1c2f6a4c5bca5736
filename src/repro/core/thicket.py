"""The ``Thicket`` object — the paper's primary contribution (§3).

A Thicket unifies an ensemble of call-tree profiles into three linked
components:

* ``dataframe`` — performance data with a ``(node, profile)``
  MultiIndex, one row per execution of each call-tree node;
* ``metadata``  — one row per profile (build settings + execution
  context), indexed by profile id;
* ``statsframe`` — aggregated statistics, one row per call-tree node,
  filled in by the functions in :mod:`repro.core.stats`.

Profiles are composed on the union of their call trees (computed by
structural matching of labelled trees, see :mod:`repro.graph.union`);
the profile index is either a deterministic hash of the run metadata or
a user-chosen metadata column (§3.2.1).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from ..frame import DataFrame, Index, MultiIndex, concat_rows
from ..graph import Graph, GraphFrame, Node, union_many

__all__ = ["Thicket", "profile_hash"]


def profile_hash(metadata: Mapping[str, Any]) -> int:
    """Deterministic signed 64-bit profile id from run metadata.

    Mirrors the hash ids visible in the paper's metadata tables
    (e.g. ``-5810787656424201390``).
    """
    blob = json.dumps(
        {str(k): str(v) for k, v in metadata.items()}, sort_keys=True
    ).encode()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big", signed=True)


class Thicket:
    """Ensemble of performance profiles over a unified call tree."""

    def __init__(self, graph: Graph, dataframe: DataFrame, metadata: DataFrame,
                 statsframe: DataFrame | None = None,
                 profiles: Sequence[Any] | None = None,
                 exc_metrics: Sequence[str] | None = None,
                 inc_metrics: Sequence[str] | None = None,
                 default_metric: str | None = None,
                 provenance: Mapping[str, Any] | None = None):
        self.graph = graph
        self.dataframe = dataframe
        self.metadata = metadata
        # ingestion provenance: error policy, dropped-profile list and
        # repaired id collisions (populated by repro.ingest.load_ensemble)
        self.provenance: dict[str, Any] = dict(provenance or {})
        self.exc_metrics = list(exc_metrics or [])
        self.inc_metrics = list(inc_metrics or [])
        self.default_metric = default_metric or (
            self.exc_metrics[0] if self.exc_metrics else None
        )
        if profiles is None:
            profiles = list(metadata.index.values)
        self.profile = list(profiles)
        if statsframe is None:
            statsframe = self._empty_statsframe()
        self.statsframe = statsframe

    def _empty_statsframe(self) -> DataFrame:
        nodes = self.graph.node_order()
        return DataFrame(
            {"name": [n.frame.name for n in nodes]},
            index=Index(nodes, name="node"),
        )

    # ------------------------------------------------------------------
    # construction (§3.2.1 — composing a set of profiles)
    # ------------------------------------------------------------------
    @classmethod
    def from_caliperreader(cls, sources: Iterable[Any] | Any,
                           intersection: bool = False,
                           metadata_key: str | None = None,
                           fill_perfdata: bool = False,
                           on_error: str = "strict") -> "Thicket":
        """Compose Caliper profiles (file paths or GraphFrames) into a Thicket.

        Loading runs through the fault-tolerant ingestion pipeline
        (:func:`repro.ingest.load_ensemble`): payloads are validated
        before graph construction and every failure surfaces as a
        typed :class:`repro.errors.ReproError` naming the offending
        source — never a bare ``KeyError``.

        Parameters
        ----------
        sources:
            One or more ``*.json`` cali profiles and/or GraphFrames.
        intersection:
            Keep only call-tree nodes present in *every* profile
            (default keeps the union).
        metadata_key:
            Use this metadata column as the profile index instead of a
            hash (e.g. ``"problem_size"``); values must be unique.
        fill_perfdata:
            With the union semantics, emit NaN rows for (node, profile)
            pairs where the profile did not visit the node, giving a
            dense table (the xarray-style layout discussed in §6).
        on_error:
            Per-profile error policy: ``"strict"`` raises the first
            error (default); ``"skip"``/``"collect"`` drop bad
            profiles and record them in ``thicket.provenance``
            (``"skip"`` additionally warns per drop).  Use
            :func:`repro.ingest.load_ensemble` directly to also get
            the structured :class:`~repro.ingest.IngestReport`.
        """
        from ..ingest import load_ensemble

        tk, report = load_ensemble(
            sources, on_error=on_error, metadata_key=metadata_key,
            intersection=intersection, fill_perfdata=fill_perfdata)
        if tk is None:
            from ..errors import CompositionError

            raise CompositionError(
                "no profiles could be loaded:\n" + report.summary())
        return tk

    @classmethod
    def _compose(cls, gfs: Sequence[GraphFrame], profile_ids: Sequence[Any],
                 intersection: bool = False, fill_perfdata: bool = False,
                 provenance: Mapping[str, Any] | None = None) -> "Thicket":
        """Compose already-loaded GraphFrames under resolved profile ids.

        The structural core shared by :meth:`from_caliperreader` and
        the ingestion pipeline; ``profile_ids`` must already be unique
        (the pipeline repairs or rejects collisions before calling).
        """
        from ..errors import ProfileConflictError

        gfs = list(gfs)
        profile_ids = list(profile_ids)
        if not gfs:
            raise ProfileConflictError("no profiles given")
        if len(set(profile_ids)) != len(profile_ids):
            raise ProfileConflictError(
                "profile ids are not unique; choose a different metadata_key"
            )

        union_graph, maps = union_many([gf.graph for gf in gfs])

        # performance data rows, re-keyed to union nodes
        perf = concat_rows([gf.dataframe for gf in gfs])
        perf.index = MultiIndex.from_arrays(
            [perf.index.values,
             [pid for gf, pid in zip(gfs, profile_ids)
              for _ in range(len(gf.dataframe))]],
            names=["node", "profile"],
        ).relabel(0, {n: u for m in maps for n, u in m.items()})

        node_filter: set[Node] | None = None
        if intersection:
            counts: dict[Node, int] = {}
            for mapping in maps:
                for un in set(mapping.values()):
                    counts[un] = counts.get(un, 0) + 1
            node_filter = {n for n, c in counts.items() if c == len(gfs)}

        if fill_perfdata:
            nodes = [
                n for n in union_graph.node_order()
                if node_filter is None or n in node_filter
            ]
            perf = perf.reindex(MultiIndex.from_product(
                [nodes, profile_ids], names=["node", "profile"]))
            perf["name"] = perf.index.map_labels(lambda n: n.frame.name)
        else:
            perf = _in_tree_order(perf, union_graph, {
                p: i for i, p in enumerate(profile_ids)})
            if node_filter is not None:
                perf = perf[perf.index.partition(0).row_mask(node_filter)]

        if node_filter is not None:
            from ..graph.squash import squash_graph

            union_graph, node_map = squash_graph(union_graph, node_filter)
            perf.index = perf.index.relabel(0, node_map)

        metadata = DataFrame([gf.metadata for gf in gfs],
                             index=Index(profile_ids, name="profile"))
        default = next(
            (gf.default_metric for gf in gfs if gf.default_metric), None
        )
        return cls(union_graph, perf, metadata, profiles=profile_ids,
                   exc_metrics=_metric_union(gf.exc_metrics for gf in gfs),
                   inc_metrics=_metric_union(gf.inc_metrics for gf in gfs),
                   default_metric=default, provenance=provenance)

    # ------------------------------------------------------------------
    # basic API
    # ------------------------------------------------------------------
    @property
    def performance_cols(self) -> list:
        """Numeric metric columns of the performance data table."""
        out = []
        for c in self.dataframe.columns:
            last = c[-1] if isinstance(c, tuple) else c
            if last == "name":
                continue
            if self.dataframe.column(c).dtype.kind in "if":
                out.append(c)
        return out

    def __len__(self) -> int:
        return len(self.dataframe)

    def __repr__(self) -> str:
        return (f"Thicket(profiles={len(self.profile)}, nodes={len(self.graph)}, "
                f"rows={len(self.dataframe)})")

    def copy(self) -> "Thicket":
        """Deep-copy the tables; share the (immutable) graph nodes."""
        out = self._derive(self.dataframe.copy(),
                           statsframe=self.statsframe.copy())
        out.provenance = dict(self.provenance)
        return out

    def _derive(self, dataframe: DataFrame, graph: Graph | None = None,
                metadata: DataFrame | None = None,
                profiles: Sequence[Any] | None = None,
                statsframe: DataFrame | None = None) -> "Thicket":
        """The sub-thicket of *dataframe*, with this thicket's metric
        lists and, unless given, its graph, metadata and profiles."""
        return Thicket(self.graph if graph is None else graph, dataframe,
                       self.metadata.copy() if metadata is None else metadata,
                       statsframe=statsframe,
                       profiles=(list(self.profile) if profiles is None
                                 else profiles),
                       exc_metrics=self.exc_metrics,
                       inc_metrics=self.inc_metrics,
                       default_metric=self.default_metric)

    def tree(self, metric_column: str | None = None, precision: int = 3,
             color: bool = False) -> str:
        """Render the unified call tree annotated with a statsframe or
        per-profile-mean metric."""
        from ..viz.tree import render_tree

        metric = metric_column
        if metric is not None and metric in self.statsframe:
            return render_tree(self.graph, self.statsframe, metric,
                               precision=precision, color=color)
        metric = metric or self.default_metric
        if metric is None or metric not in self.dataframe:
            return render_tree(self.graph, self.statsframe, None,
                               precision=precision, color=color)
        means = self.dataframe.groupby(level="node").agg({metric: "mean"})
        return render_tree(self.graph, means, metric,
                           precision=precision, color=color)

    # ------------------------------------------------------------------
    # manipulation (§4.1) — implemented in sibling modules
    # ------------------------------------------------------------------
    def filter_metadata(self, predicate: Callable[[dict], bool]) -> "Thicket":
        """Keep only profiles whose metadata row satisfies *predicate*."""
        from .filtering import filter_metadata

        return filter_metadata(self, predicate)

    def filter_stats(self, predicate: Callable[[dict], bool]) -> "Thicket":
        """Keep only graph nodes whose statsframe row satisfies *predicate*."""
        from .filtering import filter_stats

        return filter_stats(self, predicate)

    def filter_profile(self, profiles: Sequence[Any]) -> "Thicket":
        """Keep only the listed profile ids (§4.1.1)."""
        from .filtering import filter_profile

        return filter_profile(self, profiles)

    def groupby(self, by: str | Sequence[str]):
        """Partition into sub-thickets by metadata column(s) (§4.1.2)."""
        from .groupby import groupby_metadata

        return groupby_metadata(self, by)

    def query(self, matcher, squash: bool = True,
              validate: bool = True) -> "Thicket":
        """Filter to the call paths matched by *matcher* (§4.1.3).

        *matcher* may be a :class:`~repro.query.QueryMatcher`, a
        string-dialect query (``'MATCH (".", p) WHERE p."name" = …'``),
        or an object-dialect spec list.

        With ``validate=True`` (the default) the query is statically
        checked against this thicket first —
        :func:`repro.query.validate_query` — so a misspelled metric,
        a type-mismatched predicate, or an unsatisfiable quantifier
        sequence raises :class:`~repro.errors.QueryValidationError`
        (with did-you-mean suggestions) *before* any matching work,
        instead of silently matching nothing.  ``validate=False``
        restores the old fail-late behaviour.
        """
        from ..query import QueryMatcher, parse_string_dialect
        from .querying import query_thicket

        if isinstance(matcher, str):
            matcher = parse_string_dialect(matcher)
        elif isinstance(matcher, (list, tuple)):
            matcher = QueryMatcher.from_spec(matcher)
        if validate:
            from ..query import validate_query

            validate_query(matcher, self)
        return query_thicket(self, matcher, squash=squash)

    # ------------------------------------------------------------------
    # metadata → columns and derived data
    # ------------------------------------------------------------------
    def metadata_column_to_perfdata(self, column: str,
                                    overwrite: bool = False) -> None:
        """Broadcast a metadata column onto performance-data rows
        (how problem size becomes a per-row key in Fig. 4)."""
        if column in self.dataframe and not overwrite:
            raise ValueError(f"column {column!r} already in performance data")
        meta = dict(zip(self.metadata.index.values,
                        self.metadata.column(column)))
        self.dataframe[column] = self.dataframe.index.map_labels(
            meta.get, level=1)

    def add_ncu(self, ncu_report: DataFrame, prefix: str | None = None) -> None:
        """Attach NCU per-kernel metrics, matching kernels to node names.

        Metrics are broadcast to every (node, profile) row whose node
        name equals the kernel name (Fig. 15's "GPU Nsight Compute"
        column group).
        """
        by_kernel = {
            k: {m: ncu_report.column(m)[i] for m in ncu_report.columns}
            for i, k in enumerate(ncu_report.index.values)
        }
        for metric in ncu_report.columns:
            key = (prefix, metric) if prefix else metric
            self.dataframe[key] = self.dataframe.index.map_labels(
                lambda n: by_kernel.get(n.frame.name, {}).get(metric, np.nan))

    # ------------------------------------------------------------------
    # persistence and display conveniences
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialize to the checksummed v2 store document (a string)."""
        from .io import thicket_to_json

        return thicket_to_json(self)

    @classmethod
    def from_json(cls, text: str) -> "Thicket":
        """Rebuild from :meth:`to_json` output (v1 or v2 accepted)."""
        from .io import thicket_from_json

        return thicket_from_json(text)

    def save(self, path) -> Path:
        """Atomically write the checksummed store to *path*."""
        from .io import save_thicket

        return save_thicket(self, path)

    @classmethod
    def load(cls, path, verify: bool = False) -> "Thicket":
        """Load a store; ``verify=True`` also checks structural invariants."""
        from .io import load_thicket

        return load_thicket(path, verify=verify)

    def validate(self, repair: bool = False):
        """Check the cross-component structural invariants.

        Returns a :class:`~repro.core.validate.ValidationReport`; with
        ``repair=True`` the repairable violations (stale metric lists,
        duplicate index entries, orphaned perf/stats rows, stale
        profile list) are fixed in place and recorded in the report.
        """
        from .validate import validate_thicket

        return validate_thicket(self, repair=repair)

    def display_heatmap(self, columns=None, svg_path=None, **kwargs) -> str:
        """Render the statsframe as a node×column heatmap (text/SVG)."""
        from .display import display_heatmap

        return display_heatmap(self, columns=columns, svg_path=svg_path,
                               **kwargs)

    def display_histogram(self, node_name: str, column, **kwargs) -> str:
        """Render the per-profile metric distribution at one node."""
        from .display import display_histogram

        return display_histogram(self, node_name, column, **kwargs)

    def get_node(self, name: str) -> Node:
        """First node in traversal order with the given frame name."""
        node = self.graph.find(name)
        if node is None:
            raise KeyError(f"no node named {name!r}")
        return node

    def get_unique_metadata(self) -> dict[str, list]:
        """Column → sorted unique values of the metadata table.

        The "quickly inspect which simulation parameters are present"
        step of §3.2.1.  Values are plain Python values; every NaN cell
        is the one ``math.nan``, listed once.
        """
        from ..frame.index import plain_values, sort_positions

        out: dict[str, list] = {}
        for col in self.metadata.columns:
            values = list(dict.fromkeys(plain_values(self.metadata.column(col))))
            out[str(col)] = [values[i] for i in sort_positions(values)]
        return out

    def intersection(self) -> "Thicket":
        """Keep only call-tree nodes measured in *every* profile.

        Post-hoc version of ``from_caliperreader(intersection=True)``
        for thickets that were composed with union semantics.
        """
        from ..graph.squash import squash_graph

        index = self.dataframe.index
        nodes, profs = index.partition(0), index.partition(1)
        full = set(self.profile)
        in_full = np.array([p in full for p in profs.uniques], dtype=bool)
        measured = np.zeros((len(nodes.uniques), len(profs.uniques)),
                            dtype=bool)
        measured[nodes.codes, profs.codes] = True
        # a node is kept when its rows cover exactly this thicket's profiles
        keep_code = ((measured[:, in_full].sum(axis=1) == len(full))
                     & ~measured[:, ~in_full].any(axis=1))
        keep = {nodes.uniques[c] for c in np.flatnonzero(keep_code)}

        new_graph, node_map = squash_graph(self.graph, keep)
        perf = self.dataframe[keep_code[nodes.codes]]
        perf.index = perf.index.relabel(0, node_map)
        return self._derive(perf, graph=new_graph)

    def unify_statsframe_index(self) -> None:
        """Rebuild the statsframe skeleton after structural changes."""
        self.statsframe = self._empty_statsframe()


def _metric_union(metric_lists: Iterable[Sequence]) -> list:
    """The metrics of all lists, each once, in first-seen order."""
    return list(dict.fromkeys(m for metrics in metric_lists for m in metrics))


def _in_tree_order(perf: DataFrame, graph: Graph,
                   profile_rank: Mapping[Any, int]) -> DataFrame:
    """*perf*'s rows by call-tree pre-order, then by *profile_rank*.

    Rows of nodes outside *graph* or of unranked profiles go last;
    ties keep the row order.
    """
    node_rank = {n: i for i, n in enumerate(graph.traverse())}
    return perf.take(perf.index.rank_order(node_rank, profile_rank))
