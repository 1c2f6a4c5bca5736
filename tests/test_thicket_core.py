"""Unit tests for the Thicket object (construction and basic API)."""

import numpy as np
import pytest

from repro import Thicket, profile_hash
from repro.frame import MultiIndex
from repro.graph import GraphFrame
from repro.readers import read_cali_dict
from repro.caliper import profile_to_cali_dict
from repro.workloads import QUARTZ, generate_rajaperf_profile


class TestProfileHash:
    def test_deterministic(self):
        meta = {"compiler": "clang", "size": 1024}
        assert profile_hash(meta) == profile_hash(dict(meta))

    def test_sensitive_to_values(self):
        assert profile_hash({"a": 1}) != profile_hash({"a": 2})

    def test_signed_64bit_range(self):
        h = profile_hash({"x": "y"})
        assert -(2 ** 63) <= h < 2 ** 63


class TestConstruction:
    def test_from_files(self, profile_files):
        tk = Thicket.from_caliperreader(profile_files)
        assert len(tk.profile) == 2
        assert tk.metadata.index.name == "profile"
        assert isinstance(tk.dataframe.index, MultiIndex)
        assert tk.dataframe.index.names == ["node", "profile"]

    def test_single_source_accepted(self, profile_files):
        tk = Thicket.from_caliperreader(profile_files[0])
        assert len(tk.profile) == 1

    def test_rows_are_nodes_times_profiles(self, raja_thicket):
        tk = raja_thicket
        # identical trees across profiles: every node has one row per profile
        assert len(tk.dataframe) == len(tk.graph) * len(tk.profile)

    def test_metadata_key_profile_index(self):
        gfs = []
        for size in (1048576, 4194304):
            prof = generate_rajaperf_profile(QUARTZ, size, seed=size % 97,
                                             kernels=["Stream_DOT"])
            gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
        tk = Thicket.from_caliperreader(gfs, metadata_key="problem_size")
        assert set(tk.profile) == {1048576, 4194304}

    def test_metadata_key_collision_rejected(self):
        gfs = []
        for seed in (1, 2):
            prof = generate_rajaperf_profile(QUARTZ, 1048576, seed=seed,
                                             kernels=["Stream_DOT"])
            gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
        with pytest.raises(ValueError):
            Thicket.from_caliperreader(gfs, metadata_key="problem_size")

    def test_missing_metadata_key(self, profile_files):
        from repro.errors import ProfileConflictError

        with pytest.raises(ProfileConflictError) as exc:
            Thicket.from_caliperreader(profile_files, metadata_key="ghost")
        # the error names the offending profile, not just the key
        assert str(profile_files[0]) in str(exc.value)

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            Thicket.from_caliperreader([])

    def test_union_of_different_trees(self):
        a = GraphFrame.from_literal([{"frame": {"name": "main"},
                                      "metrics": {"t": 1.0},
                                      "children": [{"frame": {"name": "x"},
                                                    "metrics": {"t": 2.0}}]}])
        a.metadata["id"] = 1
        b = GraphFrame.from_literal([{"frame": {"name": "main"},
                                      "metrics": {"t": 1.0},
                                      "children": [{"frame": {"name": "y"},
                                                    "metrics": {"t": 3.0}}]}])
        b.metadata["id"] = 2
        tk = Thicket.from_caliperreader([a, b])
        assert len(tk.graph) == 3  # main, x, y
        assert len(tk.dataframe) == 4  # main×2, x×1, y×1

    def test_intersection_drops_non_shared_nodes(self):
        a = GraphFrame.from_literal([{"frame": {"name": "main"},
                                      "metrics": {"t": 1.0},
                                      "children": [{"frame": {"name": "x"},
                                                    "metrics": {"t": 2.0}}]}])
        a.metadata["id"] = 1
        b = GraphFrame.from_literal([{"frame": {"name": "main"},
                                      "metrics": {"t": 1.0},
                                      "children": [{"frame": {"name": "y"},
                                                    "metrics": {"t": 3.0}}]}])
        b.metadata["id"] = 2
        tk = Thicket.from_caliperreader([a, b], intersection=True)
        assert {n.name for n in tk.graph} == {"main"}
        assert len(tk.dataframe) == 2

    def test_fill_perfdata_dense(self):
        a = GraphFrame.from_literal([{"frame": {"name": "main"},
                                      "metrics": {"t": 1.0},
                                      "children": [{"frame": {"name": "x"},
                                                    "metrics": {"t": 2.0}}]}])
        a.metadata["id"] = 1
        b = GraphFrame.from_literal([{"frame": {"name": "main"},
                                      "metrics": {"t": 1.0}}])
        b.metadata["id"] = 2
        tk = Thicket.from_caliperreader([a, b], fill_perfdata=True)
        assert len(tk.dataframe) == 4  # 2 nodes × 2 profiles, NaN-filled
        x_rows = [i for i, t in enumerate(tk.dataframe.index.values)
                  if t[0].name == "x"]
        vals = tk.dataframe.column("t")[x_rows]
        assert np.isnan(vals).sum() == 1

    def test_row_order_follows_graph_traversal(self, raja_thicket):
        order = {n: i for i, n in enumerate(raja_thicket.graph.traverse())}
        ranks = [order[t[0]] for t in raja_thicket.dataframe.index.values]
        assert ranks == sorted(ranks)


class TestBasicAPI:
    def test_performance_cols_numeric_only(self, raja_thicket):
        cols = raja_thicket.performance_cols
        assert "name" not in cols
        assert "time (exc)" in cols

    def test_repr(self, raja_thicket):
        text = repr(raja_thicket)
        assert "profiles=4" in text

    def test_copy_is_independent(self, raja_thicket):
        clone = raja_thicket.copy()
        clone.dataframe["extra"] = 1.0
        assert "extra" not in raja_thicket.dataframe

    def test_statsframe_skeleton(self, raja_thicket):
        sf = raja_thicket.statsframe
        assert len(sf) == len(raja_thicket.graph)
        assert "name" in sf

    def test_tree_rendering_uses_mean(self, raja_thicket):
        text = raja_thicket.tree(metric_column="time (exc)")
        assert "Stream_DOT" in text

    def test_get_node(self, raja_thicket):
        node = raja_thicket.get_node("Apps_VOL3D")
        assert node.frame.name == "Apps_VOL3D"
        with pytest.raises(KeyError):
            raja_thicket.get_node("ghost")

    def test_metadata_column_to_perfdata(self, raja_thicket):
        raja_thicket.metadata_column_to_perfdata("problem_size")
        col = raja_thicket.dataframe.column("problem_size")
        assert set(col) == {1048576, 4194304}
        with pytest.raises(ValueError):
            raja_thicket.metadata_column_to_perfdata("problem_size")

    def test_add_ncu(self, cuda_thicket):
        from repro.workloads import generate_ncu_report
        from repro.frame import DataFrame, Index

        report = generate_ncu_report(4194304, kernels=["Apps_VOL3D"])
        ncu_df = DataFrame(
            {m: [v] for m, v in report["Apps_VOL3D"].items()},
            index=Index(["Apps_VOL3D"], name="kernel"),
        )
        cuda_thicket.add_ncu(ncu_df)
        assert "gpu__dram_throughput" in cuda_thicket.dataframe
        rows = [i for i, t in enumerate(cuda_thicket.dataframe.index.values)
                if t[0].name == "Apps_VOL3D"]
        vals = cuda_thicket.dataframe.column("gpu__dram_throughput")[rows]
        assert not np.isnan(vals.astype(float)).any()


class TestUniqueMetadataAndIntersection:
    def test_get_unique_metadata(self, raja_thicket):
        uniq = raja_thicket.get_unique_metadata()
        assert uniq["problem_size"] == [1048576, 4194304]
        assert uniq["compiler"] == ["clang++-9.0.0", "xlc-16.1.1.12"]
        assert uniq["cluster"] == ["quartz"]

    def test_posthoc_intersection(self):
        a = GraphFrame.from_literal([{"frame": {"name": "main"},
                                      "metrics": {"t": 1.0},
                                      "children": [{"frame": {"name": "x"},
                                                    "metrics": {"t": 2.0}}]}])
        a.metadata["id"] = 1
        b = GraphFrame.from_literal([{"frame": {"name": "main"},
                                      "metrics": {"t": 1.5},
                                      "children": [{"frame": {"name": "y"},
                                                    "metrics": {"t": 3.0}}]}])
        b.metadata["id"] = 2
        union_tk = Thicket.from_caliperreader([a, b])
        assert len(union_tk.graph) == 3
        inter = union_tk.intersection()
        assert {n.name for n in inter.graph} == {"main"}
        assert len(inter.dataframe) == 2
        # original unchanged
        assert len(union_tk.graph) == 3

    def test_intersection_of_identical_trees_is_identity(self, raja_thicket):
        inter = raja_thicket.intersection()
        assert len(inter.graph) == len(raja_thicket.graph)
        assert len(inter.dataframe) == len(raja_thicket.dataframe)


class TestPartitionCache:
    """The (node, profile) partition lives on the perf index object."""

    def test_copy_shares_index_and_partition(self, raja_thicket, monkeypatch):
        from repro.core import stats
        from repro.frame import index as index_mod

        stats.mean(raja_thicket, ["time (exc)"])
        part = raja_thicket.dataframe.index.partition(0)
        calls = []
        real = index_mod.factorize
        monkeypatch.setattr(index_mod, "factorize",
                            lambda labels: calls.append(1) or real(labels))
        work = raja_thicket.copy()
        assert work.dataframe.index is raja_thicket.dataframe.index
        stats.mean(work)
        stats.percentiles(work, ["time (exc)"])
        assert work.dataframe.index.partition(0) is part
        assert calls == []

    def test_replaced_index_is_not_stale(self, raja_thicket):
        from repro.core import stats

        stats.mean(raja_thicket, ["time (exc)"])
        perf = raja_thicket.dataframe
        before = dict(zip(raja_thicket.statsframe.index.values,
                          raja_thicket.statsframe.column("time (exc)_mean")))
        # hand every row of node a to node b and vice versa
        nodes = list(raja_thicket.statsframe.index.values)
        a, b = nodes[1], nodes[2]
        assert before[a] != pytest.approx(before[b])
        swap = {a: b, b: a}
        perf.index = MultiIndex(
            [(swap.get(n, n), p) for n, p in perf.index.values],
            names=["node", "profile"])
        stats.mean(raja_thicket, ["time (exc)"])
        after = dict(zip(raja_thicket.statsframe.index.values,
                         raja_thicket.statsframe.column("time (exc)_mean")))
        assert after[a] == pytest.approx(before[b])
        assert after[b] == pytest.approx(before[a])
        assert after[nodes[0]] == pytest.approx(before[nodes[0]])
