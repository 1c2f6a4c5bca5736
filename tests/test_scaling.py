"""Unit tests for the scaling-analysis module (repro.core.scaling)."""

import math

import numpy as np
import pytest

from repro.core.scaling import (
    karp_flatt,
    scalability_bottlenecks,
    strong_scaling_table,
    weak_scaling_efficiency,
)


class TestStrongScaling:
    def test_table_shape(self, marbl_thicket):
        table = strong_scaling_table(marbl_thicket, "timeStepLoop",
                                     "time per cycle (inc)")
        assert list(table.index.values) == [1, 4, 16, 32]
        assert table.columns == ["mean", "std", "speedup", "efficiency",
                                 "runs"]
        assert list(table.column("runs")) == [4, 4, 4, 4]  # 2 clusters x 2

    def test_speedup_baseline_is_one(self, marbl_thicket):
        table = strong_scaling_table(marbl_thicket, "timeStepLoop",
                                     "time per cycle (inc)")
        assert table.column("speedup")[0] == pytest.approx(1.0)
        assert table.column("efficiency")[0] == pytest.approx(1.0)

    def test_speedup_monotone_efficiency_decreasing(self, marbl_thicket):
        aws = marbl_thicket.filter_metadata(lambda m: m["mpi"] == "impi")
        table = strong_scaling_table(aws, "timeStepLoop",
                                     "time per cycle (inc)")
        sp = list(table.column("speedup"))
        eff = list(table.column("efficiency"))
        assert sp == sorted(sp)
        assert eff[0] >= eff[-1]
        assert all(0.0 < e <= 1.05 for e in eff)

    def test_unknown_metric_rejected(self, marbl_thicket):
        with pytest.raises(KeyError):
            strong_scaling_table(marbl_thicket, "timeStepLoop", "ghost")

    def test_unknown_node_rejected(self, marbl_thicket):
        with pytest.raises(KeyError):
            strong_scaling_table(marbl_thicket, "ghost_region",
                                 "time per cycle (inc)")


class TestKarpFlatt:
    def test_serial_fraction_estimates(self, marbl_thicket):
        cts = marbl_thicket.filter_metadata(lambda m: m["mpi"] == "openmpi")
        table = karp_flatt(cts, "timeStepLoop", "time per cycle (inc)")
        es = table.column("karp_flatt").astype(float)
        assert np.isnan(es[0])  # undefined at the baseline
        finite = es[~np.isnan(es)]
        # small serial fraction (the Amdahl tail in the model); noise can
        # push individual estimates marginally negative near the baseline
        assert (finite > -0.01).all()
        assert (finite < 0.2).all()
        assert finite[-1] > 0


class TestWeakScaling:
    def test_efficiency_relative_to_base(self, marbl_thicket):
        table = weak_scaling_efficiency(marbl_thicket, "timeStepLoop",
                                        "time per cycle (inc)")
        assert table.column("efficiency")[0] == pytest.approx(1.0)
        # in a strong-scaling dataset, "weak efficiency" grows (times drop)
        assert table.column("efficiency")[-1] > 1.0


class TestBottleneckRanking:
    @pytest.fixture
    def aws_scaling_thicket(self):
        """One cluster, parallel runs only, dense node counts.

        Bottleneck modeling needs per-system ensembles (Fig. 11 models
        CTS and AWS separately) and excludes the comm-free serial run.
        """
        from repro import Thicket
        from repro.caliper import profile_to_cali_dict
        from repro.readers import read_cali_dict
        from repro.workloads import AWS_PARALLELCLUSTER, generate_marbl_profile

        gfs = []
        seed = 0
        for nodes in (2, 4, 8, 16, 32, 64):
            for rep in range(3):
                seed += 1
                prof = generate_marbl_profile(
                    AWS_PARALLELCLUSTER, nodes, rep=rep, mpi="impi",
                    seed=seed)
                gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
        return Thicket.from_caliperreader(gfs)

    def test_growing_regions_ranked_first(self, aws_scaling_thicket):
        entries = scalability_bottlenecks(
            aws_scaling_thicket, "mpi.world.size", "Avg time/rank")
        assert entries
        names = [e["node"] for e in entries]
        assert "mpi_comm" in names
        # mpi_comm grows with scale; compute regions shrink
        growing = [e["node"] for e in entries if e["growing"]]
        assert "mpi_comm" in growing
        assert "hydro" not in growing
        # ranking puts a growing region at the top
        assert entries[0]["growing"]

    def test_top_and_exclude(self, marbl_thicket):
        entries = scalability_bottlenecks(
            marbl_thicket, "mpi.world.size", "Avg time/rank",
            top=2, exclude=("main",))
        assert len(entries) == 2
        assert all(e["node"] != "main" for e in entries)

    def test_entries_carry_model_strings(self, marbl_thicket):
        entries = scalability_bottlenecks(
            marbl_thicket, "mpi.world.size", "Avg time/rank")
        for e in entries:
            assert isinstance(e["model"], str)
            assert "degree" in e and "r_squared" in e


class TestMissingValuesOnTheMarblEnsemble:
    """The 60-profile MARBL campaign (Fig. 16) with one bad cell or one
    profile that lacks its node count: both are missing values, as in
    ``repro.core.stats``, and neither reaches a model or a table."""

    METRIC = "time per cycle (inc)"

    @pytest.fixture(scope="class")
    def profiles(self):
        from repro.workloads import iter_marbl_profiles

        return list(iter_marbl_profiles())

    @staticmethod
    def _thicket(profiles):
        from repro import Thicket
        from repro.caliper import profile_to_cali_dict
        from repro.readers import read_cali_dict

        return Thicket.from_caliperreader(
            [read_cali_dict(profile_to_cali_dict(p)) for p in profiles])

    def _model(self, tk):
        from repro.model import ExtrapInterface

        models = ExtrapInterface().model_thicket(tk, "numhosts", self.METRIC)
        return str(models[tk.get_node("timeStepLoop")])

    def _set_cell(self, tk, value):
        """Set the first timeStepLoop cell of the metric to *value*."""
        loop = tk.get_node("timeStepLoop")
        row = next(i for i, t in enumerate(tk.dataframe.index.values)
                   if t[0] is loop)
        tk.dataframe.column(self.METRIC)[row] = value

    def test_an_inf_cell_is_missing(self, profiles):
        with_inf, with_nan = self._thicket(profiles), self._thicket(profiles)
        self._set_cell(with_inf, math.inf)
        self._set_cell(with_nan, math.nan)
        table = strong_scaling_table(with_inf, "timeStepLoop", self.METRIC)
        for col in ("mean", "std", "speedup", "efficiency"):
            assert np.isfinite(table.column(col).astype(float)).all()
        assert sum(table.column("runs")) == 59
        assert self._model(with_inf) == self._model(with_nan)
        assert "numhosts^(-1)" in self._model(with_inf)

    def test_a_profile_without_numhosts_is_left_out(self, profiles):
        dropped = 7
        unlabeled = [dict(p, globals={k: v for k, v in p["globals"].items()
                                      if k != "numhosts"})
                     if i == dropped else p for i, p in enumerate(profiles)]
        tk = self._thicket(unlabeled)
        without = self._thicket(profiles[:dropped] + profiles[dropped + 1:])
        table = strong_scaling_table(tk, "timeStepLoop", self.METRIC)
        assert list(table.index.values) == [1, 2, 4, 8, 16, 32]
        assert table.to_dict() == strong_scaling_table(
            without, "timeStepLoop", self.METRIC).to_dict()
        assert self._model(tk) == self._model(without)
        assert "numhosts^(-1)" in self._model(tk)
