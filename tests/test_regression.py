"""Unit tests for regression detection (repro.core.regression)."""

import numpy as np
import pytest

from repro import Thicket
from repro.caliper import profile_to_cali_dict
from repro.core.regression import compare_thickets, find_regressions
from repro.readers import read_cali_dict
from repro.workloads import QUARTZ, generate_rajaperf_profile

KERNELS = ["Stream_DOT", "Apps_VOL3D", "Lcals_HYDRO_1D"]


def make_ensemble(n_runs, seed0, slow_kernel=None, factor=1.0):
    gfs = []
    for i in range(n_runs):
        prof = generate_rajaperf_profile(
            QUARTZ, 4194304, kernels=KERNELS, seed=seed0 + i, noise=0.02,
            metadata={"rep": i, "batch": seed0},
        )
        if slow_kernel is not None:
            for rec in prof["records"]:
                if rec["path"][-1] == slow_kernel:
                    rec["metrics"]["time (exc)"] *= factor
        gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
    return Thicket.from_caliperreader(gfs)


@pytest.fixture(scope="module")
def baseline():
    return make_ensemble(6, 1000)


class TestCompare:
    def test_no_change_not_significant(self, baseline):
        candidate = make_ensemble(6, 2000)
        table = compare_thickets(baseline, candidate, "time (exc)")
        rel = table.column("relative_change").astype(float)
        assert (np.abs(rel) < 0.05).all()
        # with 2% noise and no true effect, nothing should flag strongly
        flagged = find_regressions(baseline, candidate, "time (exc)",
                                   threshold=0.05)
        assert len(flagged) == 0

    def test_injected_regression_detected(self, baseline):
        candidate = make_ensemble(6, 3000, slow_kernel="Stream_DOT",
                                  factor=1.4)
        flagged = find_regressions(baseline, candidate, "time (exc)",
                                   threshold=0.1)
        names = list(flagged.index.values)
        assert names == ["Stream_DOT"]
        pos = flagged.index.get_loc("Stream_DOT")
        assert flagged.column("relative_change")[pos] == pytest.approx(
            0.4, abs=0.1)
        assert bool(flagged.column("significant")[pos])

    def test_improvement_not_flagged(self, baseline):
        candidate = make_ensemble(6, 4000, slow_kernel="Stream_DOT",
                                  factor=0.5)
        flagged = find_regressions(baseline, candidate, "time (exc)",
                                   threshold=0.05)
        assert "Stream_DOT" not in list(flagged.index.values)

    def test_single_run_candidate_still_alerts(self, baseline):
        candidate = make_ensemble(1, 5000, slow_kernel="Apps_VOL3D",
                                  factor=2.0)
        flagged = find_regressions(baseline, candidate, "time (exc)",
                                   threshold=0.5)
        names = list(flagged.index.values)
        assert "Apps_VOL3D" in names
        pos = flagged.index.get_loc("Apps_VOL3D")
        assert np.isnan(flagged.column("p_value")[pos])

    def test_table_columns(self, baseline):
        candidate = make_ensemble(3, 6000)
        table = compare_thickets(baseline, candidate, "time (exc)")
        assert table.columns == [
            "baseline_mean", "candidate_mean", "relative_change",
            "p_value", "significant", "baseline_runs", "candidate_runs"]
        assert set(table.column("baseline_runs")) == {6}
        assert set(table.column("candidate_runs")) == {3}

    def test_disjoint_trees_rejected(self, baseline):
        from repro.graph import GraphFrame

        other = GraphFrame.from_literal([{"frame": {"name": "zzz"},
                                          "metrics": {"time (exc)": 1.0}}])
        other.metadata["id"] = 7
        lonely = Thicket.from_caliperreader([other])
        with pytest.raises(ValueError):
            compare_thickets(baseline, lonely, "time (exc)")


def test_import_repro_does_not_load_scipy():
    """scipy costs about a second of cold start; only the functions
    that need it import it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True)
