"""Ingestion benchmark: fault-tolerant loading of a dirty campaign.

The robustness machinery (schema validation, per-profile error
policies, quarantine reporting) sits on the hot path of every
campaign-scale analysis, so its overhead must stay pinned.  This
benchmark composes a 200-profile synthetic campaign with 5% of the
files corrupted (the ISSUE's acceptance scenario) and times
``load_ensemble`` under each error policy.
"""

import pytest

from repro.ingest import load_ensemble
from repro.workloads import (
    QUARTZ,
    corrupt_campaign,
    generate_rajaperf_profile,
)
from repro.caliper import write_cali_json

N_PROFILES = 200
FRACTION_CORRUPT = 0.05
KERNELS = ["Stream_DOT", "Apps_VOL3D", "Lcals_HYDRO_1D"]


def write_campaign(out_dir, corrupt: bool):
    paths = []
    for i in range(N_PROFILES):
        prof = generate_rajaperf_profile(
            QUARTZ, 1048576 * (1 + i % 4), kernels=KERNELS,
            seed=4000 + i, metadata={"rep": i})
        paths.append(write_cali_json(prof, out_dir / f"p{i:03d}.json"))
    if corrupt:
        bad = corrupt_campaign(paths, fraction=FRACTION_CORRUPT, seed=17)
        assert len(bad) == int(N_PROFILES * FRACTION_CORRUPT)
    return paths


@pytest.fixture(scope="module")
def clean_paths(tmp_path_factory):
    return write_campaign(tmp_path_factory.mktemp("ingest_clean"), False)


@pytest.fixture(scope="module")
def dirty_paths(tmp_path_factory):
    return write_campaign(tmp_path_factory.mktemp("ingest_dirty"), True)


def test_bench_ingest_clean_strict(benchmark, clean_paths):
    """Baseline: full validation, nothing to quarantine."""
    tk, report = benchmark(load_ensemble, clean_paths, on_error="strict")
    assert len(tk.profile) == N_PROFILES
    assert report.ok


def test_bench_ingest_dirty_skip(benchmark, dirty_paths):
    import warnings

    def run():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return load_ensemble(dirty_paths, on_error="skip")

    tk, report = benchmark(run)
    assert len(tk.profile) == N_PROFILES - report.n_quarantined
    assert report.n_quarantined == int(N_PROFILES * FRACTION_CORRUPT)


def test_bench_ingest_dirty_collect(benchmark, dirty_paths):
    tk, report = benchmark(load_ensemble, dirty_paths, on_error="collect")
    assert len(tk.profile) == N_PROFILES - int(N_PROFILES * FRACTION_CORRUPT)
    assert all(q.stage in ("read", "validate", "build")
               for q in report.quarantined)
