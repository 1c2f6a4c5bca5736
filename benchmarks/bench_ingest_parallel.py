"""Ingestion benchmark: serial vs supervised-parallel loading.

The ``SupervisedExecutor`` pays for its safety (worker processes,
heartbeats, a supervisor poll loop) with real overhead: forks, pipe
round-trips, and payload pickling.  This benchmark pins that cost on a
clean 200-profile campaign — serial baseline against ``jobs=4`` — so
the break-even point is visible instead of assumed.  On a single-core
box the parallel run is *expected* to lose; the number that matters is
the per-profile supervision overhead staying bounded, and the outputs
staying byte-identical either way (asserted below).
"""

import pytest

from repro.ingest import load_ensemble
from repro.resilience import ResiliencePolicy
from repro.workloads import QUARTZ, generate_rajaperf_profile
from repro.caliper import write_cali_json

N_PROFILES = 200
KERNELS = ["Stream_DOT", "Apps_VOL3D", "Lcals_HYDRO_1D"]


def write_campaign(out_dir):
    paths = []
    for i in range(N_PROFILES):
        prof = generate_rajaperf_profile(
            QUARTZ, 1048576 * (1 + i % 4), kernels=KERNELS,
            seed=5000 + i, metadata={"rep": i})
        paths.append(write_cali_json(prof, out_dir / f"p{i:03d}.json"))
    return paths


@pytest.fixture(scope="module")
def clean_paths(tmp_path_factory):
    return write_campaign(tmp_path_factory.mktemp("ingest_par"))


def test_bench_ingest_serial(benchmark, clean_paths):
    """Baseline: serial ingest on the calling process (policy=None)."""
    tk, report = benchmark(load_ensemble, clean_paths, on_error="strict")
    assert len(tk.profile) == N_PROFILES
    assert report.jobs == 1


def test_bench_ingest_parallel_jobs4(benchmark, clean_paths):
    """Supervised pool, jobs=4: fork + pickle + supervision overhead."""
    policy = ResiliencePolicy(jobs=4)
    tk, report = benchmark(load_ensemble, clean_paths, on_error="strict",
                           policy=policy)
    assert len(tk.profile) == N_PROFILES
    assert report.jobs == 4
    assert report.timeouts == 0 and report.worker_crashes == 0


def test_parallel_output_matches_serial(clean_paths):
    """Not a timing: the byte-identity contract on the bench campaign."""
    tk_s, _ = load_ensemble(clean_paths, on_error="strict")
    tk_p, _ = load_ensemble(clean_paths, on_error="strict",
                            policy=ResiliencePolicy(jobs=4))
    assert tk_p.to_json() == tk_s.to_json()
