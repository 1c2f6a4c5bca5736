"""Shared fixtures: small synthetic ensembles used across the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import Thicket
from repro.caliper import write_cali_json
from repro.graph import GraphFrame
from repro.readers import read_cali_dict
from repro.workloads import (
    AWS_PARALLELCLUSTER,
    LASSEN_GPU,
    QUARTZ,
    RZTOPAZ,
    generate_marbl_profile,
    generate_rajaperf_profile,
)

# A larger example budget for CI (`pytest --hypothesis-profile=ci`).
# It reaches tests that set no `max_examples` of their own, such as the
# reader oracle; tier-1 runs them at hypothesis's default.
settings.register_profile("ci", max_examples=2000)

FIG4_KERNELS = [
    "Apps_NODAL_ACCUMULATION_3D",
    "Apps_VOL3D",
    "Lcals_HYDRO_1D",
    "Stream_DOT",
]

FIG9_KERNELS = FIG4_KERNELS + ["Polybench_GESUMMV"]


@pytest.fixture
def simple_literal():
    """Four-call-site tree of the paper's Fig. 2 (MAIN → FOO/BAR, FOO → BAZ)."""
    return [
        {"frame": {"name": "MAIN"}, "metrics": {"time (exc)": 1.0, "L1": 10.0},
         "children": [
             {"frame": {"name": "FOO"},
              "metrics": {"time (exc)": 2.0, "L1": 20.0},
              "children": [
                  {"frame": {"name": "BAZ"},
                   "metrics": {"time (exc)": 0.5, "L1": 5.0}},
              ]},
             {"frame": {"name": "BAR"},
              "metrics": {"time (exc)": 3.0, "L1": 30.0}},
         ]},
    ]


@pytest.fixture
def simple_gf(simple_literal):
    return GraphFrame.from_literal(simple_literal)


def _raja_gfs(sizes=(1048576, 4194304), compilers=("clang++-9.0.0",),
              opt_level=2, kernels=FIG4_KERNELS, topdown=True, seed0=10):
    gfs = []
    seed = seed0
    for compiler in compilers:
        for size in sizes:
            seed += 1
            prof = generate_rajaperf_profile(
                QUARTZ, size, compiler=compiler, opt_level=opt_level,
                kernels=kernels, topdown=topdown, seed=seed,
                metadata={"user": "John" if seed % 2 else "Jane",
                          "launchdate": f"2022-11-30 02:{seed % 60:02d}:27"},
            )
            gfs.append(read_cali_dict(
                __import__("repro.caliper.writer", fromlist=["x"])
                .profile_to_cali_dict(prof)))
    return gfs


@pytest.fixture
def raja_thicket():
    """4-profile thicket: 2 problem sizes × 2 compilers (Fig. 5 shape)."""
    gfs = _raja_gfs(compilers=("clang++-9.0.0", "xlc-16.1.1.12"))
    return Thicket.from_caliperreader(gfs)


@pytest.fixture
def raja_thicket_10rep():
    """10-profile single-config ensemble (Fig. 9 shape)."""
    gfs = []
    for rep in range(10):
        prof = generate_rajaperf_profile(
            QUARTZ, 4194304, opt_level=2, kernels=FIG9_KERNELS,
            topdown=True, seed=100 + rep, noise=0.15,
            metadata={"rep": rep},
        )
        from repro.caliper.writer import profile_to_cali_dict

        gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
    return Thicket.from_caliperreader(gfs)


@pytest.fixture
def marbl_thicket():
    """Two-cluster MARBL ensemble, 2 reps × 4 node counts."""
    from repro.caliper.writer import profile_to_cali_dict

    gfs = []
    seed = 0
    for machine, mpi in ((RZTOPAZ, "openmpi"), (AWS_PARALLELCLUSTER, "impi")):
        for nodes in (1, 4, 16, 32):
            for rep in range(2):
                seed += 1
                prof = generate_marbl_profile(machine, nodes, rep=rep,
                                              mpi=mpi, seed=seed)
                gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
    return Thicket.from_caliperreader(gfs)


@pytest.fixture
def cuda_thicket():
    """CUDA ensemble across the four block sizes (Fig. 8 union tree)."""
    from repro.caliper.writer import profile_to_cali_dict

    gfs = []
    for i, bs in enumerate((128, 256, 512, 1024)):
        prof = generate_rajaperf_profile(
            LASSEN_GPU, 4194304, variant="CUDA", block_size=bs, seed=50 + i,
        )
        gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
    return Thicket.from_caliperreader(gfs)


@pytest.fixture
def profile_files(tmp_path):
    """Two cali-JSON files on disk for reader/Thicket path tests."""
    paths = []
    for i, size in enumerate((1048576, 4194304)):
        prof = generate_rajaperf_profile(
            QUARTZ, size, kernels=FIG4_KERNELS, seed=7 + i,
        )
        paths.append(write_cali_json(prof, tmp_path / f"p{i}.json"))
    return paths
