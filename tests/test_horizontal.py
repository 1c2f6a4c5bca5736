"""Unit tests for hierarchical (columns-axis) Thicket composition (§3.2.2)."""

import numpy as np
import pytest

from repro import Thicket, concat_thickets
from repro.caliper import profile_to_cali_dict
from repro.readers import read_cali_dict
from repro.workloads import LASSEN_GPU, QUARTZ, generate_rajaperf_profile

KERNELS = ["Apps_VOL3D", "Lcals_HYDRO_1D", "Stream_DOT"]


def make_thicket(machine, sizes, variant="Sequential", seed0=0, **kwargs):
    gfs = []
    for i, size in enumerate(sizes):
        prof = generate_rajaperf_profile(
            machine, size, variant=variant, kernels=KERNELS,
            seed=seed0 + i, **kwargs)
        gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
    return Thicket.from_caliperreader(gfs)


@pytest.fixture
def cpu_tk():
    return make_thicket(QUARTZ, (1048576, 4194304), topdown=True, seed0=1)


@pytest.fixture
def gpu_tk():
    return make_thicket(LASSEN_GPU, (1048576, 4194304), variant="CUDA",
                        seed0=11)


class TestColumnsAxis:
    def test_fig4_composition(self, cpu_tk, gpu_tk):
        tk = concat_thickets([cpu_tk, gpu_tk], axis="columns",
                             headers=["CPU", "GPU"],
                             metadata_key="problem_size",
                             match_on="name")
        assert ("CPU", "time (exc)") in tk.dataframe
        assert ("GPU", "time (gpu)") in tk.dataframe
        assert tk.dataframe.index.names == ["node", "problem_size"]

    def test_rows_matched_on_problem_size(self, cpu_tk, gpu_tk):
        tk = concat_thickets([cpu_tk, gpu_tk], axis="columns",
                             headers=["CPU", "GPU"],
                             metadata_key="problem_size",
                             match_on="name")
        sizes = {t[1] for t in tk.dataframe.index.values}
        assert sizes == {1048576, 4194304}
        # two rows (one per size) for each shared kernel node
        vol3d_rows = [t for t in tk.dataframe.index.values
                      if t[0].name == "Apps_VOL3D"]
        assert len(vol3d_rows) == 2

    def test_inner_join_drops_unshared_nodes(self, cpu_tk, gpu_tk):
        tk = concat_thickets([cpu_tk, gpu_tk], axis="columns",
                             headers=["CPU", "GPU"],
                             metadata_key="problem_size",
                             match_on="name")
        names = {t[0].name for t in tk.dataframe.index.values}
        # CUDA-only block_N leaves have no CPU rows -> dropped by inner join
        assert not any(".block_" in n for n in names)
        assert "Apps_VOL3D" in names

    def test_derived_speedup_column(self, cpu_tk, gpu_tk):
        tk = concat_thickets([cpu_tk, gpu_tk], axis="columns",
                             headers=["CPU", "GPU"],
                             metadata_key="problem_size",
                             match_on="name")
        cpu_t = tk.dataframe.column(("CPU", "time (exc)")).astype(float)
        gpu_t = tk.dataframe.column(("GPU", "time (gpu)")).astype(float)
        with np.errstate(invalid="ignore", divide="ignore"):
            tk.dataframe[("Derived", "speedup")] = cpu_t / gpu_t
        vol3d = [i for i, t in enumerate(tk.dataframe.index.values)
                 if t[0].name == "Apps_VOL3D"]
        sp = tk.dataframe.column(("Derived", "speedup"))[vol3d]
        assert (sp > 1.0).all()

    def test_default_headers_generated(self, cpu_tk, gpu_tk):
        tk = concat_thickets([cpu_tk, gpu_tk], axis="columns",
                             metadata_key="problem_size", match_on="name")
        assert any(c[0] == "thicket_0" for c in tk.dataframe.columns
                   if isinstance(c, tuple))

    def test_path_matching_same_tree(self, cpu_tk):
        other = make_thicket(QUARTZ, (1048576, 4194304), topdown=True,
                             seed0=31)
        tk = concat_thickets([cpu_tk, other], axis="columns",
                             headers=["A", "B"],
                             metadata_key="problem_size")
        names = {t[0].name for t in tk.dataframe.index.values}
        assert "Apps_VOL3D" in names

    def test_bad_match_on(self, cpu_tk, gpu_tk):
        with pytest.raises(ValueError):
            concat_thickets([cpu_tk, gpu_tk], axis="columns",
                            match_on="hash")

    def test_header_count_mismatch(self, cpu_tk, gpu_tk):
        with pytest.raises(ValueError):
            concat_thickets([cpu_tk, gpu_tk], axis="columns", headers=["one"],
                            metadata_key="problem_size")

    def test_needs_two_thickets(self, cpu_tk):
        with pytest.raises(ValueError):
            concat_thickets([cpu_tk], axis="columns")

    def test_bad_axis(self, cpu_tk, gpu_tk):
        with pytest.raises(ValueError):
            concat_thickets([cpu_tk, gpu_tk], axis="diagonal")

    def test_metadata_composed_side_by_side(self, cpu_tk, gpu_tk):
        tk = concat_thickets([cpu_tk, gpu_tk], axis="columns",
                             headers=["CPU", "GPU"],
                             metadata_key="problem_size",
                             match_on="name")
        assert ("CPU", "cluster") in tk.metadata
        assert ("GPU", "cluster") in tk.metadata
        clusters = set(tk.metadata.column(("GPU", "cluster")))
        assert clusters == {"lassen"}


class TestMatchByNameOnFilteredThickets:
    """Filtered thickets keep the full ensemble graph; matching by name
    must only use the nodes they measure."""

    @staticmethod
    def fig15_cpu(g):
        return (g["variant"] == "Sequential"
                and g["compiler"] == "clang++-9.0.0"
                and g["compiler optimizations"] == "-O3" and g["rep"] == 0)

    @staticmethod
    def fig15_gpu(g):
        return (g["variant"] == "CUDA" and g.get("block size") == 256
                and g["rep"] == 0)

    def test_filtered_inputs_compose_like_separate_ones(self):
        from repro.core.filtering import filter_metadata
        from repro.ingest import load_ensemble
        from repro.workloads.campaign import iter_raja_profiles

        raw = list(iter_raja_profiles(scale=0.2, base_seed=1))
        payloads = [profile_to_cali_dict(p) for p in raw]
        full = load_ensemble(payloads).thicket
        kwargs = dict(axis="columns", headers=["CPU", "GPU"],
                      metadata_key="problem_size", match_on="name")

        filtered = concat_thickets([filter_metadata(full, self.fig15_cpu),
                                    filter_metadata(full, self.fig15_gpu)],
                                   **kwargs)
        separate = concat_thickets([
            load_ensemble([pl for pl, p in zip(payloads, raw)
                           if pick(p["globals"])]).thicket
            for pick in (self.fig15_cpu, self.fig15_gpu)], **kwargs)

        shape = (len(separate.profile), len(separate.graph),
                 len(separate.dataframe))
        assert shape == (4, 47, 188)
        assert (len(filtered.profile), len(filtered.graph),
                len(filtered.dataframe)) == shape
        assert filtered.validate().ok


class TestIndexAxis:
    def test_stacks_profiles(self, cpu_tk):
        other = make_thicket(QUARTZ, (2097152, 8388608), topdown=True,
                             seed0=21)
        tk = concat_thickets([cpu_tk, other], axis="index")
        assert len(tk.profile) == 4
        sizes = set(tk.metadata.column("problem_size"))
        assert sizes == {1048576, 2097152, 4194304, 8388608}

    def test_duplicate_profiles_rejected(self, cpu_tk):
        with pytest.raises(ValueError):
            concat_thickets([cpu_tk, cpu_tk], axis="index")
