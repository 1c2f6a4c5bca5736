#!/usr/bin/env python3
"""OpenMP thread-scaling study with multi-parameter models.

The Fig. 13 campaign includes OpenMP rows; this example sweeps both
problem size and thread count on Quartz, loads the ensemble, and fits
Extra-P-style **multi-parameter** models time = f(size, threads) per
kernel — the multi-parameter modeling the paper leaves as the obvious
next step after Fig. 11's single-parameter study.

Run:  python examples/openmp_threads.py
"""

import numpy as np

from repro import Thicket
from repro.caliper import profile_to_cali_dict
from repro.core.stats import grouped_by_metadata
from repro.model.multiparam import model_thicket_multiparam
from repro.readers import read_cali_dict
from repro.workloads import QUARTZ, generate_rajaperf_profile

KERNELS = ["Stream_TRIAD", "Apps_VOL3D", "Lcals_HYDRO_1D"]
SIZES = (1048576, 2097152, 4194304, 8388608)
THREADS = (1, 2, 4, 9, 18, 36)


def main() -> None:
    gfs = []
    seed = 0
    for size in SIZES:
        for threads in THREADS:
            seed += 1
            prof = generate_rajaperf_profile(
                QUARTZ, size, variant="OpenMP", threads=threads,
                kernels=KERNELS, seed=seed, noise=0.01,
            )
            gfs.append(read_cali_dict(profile_to_cali_dict(prof)))
    tk = Thicket.from_caliperreader(gfs)
    print(f"loaded {len(tk.profile)} OpenMP profiles "
          f"({len(SIZES)} sizes x {len(THREADS)} thread counts)\n")

    print("unique metadata dimensions:")
    uniq = tk.get_unique_metadata()
    for col in ("problem_size", "omp num threads"):
        print(f"  {col}: {uniq[col]}")
    print()

    models = model_thicket_multiparam(
        tk, ["problem_size", "omp num threads"], "time (exc)")

    print("=== bulk multi-parameter models: time = f(size, threads) ===")
    print("(single product-term hypotheses; a roofline max() is outside")
    print(" the PMNF family, so expect modest fits for mixed regimes)\n")
    for name in KERNELS:
        model = models[tk.get_node(name)]
        print(f"{name:16s} {model}")
        print(f"{'':16s} R2={model.r_squared:.4f}  "
              f"SMAPE={model.smape:.2f}%\n")

    # measured thread-scaling at the largest size, straight from the data
    times = grouped_by_metadata(tk, "time (exc)",
                                ("problem_size", "omp num threads"))

    def measured(kernel, threads):
        return float(np.mean(times[tk.get_node(kernel)][(8388608, threads)]))

    print("=== measured 1 -> 36 thread speedup at size 8388608 ===")
    for name in KERNELS:
        s1, s36 = measured(name, 1), measured(name, 36)
        print(f"{name:16s} {s1 / s36:5.2f}x")
    triad = measured("Stream_TRIAD", 1) / measured("Stream_TRIAD", 36)
    vol3d = measured("Apps_VOL3D", 1) / measured("Apps_VOL3D", 36)
    print(f"\nobservation: bandwidth-bound Stream_TRIAD saturates at "
          f"{triad:.1f}x while compute-dense Apps_VOL3D reaches "
          f"{vol3d:.1f}x — the memory wall limits streaming kernels.")


if __name__ == "__main__":
    main()
