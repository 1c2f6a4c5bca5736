#!/usr/bin/env python3
"""Case study §5.2: MARBL strong scaling + Extra-P modeling, HPC vs cloud.

Generates the Fig. 16 campaign (RZTopaz/OpenMPI and AWS
ParallelCluster/Intel MPI, 1-32 nodes × 5 reps), then:

* reproduces the Fig. 17 strong-scaling series for ``timeStepLoop``;
* fits Fig. 11's Extra-P models for ``M_solver->Mult`` on each system;
* prints the Fig. 18 PCP inverse-correlation signal.

Run:  python examples/marbl_scaling.py [outdir]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from repro import Thicket
from repro.caliper import profile_to_cali_dict
from repro.core.stats import grouped_by_metadata
from repro.model import ExtrapInterface
from repro.readers import read_cali_dict
from repro.viz import crossing_fraction, parallel_coordinates_svg, scaling_plot_svg
from repro.workloads import iter_marbl_profiles


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else \
        Path(tempfile.mkdtemp(prefix="marbl_scaling_"))

    gfs = [read_cali_dict(profile_to_cali_dict(p))
           for p in iter_marbl_profiles()]
    tk = Thicket.from_caliperreader(gfs)
    print(f"loaded {len(tk.profile)} MARBL profiles "
          f"({len(tk.graph)} call-tree nodes)\n")

    # ---- Fig. 17: strong scaling of timeStepLoop --------------------
    loop = tk.get_node("timeStepLoop")
    by_run = grouped_by_metadata(tk, "time per cycle (inc)",
                                 ("numhosts", "mpi"))[loop]
    series: dict[str, dict[int, np.ndarray]] = {}
    for (hosts, mpi), values in by_run.items():
        label = "C5n.18xlarge-IntelMPI" if mpi == "impi" else "CTS1-OpenMPI"
        series.setdefault(label, {})[int(hosts)] = values

    print("=== strong scaling: timeStepLoop time per cycle (s) ===")
    print(f"{'nodes':>6}", *(f"{lbl:>24}" for lbl in series))
    node_counts = sorted(next(iter(series.values())))
    plot_series = {}
    for label, by_nodes in series.items():
        plot_series[label] = (
            node_counts,
            [float(np.mean(by_nodes[n])) for n in node_counts],
        )
    for n in node_counts:
        row = [f"{np.mean(series[lbl][n]):24.3f}" for lbl in series]
        print(f"{n:>6}", *row)
    svg_path = scaling_plot_svg(
        plot_series, title="MARBL Triple-Pt-3D strong scaling").save(
        out_dir / "fig17_scaling.svg")
    print(f"-> {svg_path}\n")

    # ---- Fig. 11: Extra-P models of the solver ----------------------
    print("=== Extra-P models of M_solver->Mult (Avg time/rank) ===")
    for label, mpi in (("CTS", "openmpi"), ("AWS", "impi")):
        sub = tk.filter_metadata(lambda m, mpi=mpi: m["mpi"] == mpi)
        models = ExtrapInterface().model_thicket(
            sub, "mpi.world.size", "Avg time/rank")
        model = models[sub.get_node("M_solver->Mult")]
        print(f"{label}: {model}")
        print(f"     extrapolated to 2304 ranks: "
              f"{model.evaluate(2304):.1f} s/rank")
    print()

    # ---- Fig. 18: PCP over the metadata ------------------------------
    pcp_cols = ["arch", "mpi.world.size", "walltime", "num_elems_max"]
    frame = tk.metadata.select(pcp_cols)
    svg_path = parallel_coordinates_svg(
        frame, pcp_cols, color_by="arch",
        title="MARBL metadata PCP").save(out_dir / "fig18_pcp.svg")
    cross = crossing_fraction(frame, "mpi.world.size", "walltime")
    print("=== PCP reading (Fig. 18) ===")
    print(f"criss-crossing between mpi.world.size and walltime: "
          f"{cross:.0%} of line pairs cross -> inverse correlation "
          f"(more ranks, lower runtime)")
    print(f"-> {svg_path}")


if __name__ == "__main__":
    main()
