"""Benchmark entry point.

    python3 perfbench/run.py --workload {compose,eda,serve-mixed} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each run spawns ``worker.py`` processes
with ``PYTHONHASHSEED`` pinned and ``src`` on ``PYTHONPATH``.  Untraced,
three workers run one after another; each sets up and then measures a
third of ``--seconds``.  ``setup_s`` is the median of their set-up
times and the other metrics pool their op latencies.  Traced, a single
worker runs and reports the per-layer metrics.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
gives the sample count behind each metric or, traced, which per-layer
metrics were measured on another workload (``filled_in``).  Scratch
files live under ``.perfbench-work/`` and are removed when the run
ends, except the span trace of a traced run, kept in
``.perfbench-work/traces/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
WORKLOADS = ("compose", "eda", "serve-mixed")
BUDGET_S = 170.0  # the whole run, set-ups included
WORKERS = 3  # measuring workers per untraced run
MIN_OPS = 100  # timed ops per untraced run, so the p90 has 10 above it


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, seconds: float, deadline: float, *flags: str) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    out = workdir / "result.json"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--scale", str(args.scale),
           "--workdir", str(workdir / "data"), "--out", str(out),
           "--trace-out", str(WORK / "traces" /
                              f"{args.workload}-seed{args.seed}.json"),
           *flags, "--spawn-time"]
    cmd.append(repr(time.monotonic()))
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr,
                            stdin=subprocess.DEVNULL, start_new_session=True)
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        # the worker's session holds its server child too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    try:
        if rc is None:
            raise WorkerFailed(f"worker timed out: {' '.join(cmd)}")
        if rc != 0:
            raise WorkerFailed(f"worker exited with {rc}")
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(results: list[dict]) -> tuple[dict, dict]:
    """Pool the workers' latencies into the end-to-end metrics."""
    lat = [x for r in results for x in r["latencies"]]
    passed = sum(r["passed"] for r in results)
    p90 = quantile(lat, 0.9)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": quantile(lat, 0.5) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "ok_ratio": passed / len(lat),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    samples = {name: len(lat) for name in values}
    samples.update(setup_s=len(results), peak_rss_mb=len(results),
                   op_p90_ms_above=sum(x > p90 for x in lat))
    # the same latencies as measured, before rescaling to the reference
    # host speed, and the host speed readings themselves
    raw = [x for r in results for x in r["raw_latencies"]]
    samples["as_measured"] = {
        "setup_s": statistics.median(r["raw_setup_s"] for r in results),
        "ops_per_s": len(raw) / sum(raw),
        "op_p50_ms": quantile(raw, 0.5) * 1e3,
        "op_p90_ms": quantile(raw, 0.9) * 1e3,
        "loop_ms_median": statistics.median(
            x for r in results for x in r["loop_ms"]),
        "loop_ms_readings": sum(len(r["loop_ms"]) for r in results),
    }
    return values, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="campaign scale (below 1 only for the self-test)")
    ap.add_argument("--plant-fault", action="store_true", dest="plant_fault",
                    help="corrupt one expected value (self-test only)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    flags = ["--plant-fault"] if args.plant_fault else []
    try:
        if args.trace:
            res = run_worker(args, args.seconds, deadline, *flags)
            values, samples = res["values"], {"filled_in": res["filled_in"]}
            attempted, failed = res["attempted"], res["failed"]
        else:
            # every worker sets up and measures a share of the run, so
            # setup_s is a median and the loop spans several processes
            results = [run_worker(args, args.seconds / WORKERS, deadline,
                                  "--min-ops", str(-(-MIN_OPS // WORKERS)),
                                  *flags) for _ in range(WORKERS)]
            values, samples = end_to_end(results)
            attempted = samples["ok_ratio"]
            failed = attempted - sum(r["passed"] for r in results)
    except (WorkerFailed, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"samples": samples}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in values.items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
