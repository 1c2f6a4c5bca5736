#!/usr/bin/env bash
# Repo health check: tier-1 tests, warning-clean bytecode compilation,
# static analysis, the paper-figure benchmarks, the differential
# oracles on a CI example budget, a smoke run of the observability
# stack, durable-store recovery, a
# supervised-parallel chaos smoke (hang + worker crash), the perf
# sentinel, a serve lifecycle smoke (admission, shedding, drain,
# kill -9 recovery), and a client-chaos smoke (repro remote against a
# fault-injecting server: exactly-once ingest under retries, hedged
# tail latency).
#
# Usage: scripts/check.sh  (from anywhere; cd's to the repo root)

set -euo pipefail

cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# one scratch root for every smoke below, removed however the run ends
SCRATCH=$(mktemp -d)
trap 'rm -rf "$SCRATCH"' EXIT

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== compileall (warnings are errors) =="
python -W error -m compileall -q src

echo "== static analysis (repro lint, whole-program) =="
# Hard gate: the source tree must carry zero unsuppressed findings —
# per-file rules and the interprocedural concurrency/exception-flow
# rules (the project pass is on by default for a directory).
# LINT_OUT / LINT_SARIF can point at CI workspace paths for upload.
LINT_OUT="${LINT_OUT:-$(pwd)/lint-report.json}"
LINT_SARIF="${LINT_SARIF:-$(pwd)/lint-report.sarif}"
python -m repro lint src/repro --json --sarif "$LINT_SARIF" \
    > "$LINT_OUT" || true
python -m repro lint src/repro
# incremental-cache smoke: a warm run over the unchanged tree must be
# all cache hits and measurably faster than a cold parse
python - <<'PY'
import time

from repro.lint import run_lint

t0 = time.perf_counter()
cold = run_lint(["src/repro"], project=True)  # no cache: parse everything
t1 = time.perf_counter()
warm = run_lint(["src/repro"], project=True,
                cache_dir=".repro-lint-cache")
t2 = time.perf_counter()
assert warm.ok == cold.ok
assert warm.cache_misses == 0, f"{warm.cache_misses} misses on warm run"
assert warm.cache_hits == warm.n_files, warm.cache_hits
assert (t2 - t1) < (t1 - t0), (
    f"warm lint ({t2 - t1:.2f}s) not faster than cold ({t1 - t0:.2f}s)")
print(f"lint cache: cold {t1 - t0:.2f}s, warm {t2 - t1:.2f}s "
      f"({warm.cache_hits} file(s) from cache)")
PY

echo "== paper-figure benchmarks and differential oracles =="
# every benchmark's shape assertions (the paper figures, ablations and
# the fault-tolerant ingestion benchmark), timings off
python -m pytest benchmarks -q --benchmark-disable
# the fused cali-JSON parser against the frozen validator + reader pair,
# the code-keyed frame and composition against the frozen tuple-keyed
# reference, and the per-node partitions (statistics, groupby, row
# selection, grouping by metadata) against naive dict-of-lists
# references, on a larger example budget than tier-1 gives
python -m pytest tests/test_reader_oracle.py -q --hypothesis-profile=ci
python -m pytest tests/test_frame_oracle.py -q --hypothesis-profile=ci
python -m pytest tests/test_partition_oracle.py -q --hypothesis-profile=ci

echo "== observability smoke (traced ingest + repro obs) =="
# Trace a small campaign ingest end to end, then validate the emitted
# Chrome trace with the obs subcommand and the Thicket round-trip.
# TRACE_OUT can be pointed at a CI workspace path for artifact upload.
TRACE_OUT="${TRACE_OUT:-$(pwd)/trace-smoke.json}"
OBS_CAMPAIGN="$SCRATCH/obs"
mkdir "$OBS_CAMPAIGN"
python - "$OBS_CAMPAIGN" <<'PY'
import sys
from pathlib import Path

from repro.caliper import write_cali_json
from repro.workloads import QUARTZ, generate_rajaperf_profile

out = Path(sys.argv[1])
for i in range(8):
    prof = generate_rajaperf_profile(
        QUARTZ, 1048576 * (1 + i % 2),
        kernels=["Stream_DOT", "Apps_VOL3D"], seed=900 + i,
        metadata={"rep": i})
    write_cali_json(prof, out / f"p{i}.json")
PY
python -m repro --trace "$TRACE_OUT" --log-level info \
    ingest "$OBS_CAMPAIGN"
python -m repro obs "$TRACE_OUT" --tree
python - "$TRACE_OUT" <<'PY'
import sys

import repro.obs as obs

tk = obs.to_thicket(sys.argv[1])
assert "ingest.load_ensemble" in {n.frame.name for n in tk.graph.traverse()}
print(f"trace round-trips as {tk}")
PY

echo "== durable-store recovery smoke =="
# Save a thicket, corrupt the store, and require `repro validate` to
# flag it with the dedicated exit code; then interrupt a checkpointed
# ingest mid-campaign and require the re-run to resume the remainder
# and compose the same thicket, and require a serial re-run to resume
# every profile of a jobs=2 run's checkpoint.
STORE_DIR="$SCRATCH/store"
mkdir "$STORE_DIR"
python -m repro ingest "$OBS_CAMPAIGN" \
    --save "$STORE_DIR/tk.json" >/dev/null
python -m repro validate "$STORE_DIR/tk.json"
# save -> load -> save is byte-identical, and a re-indented copy (no
# longer the exact envelope the writer emits) still validates through
# the loader's full-parse fallback and re-saves to the original bytes
python - "$STORE_DIR" <<'PY'
import json
import sys
from pathlib import Path

from repro.core.io import load_thicket, save_thicket

d = Path(sys.argv[1])
original = (d / "tk.json").read_bytes()
save_thicket(load_thicket(d / "tk.json"), d / "resaved.json")
assert (d / "resaved.json").read_bytes() == original, "re-save differs"
with open(d / "reindented.json", "w") as fh:
    json.dump(json.loads(original), fh, indent=1, sort_keys=True)
save_thicket(load_thicket(d / "reindented.json"), d / "resaved.json")
assert (d / "resaved.json").read_bytes() == original, "re-indent differs"
print("store re-saves byte-identically, also from a re-indented copy")
PY
python -m repro validate "$STORE_DIR/reindented.json" >/dev/null
echo "re-indented store validates"
python - "$STORE_DIR/tk.json" <<'PY'
import sys

from repro.workloads import corrupt_store

corrupt_store(sys.argv[1], "byte_flip", seed=7)
PY
rc=0
python -m repro validate "$STORE_DIR/tk.json" 2>/dev/null || rc=$?
if [ "$rc" -ne 4 ]; then
    echo "FAIL: corrupted store exited $rc, expected 4" >&2
    exit 1
fi
echo "corrupt store rejected with exit code 4"
python - "$OBS_CAMPAIGN" "$STORE_DIR" <<'PY'
import sys
from pathlib import Path

import repro.ingest.pipeline as pipe
from repro.ingest import load_ensemble
from repro.resilience import ResiliencePolicy

campaign = sorted(Path(sys.argv[1]).glob("*.json"))
ckpt = Path(sys.argv[2]) / "ckpt"
baseline = load_ensemble(campaign).thicket.to_json()

real_read, reads = pipe._read_text, 0

def crash_after_3(path):
    global reads
    if reads >= 3:
        raise KeyboardInterrupt("simulated interrupt")
    reads += 1
    return real_read(path)

pipe._read_text = crash_after_3
try:
    load_ensemble(campaign, checkpoint=ckpt)
except KeyboardInterrupt:
    pass
finally:
    pipe._read_text = real_read

tk, report = load_ensemble(campaign, checkpoint=ckpt)
assert report.n_resumed == 3, report.n_resumed
assert tk.to_json() == baseline, "resumed thicket differs from from-scratch"
print(f"interrupted ingest resumed {report.n_resumed} profile(s), "
      f"re-read {len(campaign) - report.n_resumed}, thicket identical")

# a pool run journals the same payloads a serial run does, so a serial
# re-run resumes all of them and composes the serial thicket
pool_ckpt = Path(sys.argv[2]) / "pool-ckpt"
load_ensemble(campaign, checkpoint=pool_ckpt,
              policy=ResiliencePolicy(jobs=2))
tk, report = load_ensemble(campaign, checkpoint=pool_ckpt)
assert report.n_resumed == len(campaign) == 8, report.n_resumed
assert tk.to_json() == baseline, "pool checkpoint resumes a different thicket"
print(f"jobs=2 checkpoint resumed {report.n_resumed} profile(s) serially, "
      f"thicket identical")
PY

echo "== chaos smoke (supervised parallel ingest) =="
# Inject one hang and one worker crash into a small campaign, run a
# supervised parallel ingest, and require: exit code 3 (partial
# ingest), both failures attributed with the right error types, and
# every healthy profile loaded.
CHAOS_DIR="$SCRATCH/chaos"
mkdir "$CHAOS_DIR"
python - "$CHAOS_DIR" <<'PY'
import sys
from pathlib import Path

from repro.caliper import write_cali_json
from repro.workloads import (
    QUARTZ,
    generate_rajaperf_profile,
    inject_hang,
    inject_worker_crash,
)

out = Path(sys.argv[1])
paths = []
for i in range(8):
    prof = generate_rajaperf_profile(
        QUARTZ, 1048576 * (1 + i % 2),
        kernels=["Stream_DOT", "Apps_VOL3D"], seed=1200 + i,
        metadata={"rep": i})
    paths.append(write_cali_json(prof, out / f"p{i}.json"))
inject_hang(paths[2], seconds=30.0)
inject_worker_crash(paths[5])
PY
CHAOS_REPORT="$STORE_DIR/chaos-report.json"  # NOT in the campaign dir
CHAOS_CKPT="$SCRATCH/chaos-ckpt"
rc=0
python -m repro ingest "$CHAOS_DIR" --jobs 2 --task-timeout 2 \
    --on-error collect --checkpoint "$CHAOS_CKPT" --json \
    > "$CHAOS_REPORT" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: chaos ingest exited $rc, expected 3 (partial)" >&2
    exit 1
fi
python - "$CHAOS_REPORT" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))
by_type = {}
for q in doc["quarantined"]:
    by_type.setdefault(q["error_type"], []).append(q["source"])
assert doc["execution"]["jobs"] == 2, doc["execution"]
assert doc["execution"]["timeouts"] == 1, doc["execution"]
assert doc["execution"]["worker_crashes"] == 1, doc["execution"]
assert sorted(by_type) == ["TaskTimeoutError", "WorkerCrashError"], by_type
assert len(doc["loaded"]) == 6, len(doc["loaded"])
print("chaos ingest: 6/8 loaded, hang and crash both attributed, "
      "exit code 3")
PY
# the same command again resumes from the journal: both quarantines
# come back as the same typed errors (journal record -> rebuilt error)
# and nothing is re-run, so the 30 s hang is not waited out
CHAOS_RESUMED="$STORE_DIR/chaos-resumed.json"
rc=0
SECONDS=0
python -m repro ingest "$CHAOS_DIR" --jobs 2 --task-timeout 2 \
    --on-error collect --checkpoint "$CHAOS_CKPT" --json \
    > "$CHAOS_RESUMED" || rc=$?
if [ "$rc" -ne 3 ]; then
    echo "FAIL: resumed chaos ingest exited $rc, expected 3" >&2
    exit 1
fi
if [ "$SECONDS" -ge 20 ]; then
    echo "FAIL: resumed chaos ingest took ${SECONDS}s; it re-ran a task" >&2
    exit 1
fi
python - "$CHAOS_REPORT" "$CHAOS_RESUMED" <<'PY'
import json
import sys

first, again = (json.load(open(p)) for p in sys.argv[1:3])
key = lambda q: (q["source"], q["stage"], q["error_type"])
assert sorted(map(key, again["quarantined"])) == \
    sorted(map(key, first["quarantined"])), again["quarantined"]
assert again["checkpoint"]["resumed_quarantined"] == 2, again["checkpoint"]
assert again["checkpoint"]["resumed"] == 6, again["checkpoint"]
print("chaos resume: both quarantines rebuilt from the journal with "
      "their types, sources and stages, exit code 3")
PY

echo "== perf sentinel smoke (record, check, staged regression) =="
# Trace `repro ingest` runs of a small generated campaign: record two as
# the baseline, require three clean candidates to pass, then inject a
# compute slowdown into the campaign and require three fresh traces to
# be flagged with exit code 6.  The first slowed run also writes the
# sampling profiler's flamegraph, so the two CI artifacts go together:
# the verdict names the regressed node, the flamegraph shows where
# inside it the time went.
# VERDICT_OUT / PROFILE_OUT can point at CI workspace paths for upload.
VERDICT_OUT="${VERDICT_OUT:-$(pwd)/perf-verdict.json}"
PROFILE_OUT="${PROFILE_OUT:-$(pwd)/perf-flamegraph.collapsed}"
PERF_DIR="$SCRATCH/perf"
mkdir "$PERF_DIR"
python - "$PERF_DIR/profiles" <<'PY'
import sys

from repro.workloads import RAJA_CAMPAIGN, write_raja_campaign

paths = write_raja_campaign(sys.argv[1], campaign=RAJA_CAMPAIGN[:1],
                            scale=0.05)
print(f"perf campaign: {len(paths)} profiles")
PY
traced_ingest() {  # traced_ingest TRACE [global flags...]
    local trace=$1
    shift
    python -m repro "$@" --trace "$trace" ingest "$PERF_DIR/profiles" \
        >/dev/null
}
PERF_STORE=(--store "$PERF_DIR/history")
traced_ingest "$PERF_DIR/base-1.json"
traced_ingest "$PERF_DIR/base-2.json"
python -m repro perf record "${PERF_STORE[@]}" --label seed \
    "$PERF_DIR"/base-*.json
traced_ingest "$PERF_DIR/clean-1.json"
traced_ingest "$PERF_DIR/clean-2.json"
traced_ingest "$PERF_DIR/clean-3.json"
python -m repro perf check "${PERF_STORE[@]}" --out "$VERDICT_OUT" \
    "$PERF_DIR"/clean-*.json
# a trace with no completed spans is a command failure (exit 1) and
# leaves the history as it was
echo '{"traceEvents": []}' > "$PERF_DIR/no-spans.json"
rc=0
python -m repro perf record "${PERF_STORE[@]}" "$PERF_DIR/no-spans.json" \
    || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "FAIL: recording a span-less trace exited $rc, expected 1" >&2
    exit 1
fi
python -m repro perf history "${PERF_STORE[@]}" --json \
    > "$PERF_DIR/history.json"
python - "$PERF_DIR/history.json" <<'PY'
import json
import sys

runs = [r["run_id"] for r in json.load(open(sys.argv[1]))]
assert runs == ["run-000001", "run-000002"], runs
print("span-less trace refused with exit code 1; history still 2 runs")
PY
python -m repro perf history "${PERF_STORE[@]}"
python - "$PERF_DIR/profiles" <<'PY'
import sys
from pathlib import Path

from repro.workloads import inject_slowdown

victim = sorted(Path(sys.argv[1]).glob("*.json"))[0]
inject_slowdown(victim, seconds=0.5)
print(f"staged compute regression in {victim.name}")
PY
traced_ingest "$PERF_DIR/slow-1.json" \
    --profile 100 --profile-out "$PROFILE_OUT"
if [ ! -s "$PROFILE_OUT" ]; then
    echo "FAIL: no flamegraph written to $PROFILE_OUT" >&2
    exit 1
fi
if grep -Evq '^.+ [0-9]+$' "$PROFILE_OUT"; then
    echo "FAIL: $PROFILE_OUT is not in collapsed-stack format" >&2
    exit 1
fi
traced_ingest "$PERF_DIR/slow-2.json"
traced_ingest "$PERF_DIR/slow-3.json"
rc=0
python -m repro perf check "${PERF_STORE[@]}" --out "$VERDICT_OUT" \
    "$PERF_DIR"/slow-*.json || rc=$?
if [ "$rc" -ne 6 ]; then
    echo "FAIL: staged regression exited $rc, expected 6" >&2
    exit 1
fi
python - "$VERDICT_OUT" <<'PY'
import json
import sys

doc = json.load(open(sys.argv[1]))
assert doc["ok"] is False
nodes = [r["node"] for r in doc["regressions"]]
assert "ingest.profile" in nodes, nodes
print(f"staged regression caught: {nodes[0]} "
      f"({doc['regressions'][0]['relative_change']:+.1%}), exit code 6")
PY

echo "== serve smoke (concurrency, shed, drain, kill -9 recovery) =="
# Start the analysis daemon against a real store and require, in order:
# concurrent clients all served 200, a saturated queue shed with a
# typed 429 + Retry-After, SIGTERM draining to exit code 0 (with the
# server's own trace written), and kill -9 leaving a store that
# `repro validate` passes and a restarted server picks up cleanly.
# SERVE_TRACE_OUT can point at a CI workspace path for upload.
SERVE_TRACE_OUT="${SERVE_TRACE_OUT:-$(pwd)/serve-trace.json}"
SERVE_DIR="$SCRATCH/serve"
mkdir "$SERVE_DIR"
python -m repro ingest "$OBS_CAMPAIGN" \
    --save "$SERVE_DIR/stores/demo.json" >/dev/null

serve_port() {  # wait for the startup banner, echo the bound port
    for _ in $(seq 100); do
        port=$(sed -n 's|.*http://[^:]*:\([0-9]*\).*|\1|p' "$1")
        [ -n "$port" ] && { echo "$port"; return 0; }
        sleep 0.1
    done
    echo "FAIL: serve banner never appeared in $1" >&2
    return 1
}

# phase 1: a generously provisioned server takes a concurrent burst
# with zero sheds, then SIGTERM drains to exit 0 with its trace written
python -m repro --trace "$SERVE_TRACE_OUT" serve \
    --store "$SERVE_DIR/stores" --port 0 --workers 4 --queue-limit 32 \
    --drain-deadline 10 \
    2> "$SERVE_DIR/serve-1.log" &
SERVE_PID=$!
SERVE_PORT=$(serve_port "$SERVE_DIR/serve-1.log")
python - "$SERVE_PORT" <<'PY'
import http.client
import json
import sys
import threading

port = int(sys.argv[1])

def request(method, path, body=None, timeout=10.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()

status, body, _ = request("GET", "/healthz")
assert status == 200, (status, body)

results = []
def worker():
    results.append(request("POST", "/v1/query", {
        "dataset": "demo",
        "query": 'MATCH (".", p) WHERE p."name" =~ "Stream.*"'}))
threads = [threading.Thread(target=worker) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert len(results) == 8
for status, body, _ in results:
    assert status == 200, (status, body)
    assert body["matched_nodes"] >= 1, body
print("serve smoke: 8 concurrent queries all 200")
PY
kill -TERM "$SERVE_PID"
rc=0
wait "$SERVE_PID" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "FAIL: SIGTERM drain exited $rc, expected 0" >&2
    exit 1
fi
if [ ! -s "$SERVE_TRACE_OUT" ]; then
    echo "FAIL: no serve trace written to $SERVE_TRACE_OUT" >&2
    exit 1
fi
echo "serve smoke: SIGTERM drained to exit 0, trace at $SERVE_TRACE_OUT"

# phase 2: a tiny-queue server is wedged with injected hangs and must
# shed the next request with a typed 429 queue_full + Retry-After,
# then survive kill -9 with the store intact
python -m repro serve --store "$SERVE_DIR/stores" --port 0 \
    --workers 2 --queue-limit 1 --request-timeout 2 \
    2> "$SERVE_DIR/serve-2.log" &
SERVE_PID=$!
SERVE_PORT=$(serve_port "$SERVE_DIR/serve-2.log")
python - "$SERVE_PORT" <<'PY'
import http.client
import json
import sys
import threading

port = int(sys.argv[1])

def request(method, path, body=None, timeout=10.0, client=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"}
        if client is not None:
            headers["X-Client-Id"] = client
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()), dict(resp.getheaders())
    finally:
        conn.close()

# wedge both workers plus the 1-slot queue with a sustained stream of
# injected hangs (expired queue items are discarded, not executed, so
# a one-shot volley of three would let the wedge lapse after one
# request timeout; distinct client ids keep the hammer's failures from
# tripping the probe client's breaker)
hang = {"name": "wedge", "overwrite": True, "profiles": [
    {"__repro_fault__": {"mode": "hang", "seconds": 3.0}, "payload": {}}]}
stop = threading.Event()

def hammer(n):
    while not stop.is_set():
        try:
            request("POST", "/v1/ingest", hang, client=f"wedge-{n}")
        except OSError:
            pass

hangers = [threading.Thread(target=hammer, args=(n,), daemon=True)
           for n in range(4)]
for t in hangers:
    t.start()
shed = None
try:
    for _ in range(100):
        status, body, headers = request("POST", "/v1/query", {
            "dataset": "demo", "query": 'MATCH (".", p)'},
            client="probe")
        if status == 429 and body["error"]["code"] == "queue_full":
            shed = status, body, headers
            break
finally:
    stop.set()
assert shed is not None, "queue never saturated into a 429 queue_full"
status, body, headers = shed
assert "Retry-After" in headers, headers
for t in hangers:
    t.join(timeout=15.0)
print(f"serve smoke: saturated queue shed with 429 "
      f"(Retry-After: {headers['Retry-After']})")
PY
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
python -m repro validate "$SERVE_DIR/stores/demo.json"
python -m repro serve --store "$SERVE_DIR/stores" --port 0 \
    2> "$SERVE_DIR/serve-3.log" &
SERVE_PID=$!
SERVE_PORT=$(serve_port "$SERVE_DIR/serve-3.log")
python - "$SERVE_PORT" <<'PY'
import http.client
import json
import sys

conn = http.client.HTTPConnection("127.0.0.1", int(sys.argv[1]), timeout=10.0)
conn.request("POST", "/v1/query", body=json.dumps(
    {"dataset": "demo", "query": 'MATCH (".", p)'}),
    headers={"Content-Type": "application/json"})
resp = conn.getresponse()
body = json.loads(resp.read())
assert resp.status == 200, (resp.status, body)
conn.close()
print("serve smoke: post-kill-9 restart validates and serves")
PY
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"

echo "== client-chaos smoke (repro remote vs fault injection) =="
# Run the resilient CLI client against a FlakyServer injecting dropped
# connections, 500s, and duplicate deliveries at 30%, and require:
# `repro remote ingest` retried to success (exit 0) with *exactly one*
# server-side execution (store profile count exact), query/health
# succeeding through the same fault mix, and the client's own trace
# written.  Then a same-seed slow-replica pair must show hedged reads
# beating un-hedged reads at p99.
# CLIENT_TRACE_OUT can point at a CI workspace path for upload.
CLIENT_TRACE_OUT="${CLIENT_TRACE_OUT:-$(pwd)/client-trace.json}"
CLIENT_DIR="$SCRATCH/client"
mkdir "$CLIENT_DIR"
python - "$CLIENT_DIR/stores" 31 0.3 \
    drop_connection,http_500,duplicate_delivery \
    2> "$CLIENT_DIR/flaky.log" <<'PY' &
import signal
import sys
import threading

from repro.serve import AnalysisService, WorkerPool
from repro.workloads import FlakyServer

store, seed, rate, modes = sys.argv[1:5]
service = AnalysisService(
    store,
    pool=WorkerPool(workers=4, queue_limit=32, task_timeout=10.0),
    request_timeout=10.0)
flaky = FlakyServer(service, fault_rate=float(rate),
                    modes=tuple(modes.split(",")), seed=int(seed))
flaky.start()
print(f"flaky server listening on {flaky.url}", file=sys.stderr,
      flush=True)
stop = threading.Event()
signal.signal(signal.SIGTERM, lambda *_: stop.set())
stop.wait()
print(f"flaky server injected: {flaky.to_dict()}", file=sys.stderr,
      flush=True)
flaky.close()
PY
FLAKY_PID=$!
FLAKY_PORT=$(serve_port "$CLIENT_DIR/flaky.log")
FLAKY_URL="http://127.0.0.1:$FLAKY_PORT"
REMOTE=(--url "$FLAKY_URL" --timeout 60 --attempt-timeout 10 \
    --max-attempts 8 --retry-budget 16)
python -m repro --trace "$CLIENT_TRACE_OUT" remote ingest \
    "${REMOTE[@]}" --dataset chaos "$OBS_CAMPAIGN"/*.json >/dev/null
python -m repro remote query "${REMOTE[@]}" --dataset chaos \
    --query 'MATCH (".", p) WHERE p."name" = "Stream_DOT"' >/dev/null
python -m repro remote health "${REMOTE[@]}" >/dev/null
kill -TERM "$FLAKY_PID"
wait "$FLAKY_PID" || true
if [ ! -s "$CLIENT_TRACE_OUT" ]; then
    echo "FAIL: no client trace written to $CLIENT_TRACE_OUT" >&2
    exit 1
fi
python - "$CLIENT_DIR/stores/chaos.json" "$OBS_CAMPAIGN" <<'PY'
import sys
from pathlib import Path

from repro import Thicket

tk = Thicket.load(sys.argv[1])
expected = len(list(Path(sys.argv[2]).glob("*.json")))
assert len(tk.profile) == expected, (
    f"exactly-once violated: {len(tk.profile)} profiles in store, "
    f"{expected} ingested")
print(f"client-chaos smoke: ingest through 30% faults exactly once "
      f"({expected} profiles, store exact), query + health ok")
PY
python <<'PY'
# hedged vs un-hedged tail latency on a same-seed slow replica: 30% of
# responses stall 0.5 s mid-body; the hedged client fires a backup leg
# after 50 ms and must win the tail.
import tempfile
import time

from repro.client import ClientPolicy, ReproClient
from repro.serve import AnalysisService, WorkerPool
from repro.workloads import FlakyServer


def p99(samples):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


def measure(hedge):
    with tempfile.TemporaryDirectory() as store:
        service = AnalysisService(
            store,
            pool=WorkerPool(workers=4, queue_limit=32, task_timeout=10.0),
            request_timeout=10.0)
        policy = ClientPolicy(hedge=hedge, hedge_delay=0.05,
                              attempt_timeout=5.0, backoff=0.01,
                              backoff_jitter=0.0,
                              retry_budget_capacity=64.0)
        flaky = FlakyServer(service, modes=("slow_body",),
                            fault_rate=0.3, seed=3, slow_delay=0.5)
        latencies = []
        with flaky:
            with ReproClient(flaky.url, policy=policy) as client:
                for _ in range(30):
                    start = time.perf_counter()
                    client.request("GET", "/v1/datasets")
                    latencies.append(time.perf_counter() - start)
                return latencies, client.hedges, client.hedge_wins


unhedged, _, _ = measure(False)
hedged, hedges, wins = measure(True)
slow, fast = p99(unhedged), p99(hedged)
assert hedges > 0 and wins > 0, (hedges, wins)
assert fast < slow, (
    f"hedging did not beat the tail: hedged p99 {fast:.3f}s vs "
    f"un-hedged p99 {slow:.3f}s")
print(f"client-chaos smoke: hedged p99 {fast * 1000:.0f}ms < "
      f"un-hedged p99 {slow * 1000:.0f}ms "
      f"({hedges} hedges, {wins} wins)")
PY

echo "== all checks passed =="
