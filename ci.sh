#!/usr/bin/env bash
# Local CI: the tier-1 verify (build + full test suite), a parallel-engine
# determinism smoke, plus separate AddressSanitizer/UBSan and
# ThreadSanitizer builds of the test binary. Run from the repo root.
#
#   ./ci.sh           # tier-1 + smokes + asan + tsan
#   ./ci.sh --fast    # tier-1 + smokes only
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: build + ctest =="
cmake -B build -S . > /dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== telemetry smoke: --emit-json / --trace-jsonl =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
./build/bench/tbl_publish_cost --seeds 1 \
  --emit-json "${SMOKE_DIR}/BENCH_tbl_publish_cost.json" > /dev/null
./build/bench/tbl_routing --log-level error \
  --emit-json "${SMOKE_DIR}/BENCH_tbl_routing.json" > /dev/null
./build/bench/tbl_faults --seeds 1 \
  --emit-json "${SMOKE_DIR}/BENCH_tbl_faults.json" \
  --trace-jsonl "${SMOKE_DIR}/trace.jsonl" > /dev/null 2> /dev/null
python3 - "${SMOKE_DIR}" <<'PYEOF'
import json, sys, glob, os
smoke_dir = sys.argv[1]
records = sorted(glob.glob(os.path.join(smoke_dir, "BENCH_*.json")))
assert len(records) == 3, f"expected 3 run records, got {records}"
for path in records:
    with open(path) as f:
        doc = json.load(f)
    for key in ("schema", "bench", "git_rev", "snapshot_format", "config",
                "tables", "phases"):
        assert key in doc, f"{path}: missing key {key!r}"
    assert doc["tables"], f"{path}: no tables recorded"
    if doc["bench"] in ("tbl_publish_cost", "tbl_faults"):
        assert any(p["name"] == "hierarchy_build" for p in doc["phases"]), \
            f"{path}: no hierarchy_build phase timing"
trace_path = os.path.join(smoke_dir, "trace.jsonl")
events = [json.loads(line) for line in open(trace_path)]
assert events, "trace.jsonl is empty"
assert all("ev" in e and "i" in e for e in events)
kinds = {e["ev"] for e in events}
assert "climb_hop" in kinds or "msg_send" in kinds, kinds
print(f"telemetry smoke ok: {len(records)} run records, "
      f"{len(events)} trace events, kinds={len(kinds)}")
PYEOF

echo "== parallel smoke: figures at --threads 1 vs --threads 4 =="
# fig09 checks the detection store's load accounting with MOT-LB
# delegates; fig12 runs the concurrent engine.
PAR_ARGS=(--sizes 16,64 --seeds 2 --moves 20 --log-level error)
for FIG in fig04_maint_100 fig06_query_100 fig09_load_maint_stun \
    fig12_maint_conc_100; do
  for THREADS in 1 4; do
    "./build/bench/${FIG}" --threads "${THREADS}" "${PAR_ARGS[@]}" \
      --csv "${SMOKE_DIR}/${FIG}_t${THREADS}.csv" > /dev/null
  done
  diff "${SMOKE_DIR}/${FIG}_t1.csv" "${SMOKE_DIR}/${FIG}_t4.csv" \
    || { echo "${FIG} output differs between 1 and 4 threads"; exit 1; }
done
echo "parallel smoke ok: fig04/06/09/12 CSVs byte-identical at 1 and 4 threads"

echo "== throughput: batched >= unbatched + worker-count byte-identity =="
# Short sustained run; the bench exits nonzero if the batched engine is
# slower than the unbatched baseline, if batching changes any locate
# answer (digest parity), or if the per-shard figure table differs
# across 1/2/4 workers. The committed BENCH_throughput.json tracks the
# full-size figure; this stage only guards the direction of the win.
THROUGHPUT_LOG="${SMOKE_DIR}/throughput.log"
if ! ./build/bench/micro_throughput --objects 32 --moves 40 --seeds 5 \
    --assert-speedup 1.0 --log-level error \
    > "${THROUGHPUT_LOG}" 2>&1; then
  echo "throughput stage failed:"
  cat "${THROUGHPUT_LOG}"
  exit 1
fi
echo "throughput ok: batched >= unbatched, shard tables worker-count invariant"

echo "== cluster: 4-process loopback parity + mixed-version interop =="
# cluster_runner forks four shard processes, serves the seeded move/query
# workload over loopback TCP, and exits nonzero unless every answer,
# per-node load, and meter matches the single-process simulator.
./build/bench/cluster_runner --shards 4 --log-level error \
  > "${SMOKE_DIR}/cluster.log" 2>&1 \
  || { cat "${SMOKE_DIR}/cluster.log"; exit 1; }
# Interop smoke: odd shards encode at kWireVersionFuture; current peers
# must skip the unknown fields and parity must still hold.
./build/bench/cluster_runner --shards 4 --future-shard --log-level error \
  > "${SMOKE_DIR}/cluster_mixed.log" 2>&1 \
  || { cat "${SMOKE_DIR}/cluster_mixed.log"; exit 1; }
echo "cluster ok: 4-process parity exact, mixed-version interop exact"

echo "== observability: traced cluster -> trace_analyze + flight smoke =="
# A traced 4-shard run leaves per-shard span streams plus a merged
# telemetry registry; trace_analyze exits nonzero if any span tree is
# disconnected, a wire frame vanished between shards, or the span-summed
# cost disagrees with the meter recorded in the status JSON.
OBS_DIR="${SMOKE_DIR}/obs"
mkdir -p "${OBS_DIR}"
./build/bench/cluster_runner --shards 4 --steps 25 --log-level error \
  --trace-dir "${OBS_DIR}" --status-json "${OBS_DIR}/status.json" \
  > "${SMOKE_DIR}/cluster_traced.log" 2>&1 \
  || { cat "${SMOKE_DIR}/cluster_traced.log"; exit 1; }
./build/bench/trace_analyze --status-json "${OBS_DIR}/status.json" \
  "${OBS_DIR}"/shard-*.jsonl \
  || { echo "trace_analyze rejected the traced cluster run"; exit 1; }
# Flight-recorder smoke: SIGTERM one shard mid-run; the runner verifies
# the graceful degradation and the handler's dump, python verifies the
# dump file decodes as trace JSONL with the flight_dump header first.
FLIGHT_DIR="${SMOKE_DIR}/flight"
mkdir -p "${FLIGHT_DIR}"
./build/bench/cluster_runner --shards 3 --kill-shard 1 --log-level error \
  --trace-dir "${FLIGHT_DIR}" > "${SMOKE_DIR}/kill_shard.log" 2>&1 \
  || { cat "${SMOKE_DIR}/kill_shard.log"; exit 1; }
python3 - "${FLIGHT_DIR}/flight-1.jsonl" <<'PYEOF'
import json, sys
events = [json.loads(line) for line in open(sys.argv[1])]
assert events, "flight dump is empty"
head = events[0]
assert head["ev"] == "flight_dump" and head["label"] == "sigterm", head
assert head["aux"] == len(events) - 1, (head["aux"], len(events))
print(f"flight dump ok: {len(events) - 1} events preserved at sigterm")
PYEOF
echo "observability ok: span trees connected, cost reconciled, flight dump decodable"

if [[ "${1:-}" == "--fast" ]]; then
  echo "== skipped sanitizer stages (--fast) =="
  exit 0
fi

echo "== sanitizers: asan+ubsan mot_tests =="
cmake -B build-asan -S . -DMOT_SANITIZE=ON -DCMAKE_BUILD_TYPE=Debug > /dev/null
cmake --build build-asan -j "${JOBS}" --target mot_tests
# halt_on_error so UBSan findings fail the run rather than scroll past.
# The full binary includes the wire hardening suites (truncation,
# corruption, garbage decoding), so every typed-error path runs under
# asan+ubsan here.
UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/mot_tests --gtest_brief=1

echo "== chaos: bounded schedule exploration under asan =="
cmake --build build-asan -j "${JOBS}" --target chaos_runner
CHAOS_LOG="${SMOKE_DIR}/chaos.log"
# Fixed seeds, all acceptance topologies, plus the churn driver. On a
# violation the log already holds the shrunk repro and the exact replay
# command — surface it whole.
if ! ./build-asan/bench/chaos_runner --seeds 0..19 --topology all \
    --churn > "${CHAOS_LOG}" 2>&1; then
  echo "chaos explorer found a violation; shrunk repro + replay command:"
  cat "${CHAOS_LOG}"
  exit 1
fi
# The same seeds with a finite-capacity service model and no adaptive
# controller: the plain credit-window, breaker, shedding and crash
# poisoning paths of the reliable link, which the adaptive stage below
# only reaches with the controller attached.
if ! ./build-asan/bench/chaos_runner --overload --seeds 0..19 \
    --topology all > "${CHAOS_LOG}" 2>&1; then
  echo "overload chaos run found a violation; shrunk repro + replay command:"
  cat "${CHAOS_LOG}"
  exit 1
fi
# Self-check: the explorer must still catch a deliberately broken
# recovery path and shrink it to a small deterministic schedule.
if ! ./build-asan/bench/chaos_runner --seeds 0..9 --topology grid \
    --events 12 --inject-bug > "${CHAOS_LOG}" 2>&1; then
  echo "chaos explorer failed to catch the injected recovery defect:"
  cat "${CHAOS_LOG}"
  exit 1
fi
echo "chaos ok: 60 green schedules + churn, 60 overloaded; injected defect caught + shrunk"

echo "== durability: crash-restart-replay audit under asan =="
DURABLE_LOG="${SMOKE_DIR}/durable.log"
DURABLE_DIR="${SMOKE_DIR}/durable_store"
# Every seed runs twice on the identical schedule: once durable (kRestart
# tears the runtime down and restores snapshot + journal from disk) and
# once as the reference. The runner exits nonzero on any invariant
# violation, any restart that failed to restore, or any answer-digest
# divergence between the durable run and its uninterrupted reference.
if ! ./build-asan/bench/chaos_runner --durability --seeds 0..9 \
    --topology all --snapshot-dir "${DURABLE_DIR}" \
    > "${DURABLE_LOG}" 2>&1; then
  echo "durability audit failed:"
  cat "${DURABLE_LOG}"
  exit 1
fi
# Self-check: a bit flipped in a journal payload must be caught by the
# per-record CRC and force the typed fallback-to-rebuild path — if no
# restore falls back, the corruption detection is broken.
if ! ./build-asan/bench/chaos_runner --durability --inject-corruption \
    --seeds 0..4 --topology grid --snapshot-dir "${DURABLE_DIR}" \
    > "${DURABLE_LOG}" 2>&1; then
  echo "durability corruption self-check failed:"
  cat "${DURABLE_LOG}"
  exit 1
fi
echo "durability ok: restores byte-identical to reference; corruption falls back typed"

echo "== overload: tbl_overload sweep under asan =="
cmake --build build-asan -j "${JOBS}" --target tbl_overload
OVERLOAD_LOG="${SMOKE_DIR}/overload.log"
# The sweep drives the 256-node grid at 1x..8x capacity; the bench exits
# non-zero if any conservation ledger fails to reconcile, any query fails
# to terminate, or goodput at 4x collapses below 60% of the 1x baseline.
if ! ./build-asan/bench/tbl_overload --log-level error \
    > "${OVERLOAD_LOG}" 2>&1; then
  echo "overload sweep failed:"
  cat "${OVERLOAD_LOG}"
  exit 1
fi
echo "overload ok: 4x offered load shed/degraded with ledgers balanced"

echo "== adaptive: controller suites + correlated chaos under asan =="
# The tbl_overload run above already enforces the moving-saturation
# gates (adaptive goodput >= the static operating point at 4x and 8x,
# and the hotspot-migration divert drop). This stage adds the controller
# unit/integration suites — including the oscillation self-check, where
# an injected alternating gradient must be caught by the hysteresis
# guard (tuner_freezes > 0) and snapped back to the static base — plus
# the correlated burst+crash+partition schedules with the overload-aware
# oracle armed.
UBSAN_OPTIONS=halt_on_error=1 ./build-asan/tests/mot_tests --gtest_brief=1 \
  --gtest_filter='Adaptive*'
ADAPT_LOG="${SMOKE_DIR}/adaptive.log"
if ! ./build-asan/bench/chaos_runner --adaptive --correlated-events 2 \
    --seeds 0..9 --topology all > "${ADAPT_LOG}" 2>&1; then
  echo "adaptive chaos run found a violation:"
  cat "${ADAPT_LOG}"
  exit 1
fi
echo "adaptive ok: controller suites green; correlated chaos oracles green"

echo "== sanitizers: tsan pool/oracle/sweep tests =="
cmake -B build-tsan -S . -DMOT_SANITIZE=thread -DCMAKE_BUILD_TYPE=Debug \
  > /dev/null
cmake --build build-tsan -j "${JOBS}" --target mot_tests
# The concurrency-bearing suites (plus the overload suites, whose bench
# runs on the worker pool, the batching/flat-map suites, whose
# worker-count test fans batched shards across the pool, and the socket
# and cluster suites, whose shard threads, pumps and coordinator talk
# over loopback sockets); the rest of mot_tests is single-threaded and
# already covered by the asan stage.
TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/mot_tests --gtest_brief=1 \
  --gtest_filter='ThreadPool.*:ShardedOracle.*:ParallelSweep.*:Overload*:Batch*:FlatMap*:Durable*:Journal*:Snapshot*:Adaptive*:NetCluster.*:NetSocket.*:NetTransport.*'

echo "== ci green =="
