#!/usr/bin/env bash
# Full pre-merge check: the tier-1 build + test cycle, the formal CEC and
# stuck-at fault-coverage gates over the synthesis flow, the run-telemetry
# gate (two identical flow runs must produce ledgers scflow_report diffs
# as metric-identical, timestamps excluded), the benchmark
# trajectory ratchet (pinned throughput metrics vs the latest committed
# BENCH_*.json, >20% regression fails), then the same
# test suite under AddressSanitizer + UBSan (-DSCFLOW_SANITIZE=ON), then
# the threaded simulator paths — including the concurrent fault-campaign
# runner — under ThreadSanitizer (-DSCFLOW_SANITIZE=thread) so both
# sanitizer wirings are actually exercised on every change.
#
# Usage: scripts/check.sh [--skip-sanitize]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
SKIP_SANITIZE=0
[[ "${1:-}" == "--skip-sanitize" ]] && SKIP_SANITIZE=1

RAN_PASSES=()

echo "== tier-1: configure + build + ctest (build/) =="
# Warnings are errors on this lane and on the sanitizer lanes below.
cmake -B build -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"
RAN_PASSES+=("tier-1")

echo "== cec: formal equivalence gates over the full synthesis flow =="
# Every refinement step (gate opt, scan insertion) of all five Fig. 10
# designs is proven by the SAT-based CEC engine; a counterexample aborts
# with a non-zero exit.  The engine's own unit suite (SAT solver, AIG,
# miter construction, fuzz shards) runs via ctest above and again under
# ASan+UBSan below.
(cd build/examples && ./synthesis_flow --cec >/dev/null)
RAN_PASSES+=("cec")

echo "== fault: full-list PPSFP campaigns, scan vs pre-scan coverage gate =="
# All five Fig. 10 designs run the shared-fault-list campaign pair over
# the FULL collapsed fault population on the PPSFP bit-parallel engine
# (no sampling); the gate fails unless every population is simulated
# whole and scan coverage strictly exceeds the scan-stripped twin's on
# every design.  The fault engine's unit suite (collapse rules, overlay
# clamping, PPSFP-vs-event-driven differential, thread-count determinism,
# budget degradation, SEU divergence) runs via ctest above and again
# under ASan+UBSan below.
build/examples/fault_campaign --check >/dev/null
RAN_PASSES+=("fault")

echo "== serve: streaming SRC soak, 1000 sessions x thread sweep {1,2,4,8} =="
# The session service runs the seeded workload over all eight rate pairs
# (the four paper pairs included) at every lane count, asserting the
# zero-loss conservation laws, the round-robin starvation bound, and that
# every session's output stream hashes bit-identically across thread
# counts.  The service's unit suite (lifecycle, backpressure, fairness,
# determinism) runs via ctest above and again under the sanitizers below.
build/tools/src_serve --check >/dev/null
RAN_PASSES+=("serve")

echo "== chaos: seeded fault-injection soak (32 seeds) + snapshot round-trip =="
# The resilience gate: every seed's ChaosPlan injects lane stalls,
# disconnects, oversized pushes, ring storms and allocation failures as
# pure functions of the seed, across the same thread sweep — surviving
# sessions must hash bit-identically and the fault census itself must be
# scheduling-invariant.  Over the 32-seed soak every fault class must
# fire at least once.  Then the crash-consistency gate: a mid-stream
# snapshot restored at a different lane count must continue
# byte-identically, and corrupted images must be rejected with a
# diagnostic.  The chaos ledger lands in build/chaos/ (CI uploads it) —
# NOT build/obs/, which the obs pass wipes.
CHAOS_DIR="$(pwd)/build/chaos"
rm -rf "$CHAOS_DIR" && mkdir -p "$CHAOS_DIR"
build/tools/src_serve --chaos-soak 32 --seed 1 \
  --ledger "$CHAOS_DIR/chaos_ledger.jsonl" --report "$CHAOS_DIR/chaos_report.json"
build/tools/src_serve --snapshot-roundtrip >/dev/null
build/tools/scflow_report validate "$CHAOS_DIR/chaos_ledger.jsonl" >/dev/null
RAN_PASSES+=("chaos")

echo "== obs: run ledger determinism + scflow_report render/diff gate =="
# One flow run = refinement_flow (report + Perfetto trace + ledger), then
# synthesis_flow --cec appending to the same ledger JSONL.  Two such runs
# must produce ledgers that scflow_report diff calls metric-identical —
# timestamps and durations are excluded by the schema's "_ns" rule, every
# counter/hash/histogram must match exactly.  The artifacts land in
# build/obs/ (CI uploads them).
OBS_DIR="$(pwd)/build/obs"
rm -rf "$OBS_DIR" && mkdir -p "$OBS_DIR"
export SCFLOW_GIT_REV="$(git rev-parse HEAD)"
for run in a b; do
  build/examples/refinement_flow --report "$OBS_DIR/report_$run.json" \
    --trace "$OBS_DIR/trace_$run.json" --ledger "$OBS_DIR/ledger_$run.jsonl" >/dev/null
  (cd build/examples && ./synthesis_flow --cec --ledger "$OBS_DIR/ledger_$run.jsonl" >/dev/null)
done
build/tools/scflow_report validate "$OBS_DIR"/ledger_a.jsonl "$OBS_DIR"/ledger_b.jsonl \
  "$OBS_DIR"/report_a.json "$OBS_DIR"/trace_a.json
build/tools/scflow_report show "$OBS_DIR/ledger_a.jsonl" >/dev/null
build/tools/scflow_report diff "$OBS_DIR/ledger_a.jsonl" "$OBS_DIR/ledger_b.jsonl"
RAN_PASSES+=("obs")

echo "== bench: trajectory ratchet vs latest committed BENCH_*.json =="
# Re-measures the pinned headline metrics (gate-cosim pattern throughput
# on both hdlsim backends) and fails on a >20% regression against the
# newest committed trajectory file.  The benches run WITHOUT --ledger or
# --trace, so this doubles as the instrumentation-off overhead guard: if
# telemetry hooks ever leak cost into the uninstrumented paths, the
# pinned metrics regress and this gate trips.  scripts/bench_trajectory.sh is also
# how a new BENCH_<date>.json gets minted when the numbers move for a
# good reason.
BASELINE=$(git ls-files 'BENCH_*.json' | sort | tail -1)
if [[ -z "$BASELINE" ]]; then
  echo "no committed BENCH_*.json baseline; run scripts/bench_trajectory.sh to mint one"
  exit 1
fi
scripts/bench_trajectory.sh "$(pwd)/build/bench_current.json"
python3 scripts/bench_compare.py compare "$BASELINE" build/bench_current.json
RAN_PASSES+=("bench")

if [[ "$SKIP_SANITIZE" == 1 ]]; then
  echo "== sanitize passes skipped (--skip-sanitize) =="
else
  echo "== sanitize: ASan+UBSan configure + build + ctest (build-asan/) =="
  cmake -B build-asan -S . -DSCFLOW_SANITIZE=ON -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-asan -j"$JOBS"
  # halt_on_error keeps UBSan findings fatal so ctest actually fails on them.
  UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-asan --output-on-failure -j"$JOBS"
  RAN_PASSES+=("ASan+UBSan")

  echo "== sanitize: TSan build + threaded simulator tests (build-tsan/) =="
  # Only the targets that exercise the worker pools (batch runner, fault
  # campaigns, serve lanes) are built and run (directly, not via ctest:
  # gtest_discover_tests would re-register the whole suite for a partial
  # build).  GateSim and the RTL interpreter are single-threaded, so the
  # suites that only drive them (test_gate_level, test_gate_alloc,
  # test_fuzz_equivalence) have no race to find here.  The
  # cosim tests are excluded — the minisc kernel's ucontext fibers are
  # outside TSan's supported threading model.
  cmake -B build-tsan -S . -DSCFLOW_SANITIZE=thread -DCMAKE_CXX_FLAGS=-Werror >/dev/null
  cmake --build build-tsan -j"$JOBS" --target \
    test_batch_runner test_fault test_ppsfp test_compiled_sim test_serve \
    test_resilience
  echo "-- TSan: test_batch_runner"
  TSAN_OPTIONS=halt_on_error=1 build-tsan/tests/test_batch_runner
  # test_fault minus the five-design full-population parity sweep (minutes
  # under TSan; its thread coverage is the campaign runner, which the
  # remaining cases and test_ppsfp's differential already drive hard).
  echo "-- TSan: test_fault"
  TSAN_OPTIONS=halt_on_error=1 build-tsan/tests/test_fault \
    --gtest_filter='-Campaign.PpsfpFullListReproducesSampledCoverageOnFig10'
  # The PPSFP engine's differential oracle across thread counts {1,2,4,8}
  # on both engines — the batch-granularity concurrency of the new path.
  echo "-- TSan: test_ppsfp"
  TSAN_OPTIONS=halt_on_error=1 build-tsan/tests/test_ppsfp
  # The compiled backend's threaded path: BatchRunner lanes sharing one
  # immutable CompiledProgram across worker threads.
  echo "-- TSan: test_compiled_sim (batch runner)"
  TSAN_OPTIONS=halt_on_error=1 build-tsan/tests/test_compiled_sim \
    --gtest_filter='CompiledBatch.*'
  # The streaming SRC service: SPSC rings crossed by client threads, the
  # multi-lane session scheduler, and the concurrent push/pull-while-step
  # case — the service's entire threading contract under the race detector.
  echo "-- TSan: test_serve"
  TSAN_OPTIONS=halt_on_error=1 build-tsan/tests/test_serve
  # The resilience layer under the race detector: the SPSC ring stress,
  # eviction/lease bookkeeping around live client threads, and the
  # chaos-enabled multi-lane runs (lane-stall injection hammers the
  # lane_stalls_ atomic from every worker).
  echo "-- TSan: test_resilience"
  TSAN_OPTIONS=halt_on_error=1 build-tsan/tests/test_resilience
  RAN_PASSES+=("TSan")
fi

echo "== all checks passed: ${RAN_PASSES[*]} =="
