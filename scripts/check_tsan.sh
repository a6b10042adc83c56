#!/usr/bin/env bash
# Builds the concurrency-sensitive test suites under ThreadSanitizer and runs
# the ctest targets labeled `tsan` (parallel exact solver, portfolio racing,
# thread pool, shared-incumbent MIP). Opt-in: not part of the default build
# because TSan roughly 10x-es runtime.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DSOCTEST_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j \
  --target parallel_test exact_solver_test heuristics_test architect_test \
           test_time_table_test \
           branch_and_bound_test deadline_test fault_injection_test \
           pack_test frontdoor_test transport_test retry_test chaos_test \
           protocol_fuzz_test net_test soctest_perf_tool soctest_serve_tool \
           soctest_frontdoor_tool soctest_loadgen_tool soctest_chaos_tool \
           soctest_tool
# TSan runs 5-20x slower, so the perf gate compares deterministic counters
# only; the injected-slowdown negative pass still exercises the wall gate.
# The chaos soak rides along: fault injection is where transport races live.
SOCTEST_PERF_COUNTERS_ONLY=1 \
  ctest --test-dir "$BUILD_DIR" -L 'tsan|faults|perf|chaos|pack' \
        --output-on-failure -j "$(nproc)"
