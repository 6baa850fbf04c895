#!/usr/bin/env bash
# Full verification matrix for the Chronos tree.
#
#   scripts/check.sh             # everything below
#   scripts/check.sh --quick     # lint + plain build + ctest only
#   scripts/check.sh --chaos     # chaos leg only (fault tests under ASan)
#   scripts/check.sh --crash     # crash leg only (kill-9 recovery + WAL
#                                # prefix audit, ASan)
#   scripts/check.sh --trace     # trace leg only (e2e trace + Chrome export)
#   scripts/check.sh --release   # release leg only (-O3 -Werror build + ctest)
#   scripts/check.sh --shapes    # shapes leg only (paper-shape benches); it
#                                # is not part of the default matrix
#
# Legs (each can be skipped by the environment lacking the tool):
#   1. chronos_lint self-test + tree lint          (scripts/chronos_lint.py)
#   2. plain build (-Wall -Wextra -Werror) + ctest (build/)
#   2b. Release build (-Werror at -O3) + ctest      (build-release/)
#   3. ASan+UBSan build + ctest                    (build-asan/)
#   4. TSan build + concurrency-focused tests      (build-tsan/)
#   5. seeded chaos suite under ASan, 3 fixed seeds (build-asan/)
#   5b. kill-9 crash-recovery suite + WAL prefix audit under ASan, 3 fixed
#       seeds (build-asan/)
#   5c. trace e2e (forked server + agent) and Chrome-export validation
#   6. clang thread-safety build, if clang++ found (build-clang/, compile only)
#   7. clang-tidy over src/, if clang-tidy found
#   8. shapes (--shapes only): the benches that print a shape verdict, each
#      exiting non-zero on DIVERGES. Their thresholds have been checked on
#      one 4-core host only, so the leg stays out of the default matrix.
#
# The sanitizer legs rerun the full suite; the TSan leg restricts ctest to
# the concurrency/network/store suites to keep wall-clock sane (TSan is
# ~10-20x) while still covering every annotated component.
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
CHAOS_ONLY=0
CRASH_ONLY=0
TRACE_ONLY=0
RELEASE_ONLY=0
SHAPES_ONLY=0
if [ "${1:-}" = "--quick" ]; then
  QUICK=1
elif [ "${1:-}" = "--chaos" ]; then
  CHAOS_ONLY=1
elif [ "${1:-}" = "--crash" ]; then
  CRASH_ONLY=1
elif [ "${1:-}" = "--trace" ]; then
  TRACE_ONLY=1
elif [ "${1:-}" = "--release" ]; then
  RELEASE_ONLY=1
elif [ "${1:-}" = "--shapes" ]; then
  SHAPES_ONLY=1
fi

JOBS="$(nproc)"
FAILED=()

note() { printf '\n=== %s ===\n' "$*"; }

run_leg() {
  local name="$1"
  shift
  note "${name}"
  if "$@"; then
    echo "--- ${name}: OK"
  else
    echo "--- ${name}: FAILED"
    FAILED+=("${name}")
  fi
}

lint_leg() {
  python3 scripts/chronos_lint.py --self-test &&
    python3 scripts/chronos_lint.py
}

plain_leg() {
  cmake -B build -S . >/dev/null &&
    cmake --build build -j "${JOBS}" &&
    (cd build && ctest --output-on-failure -j "${JOBS}")
}

release_leg() {
  # The optimizer-only warnings (GCC's -Wmaybe-uninitialized among them)
  # appear at -O3, not in the default RelWithDebInfo build; -Werror keeps
  # them fixed at the source.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null &&
    cmake --build build-release -j "${JOBS}" &&
    (cd build-release && ctest --output-on-failure -j "${JOBS}")
}

asan_leg() {
  cmake -B build-asan -S . -DCHRONOS_SANITIZE=ON >/dev/null &&
    cmake --build build-asan -j "${JOBS}" &&
    (cd build-asan && ctest --output-on-failure -j "${JOBS}")
}

tsan_leg() {
  cmake -B build-tsan -S . -DCHRONOS_TSAN=ON >/dev/null &&
    cmake --build build-tsan -j "${JOBS}" \
      --target concurrency_test control_test store_test net_test \
               mokkadb_test obs_test common_test agent_test \
               fault_injection_test &&
    (cd build-tsan && ctest --output-on-failure -j "${JOBS}" \
       -R 'Concurrency|Control|Store|Net|ConnectionServer|HttpServer|Ftp|Mokka|Wire|Obs|Metrics|Thread|Latch|Queue|Logger|Mutex|CondVar|Agent|Wal|Table|Heartbeat|Engine|FaultInjection|Span|Trace')
}

chaos_leg() {
  # The fault-injection suite under ASan, once per fixed seed. Each seed must
  # pass standalone: the e2e chaos test is deterministic per seed, so a
  # failure here reproduces with the same CHRONOS_CHAOS_SEED value.
  cmake -B build-asan -S . -DCHRONOS_SANITIZE=ON >/dev/null &&
    cmake --build build-asan -j "${JOBS}" --target fault_injection_test &&
    for seed in 7 21 1337; do
      echo "--- chaos seed ${seed}"
      (cd build-asan &&
         CHRONOS_CHAOS_SEED="${seed}" ctest --output-on-failure \
           -R 'FaultInjection') || return 1
    done
}

crash_leg() {
  # The kill-9 crash-recovery harness under ASan, once per fixed seed. The
  # harness forks the real control-server binary and _exit(137)s it at
  # injected seams; the WAL prefix audit restarts an in-process Control on
  # every prefix of a scenario's log. Each seed varies the workload shape but
  # is fully deterministic, so a failure reproduces with the same
  # CHRONOS_CRASH_SEED.
  cmake -B build-asan -S . -DCHRONOS_SANITIZE=ON >/dev/null &&
    cmake --build build-asan -j "${JOBS}" \
      --target crash_recovery_test wal_prefix_test &&
    for seed in 7 21 1337; do
      echo "--- crash seed ${seed}"
      (cd build-asan &&
         CHRONOS_CRASH_SEED="${seed}" ctest --output-on-failure \
           -R 'CrashRecovery|WalPrefix') || return 1
    done
}

trace_leg() {
  # The distributed-trace e2e suite (forked control server + in-process
  # agent), plus an independent re-validation of the Chrome trace the test
  # exported: a second parser asserting the event schema chrome://tracing
  # and Perfetto require, so the export format can't silently drift.
  local export_file="build/chrome-trace-smoke.json"
  rm -f "${export_file}"
  cmake -B build -S . >/dev/null &&
    cmake --build build -j "${JOBS}" --target trace_e2e_test &&
    (cd build && CHRONOS_TRACE_EXPORT_PATH="${PWD}/chrome-trace-smoke.json" \
       ctest --output-on-failure -R 'TraceE2E') &&
    python3 - "${export_file}" <<'PYEOF'
import json
import sys

with open(sys.argv[1]) as handle:
    trace = json.load(handle)
assert trace.get("displayTimeUnit") == "ms", "missing displayTimeUnit"
complete = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
assert complete, "no complete events in export"
for event in complete:
    for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
        assert key in event, "event missing %s: %r" % (key, event)
    assert event["dur"] >= 0, "negative duration: %r" % event
lanes = sorted({e["tid"] for e in complete})
assert lanes == [1, 2], "expected control+agent lanes, got %r" % lanes
print("chrome export OK: %d spans across lanes %r" % (len(complete), lanes))
PYEOF
}

shapes_leg() {
  # E1, E2, E6 and E11: each bench prints its table and a shape verdict, and
  # exits non-zero on DIVERGES. Every bench runs; the leg fails if any did.
  local benches=(bench_fig3d_engine_threads bench_engine_workload_mix
                 bench_rest_api bench_latency_under_load)
  local failed=0
  cmake -B build -S . >/dev/null &&
    cmake --build build -j "${JOBS}" --target "${benches[@]}" || return 1
  for bench in "${benches[@]}"; do
    echo "--- ${bench}"
    "build/bench/${bench}" || { echo "--- ${bench}: FAILED"; failed=1; }
  done
  return "${failed}"
}

clang_build_leg() {
  # Thread-safety analysis is Clang-only; this leg is where the
  # CHRONOS_GUARDED_BY/REQUIRES annotations become compile errors.
  cmake -B build-clang -S . \
    -DCMAKE_CXX_COMPILER=clang++ >/dev/null &&
    cmake --build build-clang -j "${JOBS}"
}

tidy_leg() {
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # shellcheck disable=SC2046
  clang-tidy -p build --quiet $(git ls-files 'src/*.cc')
}

if [ "${CHAOS_ONLY}" = "1" ]; then
  run_leg "chaos (fault suite, ASan, 3 seeds)" chaos_leg
  note "summary"
  if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "FAILED legs: ${FAILED[*]}"
    exit 1
  fi
  echo "all legs passed"
  exit 0
fi

if [ "${CRASH_ONLY}" = "1" ]; then
  run_leg "crash (kill-9 recovery, ASan, 3 seeds)" crash_leg
  note "summary"
  if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "FAILED legs: ${FAILED[*]}"
    exit 1
  fi
  echo "all legs passed"
  exit 0
fi

if [ "${RELEASE_ONLY}" = "1" ]; then
  run_leg "build+ctest (Release, -Werror)" release_leg
  note "summary"
  if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "FAILED legs: ${FAILED[*]}"
    exit 1
  fi
  echo "all legs passed"
  exit 0
fi

if [ "${SHAPES_ONLY}" = "1" ]; then
  run_leg "shapes (paper-shape benches)" shapes_leg
  note "summary"
  if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "FAILED legs: ${FAILED[*]}"
    exit 1
  fi
  echo "all legs passed"
  exit 0
fi

if [ "${TRACE_ONLY}" = "1" ]; then
  run_leg "trace (e2e + chrome export)" trace_leg
  note "summary"
  if [ "${#FAILED[@]}" -gt 0 ]; then
    echo "FAILED legs: ${FAILED[*]}"
    exit 1
  fi
  echo "all legs passed"
  exit 0
fi

run_leg "lint" lint_leg
run_leg "build+ctest (plain, -Werror)" plain_leg

if [ "${QUICK}" = "0" ]; then
  run_leg "build+ctest (Release, -Werror)" release_leg
  run_leg "build+ctest (ASan+UBSan)" asan_leg
  run_leg "build+ctest (TSan, concurrency suites)" tsan_leg
  run_leg "chaos (fault suite, ASan, 3 seeds)" chaos_leg
  run_leg "crash (kill-9 recovery, ASan, 3 seeds)" crash_leg
  run_leg "trace (e2e + chrome export)" trace_leg
  if command -v clang++ >/dev/null 2>&1; then
    run_leg "clang -Wthread-safety build" clang_build_leg
  else
    note "clang -Wthread-safety build"
    echo "--- skipped: clang++ not on PATH (annotations are no-ops on GCC)"
  fi
  if command -v clang-tidy >/dev/null 2>&1; then
    run_leg "clang-tidy" tidy_leg
  else
    note "clang-tidy"
    echo "--- skipped: clang-tidy not on PATH"
  fi
fi

note "summary"
if [ "${#FAILED[@]}" -gt 0 ]; then
  echo "FAILED legs: ${FAILED[*]}"
  exit 1
fi
echo "all legs passed"
