#!/usr/bin/env bash
# Full verification matrix (docs/ANALYSIS.md): build + tests, the align,
# ingest and sync suites at pool sizes 1 and 4, the in-tree analyzer (wikimatch-lint), the
# static-analysis stages, negative compile checks proving the contracts
# actually fire, and the sanitizer matrix (ASan+UBSan full suite; TSan
# concurrency tests, whose lock-order checking is TSan's own deadlock
# detector). Performance is measured by bench_e2e (python3
# bench_e2e/run.py), not here; the only file this script writes into the
# repo root is check_summary.json.
#
# Clang-only stages (thread-safety build, clang-tidy, the thread-safety
# negative check) auto-detect the toolchain and SKIP with a note when it
# is absent — the tier-1 gate must pass on a GCC-only box. A PASS/SKIP/
# FAIL table prints at the end; any FAIL exits nonzero. The same
# table is written machine-readably to check_summary.json (CI asserts on
# it; override the path with WIKIMATCH_SUMMARY_JSON).
#
# Pass extra CMake flags as arguments, e.g.
#   tools/check.sh -DWIKIMATCH_WERROR=ON
# Toggles: WIKIMATCH_SKIP_TSAN=1, WIKIMATCH_SKIP_ASAN=1.
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

STAGE_NAMES=()
STAGE_RESULTS=()
FAILED=0

record() { # name result
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("$2")
  if [[ "$2" == FAIL ]]; then FAILED=1; fi
  echo "check.sh: stage '$1' -> $2" >&2
}

run_stage() { # name cmd...
  local name="$1"; shift
  echo "check.sh: ==== $name ====" >&2
  if "$@"; then record "$name" PASS; else record "$name" FAIL; fi
}

have_clang() { command -v clang++ >/dev/null 2>&1; }

# ---------------------------------------------------------------- build+test
stage_build() {
  cmake -B "$BUILD_DIR" -S . "$@" && cmake --build "$BUILD_DIR" -j
}
stage_tests() {
  (cd "$BUILD_DIR" && ctest --output-on-failure -j)
}
run_stage "build (gcc/default)" stage_build "$@"
run_stage "tests (ctest)" stage_tests

# ------------------------------------------------------------ pool sizes
# The pool is the pipeline's only thread dimension: type pairs are aligned
# one per pool task (each pair sequentially), unit footprints are computed
# one per task, and Resync copies or reclassifies one article pair per
# task. Re-run the align, ingest and sync suites with the pool at one
# worker and at four so the thread-count invariance,
# incremental-equals-rebuild and Resync-equals-reference tests hold at
# either size, not just at this machine's default.
stage_ingest_pool_sizes() {
  WIKIMATCH_THREADS=1 "$BUILD_DIR"/tests/align_join_test &&
  WIKIMATCH_THREADS=4 "$BUILD_DIR"/tests/align_join_test &&
  WIKIMATCH_THREADS=1 "$BUILD_DIR"/tests/ingest_test &&
  WIKIMATCH_THREADS=4 "$BUILD_DIR"/tests/ingest_test &&
  WIKIMATCH_THREADS=1 "$BUILD_DIR"/tests/sync_test &&
  WIKIMATCH_THREADS=4 "$BUILD_DIR"/tests/sync_test
}
run_stage "align, ingest and sync at pool sizes 1 and 4" \
  stage_ingest_pool_sizes

# ----------------------------------------------------------------- analyzer
# The in-tree analyzer (src/analysis/, built above as tools/wikimatch-lint)
# replaces the old regex lint: token-level rules plus the layering DAG,
# include-cycle, and unordered-iteration checks. The tree must be clean —
# every deliberate exception carries a reasoned NOLINT.
run_stage "analyzer (wikimatch-lint)" "$BUILD_DIR"/tools/wikimatch-lint \
  --root .

# --------------------------------------------------------------- clang-tidy
if command -v clang-tidy >/dev/null 2>&1 && have_clang; then
  stage_tidy() {
    local tidy_dir="${TIDY_DIR:-build-tidy}"
    cmake -B "$tidy_dir" -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DWIKIMATCH_BUILD_BENCHMARKS=OFF -DWIKIMATCH_BUILD_EXAMPLES=OFF \
      >/dev/null &&
    find src -name '*.cc' -print0 |
      xargs -0 clang-tidy -p "$tidy_dir" --quiet
  }
  run_stage "clang-tidy" stage_tidy
else
  echo "check.sh: clang-tidy/clang++ not installed, skipping tidy stage" >&2
  record "clang-tidy" SKIP
fi

# --------------------------------------------- clang thread-safety analysis
if have_clang; then
  stage_tsa_build() {
    local tsa_dir="${TSA_DIR:-build-tsa}"
    cmake -B "$tsa_dir" -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DWIKIMATCH_THREAD_SAFETY=ON \
      -DWIKIMATCH_BUILD_BENCHMARKS=OFF -DWIKIMATCH_BUILD_EXAMPLES=OFF &&
    cmake --build "$tsa_dir" -j
  }
  run_stage "thread-safety build (-Werror=thread-safety)" stage_tsa_build
else
  echo "check.sh: clang++ not installed, skipping thread-safety build" >&2
  record "thread-safety build (-Werror=thread-safety)" SKIP
fi

# -------------------------------------------------- negative compile checks
# Prove the contracts fire: each "bad" snippet must FAIL to compile while
# its "good" twin succeeds (so a pass can't come from an unrelated error).
NEG_DIR="$(mktemp -d)"
trap 'rm -rf "$NEG_DIR"' EXIT

cat > "$NEG_DIR/discard_bad.cc" <<'EOF'
#include "util/status.h"
wikimatch::util::Status Make() {
  return wikimatch::util::Status::InvalidArgument("x");
}
int main() { Make(); }
EOF
cat > "$NEG_DIR/discard_good.cc" <<'EOF'
#include "util/status.h"
wikimatch::util::Status Make() {
  return wikimatch::util::Status::InvalidArgument("x");
}
int main() { (void)Make(); }
EOF
stage_neg_discard() {
  c++ -std=c++20 -I src -Werror=unused-result -fsyntax-only \
      "$NEG_DIR/discard_good.cc" || return 1
  if c++ -std=c++20 -I src -Werror=unused-result -fsyntax-only \
      "$NEG_DIR/discard_bad.cc" 2>/dev/null; then
    echo "check.sh: discarded Status compiled — [[nodiscard]] gate broken" >&2
    return 1
  fi
  return 0
}
run_stage "negative: discarded Status must not compile" stage_neg_discard

cat > "$NEG_DIR/tsa_bad.cc" <<'EOF'
#include "util/mutex.h"
#include "util/thread_annotations.h"
struct Counter {
  wikimatch::util::Mutex mu;
  int n WIKIMATCH_GUARDED_BY(mu) = 0;
  int Read() { return n; }  // no lock held: must not compile under TSA
};
int main() { return Counter{}.Read(); }
EOF
cat > "$NEG_DIR/tsa_good.cc" <<'EOF'
#include "util/mutex.h"
#include "util/thread_annotations.h"
struct Counter {
  wikimatch::util::Mutex mu;
  int n WIKIMATCH_GUARDED_BY(mu) = 0;
  int Read() {
    wikimatch::util::MutexLock lock(mu);
    return n;
  }
};
int main() { return Counter{}.Read(); }
EOF
if have_clang; then
  stage_neg_tsa() {
    clang++ -std=c++20 -I src -Wthread-safety -Werror=thread-safety \
        -fsyntax-only "$NEG_DIR/tsa_good.cc" || return 1
    if clang++ -std=c++20 -I src -Wthread-safety -Werror=thread-safety \
        -fsyntax-only "$NEG_DIR/tsa_bad.cc" 2>/dev/null; then
      echo "check.sh: unlocked GUARDED_BY access compiled — annotation" \
           "gate broken" >&2
      return 1
    fi
    return 0
  }
  run_stage "negative: unlocked GUARDED_BY must not compile" stage_neg_tsa
else
  echo "check.sh: clang++ not installed, skipping TSA negative check" >&2
  record "negative: unlocked GUARDED_BY must not compile" SKIP
fi

# --------------------------------------------------------------- ASan+UBSan
if [[ "${WIKIMATCH_SKIP_ASAN:-0}" != "1" ]]; then
  # Examples stay on: dump_ingest feeds cli_dump_ingest_smoke, which
  # drives the CLI's argv parsing and every verb under the sanitizers.
  # Release's flags would add -DNDEBUG; replacing them with -O2 keeps
  # assert() on (Result's ok() checks, util::Rng's bounds).
  stage_asan() {
    local asan_dir="${ASAN_DIR:-build-asan}"
    cmake -B "$asan_dir" -S . -DWIKIMATCH_SANITIZE=address,undefined \
      -DCMAKE_CXX_FLAGS_RELEASE=-O2 \
      -DWIKIMATCH_BUILD_BENCHMARKS=OFF -DWIKIMATCH_BUILD_EXAMPLES=ON &&
    cmake --build "$asan_dir" -j &&
    (cd "$asan_dir" &&
     UBSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure -j)
  }
  run_stage "ASan+UBSan full suite" stage_asan
else
  record "ASan+UBSan full suite" SKIP
fi

# --------------------------------------------------------------------- TSan
# Rebuild the thread-touching tests with -fsanitize=thread and run them
# directly (ctest's gtest discovery would flag every deliberately-unbuilt
# sibling target as <name>_NOT_BUILT).
if [[ "${WIKIMATCH_SKIP_TSAN:-0}" != "1" ]]; then
  if echo 'int main(){return 0;}' |
      c++ -fsanitize=thread -x c++ - -o /dev/null 2>/dev/null; then
    stage_tsan() {
      local tsan_dir="${TSAN_DIR:-build-tsan}"
      # TSan's deadlock detector checks the lock order of every mutex
      # acquisition in these tests (an inverted order is a report, so a
      # nonzero exit); second_deadlock_stack=1 prints both acquisition
      # stacks of an inversion. thread_pool_test's TSan-only death test
      # proves the report fires on an inverted util::Mutex pair.
      # -O2 without -DNDEBUG keeps assert() on, as in the ASan stage.
      local -x TSAN_OPTIONS="second_deadlock_stack=1"
      cmake -B "$tsan_dir" -S . -DWIKIMATCH_SANITIZE=thread \
        -DCMAKE_CXX_FLAGS_RELEASE=-O2 \
        -DWIKIMATCH_BUILD_BENCHMARKS=OFF -DWIKIMATCH_BUILD_EXAMPLES=OFF &&
      cmake --build "$tsan_dir" -j --target thread_pool_test parallel_test \
        align_join_test serve_test query_test lru_cache_test net_server_test \
        protocol_robustness_test ingest_test sync_test &&
      # thread_pool_test stresses the shared work-stealing pool itself:
      # nested For, a caller finishing its loop while another thread's
      # loop pins every worker, and a pipeline run whose type pairs spread
      # over an injected pool.
      "$tsan_dir"/tests/thread_pool_test &&
      "$tsan_dir"/tests/parallel_test &&
      # align_join_test runs the pipeline at 1 and 8 loop participants:
      # type pairs align concurrently, each pair's join on its own stack.
      "$tsan_dir"/tests/align_join_test &&
      # serve_test includes the concurrent-reload stress (queries racing a
      # generation swap); lru_cache_test races inserts against a
      # generation-key bump across cache shards.
      "$tsan_dir"/tests/serve_test &&
      # query_test builds every evaluator's column index on the shared
      # pool, one type per task, and compares it with the reference scan.
      "$tsan_dir"/tests/query_test &&
      "$tsan_dir"/tests/lru_cache_test &&
      # net_server_test drives the epoll TCP server end to end, including
      # the reload-under-live-traffic stress (the multi-threaded event
      # loops racing a generation swap with zero dropped/mixed responses).
      "$tsan_dir"/tests/net_server_test &&
      "$tsan_dir"/tests/protocol_robustness_test &&
      # ingest_test chains Apply calls whose dirty units realign on the
      # shared pool and whose reused units move into the new generation.
      "$tsan_dir"/tests/ingest_test &&
      # sync_test classifies article pairs on the shared pool at several
      # thread counts (byte-identity across counts) and runs Resync
      # concurrently with full Run results.
      "$tsan_dir"/tests/sync_test
    }
    run_stage "TSan concurrency tests" stage_tsan
  else
    echo "check.sh: compiler lacks -fsanitize=thread, skipping TSan" >&2
    record "TSan concurrency tests" SKIP
  fi
else
  record "TSan concurrency tests" SKIP
fi

# ------------------------------------------------------------------ summary
echo
echo "check.sh summary:"
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %-50s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done

# Machine-readable twin of the table above, for CI assertions
# (.github/workflows/ci.yml jq-checks that clang stages ran as PASS).
SUMMARY_JSON="${WIKIMATCH_SUMMARY_JSON:-check_summary.json}"
json_escape() { local s=$1; s=${s//\\/\\\\}; s=${s//\"/\\\"}; printf '%s' "$s"; }
{
  echo '{'
  echo '  "stages": ['
  last=$((${#STAGE_NAMES[@]} - 1))
  for i in "${!STAGE_NAMES[@]}"; do
    sep=','
    if [[ "$i" == "$last" ]]; then sep=''; fi
    printf '    {"name": "%s", "result": "%s"}%s\n' \
      "$(json_escape "${STAGE_NAMES[$i]}")" "${STAGE_RESULTS[$i]}" "$sep"
  done
  echo '  ],'
  if [[ "$FAILED" == 1 ]]; then echo '  "ok": false'; else echo '  "ok": true'; fi
  echo '}'
} > "$SUMMARY_JSON"
echo "check.sh: wrote $SUMMARY_JSON"

if [[ "$FAILED" == 1 ]]; then
  echo "check.sh: FAILED" >&2
  exit 1
fi
echo "check.sh: OK"
