#!/usr/bin/env bash
# One-shot pre-merge gate: configure + build + test the default, ASan+UBSan,
# and TSan configurations, and run the repo analyzers in each. All library
# targets compile with -Werror (AIRCH_WERROR=ON via the presets used here).
#
#   tools/check.sh             # everything (slow: three full builds)
#   tools/check.sh default     # just the Release build + full test suite
#   tools/check.sh asan tsan   # any subset of: default arch serve
#                              # asan tsan tidy capability
#
# The dataset contracts are tier-1 tests that the default stage runs:
# cached vs naive labels (Case{1,2,3}SweepCache.BitIdenticalToNaiveOn10kQueries),
# warm vs cold snapshot generation
# (SnapshotTest.StudyWarmGenerateIsBitIdenticalToCold), the binary dataset
# round trip (BinaryIoTest) and the naive-vs-fast training trajectories
# (TrainingTrajectory in tests/test_models.cpp).
#
# The `serve` stage (in the default set; shares the default stage's build
# tree) smokes the batched recommender service end to end: bench_serve
# trains tiny warm models, stands the socket service up in-process, drives
# it at three concurrency levels, asserts every reply bit-identical to a
# direct in-process recommend_batch, and emits BENCH_serve-schema JSON
# that is then validated by tools/validate_bench.py --mode serve.
#
# The `arch` stage (in the default set) builds and runs both static
# analyzers standalone: lint_airch (style/idiom rules) and arch_check
# (layer-DAG conformance over the include graph, docs/layers.toml, plus
# the [[nodiscard]] result-contract pass). The same binaries also run as
# tier-1 ctest entries in the default stage; this stage exists so the
# analyzers can gate quickly without a full test run.
#
# The `tidy` stage (not in the default set: it is a fourth full build)
# rebuilds the library with clang-tidy attached to every src/ compile
# (.clang-tidy, AIRCH_CLANG_TIDY=ON).
#
# The `capability` stage (not in the default set: needs clang) compiles the
# library under clang -Wthread-safety -Werror=thread-safety (the capability
# preset; annotations in common/sync.hpp), runs the thread-safety
# compile-fail harness, and runs the header self-containment suite.
#
# Tool-gated stages skip with a notice when the tool is missing locally —
# no tooling beyond the stock container is ever required on a dev box —
# but HARD-FAIL when CI=true, so the hosted gate can never green-light a
# check that did not actually run.
#
# Failure reporting: `set -euo pipefail` plus an ERR trap that names the
# failing stage on stderr, and a per-stage OK line after each stage.
# pipefail matters here: stage commands that feed a pipe (the serve smoke,
# validators piped through tee/sed by callers) must still propagate a
# non-zero exit — without it, `validator | tee log` would report tee's
# exit status and a broken JSON schema could slide through green.
#
# TSan runs only the `tsan`-labelled concurrency suite (the full suite under
# TSan is prohibitively slow); ASan+UBSan runs the full suite. AIRCH_THREADS
# forces real worker threads even on single-core CI runners.
# -E (errtrace) so the ERR trap also fires for failures inside functions
# like run() — without it the trap only sees top-level commands.
set -Eeuo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
STAGES=("$@")
if [ ${#STAGES[@]} -eq 0 ]; then STAGES=(default arch serve asan tsan); fi

CURRENT_STAGE="(startup)"
PASSED_STAGES=()
# The trap fires on the first failing command (set -e is about to exit):
# name the stage and the exit code on stderr so the failure is attributable
# even when stdout is piped or captured.
trap 'code=$?;
      echo "check.sh: stage '\''${CURRENT_STAGE}'\'' FAILED (exit ${code})" >&2;
      if [ ${#PASSED_STAGES[@]} -gt 0 ]; then
        echo "check.sh: stages passed before failure: ${PASSED_STAGES[*]}" >&2;
      fi' ERR

run() { echo "+ $*" >&2; "$@"; }

# skip_or_fail <tool> <what>: missing-tool policy. Locally a notice +
# return 0 (caller skips); under CI=true an unexecuted check is a failure.
skip_or_fail() {
  if [ "${CI:-}" = "true" ]; then
    echo "check.sh: $1 required for $2 but not installed and CI=true — failing" >&2
    exit 1
  fi
  echo "check.sh: $1 not installed — skipping $2" >&2
}

for stage in "${STAGES[@]}"; do
  CURRENT_STAGE="$stage"
  case "$stage" in
    default)
      run cmake --preset checked
      run cmake --build build-checked -j "$JOBS"
      run ctest --test-dir build-checked --output-on-failure -j "$JOBS"
      ;;
    serve)
      run cmake --preset checked
      run cmake --build build-checked -j "$JOBS" --target bench_serve
      run ./build-checked/bench/bench_serve \
        --points1=400 --points2=300 --points3=200 --epochs=1 \
        --requests=30 --levels=1,2,4 \
        --out=build-checked/BENCH_serve_smoke.json >/dev/null
      if command -v python3 >/dev/null 2>&1; then
        if ! run python3 tools/validate_bench.py serve \
            build-checked/BENCH_serve_smoke.json --min-levels=3; then
          echo "check.sh: serve bench JSON schema validation FAILED" >&2
          exit 1
        fi
      else
        skip_or_fail python3 "serve bench JSON schema validation"
      fi
      ;;
    arch)
      run cmake --preset checked
      run cmake --build build-checked -j "$JOBS" --target lint_airch arch_check
      run ./build-checked/tools/lint_airch .
      run ./build-checked/tools/arch_check .
      ;;
    asan)
      run cmake --preset asan
      run cmake --build build-asan -j "$JOBS"
      # abort on the first report so CI fails loudly; UBSan halts too.
      ASAN_OPTIONS=halt_on_error=1 UBSAN_OPTIONS=halt_on_error=1 AIRCH_THREADS=4 \
        run ctest --test-dir build-asan --output-on-failure -j "$JOBS"
      ;;
    tsan)
      run cmake --preset tsan
      run cmake --build build-tsan -j "$JOBS" --target \
        test_parallel test_sanitizer_stress test_sweep_cache test_matmul_kernel \
        test_sync test_serve lint_airch
      TSAN_OPTIONS=halt_on_error=1 AIRCH_THREADS=4 \
        run ctest --test-dir build-tsan -L tsan --output-on-failure
      ;;
    tidy)
      if ! command -v clang-tidy >/dev/null 2>&1; then
        skip_or_fail clang-tidy "tidy stage"
        echo "check.sh: stage 'tidy' SKIPPED" >&2
        continue
      fi
      run cmake --preset tidy
      run cmake --build build-tidy -j "$JOBS" --target \
        airch_common airch_workload airch_sim airch_search airch_dataset \
        airch_ml airch_models airch_core airch_serve
      ;;
    capability)
      if ! command -v clang++ >/dev/null 2>&1; then
        skip_or_fail clang++ "capability stage"
        echo "check.sh: stage 'capability' SKIPPED" >&2
        continue
      fi
      run cmake --preset capability
      # Library targets only: -Wthread-safety sees every annotated mutex in
      # src/; tests/bench/examples keep the base warning set.
      run cmake --build build-capability -j "$JOBS" --target \
        airch_common airch_workload airch_sim airch_search airch_dataset \
        airch_ml airch_models airch_core airch_serve
      # The must-not-compile thread-safety snippets + positive control.
      run ctest --test-dir build-capability -L thread_safety --output-on-failure
      # Header hygiene under the strict compiler: every src/ header must
      # compile as its own translation unit.
      run ctest --test-dir build-capability -L self_contained --output-on-failure -j "$JOBS"
      ;;
    *)
      echo "unknown stage: $stage (want: default arch serve asan tsan tidy capability)" >&2
      exit 2
      ;;
  esac
  PASSED_STAGES+=("$stage")
  echo "check.sh: stage '$stage' OK" >&2
done

echo "check.sh: all stages passed (${STAGES[*]})"
