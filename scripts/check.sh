#!/usr/bin/env bash
# Full local gate: the same three-config matrix CI runs (ci.yml
# build-test), each in its own build directory so switching configs
# never thrashes a shared cache:
#
#   build/       RelWithDebInfo, plain       (full ctest)
#   build-asan/  Debug + ASan + UBSan        (full ctest)
#   build-tsan/  RelWithDebInfo + TSan       (ctest -L TSAN)
#
#   scripts/check.sh            # all three passes
#   scripts/check.sh --fast     # plain build/test only
#
# When ccache is installed it is wired in as the compiler launcher, so
# the three configs share one object cache across reruns (each config
# hashes differently, but edits rebuild only what changed).
#
# The ASan/UBSan pass exists because the detection hot path works with
# raw SymbolIds, string_views into the reader registry, and hand-rolled
# sorted-vector merges — exactly the kind of code ASan/UBSan pays for.
# UBSan findings abort the test (-fno-sanitize-recover=undefined).
# The TSan pass covers the code that runs on several threads: the
# rfidcepd daemon (server_test: connection threads, the tenant mutex,
# the HTTP thread, a scrape formatting outside the tenant lock, and the
# crash-and-recover path through tenant recovery), the lock-free metric
# instruments, the trace sink's mutex, the symbol table, and the hand-over
# contract of SharedText and EventInstancePtr, whose plain counts need a
# happens-before edge between threads that take turns (binding_test). It
# runs the tests tagged with the TSAN ctest label (rfidcep_test(... TSAN)
# in tests/CMakeLists.txt); every engine runs detection on one thread, so
# everything else is single-threaded.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

CCACHE_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  CCACHE_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_pass() {
  local dir="$1"
  local label="$2"
  shift 2
  echo "== configure $dir ($*)"
  cmake -B "$dir" -S "$REPO_ROOT" ${CCACHE_ARGS[@]+"${CCACHE_ARGS[@]}"} \
    "$@" >/dev/null
  echo "== build $dir"
  cmake --build "$dir" -j >/dev/null
  echo "== ctest $dir${label:+ (-L $label)}"
  (cd "$dir" && ctest --output-on-failure -j "$(nproc)" ${label:+-L "$label"})
}

run_pass "$REPO_ROOT/build" "" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DASAN=OFF -DRFIDCEP_TSAN=OFF
if [[ "$FAST" -eq 0 ]]; then
  run_pass "$REPO_ROOT/build-asan" "" -DASAN=ON -DCMAKE_BUILD_TYPE=Debug
  run_pass "$REPO_ROOT/build-tsan" "TSAN" \
    -DRFIDCEP_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
echo "All checks passed."
