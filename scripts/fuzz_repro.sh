#!/usr/bin/env bash
# Replay a divergence dumped by tests/property/differential_fuzz_test.
#
#   scripts/fuzz_repro.sh CASE.rules CASE.trace [CASE.rewrites] [BUILD_DIR]
#
# Runs the full differential check (reference interpreter vs serial in
# chronicle and unrestricted, the per-case invariants, batch-split,
# incremental AdvanceTo, crash-recovery and durable executions) over
# exactly that rules/trace pair, with the fuzz harness's environment
# (A and B in group G at locations LA and LB, C unregistered; o0 and o1
# cases, o2 an item), as the sweep did. A divergence report is the account of
# what fired: it prints the reference and engine spans of the diverging
# rule. A third .rewrites argument (dumped by the metamorphic axis) is
# staged alongside the pair, so CorpusReplays also re-applies the
# recorded rewrite chain and re-checks original vs rewritten agreement.
# A fixed case is a candidate for tests/property/corpus/ — copy the files
# there with a comment header explaining the bug.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 CASE.rules CASE.trace [CASE.rewrites] [BUILD_DIR]" >&2
  exit 2
fi

RULES="$(cd "$(dirname "$1")" && pwd)/$(basename "$1")"
TRACE="$(cd "$(dirname "$2")" && pwd)/$(basename "$2")"
REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# Optional third positional: a .rewrites chain. Anything else in that
# slot is the build directory (the pre-metamorphic calling convention).
REWRITES=""
BUILD_DIR="$REPO_ROOT/build"
if [[ $# -ge 3 ]]; then
  if [[ "$3" == *.rewrites ]]; then
    REWRITES="$(cd "$(dirname "$3")" && pwd)/$(basename "$3")"
    BUILD_DIR="${4:-$REPO_ROOT/build}"
  else
    BUILD_DIR="$3"
  fi
fi
FUZZ_BIN="$BUILD_DIR/tests/differential_fuzz_test"

if [[ ! -x "$FUZZ_BIN" ]]; then
  echo "error: $FUZZ_BIN not built (cmake -B \"$BUILD_DIR\" -S \"$REPO_ROOT\" && cmake --build \"$BUILD_DIR\" -j)" >&2
  exit 1
fi

# Stage the case as a one-case corpus and run the differential replay.
STAGE="$(mktemp -d)"
trap 'rm -rf "$STAGE"' EXIT
cp "$RULES" "$STAGE/repro.rules"
cp "$TRACE" "$STAGE/repro.trace"
if [[ -n "$REWRITES" ]]; then
  cp "$REWRITES" "$STAGE/repro.rewrites"
  echo "== rewrite chain"
  grep -v '^#' "$REWRITES" || true
  echo
fi

echo "== differential replay (reference vs serial/batched/incremental/recovered)"
DIFF_STATUS=0
RFIDCEP_CORPUS_DIR="$STAGE" "$FUZZ_BIN" \
  --gtest_filter='DifferentialFuzz.CorpusReplays' || DIFF_STATUS=$?

echo
if [[ "$DIFF_STATUS" -ne 0 ]]; then
  echo "DIVERGENCE: differential replay failed (exit $DIFF_STATUS)" >&2
  exit 1
fi
echo "OK: all executions agree"
