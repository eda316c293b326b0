#!/usr/bin/env bash
# Replay a divergence dumped by tests/property/differential_fuzz_test.
#
#   scripts/fuzz_repro.sh CASE.rules CASE.trace [CASE.rewrites] [BUILD_DIR]
#
# Runs the full differential check (reference interpreter vs serial,
# sharded x2/x4, batch-split, and incremental AdvanceTo executions) over
# exactly that rules/trace pair, then replays it through the engine with
# examples/trace_replay for a human-readable account of what fired. A
# third .rewrites argument (dumped by the metamorphic axis) is staged
# alongside the pair, so CorpusReplays also re-applies the recorded
# rewrite chain and re-checks original vs rewritten agreement. The
# differential replay runs with the fuzz harness's reader registry (A and
# B in group G at locations LA and LB, C unregistered), as the sweep did;
# the engine replay runs with trace_replay's supply-chain registry, so for
# rules naming group G its account can differ. A fixed case is a
# candidate for tests/property/corpus/ — copy the files there with a
# comment header explaining the bug.
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
REPLAY_BIN="$BUILD_DIR/examples/trace_replay"

for bin in "$FUZZ_BIN" "$REPLAY_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake -B \"$BUILD_DIR\" -S \"$REPO_ROOT\" && cmake --build \"$BUILD_DIR\" -j)" >&2
    exit 1
  fi
done

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

echo "== differential replay (reference vs serial/sharded/batched/incremental)"
# Capture the verdict but keep going: the engine replay below is most
# useful precisely when the differential check diverges.
DIFF_STATUS=0
RFIDCEP_CORPUS_DIR="$STAGE" "$FUZZ_BIN" \
  --gtest_filter='DifferentialFuzz.CorpusReplays' || DIFF_STATUS=$?

echo
echo "== engine replay"
# Corpus files carry '#' comment headers the rule parser does not accept.
grep -v '^#' "$RULES" > "$STAGE/replay.rules"
"$REPLAY_BIN" --rules="$STAGE/replay.rules" --trace="$TRACE"

echo
if [[ "$DIFF_STATUS" -ne 0 ]]; then
  echo "DIVERGENCE: differential replay failed (exit $DIFF_STATUS)" >&2
  exit 1
fi
echo "OK: all executions agree"
