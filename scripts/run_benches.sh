#!/usr/bin/env bash
# Runs the perf suite backing BENCH_rfidcep.json:
#
#   * bench/fig9_scalability --series=events  (paper Fig. 9a reproduction)
#   * bench/fig9_scalability --series=rules   (SKU x site rule-set sweep,
#                                              500 -> 10,000 rules)
#   * bench/fig9_scalability --series=workload (FIG9-W airport baggage)
#   * bench/bench_bindings                    (hot-path microbenchmarks +
#                                              allocs_per_iter counters)
#
# Usage: scripts/run_benches.sh [build-dir]
#
# Builds Release into `build-dir` (default: build-bench), reruns both
# benchmarks, and rewrites BENCH_rfidcep.json at the repo root. The
# "seed" series in the JSON is the recorded pre-optimization baseline
# (commit 65bc83f built Release on a single-core host); it is kept
# verbatim so the speedup claim stays auditable.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-bench}"
OUT="$REPO_ROOT/BENCH_rfidcep.json"

cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target fig9_scalability bench_bindings \
  >/dev/null

# Single-run wall-clock on a shared host is noisy; repeat each series and
# let the parser keep the fastest sample per point (counts must agree
# across repeats, and instruction counts within 0.1% — that part is
# asserted, not sampled).
FIG9_TXT=""
for _ in 1 2 3; do
  FIG9_TXT+="$("$BUILD_DIR/bench/fig9_scalability" --series=events)"$'\n'
done
echo "$FIG9_TXT"
# Rules sweep (FIG9-B): the SKU x site duplicate-rule family against one
# fixed 100k-event stream; the committed series is what the CI smoke's
# single-point rules gate compares against, and its own max/min
# usec/event ratio is the rule-set compiler's scaling contract.
RULES_TXT=""
for _ in 1 2; do
  RULES_TXT+="$("$BUILD_DIR/bench/fig9_scalability" --series=rules)"$'\n'
done
echo "$RULES_TXT"
# Airport-baggage workload (FIG9-W): the committed series the nightly
# workload sweep is gated against (usec/event, plus exact match counts —
# the generator is seeded).
WORKLOAD_FILES=""
for i in 1 2; do
  "$BUILD_DIR/bench/fig9_scalability" --series=workload \
    --json-out="$BUILD_DIR/workload-$i.json"
  WORKLOAD_FILES+="$BUILD_DIR/workload-$i.json "
done
BINDINGS_JSON="$("$BUILD_DIR/bench/bench_bindings" \
  --benchmark_format=json --benchmark_min_time=0.2 2>/dev/null)"
HOST_CORES="$(nproc)"

FIG9_TXT="$FIG9_TXT" RULES_TXT="$RULES_TXT" \
  BINDINGS_JSON="$BINDINGS_JSON" WORKLOAD_FILES="$WORKLOAD_FILES" \
  HOST_CORES="$HOST_CORES" python3 - "$OUT" <<'EOF'
import json, os, sys

# Pre-optimization baseline: seed commit, Release, same harness settings,
# recorded on a host with SEED_HOST_CORES cores.
SEED_HOST_CORES = 1
SEED_FIG9A = [
    {"events": 50000,  "total_ms": 912.8,  "usec_per_event": 18.262},
    {"events": 100000, "total_ms": 2447.9, "usec_per_event": 24.469},
    {"events": 150000, "total_ms": 3689.3, "usec_per_event": 24.582},
    {"events": 200000, "total_ms": 5286.6, "usec_per_event": 26.448},
    {"events": 250000, "total_ms": 6409.4, "usec_per_event": 25.655},
]

def parse_compiler(text):
    """The compiler fig9_scalability names in its banner."""
    names = {line.split(":", 1)[1].strip() for line in text.splitlines()
             if line.startswith("compiler:")}
    assert len(names) == 1, names
    return names.pop()

def parse_rows(text, key):
    """Parses data rows (key, total_ms, usec/event, two counts, then
    instr/event and cycles/event, "-" when the kernel refused the
    counters), keeping the fastest repeat per key and asserting that the
    count columns agree across repeats and instruction counts within
    0.1%: both are properties of the code, not of the host's load."""
    best = {}
    instructions = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 7 or not parts[0].isdigit():
            continue
        row = {
            key: int(parts[0]),
            "total_ms": float(parts[1]),
            "usec_per_event": float(parts[2]),
            "counts": (int(parts[3]), int(parts[4])),
        }
        if parts[5] != "-" and parts[6] != "-":
            row["instructions_per_event"] = int(parts[5])
            row["cycles_per_event"] = int(parts[6])
            seen = instructions.setdefault(row[key], [])
            seen.append(row["instructions_per_event"])
            assert max(seen) <= 1.001 * min(seen), (row[key], seen)
        prev = best.get(row[key])
        if prev is not None:
            assert prev["counts"] == row["counts"], (prev, row)
        if prev is None or row["total_ms"] < prev["total_ms"]:
            best[row[key]] = row
    return [best[k] for k in sorted(best)]

def with_counters(out, row):
    """`out` plus the row's instr/event and cycles/event, when counted."""
    for field in ("instructions_per_event", "cycles_per_event"):
        if field in row:
            out[field] = row[field]
    return out

compiler = parse_compiler(os.environ["FIG9_TXT"] + os.environ["RULES_TXT"])

current = []
for row in parse_rows(os.environ["FIG9_TXT"], "events"):
    current.append(with_counters({
        "events": row["events"],
        "total_ms": row["total_ms"],
        "usec_per_event": row["usec_per_event"],
        "matches": row["counts"][0],
        "pseudo": row["counts"][1],
    }, row))

for seed, cur in zip(SEED_FIG9A, current):
    assert seed["events"] == cur["events"]
    cur["speedup_vs_seed"] = round(
        seed["usec_per_event"] / cur["usec_per_event"], 3)

rules = []
for row in parse_rows(os.environ["RULES_TXT"], "rules"):
    rules.append(with_counters({
        "rules": row["rules"],
        "total_ms": row["total_ms"],
        "usec_per_event": row["usec_per_event"],
        "matches": row["counts"][0],
        "pseudo": row["counts"][1],
    }, row))
assert rules, "rules series missing"
rules_ratio = round(
    max(r["usec_per_event"] for r in rules) /
    min(r["usec_per_event"] for r in rules), 3)

workload = {}
for path in os.environ["WORKLOAD_FILES"].split():
    with open(path) as f:
        rows = json.load(f)["rows"]
    for row in rows:
        key = (row["events"], row["rule_family"])
        prev = workload.get(key)
        if prev is not None:
            assert prev["matches"] == row["matches"], (prev, row)
        if prev is None or row["total_ms"] < prev["total_ms"]:
            workload[key] = {k: row[k] for k in (
                "rule_family", "events", "total_ms", "usec_per_event",
                "matches")}
assert workload, "workload series missing"

micro = []
for run in json.loads(os.environ["BINDINGS_JSON"]).get("benchmarks", []):
    micro.append({
        "name": run["name"],
        "cpu_ns": round(run["cpu_time"], 2),
        "allocs_per_iter": run.get("allocs_per_iter", 0.0),
    })

min_speedup = min(c["speedup_vs_seed"] for c in current)

doc = {
    "benchmark": "rfidcep Fig. 9a (events series) + binding microbenchmarks",
    "harness": "bench/fig9_scalability, Release build; fastest of 3 "
               "repeats per events point, fastest of 2 per rules and "
               "workload point",
    "units": {"fig9a": "usec per primitive event", "micro": "ns CPU"},
    "seed_baseline": {
        "commit": "65bc83f",
        "host_cores": SEED_HOST_CORES,
        "fig9a_events": SEED_FIG9A,
    },
    "current": {
        # The compiler that built fig9_scalability: bench_guard compares
        # instructions per event only against a run of the same one.
        "compiler": compiler,
        "fig9a_events": current,
        "rules": {
            "workload": "sku_site rule family (one duplicate-detection "
                        "rule per (site, SKU) pair), 20 sites x 500 SKUs, "
                        "one fixed 100000-event stream, batch=1024",
            "events": 100000,
            "host_cores": int(os.environ["HOST_CORES"]),
            "usec_ratio_max_vs_min": rules_ratio,
            "series": rules,
        },
        "micro": micro,
        "workload": {
            "workload": "FIG9-W airport baggage (sim/workload.h "
                        "GenerateBaggage, 4 rules: misroute/journey/stuck/"
                        "reread), seeded generator; baggage_time = "
                        "timestamp order, baggage_upload = per-reader "
                        "upload order with out-of-order tolerance",
            "host_cores": int(os.environ["HOST_CORES"]),
            "note": "matches are deterministic per events point (seeded "
                    "PRNG); bench_guard treats a match mismatch at a "
                    "committed event count as a semantic divergence, not "
                    "noise",
            "series": [workload[k] for k in sorted(workload)],
        },
    },
    "claims": [
        "usec/event is lower than the seed at every Fig. 9a point "
        f"(min speedup {min_speedup:.2f}x in this run). The seed was "
        f"recorded on another host ({SEED_HOST_CORES} core; this run: "
        f"{os.environ['HOST_CORES']}), so speedup_vs_seed includes the "
        "host difference; docs/performance.md has same-host pairs",
        "match and pseudo-event counts are identical to the seed "
        "(behavior-preserving optimization)",
        "allocs_per_iter is 0 for BM_PairingProbe, BM_ComputeJoinKey, "
        "BM_UnifiesWith and BM_JoinBufferChurn: the per-event pairing "
        "path performs no heap allocation and builds no std::string keys, "
        "and a warm join buffer buffers, consumes and expires entries "
        "without allocating (asserted in ctest by binding_test and "
        "join_buffer_test)",
        "per-event dispatch cost scales with the rules an observation "
        "can match, not the rule-set size: 10,000 rules cost at most "
        f"{rules_ratio:.2f}x the cheapest rules-sweep point "
        "(see current.rules.series; budget 2.0)",
    ],
}
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {sys.argv[1]}")
EOF
