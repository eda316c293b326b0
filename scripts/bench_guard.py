#!/usr/bin/env python3
"""Bench regression guard: compare a fig9_scalability run against the seed.

Reads the JSON written by `fig9_scalability --json-out=FILE` and the
checked-in baseline (BENCH_rfidcep.json), matches every `events`-series
row to the closest seed Fig. 9a point by event count, and fails when
usec/event regresses past --max-ratio (default 2.5x — CI smoke runs are
small and noisy, so the guard catches order-of-magnitude regressions,
not percent-level drift; scripts/run_benches.sh tracks the latter).

When the run contains `rules`-series rows (the SKU x site rule-set
sweep), the guard gates the rule-set compiler's dispatch scaling: with
two or more compiled points, the max/min usec-per-event ratio across
the sweep must stay at or below --rules-max-ratio (default 2.0 — the
"10k rules costs at most 2x the 500-rule point" contract); with a
single point (the CI smoke runs --rules=2000), it is compared against
the closest committed current.rules.series point at --max-ratio like
an events row.

When the run also contains `shards`-series rows, the guard additionally
gates the sharded pipeline: every shards point must have a committed
counterpart (same shard count) in current.shards.series — a run point
without one fails rather than passing unchecked — and the run's
RELATIVE speedup versus its own shards=1 row must stay at or above
--shards-min-ratio (default 0.9) times the committed speedup_vs_1shard.
Comparing relative speedups, not absolute usec/event, keeps the gate
meaningful across hosts of different speeds and core counts — a
shards=2 point that commits at 0.8x on the recording host fails CI only
when the smoke run drops below 0.72x of ITS serial baseline, i.e. when
the coordination overhead itself regressed.

When the run contains `workload`-series rows (the FIG9-W airport-
baggage sweep), each row is gated at --max-ratio against the committed
current.workload.series point with the same rule_family and closest
event count; a run at the exact committed event count must also
reproduce the committed match count (the generator is seeded, so a
mismatch means detection semantics drifted, not noise).

    scripts/bench_guard.py --run=fig9-smoke.json \
        [--baseline=BENCH_rfidcep.json] [--max-ratio=2.5] \
        [--shards-min-ratio=0.9]

Exit status: 0 ok, 1 regression, 2 bad input.
"""

import argparse
import json
import os
import sys


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_guard: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def check_shards(shard_rows, baseline, min_ratio):
    """Gates shards-series rows against current.shards.series. Returns
    True when every point has a committed counterpart and holds its
    committed relative speedup (see module docstring)."""
    committed = (baseline.get("current", {}).get("shards", {})
                 .get("series", []))
    by_shards = {r["shards"]: r for r in committed}
    serial = [r for r in shard_rows if r["shards"] == 1]
    if not serial:
        print("bench_guard: shards rows lack the shards=1 baseline "
              "point (fig9_scalability always emits it — pass the "
              "whole series)", file=sys.stderr)
        sys.exit(2)
    serial_usec = min(r["usec_per_event"] for r in serial)
    ok = True
    print(f"{'shards':>10} {'run spdup':>10} {'committed':>10} "
          f"{'floor':>8}  verdict")
    for row in shard_rows:
        if row["shards"] == 1:
            continue
        speedup = serial_usec / row["usec_per_event"]
        base = by_shards.get(row["shards"])
        if base is None or "speedup_vs_1shard" not in base:
            ok = False
            print(f"{row['shards']:>10} {speedup:>10.3f} {'-':>10} "
                  f"{'-':>8}  MISSING (no committed point)")
            continue
        floor = base["speedup_vs_1shard"] * min_ratio
        verdict = "ok" if speedup >= floor else "REGRESSION"
        ok &= verdict == "ok"
        print(f"{row['shards']:>10} {speedup:>10.3f} "
              f"{base['speedup_vs_1shard']:>10.3f} {floor:>8.3f}  "
              f"{verdict}")
    if not ok:
        print("bench_guard: a sharded point has no committed counterpart "
              "or its relative speedup regressed below "
              f"{min_ratio}x of the committed value", file=sys.stderr)
    return ok


def check_rules(rules_rows, baseline, max_ratio, rules_max_ratio):
    """Gates rules-series rows (see module docstring). Returns True when
    the sweep's dispatch scaling holds its budget."""
    rows = rules_rows
    if len(rows) >= 2:
        lo = min(rows, key=lambda r: r["usec_per_event"])
        hi = max(rows, key=lambda r: r["usec_per_event"])
        ratio = hi["usec_per_event"] / lo["usec_per_event"]
        ok = ratio <= rules_max_ratio
        print(f"rules sweep: {lo['rules']} rules at "
              f"{lo['usec_per_event']:.3f} us/ev -> {hi['rules']} rules "
              f"at {hi['usec_per_event']:.3f} us/ev, ratio {ratio:.2f} "
              f"(budget {rules_max_ratio})  "
              f"{'ok' if ok else 'REGRESSION'}")
        if not ok:
            print("bench_guard: dispatch cost no longer scales with "
                  "matching rules — the rule-set compiler's contract "
                  f"(max/min <= {rules_max_ratio}) is broken",
                  file=sys.stderr)
        return ok
    committed = (baseline.get("current", {}).get("rules", {})
                 .get("series", []))
    if not committed:
        print("bench_guard: baseline has no current.rules.series; "
              "skipping the single-point rules gate", file=sys.stderr)
        return True
    row = rows[0]
    base = min(committed, key=lambda p: abs(p["rules"] - row["rules"]))
    ratio = row["usec_per_event"] / base["usec_per_event"]
    ok = ratio <= max_ratio
    print(f"rules smoke: {row['rules']} rules at "
          f"{row['usec_per_event']:.3f} us/ev vs committed "
          f"{base['rules']} rules at {base['usec_per_event']:.3f} us/ev, "
          f"ratio {ratio:.2f} (budget {max_ratio})  "
          f"{'ok' if ok else 'REGRESSION'}")
    if not ok:
        print("bench_guard: rules-series usec/event regressed past "
              f"--max-ratio={max_ratio}", file=sys.stderr)
    return ok


def check_workload(workload_rows, baseline, max_ratio):
    """Gates workload-series rows (the FIG9-W airport-baggage sweep)
    against current.workload.series: each (rule_family, closest events)
    point must hold usec/event within max_ratio of the committed value,
    and — because the workload generator is seeded — a run at the exact
    committed event count must reproduce its match count bit-for-bit
    (an out-of-order-tolerance semantic canary, not a perf gate).
    Returns True when every comparable point holds."""
    committed = (baseline.get("current", {}).get("workload", {})
                 .get("series", []))
    if not committed:
        print("bench_guard: baseline has no current.workload.series; "
              "skipping the workload gate", file=sys.stderr)
        return True
    by_family = {}
    for point in committed:
        by_family.setdefault(point["rule_family"], []).append(point)
    ok = True
    print(f"{'events':>10} {'order':>16} {'run us/ev':>10} "
          f"{'committed':>10} {'ratio':>6}  verdict")
    for row in workload_rows:
        family = row.get("rule_family", "")
        points = by_family.get(family)
        if points is None:
            print(f"{row['events']:>10} {family:>16} "
                  f"{row['usec_per_event']:>10.3f} {'-':>10} {'-':>6}  "
                  "skipped (no committed family)")
            continue
        base = min(points, key=lambda p: abs(p["events"] - row["events"]))
        ratio = row["usec_per_event"] / base["usec_per_event"]
        verdict = "ok" if ratio <= max_ratio else "REGRESSION"
        if (base["events"] == row["events"] and "matches" in base
                and base["matches"] != row.get("matches")):
            verdict = "DIVERGED"
        ok &= verdict == "ok"
        print(f"{row['events']:>10} {family:>16} "
              f"{row['usec_per_event']:>10.3f} "
              f"{base['usec_per_event']:>10.3f} {ratio:>6.2f}  {verdict}")
        if verdict == "DIVERGED":
            print(f"bench_guard: {family} at {row['events']} events "
                  f"produced {row.get('matches')} matches, committed "
                  f"{base['matches']} — the seeded workload is "
                  "deterministic, so detection semantics changed",
                  file=sys.stderr)
    if not ok:
        print("bench_guard: workload-series gate failed "
              f"(--max-ratio={max_ratio})", file=sys.stderr)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--run", required=True,
                        help="JSON from fig9_scalability --json-out")
    parser.add_argument("--baseline",
                        default=os.path.join(
                            os.path.dirname(os.path.dirname(
                                os.path.abspath(__file__))),
                            "BENCH_rfidcep.json"),
                        help="seed baseline (default: repo BENCH_rfidcep.json)")
    parser.add_argument("--max-ratio", type=float, default=2.5,
                        help="fail when usec/event exceeds seed by this factor")
    parser.add_argument("--shards-min-ratio", type=float, default=0.9,
                        help="fail when a shards point's relative speedup "
                             "falls below this fraction of the committed "
                             "speedup_vs_1shard")
    parser.add_argument("--rules-max-ratio", type=float, default=2.0,
                        help="fail when the rules sweep's max/min "
                             "usec/event ratio exceeds this (dispatch must "
                             "scale with matching rules, not rule count)")
    args = parser.parse_args()

    run = load_json(args.run)
    baseline = load_json(args.baseline)

    seed_points = baseline.get("seed_baseline", {}).get("fig9a_events", [])
    if not seed_points:
        print("bench_guard: baseline has no seed_baseline.fig9a_events",
              file=sys.stderr)
        sys.exit(2)

    rows = [r for r in run.get("rows", []) if r.get("series") == "events"]
    shard_rows = [r for r in run.get("rows", [])
                  if r.get("series") == "shards"]
    rules_rows = [r for r in run.get("rows", [])
                  if r.get("series") == "rules"]
    workload_rows = [r for r in run.get("rows", [])
                     if r.get("series") == "workload"]
    if not rows and not shard_rows and not rules_rows and not workload_rows:
        print("bench_guard: run has no events-, rules-, shards- or "
              "workload-series rows (pass --series=... to "
              "fig9_scalability)", file=sys.stderr)
        sys.exit(2)

    failed = False
    if rows:
        print(f"{'events':>10} {'run us/ev':>12} {'seed us/ev':>12} "
              f"{'ratio':>8}  verdict   (seed point)")
    for row in rows:
        events = row["events"]
        # Closest seed point by event count; smoke runs use fewer events
        # than any seed point, which is conservative (per-event cost
        # falls as fixed compile cost amortizes over more events).
        seed = min(seed_points, key=lambda p: abs(p["events"] - events))
        ratio = row["usec_per_event"] / seed["usec_per_event"]
        verdict = "ok" if ratio <= args.max_ratio else "REGRESSION"
        failed |= verdict != "ok"
        print(f"{events:>10} {row['usec_per_event']:>12.3f} "
              f"{seed['usec_per_event']:>12.3f} {ratio:>8.2f}  {verdict:<9} "
              f"(events={seed['events']})")

    if rules_rows:
        failed |= not check_rules(rules_rows, baseline, args.max_ratio,
                                  args.rules_max_ratio)

    if shard_rows:
        failed |= not check_shards(shard_rows, baseline,
                                   args.shards_min_ratio)

    if workload_rows:
        failed |= not check_workload(workload_rows, baseline,
                                     args.max_ratio)

    if failed:
        print("bench_guard: performance regressed past budget "
              f"(--max-ratio={args.max_ratio}, "
              f"--shards-min-ratio={args.shards_min_ratio})",
              file=sys.stderr)
        sys.exit(1)
    print("bench_guard: within budget")


if __name__ == "__main__":
    main()
