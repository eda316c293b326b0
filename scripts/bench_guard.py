#!/usr/bin/env python3
"""Bench regression guard: compare a fig9_scalability run against the
committed numbers in BENCH_rfidcep.json (`current`).

Reads the JSON written by `fig9_scalability --json-out=FILE`, matches
every `events`-series row to the closest current.fig9a_events point by
event count, and fails when usec/event regresses past --max-ratio
(default 2.5x: CI runs are noisy, so the guard catches large
regressions, not percent-level drift; scripts/run_benches.sh tracks the
latter). Every series is compared with its committed point, never with
the pre-optimization seed, and every CI smoke runs at a committed point,
so the ratio reads the same stream on both sides. The generators are
seeded: a row at an exact committed point must also reproduce the
committed match count, or detection semantics drifted (DIVERGED).

When the run contains `rules`-series rows (the SKU x site rule-set
sweep), the guard gates the rule-set compiler's dispatch scaling: with
two or more compiled points, the max/min usec-per-event ratio across
the sweep must stay at or below --rules-max-ratio (default 2.0 — the
"10k rules costs at most 2x the 500-rule point" contract); with a
single point (the CI smoke runs --rules=2000 on the full stream), it is
compared against the closest committed current.rules.series point at
--max-ratio like an events row.

When the run contains `workload`-series rows (the FIG9-W airport-
baggage sweep), each row is gated at --max-ratio against the committed
current.workload.series point with the same rule_family and closest
event count.

Instructions per event repeat exactly run to run, so they separate a
code change from host noise that the wall-time bound must allow for.
Every events or rules row at an exact committed point is also gated on
instructions per event at INSTRUCTIONS_MAX_RATIO (1.01x), when the
run's compiler is the one current.compiler names (fig9 rows carry
`compiler`). Otherwise the guard prints `instructions: SKIPPED
(<reason>)` and gates wall time alone.

    scripts/bench_guard.py --run=fig9-smoke.json \
        [--baseline=BENCH_rfidcep.json] [--max-ratio=2.5]

Exit status: 0 ok, 1 regression or divergence, 2 bad input.
"""

import argparse
import json
import os
import sys

# Instructions per event repeat within 0.1% run to run
# (scripts/run_benches.sh asserts it), so 1% is a code change.
INSTRUCTIONS_MAX_RATIO = 1.01


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_guard: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def verdict_for(row, base, ratio, max_ratio, exact):
    """DIVERGED when `exact` (the row ran `base`'s committed stream) and
    the match counts differ, else ok / REGRESSION by ratio."""
    if exact and "matches" in base and base["matches"] != row.get("matches"):
        print(f"bench_guard: {row['series']} row ({row['events']} events, "
              f"{row['rules']} rules) produced {row.get('matches')} "
              f"matches, committed {base['matches']} — the seeded "
              "generator is deterministic, so detection semantics changed",
              file=sys.stderr)
        return "DIVERGED"
    return "ok" if ratio <= max_ratio else "REGRESSION"


def check_events(rows, baseline, max_ratio, exact_pairs):
    """Gates events-series rows against current.fig9a_events, appending
    (label, row, committed point) to `exact_pairs` for each row at an
    exact committed point. Returns True when every row holds."""
    committed = baseline.get("current", {}).get("fig9a_events", [])
    if not committed:
        print("bench_guard: baseline has no current.fig9a_events",
              file=sys.stderr)
        sys.exit(2)
    ok = True
    print(f"{'events':>10} {'run us/ev':>12} {'committed':>12} "
          f"{'ratio':>8}  verdict   (committed point)")
    for row in rows:
        base = min(committed, key=lambda p: abs(p["events"] - row["events"]))
        ratio = row["usec_per_event"] / base["usec_per_event"]
        exact = base["events"] == row["events"]
        if exact:
            exact_pairs.append((f"{row['events']} events", row, base))
        verdict = verdict_for(row, base, ratio, max_ratio, exact)
        ok &= verdict == "ok"
        print(f"{row['events']:>10} {row['usec_per_event']:>12.3f} "
              f"{base['usec_per_event']:>12.3f} {ratio:>8.2f}  "
              f"{verdict:<9} (events={base['events']})")
    return ok


def check_rules(rules_rows, baseline, max_ratio, rules_max_ratio,
                exact_pairs):
    """Gates rules-series rows (see module docstring), appending (label,
    row, committed point) to `exact_pairs` for each row at an exact
    committed point. Returns True when the sweep's dispatch scaling holds
    its budget and every row at a committed point reproduces its match
    count."""
    rules = baseline.get("current", {}).get("rules", {})
    committed = rules.get("series", [])
    stream = rules.get("events")

    def base_for(row):
        base = min(committed, key=lambda p: abs(p["rules"] - row["rules"]))
        exact = base["rules"] == row["rules"] and stream == row["events"]
        if exact:
            exact_pairs.append((f"{row['rules']} rules", row, base))
        return base, exact

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
        # Only counts are gated per row: the scaling ratio above is the
        # sweep's timing budget.
        for row in rows if committed else []:
            base, exact = base_for(row)
            ok &= verdict_for(row, base, 0.0, max_ratio, exact) == "ok"
        return ok
    if not committed:
        print("bench_guard: baseline has no current.rules.series; "
              "skipping the single-point rules gate", file=sys.stderr)
        return True
    row = rows[0]
    base, exact = base_for(row)
    ratio = row["usec_per_event"] / base["usec_per_event"]
    verdict = verdict_for(row, base, ratio, max_ratio, exact)
    print(f"rules smoke: {row['rules']} rules at "
          f"{row['usec_per_event']:.3f} us/ev vs committed "
          f"{base['rules']} rules at {base['usec_per_event']:.3f} us/ev, "
          f"ratio {ratio:.2f} (budget {max_ratio})  {verdict}")
    if verdict == "REGRESSION":
        print("bench_guard: rules-series usec/event regressed past "
              f"--max-ratio={max_ratio}", file=sys.stderr)
    return verdict == "ok"


def check_instructions(exact_pairs, baseline):
    """Gates instructions per event on the rows at exact committed
    points, when the run and the baseline were built by one compiler.
    Returns True when every gated row holds or the gate is skipped."""
    committed = baseline.get("current", {}).get("compiler")
    counted = [(label, row, base) for label, row, base in exact_pairs
               if "instructions_per_event" in row
               and "instructions_per_event" in base]
    compilers = sorted({row.get("compiler", "an unnamed compiler")
                        for _, row, _ in counted})
    reason = None
    if committed is None:
        reason = "the baseline names no compiler"
    elif not counted:
        reason = "no row at an exact committed point has instruction counts"
    elif compilers != [committed]:
        reason = (f"run built by {', '.join(compilers)}, baseline by "
                  f"{committed}")
    if reason is not None:
        print(f"instructions: SKIPPED ({reason})")
        return True
    ok = True
    for label, row, base in counted:
        ratio = row["instructions_per_event"] / base["instructions_per_event"]
        verdict = "ok" if ratio <= INSTRUCTIONS_MAX_RATIO else "REGRESSION"
        ok &= verdict == "ok"
        print(f"instructions: {label}: {row['instructions_per_event']:.0f} "
              f"vs committed {base['instructions_per_event']:.0f} per "
              f"event, ratio {ratio:.3f} (budget {INSTRUCTIONS_MAX_RATIO})"
              f"  {verdict}")
    if not ok:
        print("bench_guard: instructions per event regressed past "
              f"{INSTRUCTIONS_MAX_RATIO}x", file=sys.stderr)
    return ok


def check_workload(workload_rows, baseline, max_ratio):
    """Gates workload-series rows (the FIG9-W airport-baggage sweep)
    against current.workload.series: each (rule_family, closest events)
    point must hold usec/event within max_ratio of the committed value,
    and a run at the exact committed event count must reproduce its
    match count. Returns True when every comparable point holds."""
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
        verdict = verdict_for(row, base, ratio, max_ratio,
                              base["events"] == row["events"])
        ok &= verdict == "ok"
        print(f"{row['events']:>10} {family:>16} "
              f"{row['usec_per_event']:>10.3f} "
              f"{base['usec_per_event']:>10.3f} {ratio:>6.2f}  {verdict}")
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
                        help="committed numbers (default: repo "
                             "BENCH_rfidcep.json)")
    parser.add_argument("--max-ratio", type=float, default=2.5,
                        help="fail when usec/event exceeds the committed "
                             "point's by this factor")
    parser.add_argument("--rules-max-ratio", type=float, default=2.0,
                        help="fail when the rules sweep's max/min "
                             "usec/event ratio exceeds this (dispatch must "
                             "scale with matching rules, not rule count)")
    args = parser.parse_args()

    run = load_json(args.run)
    baseline = load_json(args.baseline)

    rows = [r for r in run.get("rows", []) if r.get("series") == "events"]
    rules_rows = [r for r in run.get("rows", [])
                  if r.get("series") == "rules"]
    workload_rows = [r for r in run.get("rows", [])
                     if r.get("series") == "workload"]
    if not rows and not rules_rows and not workload_rows:
        print("bench_guard: run has no events-, rules- or workload-series "
              "rows (pass --series=... to fig9_scalability)",
              file=sys.stderr)
        sys.exit(2)

    failed = False
    exact_pairs = []
    if rows:
        failed |= not check_events(rows, baseline, args.max_ratio,
                                   exact_pairs)

    if rules_rows:
        failed |= not check_rules(rules_rows, baseline, args.max_ratio,
                                  args.rules_max_ratio, exact_pairs)

    if rows or rules_rows:
        failed |= not check_instructions(exact_pairs, baseline)

    if workload_rows:
        failed |= not check_workload(workload_rows, baseline,
                                     args.max_ratio)

    if failed:
        print("bench_guard: performance regressed past budget "
              f"(--max-ratio={args.max_ratio}) or a count diverged",
              file=sys.stderr)
        sys.exit(1)
    print("bench_guard: within budget")


if __name__ == "__main__":
    main()
