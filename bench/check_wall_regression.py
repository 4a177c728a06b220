#!/usr/bin/env python3
"""Fail if any benchmark's wall_ms regressed past a loose band vs baseline,
if any of its deterministic counters changed at all, or if a row is present
on one side only.

Usage: check_wall_regression.py NEW_JSON BASELINE_JSON [--max-ratio 2.0]
                                [--min-ms 1.0]

Rows are matched by benchmark name, and both files must hold the same
names: a row missing from either side fails the check, so a dropped or
renamed row shows up instead of passing unseen (a rename updates the
baseline in the same change). For every row the deterministic counters
(triangles, reads, writes, ios, block_ios, ios_per_query, work; the
simulated and real storage counters sim_ios, sim_reads, sim_writes,
real_read_calls, real_write_calls; the join's join_ios; and the two cache
levels' l1_ios, l2_ios) must match the baseline exactly: triangles, block
I/Os, storage calls and work are pure functions of the code and the input,
so any difference is a behaviour change, never noise. A counter present on
one side only also counts as a mismatch.

A row that lacks wall_ms on either side is compared on its counters only;
bench/io_sweep.cc writes only such rows. Rows whose baseline wall_ms is below
--min-ms are skipped by the wall check as noise. The default 2x band is
deliberately loose: it tolerates machine variance between the committed
baseline and the CI runner and catches only accidental slow paths (an
engine fallback kicking in, a debug assert left on, quadratic bookkeeping).

Note: the JSON context's "library_build_type" describes how the
google-benchmark *library* was built (the distro package reports "debug");
the benchmarked code itself is Release (-O3 -DNDEBUG) both in the committed
baselines and in the CI bench-smoke job, so the comparison is like-for-like.
"""
import argparse
import json
import sys

EXACT_COUNTERS = ("triangles", "reads", "writes", "ios", "block_ios",
                  "ios_per_query", "work", "sim_ios", "sim_reads",
                  "sim_writes", "real_read_calls", "real_write_calls",
                  "join_ios", "l1_ios", "l2_ios")


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return {b["name"]: b for b in doc.get("benchmarks", [])}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("new_json")
    ap.add_argument("baseline_json")
    ap.add_argument("--max-ratio", type=float, default=2.0)
    ap.add_argument("--min-ms", type=float, default=1.0)
    args = ap.parse_args()

    new = load_rows(args.new_json)
    base = load_rows(args.baseline_json)
    common = sorted(set(new) & set(base))
    if not common:
        sys.exit(f"no common benchmark rows between {args.new_json} and "
                 f"{args.baseline_json}")

    failures = []
    mismatches = []
    unmatched = []
    walled = 0
    for name in sorted(set(new) ^ set(base)):
        side = "baseline" if name in base else "new run"
        print(f"{name}: only in the {side} <-- ROW MISMATCH")
        unmatched.append(name)
    for name in common:
        for key in EXACT_COUNTERS:
            got, want = new[name].get(key), base[name].get(key)
            if got != want:
                print(f"{name}: {key} {want} -> {got} <-- COUNTER MISMATCH")
                mismatches.append(f"{name} {key}")
        if "wall_ms" not in new[name] or "wall_ms" not in base[name]:
            continue
        base_ms = float(base[name]["wall_ms"])
        new_ms = float(new[name]["wall_ms"])
        if base_ms < args.min_ms:
            continue
        walled += 1
        ratio = new_ms / base_ms
        marker = " <-- REGRESSION" if ratio > args.max_ratio else ""
        print(f"{name}: {base_ms:.2f} ms -> {new_ms:.2f} ms "
              f"({ratio:.2f}x){marker}")
        if ratio > args.max_ratio:
            failures.append(name)

    errors = []
    if unmatched:
        errors.append(f"{len(unmatched)} row(s) present on one side only: "
                      f"{', '.join(unmatched)}")
    if mismatches:
        errors.append(f"{len(mismatches)} deterministic counter(s) differ "
                      f"from the baseline: {', '.join(mismatches)}")
    if failures:
        errors.append(f"{len(failures)} benchmark(s) regressed >"
                      f"{args.max_ratio}x: {', '.join(failures)}")
    if errors:
        sys.exit("\n".join(errors))
    print(f"OK: {len(common)} rows with exact counters; {walled} "
          f"wall-checked, all within the {args.max_ratio}x band")


if __name__ == "__main__":
    main()
