#!/usr/bin/env python3
"""Fail if any benchmark's wall_ms regressed past a loose band vs baseline,
or if any of its deterministic counters changed at all.

Usage: check_wall_regression.py NEW_JSON BASELINE_JSON [--max-ratio 2.0]
                                [--min-ms 1.0]

Rows are matched by benchmark name; rows present on only one side are
ignored (renames and new benches don't break the gate). For every common
row the deterministic counters (ios, block_ios, ios_per_query, work) must
match the baseline exactly: block I/Os and work are pure functions of the
code and the input, so any difference is a behaviour change, never noise.
A counter present on one side only also counts as a mismatch.

Rows whose baseline wall_ms is below --min-ms are skipped by the wall check
as noise. The default 2x band is deliberately loose: it tolerates machine
variance between the committed baseline and the CI runner and catches only
accidental slow paths (an engine fallback kicking in, a debug assert left
on, quadratic bookkeeping).

Note: the JSON context's "library_build_type" describes how the
google-benchmark *library* was built (the distro package reports "debug");
the benchmarked code itself is Release (-O3 -DNDEBUG) both in the committed
baselines and in the CI bench-smoke job, so the comparison is like-for-like.
"""
import argparse
import json
import sys

EXACT_COUNTERS = ("ios", "block_ios", "ios_per_query", "work")


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
        ratio = new_ms / base_ms
        marker = " <-- REGRESSION" if ratio > args.max_ratio else ""
        print(f"{name}: {base_ms:.2f} ms -> {new_ms:.2f} ms "
              f"({ratio:.2f}x){marker}")
        if ratio > args.max_ratio:
            failures.append(name)

    errors = []
    if mismatches:
        errors.append(f"{len(mismatches)} deterministic counter(s) differ "
                      f"from the baseline: {', '.join(mismatches)}")
    if failures:
        errors.append(f"{len(failures)} benchmark(s) regressed >"
                      f"{args.max_ratio}x: {', '.join(failures)}")
    if errors:
        sys.exit("\n".join(errors))
    print(f"OK: {len(common)} rows within the {args.max_ratio}x band, "
          f"counters exact")


if __name__ == "__main__":
    main()
