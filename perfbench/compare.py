#!/usr/bin/env python3
"""Compares two sets of benchmark results (say, parent and change).

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the per-run result files perfbench/run.py saves
(.bench_build/results/ by default). For every workload and end-to-end metric
it first prints each side's failed queries, then each side's median and
quartiles over the runs, the change of the median, and the share of pairs
the change wins: a pair is the base and change runs of one seed, a tie
counts for neither side, and the share reads n/a when the sides share no
seed. A change beyond the metric's bound in BENCHMARK.json, in the worse
direction, is marked WORSE.

It then diffs the traced runs layer by layer: the per-layer metrics, and
every phase's self time and I/Os, largest time change first, so a saving or
a regression can be located. Exits 1 when the change fails more queries
than the base on some workload, 2 when a directory holds no results.
"""

import glob
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_results(directory):
    """{(workload, trace): {seed: result}} from one result directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*-trace*.json"))):
        with open(path, encoding="utf-8") as f:
            r = json.load(f)
        runs.setdefault((r["workload"], r["trace"]), {})[r["seed"]] = r
    if not runs:
        sys.exit(f"compare: no results in '{directory}'")
    return runs


def win_share(base, change, better):
    """Share of the seeds both sides ran on which the change wins; a tie is
    no win. `base` and `change` map seed -> value. None when the two sides
    share no seed, since then there are no pairs."""
    common = sorted(set(base) & set(change))
    if not common:
        return None
    wins = sum(1 for s in common
               if base[s] != change[s] and (change[s] < base[s]) == (better == "lower"))
    return wins / len(common)


def failures(runs):
    """(failed, attempted) queries summed over a workload's runs."""
    return (sum(r["failed"] for r in runs.values()),
            sum(r["attempted"] for r in runs.values()))


def relative_change(base, change):
    return (change - base) / base if base else 0.0


def fmt(v):
    return f"{v:.5g}"


def compare_failures(base, change):
    """Prints each side's failed queries per workload and pass; returns
    whether the change fails more queries than the base anywhere."""
    worse = False
    for (workload, trace), b_runs in sorted(base.items()):
        c_runs = change.get((workload, trace))
        if not c_runs:
            continue
        (bf, ba), (cf, ca) = failures(b_runs), failures(c_runs)
        more = cf > bf
        worse |= more
        print(f"{workload:<12} trace={trace} failed queries: base {bf} of {ba}, "
              f"change {cf} of {ca}" + ("  CHANGE FAILS MORE" if more else ""))
    return worse


def compare_end_to_end(base, change, spec):
    print(f"\n{'workload':<12} {'metric':<14} {'base median [q1, q3]':>38} "
          f"{'change median [q1, q3]':>38} {'delta':>8} {'won':>5}")
    for (workload, trace), b_runs in sorted(base.items()):
        c_runs = change.get((workload, trace))
        if trace != 0 or not c_runs:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            b = {s: r["metrics"][name] for s, r in b_runs.items()}
            c = {s: r["metrics"][name] for s, r in c_runs.items()}
            bq = metrics.quartiles(list(b.values()))
            cq = metrics.quartiles(list(c.values()))
            delta = relative_change(bq[1], cq[1])
            worse = delta > m["bound"] if m["better"] == "lower" else -delta > m["bound"]
            b_text = f"{fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}]"
            c_text = f"{fmt(cq[1])} [{fmt(cq[0])}, {fmt(cq[2])}]"
            won = win_share(b, c, m["better"])
            won_text = "n/a" if won is None else f"{won:.0%}"
            print(f"{workload:<12} {name:<14} {b_text:>38} {c_text:>38} "
                  f"{delta:>+8.2%} {won_text:>5}" + ("  WORSE" if worse else ""))


def medians(runs, field):
    """Per key of r[field], the median over the runs that report it."""
    values = {}
    for r in runs.values():
        for k, v in r[field].items():
            values.setdefault(k, []).append(v)
    return {k: metrics.median(v) for k, v in values.items()}


def compare_layers(base, change):
    for (workload, trace), b_runs in sorted(base.items()):
        c_runs = change.get((workload, trace))
        if trace != 1 or not c_runs:
            continue
        print(f"\n{workload}: per-layer metrics (medians over {len(b_runs)} base "
              f"and {len(c_runs)} change traced runs)")
        bm, cm = medians(b_runs, "metrics"), medians(c_runs, "metrics")
        for name in bm:
            if name in cm and (bm[name] or cm[name]):
                print(f"  {name:<34} {fmt(bm[name]):>12} {fmt(cm[name]):>12} "
                      f"{relative_change(bm[name], cm[name]):>+8.2%}")

        print(f"\n{workload}: phases, largest self-time change first")
        print(f"  {'phase':<22} {'base ms':>10} {'change ms':>10} {'delta ms':>10} "
              f"{'base ios':>12} {'change ios':>12}")
        phases = {}
        for side, runs in (("base", b_runs), ("change", c_runs)):
            for r in runs.values():
                for name, p in r["phases"].items():
                    row = phases.setdefault(name, {"base": [], "change": []})
                    row[side].append(p)
        rows = []
        for name, row in phases.items():
            b_ms = metrics.median([p["self_ms"] for p in row["base"]] or [0.0])
            c_ms = metrics.median([p["self_ms"] for p in row["change"]] or [0.0])
            b_io = metrics.median([p["ios"] for p in row["base"]] or [0.0])
            c_io = metrics.median([p["ios"] for p in row["change"]] or [0.0])
            rows.append((abs(c_ms - b_ms), name, b_ms, c_ms, b_io, c_io))
        for _, name, b_ms, c_ms, b_io, c_io in sorted(rows, reverse=True):
            print(f"  {name:<22} {b_ms:>10.2f} {c_ms:>10.2f} {c_ms - b_ms:>+10.2f} "
                  f"{fmt(b_io):>12} {fmt(c_io):>12}")


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    base, change = load_results(argv[1]), load_results(argv[2])
    fails_more = compare_failures(base, change)
    compare_end_to_end(base, change, spec)
    compare_layers(base, change)
    return 1 if fails_more else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
