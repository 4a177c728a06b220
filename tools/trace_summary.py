#!/usr/bin/env python3
"""Rolls a trienum Chrome trace (--trace=FILE) up into a per-phase table.

For every span name the summary reports how many spans ran, their total
inclusive wall time, and the exclusive (self) counter deltas the sampler
attributed to them — block I/Os, cache hits, internal work, and real
syscall counts. Phases that carried a `predicted_ios` argument (the
external-sort spans) additionally get a prediction check: the phase's
measured share of all predicted-bearing I/O is compared against its
predicted share, and any phase whose shares disagree by more than 2x in
either direction is flagged. That catches an EM cost model drifting from
what the storage layer actually did — e.g. a merge pass re-reading runs
it should have streamed once.

The §3 recursion runs as a single `co.recurse` span; its args carry the
wall time and node count of each recursion role (the high-degree verify
scan, which also counts the children, Lemma 1, partition, base case),
the recursion's shape (subproblems, base cases, Lemma 1 calls, child
edges, depth), and for each depth d the nodes, input edges
and exclusive block reads and writes
(`level<d>_{nodes,edges,reads,writes}`). The summary prints the roles,
the shape and one row per level under the `co.recurse` row. When the trace
also carries the span's `record_words` and the `query.run` span's
`block_words`, each level row adds the lines its input spans,
ceil(edges * record_words / block_words), and the read passes over them,
reads / lines; above M a node that reads its input twice shows 2.0.

Usage:
    tools/trace_summary.py t.json
    tools/trace_summary.py --top 10 t.json

Exits 0 even when phases are flagged (it is a reporting tool, not a
gate); exits 2 only when the input is not a readable Chrome trace.
"""

import argparse
import json
import sys

# Per-phase exclusive counters the collector writes into span args.
DELTA_KEYS = (
    "block_reads",
    "block_writes",
    "cache_hits",
    "work",
    "read_calls",
    "write_calls",
)

# Measured-vs-predicted disagreement beyond this factor gets flagged.
FLAG_RATIO = 2.0

# Recursion roles the cache-oblivious engine tallies on its co.recurse span
# (args <role>_ns and <role>_nodes), and its recursion-shape args.
CO_SPAN = "co.recurse"
CO_ROLES = ("high_degree", "lemma1", "partition", "base")
CO_SHAPE = ("subproblems", "base_cases", "high_degree_calls",
            "total_child_edges")
CO_SUMMED = (
    tuple(r + s for r in CO_ROLES for s in ("_ns", "_nodes")) + CO_SHAPE
)
# Per-depth args: level<d>_<field>.
CO_LEVEL_FIELDS = ("nodes", "edges", "reads", "writes")
# The query's root span carries the operating point as args.
QUERY_SPAN = "query.run"


def level_key(key):
    """(depth, field) of a `level<d>_<field>` co.recurse arg, else None."""
    if not key.startswith("level"):
        return None
    depth, _, field = key[len("level"):].partition("_")
    if not depth.isdigit() or field not in CO_LEVEL_FIELDS:
        return None
    return int(depth), field


def load_events(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"trace_summary: cannot read trace '{path}': {e}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        sys.exit(f"trace_summary: '{path}' has no traceEvents array")
    return events


def summarize(events):
    """Aggregates complete ('X') events by span name, insertion order.
    Returns the phases and the trace's `block_words` (None if absent)."""
    phases = {}
    block_words = None
    for ev in events:
        if ev.get("ph") != "X":
            continue
        name = ev.get("name", "?")
        p = phases.setdefault(
            name,
            {
                "spans": 0,
                "wall_us": 0.0,
                "self_wall_us": 0.0,
                "predicted_ios": 0,
                "co_args": {},
                **{k: 0 for k in DELTA_KEYS},
            },
        )
        p["spans"] += 1
        p["wall_us"] += float(ev.get("dur", 0))
        args = ev.get("args", {})
        p["self_wall_us"] += float(args.get("self_wall_ns", 0)) / 1000.0
        p["predicted_ios"] += int(args.get("predicted_ios", 0))
        for k in DELTA_KEYS:
            p[k] += int(args.get(k, 0))
        if name == QUERY_SPAN and "block_words" in args:
            block_words = int(args["block_words"])
        if name == CO_SPAN:
            co = p["co_args"]
            for key, value in args.items():
                if key in CO_SUMMED or level_key(key) is not None:
                    co[key] = co.get(key, 0) + int(value)
            for key in ("max_depth_reached", "record_words"):
                if key in args:
                    co[key] = max(co.get(key, 0), int(args[key]))
    return phases, block_words


def print_co_roles(p, block_words):
    """Prints the co.recurse role tallies, indented under its row."""
    co = p["co_args"]
    if not any(role + "_ns" in co for role in CO_ROLES):
        return
    wall_ms = p["wall_us"] / 1000
    for role in CO_ROLES:
        ms = co.get(role + "_ns", 0) / 1e6
        share = ms / wall_ms if wall_ms > 0 else 0.0
        print(
            f"  {role:<22} {co.get(role + '_nodes', 0):>6} {ms:>9.2f} "
            f"{share:>8.1%} of span"
        )
    shape = [
        f"{k} {co[k]}" for k in CO_SHAPE + ("max_depth_reached",) if k in co
    ]
    if shape:
        print("  " + ", ".join(shape))
    print_co_levels(co, block_words)


def print_co_levels(co, block_words):
    """Prints one row per recursion depth: nodes, input edges, exclusive
    block reads and writes, and the depth's share of the span's I/O; plus
    the input's lines and the read passes over them when the trace carries
    the record and block sizes."""
    depths = sorted({lk[0] for lk in map(level_key, co) if lk is not None})
    if not depths:
        return
    rows = [
        {f: co.get(f"level{d}_{f}", 0) for f in CO_LEVEL_FIELDS}
        for d in depths
    ]
    total = sum(r["reads"] + r["writes"] for r in rows)
    record_words = co.get("record_words", 0)
    show_passes = record_words > 0 and bool(block_words)
    header = (
        f"  {'level':<7} {'nodes':>8} {'edges':>10} {'reads':>9} "
        f"{'writes':>9} {'share':>7}"
    )
    if show_passes:
        header += f" {'lines':>9} {'passes':>7}"
    print(header)
    for d, r in zip(depths, rows):
        ios = r["reads"] + r["writes"]
        share = ios / total if total > 0 else 0.0
        row = (
            f"  {d:<7} {r['nodes']:>8} {r['edges']:>10} {r['reads']:>9} "
            f"{r['writes']:>9} {share:>7.1%}"
        )
        if show_passes:
            lines = -(-r["edges"] * record_words // block_words)
            ratio = r["reads"] / lines if lines > 0 else 0.0
            row += f" {lines:>9} {ratio:>7.1f}"
        print(row)


def prediction_flags(phases):
    """Compares measured vs predicted I/O shares among phases that carry
    predictions. Shares (not absolutes) because predictions count logical
    block transfers while the cache may absorb re-reads."""
    predicted = {
        n: p for n, p in phases.items() if p["predicted_ios"] > 0
    }
    total_pred = sum(p["predicted_ios"] for p in predicted.values())
    total_meas = sum(
        p["block_reads"] + p["block_writes"] for p in predicted.values()
    )
    flags = []
    if total_pred == 0 or total_meas == 0:
        return flags
    for name, p in predicted.items():
        pred_share = p["predicted_ios"] / total_pred
        meas_share = (p["block_reads"] + p["block_writes"]) / total_meas
        if pred_share == 0 and meas_share == 0:
            continue
        # Ratio of the larger share to the smaller; a phase with measured
        # I/O but zero prediction (or vice versa) is infinitely wrong.
        if pred_share == 0 or meas_share == 0:
            ratio = float("inf")
        else:
            ratio = max(pred_share / meas_share, meas_share / pred_share)
        if ratio > FLAG_RATIO:
            flags.append((name, pred_share, meas_share, ratio))
    return flags


def main():
    ap = argparse.ArgumentParser(
        description="Per-phase rollup of a trienum --trace file."
    )
    ap.add_argument("trace", help="Chrome trace JSON written by --trace=FILE")
    ap.add_argument(
        "--top",
        type=int,
        default=0,
        help="show only the N phases with the most inclusive wall time",
    )
    opts = ap.parse_args()

    phases, block_words = summarize(load_events(opts.trace))
    if not phases:
        sys.exit(f"trace_summary: '{opts.trace}' contains no complete spans")

    rows = sorted(phases.items(), key=lambda kv: -kv[1]["wall_us"])
    if opts.top > 0:
        rows = rows[: opts.top]

    header = (
        f"{'phase':<24} {'spans':>6} {'wall_ms':>9} {'self_ms':>9} "
        f"{'br':>8} {'bw':>8} {'hits':>10} {'work':>12} {'rd':>6} {'wr':>6}"
    )
    print(header)
    print("-" * len(header))
    for name, p in rows:
        print(
            f"{name:<24} {p['spans']:>6} {p['wall_us'] / 1000:>9.2f} "
            f"{p['self_wall_us'] / 1000:>9.2f} {p['block_reads']:>8} "
            f"{p['block_writes']:>8} {p['cache_hits']:>10} {p['work']:>12} "
            f"{p['read_calls']:>6} {p['write_calls']:>6}"
        )
        if name == CO_SPAN:
            print_co_roles(p, block_words)

    total_br = sum(p["block_reads"] for p in phases.values())
    total_bw = sum(p["block_writes"] for p in phases.values())
    print(f"\ntotal attributed I/O: {total_br} reads, {total_bw} writes")

    flags = prediction_flags(phases)
    if flags:
        print("\nprediction check (measured vs predicted I/O share, >2x off):")
        for name, pred, meas, ratio in flags:
            r = "inf" if ratio == float("inf") else f"{ratio:.1f}x"
            print(
                f"  FLAG {name}: predicted {pred:.1%} of sort I/O, "
                f"measured {meas:.1%} ({r} disagreement)"
            )
    elif any(p["predicted_ios"] > 0 for p in phases.values()):
        print("\nprediction check: all predicted-I/O phases within 2x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
