"""Turns the raw records of one trienum_perfbench run into metrics.

The measuring process (perfbench.cc) prints raw per-set-up and per-query
records; everything statistical lives here, in plain functions the tests
exercise directly. Metric names and meanings are listed in README.md.
"""

import statistics

# The phases whose self time, I/O and share of query wall are reported per
# layer: core (pivot.*, ca.*, co.recurse) and extsort (sort.*).
PHASES = (
    "pivot.cone_scan",
    "pivot.chunk_load",
    "ca.coloring",
    "ca.high_degree",
    "ca.color_triples",
    "co.recurse",
    "sort.run_formation",
    "sort.merge_pass",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "query_ms_p50": "ms",
    "edges_per_s": "1/s",
    "block_ios": "count",
    "peak_rss_mb": "MB",
}


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def _ios(q):
    return q["block_reads"] + q["block_writes"]


def split_queries(raw):
    """(untraced, traced) query records; only successful ones carry counters."""
    untraced = [q for q in raw["queries"] if not q["traced"]]
    traced = [q for q in raw["queries"] if q["traced"]]
    return untraced, traced


def counted(queries, raw):
    """The successful ones among the first --min-queries queries: every run
    of a seed has them, so means over them repeat exactly, while the number
    of queries that fit in the time budget does not."""
    return [q for q in queries[:raw["provenance"]["min_queries"]] if q["ok"]]


def outcome(raw):
    """(attempted, failed, first error) over every query of the run."""
    queries = raw["queries"]
    failed = [q for q in queries if not q["ok"]]
    return len(queries), len(failed), failed[0]["error"] if failed else ""


def end_to_end(raw):
    """The metrics a user of the system sees, from the successful untraced
    queries: a query that fails early must not read as a fast one. With no
    successful query the time figures are 0 (the run is incorrect anyway)."""
    untraced, _ = split_queries(raw)
    ok = [q for q in untraced if q["ok"]]
    setup_s = [(s["read_ns"] + s["load_ns"]) / 1e9 for s in raw["setups"]]
    return {
        "setup_s": median(setup_s),
        "query_ms_p50": median([q["wall_ns"] / 1e6 for q in ok] or [0.0]),
        "edges_per_s": edges_per_s(raw["provenance"]["edges"], ok),
        "block_ios": mean([_ios(q) for q in counted(untraced, raw)]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def edges_per_s(edges, queries):
    """Throughput, E x queries / total query wall, taken separately over
    the queries between two set-up blocks; the median of those windows, so
    one stalled stretch of the run moves it no more than it moves the
    median latency. 0 without queries."""
    windows = {}
    for q in queries:
        w = windows.setdefault(q["block"], [0, 0])
        w[0] += 1
        w[1] += q["wall_ns"]
    return median([edges * n / (ns / 1e9) for n, ns in windows.values()] or [0.0])


def phase_table(queries):
    """Per phase name: lists of per-query self wall (ns), I/Os, work and
    share of the query's wall, over `queries` (a phase a query did not run
    counts as zero there)."""
    table = {}
    for i, q in enumerate(queries):
        for p in q.get("phases", []):
            row = table.setdefault(
                p["name"],
                {"self_ns": [0] * len(queries), "ios": [0] * len(queries),
                 "work": [0] * len(queries), "share": [0.0] * len(queries)},
            )
            row["self_ns"][i] = p["self_wall_ns"]
            row["ios"][i] = p["block_reads"] + p["block_writes"]
            row["work"][i] = p["work"]
            row["share"][i] = p["self_wall_ns"] / q["wall_ns"] if q["wall_ns"] else 0.0
    return table


def per_layer(raw):
    """Layer metrics. Counters come from the counted untraced queries, phase
    and par figures from the traced ones (the only ones carrying them)."""
    untraced, traced = split_queries(raw)
    ok = counted(untraced, raw)
    tok = [q for q in traced if q["ok"]]
    prov = raw["provenance"]
    m = {}

    setups = raw["setups"]
    m["graph.read_s"] = median([s["read_ns"] / 1e9 for s in setups])
    m["graph.load_s"] = median([s["load_ns"] / 1e9 for s in setups])
    m["graph.rss_growth_mb"] = raw["rss_after_setup_mb"] - raw["rss_before_setup_mb"]

    reads = sum(q["block_reads"] for q in ok)
    hits = sum(q["cache_hits"] for q in ok)
    m["em.block_reads"] = mean([q["block_reads"] for q in ok])
    m["em.block_writes"] = mean([q["block_writes"] for q in ok])
    m["em.cache_hits"] = mean([q["cache_hits"] for q in ok])
    m["em.hit_ratio"] = hits / (hits + reads) if hits + reads else 0.0
    m["em.device_peak_words"] = max((q["device_peak_words"] for q in ok), default=0)

    m["storage.read_calls"] = mean([q["read_calls"] for q in ok])
    m["storage.write_calls"] = mean([q["write_calls"] for q in ok])
    m["storage.mb_read"] = mean([q["bytes_read"] / 1e6 for q in ok])
    m["storage.mb_written"] = mean([q["bytes_written"] / 1e6 for q in ok])
    m["storage.syscall_ms"] = mean([q["syscall_ns"] / 1e6 for q in tok])
    m["storage.retries"] = mean([q["retries"] for q in ok])

    work = mean([q["work"] for q in ok])
    m["core.work"] = work
    m["core.ns_per_work"] = median(
        [q["wall_ns"] / q["work"] for q in untraced if q["ok"] and q["work"]] or [0.0])
    m["core.io_over_bound"] = mean([_ios(q) for q in ok]) / raw["io_bound"]

    table = phase_table(tok)
    counted_table = phase_table(counted(traced, raw))
    for name in PHASES:
        row, counted_row = table.get(name), counted_table.get(name)
        m[f"{name}.self_ms"] = median(row["self_ns"]) / 1e6 if row else 0.0
        m[f"{name}.ios"] = mean(counted_row["ios"]) if counted_row else 0.0
        m[f"{name}.share"] = median(row["share"]) if row else 0.0
    cone = table.get("pivot.cone_scan")
    cone_work = sum(cone["work"]) if cone else 0
    m["pivot.cone_scan.ns_per_work"] = sum(cone["self_ns"]) / cone_work if cone_work else 0.0

    m["simd.invocations"] = mean([q["simd_invocations"] for q in ok])

    threads = prov["threads"]
    m["par.tasks"] = mean([q["par_tasks"] for q in tok])
    m["par.busy_ms"] = median([q["par_busy_ns"] / 1e6 for q in tok] or [0.0])
    m["par.utilization"] = median(
        [q["par_busy_ns"] / (threads * q["wall_ns"]) for q in tok] or [0.0])

    run = table.get("query.run")
    m["query.run.self_ms"] = median(run["self_ns"]) / 1e6 if run else 0.0

    uok = [q for q in untraced if q["ok"]]
    m["obs.trace_overhead"] = (
        median([q["wall_ns"] for q in tok]) / median([q["wall_ns"] for q in uok])
        if tok and uok else 0.0)
    return m


PER_LAYER_UNITS = {
    "graph.read_s": "s",
    "graph.load_s": "s",
    "graph.rss_growth_mb": "MB",
    "em.block_reads": "count",
    "em.block_writes": "count",
    "em.cache_hits": "count",
    "em.hit_ratio": "ratio",
    "em.device_peak_words": "words",
    "storage.read_calls": "count",
    "storage.write_calls": "count",
    "storage.mb_read": "MB",
    "storage.mb_written": "MB",
    "storage.syscall_ms": "ms",
    "storage.retries": "count",
    "core.work": "count",
    "core.ns_per_work": "ns",
    "core.io_over_bound": "ratio",
    **{f"{p}.self_ms": "ms" for p in PHASES},
    **{f"{p}.ios": "count" for p in PHASES},
    **{f"{p}.share": "ratio" for p in PHASES},
    "pivot.cone_scan.ns_per_work": "ns",
    "simd.invocations": "count",
    "par.tasks": "count",
    "par.busy_ms": "ms",
    "par.utilization": "ratio",
    "query.run.self_ms": "ms",
    "obs.trace_overhead": "ratio",
}
