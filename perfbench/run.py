#!/usr/bin/env python3
"""Runs one workload of the trienum benchmark and prints its metrics.

    python3 perfbench/run.py --workload rmat16-mem --seed 2014 --seconds 20 --trace 0

Builds the benchmark package (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench at the repository root on first use, runs the
workload in a fresh process, and prints a human-readable table followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics of a traced
pass (and writes the pass's Chrome trace under .bench_build/traces/).

Each run's full result (metrics, provenance, sample counts) is also saved
under .bench_build/results/ (or --results-dir) for perfbench/compare.py.
Exits 1 when any query fails the correctness gate, 2 when the benchmark
cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "trienum_perfbench")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the package; output goes to stderr."""
    jobs = str(min(os.cpu_count() or 1, 4))
    configured = os.path.join(BUILD_DIR, "perfbench.configured")
    if not os.path.exists(configured):
        run_build_step(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"])
        open(configured, "w").close()
    run_build_step(["cmake", "--build", BUILD_DIR, "-j", jobs])


def run_build_step(cmd):
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build step {' '.join(cmd)} failed: {e}")
    if r.returncode != 0:
        fail(f"build step {' '.join(cmd)} exited {r.returncode}")


def measure(args):
    """Runs the measuring process and returns its raw records."""
    work_dir = os.path.join(BUILD_ROOT, "work")
    os.makedirs(work_dir, exist_ok=True)
    common = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work_dir]
    cmd = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = None
    if args.trace:
        trace_dir = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")
        cmd += ["--trace-file", trace_file]
    try:
        # Input generation and the host reference run in a process of their
        # own, so they stay out of the measured process's peak RSS.
        r = subprocess.run(common + ["--prepare", "1"], stderr=sys.stderr,
                           stdout=sys.stderr, timeout=120)
        if r.returncode != 0:
            fail(f"preparing the input exited {r.returncode}")
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           timeout=args.seconds * 3 + 120, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"measuring process failed: {e}")
    finally:
        # This run's edge file and reference digest are regenerated on every
        # run; other seeds' files may belong to a run still going on.
        for name in os.listdir(work_dir):
            if name.startswith(f"{args.workload}-{args.seed}."):
                os.remove(os.path.join(work_dir, name))
    if r.returncode != 0:
        fail(f"measuring process exited {r.returncode}")
    try:
        return json.loads(r.stdout), trace_file
    except json.JSONDecodeError as e:
        fail(f"unreadable measuring output: {e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--results-dir", default=os.path.join(BUILD_ROOT, "results"))
    args = ap.parse_args()

    build()
    raw, trace_file = measure(args)
    attempted, failed, error = metrics.outcome(raw)
    untraced, traced = metrics.split_queries(raw)
    if args.trace:
        values, units = metrics.per_layer(raw), metrics.PER_LAYER_UNITS
    else:
        values, units = metrics.end_to_end(raw), metrics.END_TO_END_UNITS
    prov = dict(raw["provenance"])
    prov.update({
        "queries": len(untraced),
        "traced_queries": len(traced),
        "setup_samples": len(raw["setups"]),
        "failed_frac": failed / attempted,
        "reference_triangles": raw["reference_triangles"],
        "trace_file": os.path.relpath(trace_file, ROOT) if trace_file else None,
    })
    correct = failed == 0

    for name, value in values.items():
        print(f"{args.workload:<12} {name:<28} {value:>16.6g} {units[name]}")
    print(f"{args.workload:<12} {'failed_frac':<28} {prov['failed_frac']:>16.6g} ratio")
    print("provenance " + json.dumps(prov, sort_keys=True))
    if error:
        print(f"perfbench: {failed} of {attempted} queries failed; first: {error}",
              file=sys.stderr)

    os.makedirs(args.results_dir, exist_ok=True)
    result_path = os.path.join(
        args.results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": values, "provenance": prov,
                   "phases": phase_summary(traced)}, f, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0 if correct else 1


def phase_summary(traced):
    """Every phase of the traced pass (not only the reported ones), as
    medians, for compare.py's phase-by-phase diff."""
    ok = [q for q in traced if q["ok"]]
    return {
        name: {"self_ms": metrics.median(row["self_ns"]) / 1e6,
               "ios": metrics.mean(row["ios"]),
               "work": metrics.mean(row["work"]),
               "share": metrics.median(row["share"])}
        for name, row in metrics.phase_table(ok).items()
    }


if __name__ == "__main__":
    sys.exit(main())
