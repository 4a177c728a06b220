#!/usr/bin/env bash
# Runs every built bench_* binary whose bench/bench_*.cc source exists with
# --benchmark_format=json, writing one BENCH_<name>.json per bench into the
# output directory — the perf trajectory the repo accumulates across PRs.
#
#   $ cmake -B build -S . -DTRIENUM_BUILD_BENCHMARKS=ON
#   $ cmake --build build -j
#   $ bench/run_benches.sh [build-dir] [out-dir] [extra benchmark args...]
#
# Every emitted JSON's context records the host core count so the committed
# trajectory stays comparable across machines. Benches run one thread unless
# a case says otherwise: bench_parallel sweeps per-case thread counts and
# reports each as a `threads` counter.
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-.}"
shift $(( $# > 2 ? 2 : $# )) || true

bench_dir="${build_dir}/bench"
if [[ ! -d "${bench_dir}" ]]; then
  echo "error: ${bench_dir} not found." >&2
  echo "Configure with -DTRIENUM_BUILD_BENCHMARKS=ON and build first." >&2
  exit 1
fi

# bench_backends (simulated vs. real storage I/O) anchors the real-I/O
# trajectory; refuse to emit a partial set without it.
if [[ ! -x "${bench_dir}/bench_backends" ]]; then
  echo "error: ${bench_dir}/bench_backends not built; rebuild the tree" >&2
  exit 1
fi

mkdir -p "${out_dir}"

# Every benchmark entry carries wall_ms: benches that measure the run
# themselves report it as a counter; for the rest, derive it from
# google-benchmark's real_time so the committed perf trajectory always has
# a comparable wall-clock column. Also stamps machine/knob provenance into
# the JSON context.
postprocess() {
  python3 - "$1" <<'PYEOF'
import json, os, sys
path = sys.argv[1]
with open(path) as f:
    doc = json.load(f)
scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
for b in doc.get("benchmarks", []):
    if "wall_ms" not in b:
        b["wall_ms"] = b.get("real_time", 0.0) * scale.get(b.get("time_unit", "ns"), 1e-6)
# Parallel-scaling provenance: how many cores this machine has (per-case
# sweeps report their own `threads` counter).
ctx = doc.setdefault("context", {})
ctx["host_cores"] = os.cpu_count() or 1
with open(path, "w") as f:
    json.dump(doc, f, indent=1)
missing = [b["name"] for b in doc.get("benchmarks", []) if "wall_ms" not in b]
if missing:
    sys.exit(f"wall_ms missing for: {missing}")
PYEOF
}

# Only benches whose source is still in the tree: an incremental build
# directory keeps the binary of a deleted bench, which would emit a stale JSON.
src_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
found=0
for bin in "${bench_dir}"/bench_*; do
  [[ -f "${bin}" && -x "${bin}" ]] || continue
  name="$(basename "${bin}")"
  if [[ ! -f "${src_dir}/${name}.cc" ]]; then
    echo "== ${name}: skipped, no ${name}.cc in ${src_dir} (stale binary)"
    continue
  fi
  found=1
  out="${out_dir}/BENCH_${name#bench_}.json"
  echo "== ${name} -> ${out}"
  "${bin}" --benchmark_format=json "$@" > "${out}"
  postprocess "${out}"
done

if [[ "${found}" -eq 0 ]]; then
  echo "error: no bench_* executables in ${bench_dir}" >&2
  exit 1
fi

echo "done. (BENCH_backends.json carries the simulated-vs-real I/O counters;"
echo " BENCH_hotpath.json the Scanner/Writer and end-to-end hot-path rows;"
echo " BENCH_session.json's trace_overhead counters the tracing-overhead probe."
echo " The paper's bound ratios, crossover and exponents come from"
echo " ${bench_dir}/io_sweep, which this script does not run; see README's"
echo " Reproduction section.)"
