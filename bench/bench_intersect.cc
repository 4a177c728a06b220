// Intersection-kernel benchmarks: the two-regime split (merge vs dense
// bitmap) and the flat-map probe batch measured per regime, plus three
// end-to-end runs of the algorithms whose inner loops call the kernels.
// The committed BENCH_intersect.json pins the end-to-end rows' block I/Os
// and work exactly.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "simd/intersect.h"

namespace trienum::bench {
namespace {

// Sorted unique u32 set of `n` values with roughly `stride` spacing.
std::vector<std::uint32_t> MakeSet(std::size_t n, std::uint32_t stride,
                                   std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<std::uint32_t> v;
  v.reserve(n);
  std::uint32_t cur = static_cast<std::uint32_t>(rng.Next() % 17);
  for (std::size_t i = 0; i < n; ++i) {
    cur += 1 + static_cast<std::uint32_t>(rng.Next() % (2 * stride));
    v.push_back(cur);
  }
  return v;
}

// --- Merge regime: sorted-array intersection -------------------------------

void BM_MergeIntersect(benchmark::State& state, std::size_t n,
                       std::uint32_t stride) {
  // Overlapping strides: both sets draw from the same value range, so the
  // match density is data-typical rather than degenerate.
  const std::vector<std::uint32_t> a = MakeSet(n, stride, 0xBEEF01);
  const std::vector<std::uint32_t> b = MakeSet(n, stride, 0xBEEF02);
  std::vector<std::uint32_t> out(n);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    const simd::IntersectStats st = simd::IntersectSorted(
        a.data(), a.size(), b.data(), b.size(), out.data());
    acc += st.matches;
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(2 * n) *
                          state.iterations());
}

#define MERGE_BENCH(id, n, stride)                    \
  BENCHMARK_CAPTURE(BM_MergeIntersect, id, n, stride) \
      ->Unit(benchmark::kMicrosecond)

MERGE_BENCH(dense_4k, std::size_t{1} << 12, 2);     // ~50% match rate
MERGE_BENCH(dense_64k, std::size_t{1} << 16, 2);
MERGE_BENCH(sparse_4k, std::size_t{1} << 12, 64);   // rare matches, long skips
MERGE_BENCH(sparse_64k, std::size_t{1} << 16, 64);

#undef MERGE_BENCH

// --- Dense regime: bitmap probe --------------------------------------------

void BM_BitmapProbe(benchmark::State& state) {
  // A dense hub set (unit-ish stride) probed by many short runs — the shape
  // ChooseRegime routes to the bitmap.
  const std::size_t hub = std::size_t{1} << 14;
  const std::vector<std::uint32_t> dense = MakeSet(hub, 1, 0xD0D0);
  simd::DenseBitmap bitmap;
  bitmap.Build(dense.data(), dense.size());
  const std::size_t n = std::size_t{1} << 12;
  const std::vector<std::uint32_t> probe = MakeSet(n, 3, 0xD0D1);
  std::vector<std::uint32_t> out(n);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc += bitmap.Probe(probe.data(), probe.size(), out.data());
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_BitmapProbe)->Unit(benchmark::kMicrosecond);

// --- Flat-map probe batches (the pivot-cone hot loop) -----------------------

void BM_FlatMapProbe(benchmark::State& state) {
  // The FlatVertexMap layout: power-of-two table, multiplicative hash,
  // 0xFFFFFFFF marks empty. Half-full, like the resident-chunk role maps.
  const std::uint32_t kEmpty = 0xFFFFFFFFu;
  const std::size_t cap = std::size_t{1} << 15;
  const std::uint32_t mask = static_cast<std::uint32_t>(cap - 1);
  std::vector<std::uint32_t> keys(cap, kEmpty), vals(cap, kEmpty);
  SplitMix64 rng(0xF1A7);
  std::vector<std::uint32_t> inserted;
  for (std::size_t i = 0; i < cap / 2; ++i) {
    const std::uint32_t k = static_cast<std::uint32_t>(rng.Next()) & 0x0FFFFFFF;
    std::uint32_t slot = (k * 0x9E3779B1u) & mask;
    while (vals[slot] != kEmpty && keys[slot] != k) slot = (slot + 1) & mask;
    if (vals[slot] == kEmpty) inserted.push_back(k);
    keys[slot] = k;
    vals[slot] = static_cast<std::uint32_t>(i);
  }
  // Query mix: half hits drawn from the inserted keys, half misses.
  const std::size_t n = std::size_t{1} << 12;
  std::vector<std::uint32_t> queries(n);
  for (std::size_t i = 0; i < n; ++i) {
    queries[i] = (i & 1) ? inserted[rng.Next() % inserted.size()]
                         : (static_cast<std::uint32_t>(rng.Next()) | 0x10000000);
  }
  std::vector<std::uint32_t> out(n);
  for (auto _ : state) {
    simd::ProbeFlatMapU32(keys.data(), vals.data(), mask, queries.data(), n,
                          out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_FlatMapProbe)->Unit(benchmark::kMicrosecond);

// --- End to end: the algorithms whose inner loops call the kernels ----------

void BM_EndToEndKernels(benchmark::State& state, const std::string& algo) {
  const std::size_t e = std::size_t{1} << 16;
  auto raw = graph::Rmat(14, e, 0.45, 0.22, 0.22, 77);
  RunOutcome out;
  for (auto _ : state) {
    out = MeasureAlgorithm(algo, raw, /*m_words=*/std::size_t{1} << 14,
                           /*b_words=*/64);
  }
  state.counters["wall_ms"] = out.wall_ms;
  state.counters["ios"] = static_cast<double>(out.io.total_ios());
  state.counters["triangles"] = static_cast<double>(out.triangles);
  state.counters["work"] = static_cast<double>(out.work);
}

#define KERNEL_E2E(id, algo)                      \
  BENCHMARK_CAPTURE(BM_EndToEndKernels, id, algo) \
      ->Iterations(1)                             \
      ->Unit(benchmark::kMillisecond)

KERNEL_E2E(mgt, "mgt");
KERNEL_E2E(ps_cache_aware, "ps-cache-aware");
KERNEL_E2E(edge_iterator, "edge-iterator");

#undef KERNEL_E2E

}  // namespace
}  // namespace trienum::bench
