// Hot-path microbenchmarks for the block-buffered Scanner/Writer:
// scan/write/filter/merge-sort throughput, and end-to-end enumeration per
// algorithm on both storage backends. The `ios` counters in
// BENCH_hotpath.json are exact: bench/check_wall_regression.py fails on any
// change to them.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "em/array.h"
#include "extsort/ext_merge_sort.h"
#include "extsort/scan_ops.h"

namespace trienum::bench {
namespace {

em::Context MakeCtx(em::StorageKind storage = em::StorageKind::kMemory) {
  em::EmConfig cfg;
  cfg.memory_words = 1 << 14;
  cfg.block_words = 64;
  cfg.storage = storage;
  return em::Context(cfg);
}

// --- Stream micro-throughput ------------------------------------------------

void BM_ScanThroughput(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  em::Context ctx = MakeCtx();
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  ctx.cache().set_counting(false);
  std::vector<std::uint64_t> host(n);
  for (std::size_t i = 0; i < n; ++i) host[i] = i * 31;
  a.WriteFrom(0, n, host.data());
  ctx.cache().set_counting(true);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    ctx.cache().Reset();
    em::Scanner<std::uint64_t> in(a);
    while (in.HasNext()) acc += in.Next();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["ios"] = static_cast<double>(ctx.cache().stats().total_ios());
}
BENCHMARK(BM_ScanThroughput)->Unit(benchmark::kMillisecond);

void BM_WriteThroughput(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  em::Context ctx = MakeCtx();
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  for (auto _ : state) {
    ctx.cache().Reset();
    em::Writer<std::uint64_t> w(a);
    for (std::size_t i = 0; i < n; ++i) w.Push(i * 7);
    w.Flush();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["ios"] = static_cast<double>(ctx.cache().stats().total_ios());
}
BENCHMARK(BM_WriteThroughput)->Unit(benchmark::kMillisecond);

void BM_FilterThroughput(benchmark::State& state) {
  const std::size_t n = 1 << 20;
  em::Context ctx = MakeCtx();
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  em::Array<std::uint64_t> b = ctx.Alloc<std::uint64_t>(n);
  ctx.cache().set_counting(false);
  std::vector<std::uint64_t> host(n);
  for (std::size_t i = 0; i < n; ++i) host[i] = i;
  a.WriteFrom(0, n, host.data());
  ctx.cache().set_counting(true);
  for (auto _ : state) {
    ctx.cache().Reset();
    std::size_t kept =
        extsort::Filter(a, b, [](std::uint64_t v) { return (v & 3) != 0; });
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_FilterThroughput)->Unit(benchmark::kMillisecond);

void BM_MergeSortWall(benchmark::State& state) {
  const std::size_t n = 1 << 18;
  em::Context ctx = MakeCtx();
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  std::vector<std::uint64_t> host(n);
  SplitMix64 rng(42);
  for (std::size_t i = 0; i < n; ++i) host[i] = rng.Next();
  for (auto _ : state) {
    state.PauseTiming();
    ctx.cache().set_counting(false);
    a.WriteFrom(0, n, host.data());
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    state.ResumeTiming();
    extsort::ExternalMergeSort(
        ctx, a, [](std::uint64_t x, std::uint64_t y) { return x < y; });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["ios"] = static_cast<double>(ctx.cache().stats().total_ios());
}
BENCHMARK(BM_MergeSortWall)->Unit(benchmark::kMillisecond);

// --- End-to-end enumeration, both backends ---------------------------------

void BM_EndToEnd(benchmark::State& state, const std::string& algo,
                 em::StorageKind storage) {
  const std::size_t e = 1 << 16;
  auto raw = graph::Gnm(static_cast<graph::VertexId>(e / 4), e, 1001);
  RunOutcome out;
  for (auto _ : state) {
    em::EmConfig cfg;
    cfg.memory_words = 1 << 14;
    cfg.block_words = 64;
    cfg.storage = storage;
    em::Context ctx(cfg);
    ctx.cache().set_counting(false);
    graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    core::ChecksumSink sink;
    auto t0 = std::chrono::steady_clock::now();
    core::FindAlgorithm(algo)->run(ctx, g, sink);
    ctx.cache().FlushAll();
    auto t1 = std::chrono::steady_clock::now();
    out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    out.triangles = sink.count();
    out.io = ctx.cache().stats();
  }
  state.counters["wall_ms"] = out.wall_ms;
  state.counters["ios"] = static_cast<double>(out.io.total_ios());
  state.counters["triangles"] = static_cast<double>(out.triangles);
}

#define HOTPATH_E2E(id, algo)                                             \
  BENCHMARK_CAPTURE(BM_EndToEnd, id, algo, em::StorageKind::kMemory)      \
      ->Iterations(1)                                                     \
      ->Unit(benchmark::kMillisecond);                                    \
  BENCHMARK_CAPTURE(BM_EndToEnd, id##_file, algo, em::StorageKind::kFile) \
      ->Iterations(1)                                                     \
      ->Unit(benchmark::kMillisecond)

HOTPATH_E2E(ps_cache_aware, "ps-cache-aware");
HOTPATH_E2E(mgt, "mgt");
HOTPATH_E2E(dementiev, "dementiev");
HOTPATH_E2E(edge_iterator, "edge-iterator");

#undef HOTPATH_E2E

}  // namespace
}  // namespace trienum::bench
