// EXP-ML — the multilevel-cache corollary: one cache-oblivious run is
// simultaneously measured at two LRU levels (a small "L1" probe and the main
// "L2"); each level's misses should track E^{3/2}/(sqrt(M_level)·B) — one
// program, optimal everywhere, which no single cache-aware tuning achieves.
#include <benchmark/benchmark.h>

#include "core/cache_aware.h"
#include "core/cache_oblivious.h"
#include "core/sink.h"
#include "em/context.h"
#include "graph/generators.h"
#include "graph/normalize.h"

namespace trienum::bench {
namespace {

constexpr std::size_t kL1 = 1 << 8;
constexpr std::size_t kL2 = 1 << 12;
constexpr std::size_t kB = 16;

void BM_ObliviousTwoLevels(benchmark::State& state) {
  const std::size_t e = static_cast<std::size_t>(state.range(0));
  auto raw = graph::Gnm(static_cast<graph::VertexId>(e / 4), e, 1020);
  std::uint64_t l1 = 0, l2 = 0;
  for (auto _ : state) {
    em::EmConfig cfg;
    cfg.memory_words = kL2;
    cfg.block_words = kB;
    em::Context ctx(cfg);
    ctx.AttachProbe(kL1, kB);
    ctx.cache().set_counting(false);
    graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    ctx.probe()->Reset();
    core::CountingSink sink;
    ctx.set_seed(4242);
    core::EnumerateCacheOblivious(ctx, g, sink);
    ctx.cache().FlushAll();
    ctx.probe()->FlushAll();
    l1 = ctx.probe()->stats().total_ios();
    l2 = ctx.cache().stats().total_ios();
  }
  state.counters["E"] = static_cast<double>(e);
  state.counters["l1_ios"] = static_cast<double>(l1);
  state.counters["l2_ios"] = static_cast<double>(l2);
  state.counters["l1_over_bound"] =
      static_cast<double>(l1) / core::PaghSilvestriIoBound(e, kL1, kB);
  state.counters["l2_over_bound"] =
      static_cast<double>(l2) / core::PaghSilvestriIoBound(e, kL2, kB);
}

BENCHMARK(BM_ObliviousTwoLevels)
    ->RangeMultiplier(2)
    ->Range(1 << 12, 1 << 15)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trienum::bench
