// EXP-K4 — the §6 extension: 4-clique enumeration via color coding at
// O(E^{k/2}/(M^{k/2-1}B)) = O(E^2/(MB)) expected I/Os for k = 4.
// `io_over_bound` should stay flat across the E sweep and `io_x_M` across
// the M sweep (one power of M stronger than the triangle case).
#include <benchmark/benchmark.h>

#include "core/clique4.h"
#include "em/context.h"
#include "graph/generators.h"

namespace trienum::bench {
namespace {

constexpr std::size_t kB = 16;

void BM_Clique4ScalingE(benchmark::State& state) {
  const std::size_t e = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 1 << 10;
  auto raw = graph::Gnm(static_cast<graph::VertexId>(e / 4), e, 1015);
  std::uint64_t ios = 0, cliques = 0;
  for (auto _ : state) {
    em::EmConfig cfg;
    cfg.memory_words = m;
    cfg.block_words = kB;
    em::Context ctx(cfg);
    ctx.cache().set_counting(false);
    graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    core::CountingCliqueSink sink;
    core::EnumerateFourCliques(ctx, g, sink);
    ctx.cache().FlushAll();
    ios = ctx.cache().stats().total_ios();
    cliques = sink.count();
  }
  double bound = core::Clique4IoBound(e, m, kB);
  state.counters["E"] = static_cast<double>(e);
  state.counters["ios"] = static_cast<double>(ios);
  state.counters["cliques"] = static_cast<double>(cliques);
  state.counters["bound"] = bound;
  state.counters["io_over_bound"] = static_cast<double>(ios) / bound;
}

BENCHMARK(BM_Clique4ScalingE)
    ->RangeMultiplier(2)
    ->Range(1 << 11, 1 << 13)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Clique4ScalingM(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  const std::size_t e = 1 << 12;
  auto raw = graph::Gnm(1 << 11, e, 1016);
  std::uint64_t ios = 0;
  for (auto _ : state) {
    em::EmConfig cfg;
    cfg.memory_words = m;
    cfg.block_words = kB;
    em::Context ctx(cfg);
    ctx.cache().set_counting(false);
    graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    core::CountingCliqueSink sink;
    core::EnumerateFourCliques(ctx, g, sink);
    ctx.cache().FlushAll();
    ios = ctx.cache().stats().total_ios();
  }
  state.counters["M"] = static_cast<double>(m);
  state.counters["ios"] = static_cast<double>(ios);
  state.counters["io_x_M"] =
      static_cast<double>(ios) * static_cast<double>(m);
}

BENCHMARK(BM_Clique4ScalingM)
    ->RangeMultiplier(4)
    ->Range(1 << 9, 1 << 13)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trienum::bench
