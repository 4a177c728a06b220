// EXP-AB — ablations of the design choices DESIGN.md calls out.
//
//  * high-degree step (§2 step 1) on/off, on a hub-heavy graph: without it,
//    color classes containing hub edges blow up and step 3 degrades;
//  * empty-slot pruning in the §3 recursion (off in the paper);
//  * the recursion's base-case cutoff (0 = paper-exact, depth-only);
//  * Lemma 2's chunk fraction alpha.
#include "bench_util.h"
#include "core/cache_aware.h"
#include "core/cache_oblivious.h"
#include "core/mgt.h"

namespace trienum::bench {
namespace {

constexpr std::size_t kM = 1 << 9;
constexpr std::size_t kB = 16;

RunOutcome MeasureAware(const std::vector<graph::Edge>& raw,
                        const core::CacheAwareOptions& opts) {
  em::EmConfig cfg;
  cfg.memory_words = kM;
  cfg.block_words = kB;
  em::Context ctx(cfg);
  ctx.cache().set_counting(false);
  graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
  ctx.cache().set_counting(true);
  ctx.cache().Reset();
  core::ChecksumSink sink;
  core::EnumerateCacheAware(ctx, g, sink, opts);
  ctx.cache().FlushAll();
  RunOutcome out;
  out.triangles = sink.count();
  out.io = ctx.cache().stats();
  out.num_edges = g.num_edges();
  return out;
}

RunOutcome MeasureOblivious(const std::vector<graph::Edge>& raw,
                            const core::CacheObliviousOptions& opts,
                            core::CacheObliviousReport* rep = nullptr) {
  em::EmConfig cfg;
  cfg.memory_words = kM;
  cfg.block_words = kB;
  em::Context ctx(cfg);
  ctx.cache().set_counting(false);
  graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
  ctx.cache().set_counting(true);
  ctx.cache().Reset();
  core::ChecksumSink sink;
  core::EnumerateCacheOblivious(ctx, g, sink, opts, rep);
  ctx.cache().FlushAll();
  RunOutcome out;
  out.triangles = sink.count();
  out.io = ctx.cache().stats();
  out.num_edges = g.num_edges();
  return out;
}

// Hub-heavy workload: a K_128 core plus random sparse periphery.
std::vector<graph::Edge> HubWorkload() {
  auto raw = graph::CliquePlusPath(128, 4000);
  auto extra = graph::Gnm(4128, 1 << 12, 1011);
  raw.insert(raw.end(), extra.begin(), extra.end());
  return raw;
}

void BM_HighDegreeStep(benchmark::State& state) {
  const bool enabled = state.range(0) != 0;
  core::CacheAwareOptions opts;
  opts.high_degree_step = enabled;
  RunOutcome out;
  for (auto _ : state) {
    out = MeasureAware(HubWorkload(), opts);
  }
  state.SetLabel(enabled ? "with_high_degree_step" : "without");
  state.counters["ios"] = static_cast<double>(out.io.total_ios());
  state.counters["triangles"] = static_cast<double>(out.triangles);
}

BENCHMARK(BM_HighDegreeStep)->Arg(1)->Arg(0)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_PruneEmptySlots(benchmark::State& state) {
  const bool prune = state.range(0) != 0;
  core::CacheObliviousOptions opts;
  opts.seed = 77;
  opts.prune_empty_slots = prune;
  core::CacheObliviousReport rep;
  RunOutcome out;
  for (auto _ : state) {
    out = MeasureOblivious(graph::Gnm(1 << 12, 1 << 14, 1012), opts, &rep);
  }
  state.SetLabel(prune ? "prune_on" : "paper_default_off");
  state.counters["ios"] = static_cast<double>(out.io.total_ios());
  state.counters["subproblems"] = static_cast<double>(rep.subproblems);
}

BENCHMARK(BM_PruneEmptySlots)->Arg(0)->Arg(1)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_BaseCutoff(benchmark::State& state) {
  core::CacheObliviousOptions opts;
  opts.seed = 77;
  opts.base_cutoff = static_cast<std::size_t>(state.range(0));
  core::CacheObliviousReport rep;
  RunOutcome out;
  for (auto _ : state) {
    out = MeasureOblivious(graph::Gnm(1 << 12, 1 << 14, 1012), opts, &rep);
  }
  state.SetLabel(opts.base_cutoff == 0 ? "paper_exact_depth_only" : "cutoff");
  state.counters["cutoff"] = static_cast<double>(opts.base_cutoff);
  state.counters["ios"] = static_cast<double>(out.io.total_ios());
  state.counters["base_cases"] = static_cast<double>(rep.base_cases);
  state.counters["subproblems"] = static_cast<double>(rep.subproblems);
}

BENCHMARK(BM_BaseCutoff)->Arg(0)->Arg(8)->Arg(16)->Arg(64)->Arg(128)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_ChunkFraction(benchmark::State& state) {
  core::CacheAwareOptions opts;
  opts.chunk_fraction = 1.0 / static_cast<double>(state.range(0));
  RunOutcome out;
  for (auto _ : state) {
    out = MeasureAware(graph::Gnm(1 << 12, 1 << 14, 1013), opts);
  }
  state.counters["one_over_alpha"] = static_cast<double>(state.range(0));
  state.counters["ios"] = static_cast<double>(out.io.total_ios());
}

BENCHMARK(BM_ChunkFraction)->Arg(32)->Arg(16)->Arg(8)->Arg(4)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_ForcedColors(benchmark::State& state) {
  // Sweeping c around the paper's sqrt(E/M) shows the optimum sits there.
  core::CacheAwareOptions opts;
  opts.force_colors = static_cast<std::uint32_t>(state.range(0));
  RunOutcome out;
  for (auto _ : state) {
    out = MeasureAware(graph::Gnm(1 << 12, 1 << 14, 1013), opts);
  }
  state.counters["colors"] = static_cast<double>(state.range(0));
  state.counters["ios"] = static_cast<double>(out.io.total_ios());
}

BENCHMARK(BM_ForcedColors)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trienum::bench
