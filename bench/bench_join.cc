// EXP-JOIN — the introduction's database application: reconstructing a
// 5NF-decomposed Sells table as a ternary natural join, driven by triangle
// enumeration vs. the block-nested-loop join plan. Reports output tuples and
// the I/O cost of each plan.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "join/relation.h"
#include "join/triangle_join.h"

namespace trienum::bench {
namespace {

// Product-form Sells instance: `people` salespeople, each selling all
// products in a random brand-set x type-set rectangle.
std::vector<join::Tuple3> MakeSells(int people, int brands, int types,
                                    std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<join::Tuple3> out;
  for (int p = 0; p < people; ++p) {
    for (int b = 0; b < brands; ++b) {
      if (rng.NextDouble() >= 0.3) continue;
      for (int t = 0; t < types; ++t) {
        if (rng.NextDouble() < 0.4) {
          out.push_back(join::Tuple3{static_cast<std::uint32_t>(p),
                                     static_cast<std::uint32_t>(1000 + b),
                                     static_cast<std::uint32_t>(2000 + t)});
        }
      }
    }
  }
  return out;
}

void BM_TriangleJoin(benchmark::State& state, const std::string& algo) {
  const int people = static_cast<int>(state.range(0));
  join::Decomposition d =
      join::Decompose(MakeSells(people, 48, 32, 1014));
  join::TriangleJoinStats stats;
  std::size_t tuples = 0;
  for (auto _ : state) {
    em::EmConfig cfg;
    cfg.memory_words = 1 << 10;
    cfg.block_words = 16;
    em::Context ctx(cfg);
    auto result = join::TriangleJoin(ctx, d, algo, &stats);
    tuples = result.ok() ? result->size() : 0;
  }
  state.counters["people"] = static_cast<double>(people);
  state.counters["relation_rows"] = static_cast<double>(
      d.ab.rows.size() + d.bc.rows.size() + d.ac.rows.size());
  state.counters["output_tuples"] = static_cast<double>(tuples);
  state.counters["join_ios"] = static_cast<double>(stats.io.total_ios());
}

BENCHMARK_CAPTURE(BM_TriangleJoin, ps_cache_aware, "ps-cache-aware")
    ->Arg(64)->Arg(128)->Arg(256)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TriangleJoin, ps_cache_oblivious, "ps-cache-oblivious")
    ->Arg(64)->Arg(128)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TriangleJoin, mgt, "mgt")
    ->Arg(64)->Arg(128)->Arg(256)->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_TriangleJoin, bnl, "bnl")
    ->Arg(64)->Arg(128)->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trienum::bench
