// EXP-SORT — substrate sanity: both sort primitives track the
// sort(n) = Theta((n/B) log_{M/B}(n/B)) model. `io_over_sortbound` should be
// ~1-3x for the cache-aware merge sort and a larger but flat constant for
// funnelsort (which also moves merger state).
//
// Since the PR 4 sort-engine overhaul this runs at the engine's reference
// operating point (M = 2^14 words, B = 64 — the config the end-to-end
// benches use), and wall_ms doubles as the engine's committed perf record:
// the CI bench-smoke job fails if it regresses >2x against
// bench/baselines/BENCH_sort.json.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "em/array.h"
#include "extsort/ext_merge_sort.h"
#include "extsort/funnel_sort.h"
#include "extsort/io_bounds.h"

namespace trienum::bench {
namespace {

constexpr std::size_t kM = 1 << 14;
constexpr std::size_t kB = 64;

template <typename SortFn>
void RunSortBench(benchmark::State& state, SortFn sort_fn) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  em::EmConfig cfg;
  cfg.memory_words = kM;
  cfg.block_words = kB;
  em::Context ctx(cfg);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  std::uint64_t ios = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SplitMix64 rng(55);
    ctx.cache().set_counting(false);
    for (std::size_t i = 0; i < n; ++i) a.Set(i, rng.Next());
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    state.ResumeTiming();
    sort_fn(ctx, a);
    ctx.cache().FlushAll();
    ios = ctx.cache().stats().total_ios();
  }
  double bound = extsort::SortIoBound(n, 1, kM, kB);
  state.counters["n"] = static_cast<double>(n);
  state.counters["ios"] = static_cast<double>(ios);
  state.counters["sort_bound"] = bound;
  state.counters["io_over_sortbound"] = static_cast<double>(ios) / bound;
}

void BM_ExternalMergeSort(benchmark::State& state) {
  RunSortBench(state, [](em::Context& ctx, em::Array<std::uint64_t> a) {
    extsort::ExternalMergeSort(ctx, a, std::less<std::uint64_t>{});
  });
}

void BM_FunnelSort(benchmark::State& state) {
  RunSortBench(state, [](em::Context& ctx, em::Array<std::uint64_t> a) {
    extsort::FunnelSort(ctx, a, std::less<std::uint64_t>{});
  });
}

BENCHMARK(BM_ExternalMergeSort)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 18)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FunnelSort)
    ->RangeMultiplier(4)
    ->Range(1 << 12, 1 << 18)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trienum::bench
