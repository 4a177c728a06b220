// EXP-PARALLEL — host-parallel scaling under the IoStats-invariance
// contract: the same runs at threads in {1, 2, 4, 8} must report the same
// block I/Os (asserted here via the checksum/io counters) while wall_ms
// drops with the core count.
//
// BM_MgtEndToEnd / BM_CacheAwareEndToEnd run whole algorithms at the
// engine's reference operating point (E = 2^16 edges, M = 2^14 words,
// B = 64) on a session of that many threads, where the Lemma 2 pivot chunks
// (mgt, ps-cache-aware) run as ordered pool tasks. Run formation stays
// serial at every thread count.
//
// `ios` must stay flat across the thread counts on any machine. The
// committed baseline comes from a 4-vCPU VM shared with other tenants: it is
// the median of five whole runs, and its single-iteration wall_ms rows
// swing by 2x between runs there, so read the scaling column as a trend.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.h"
#include "graph/types.h"

namespace trienum::bench {
namespace {

constexpr std::size_t kM = 1 << 14;
constexpr std::size_t kB = 64;
constexpr std::size_t kE = 1 << 16;

void RunAlgoScaling(benchmark::State& state, const char* algo) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  const std::vector<graph::Edge> raw =
      graph::Rmat(14, kE, 0.45, 0.22, 0.22, 2014);
  RunOutcome out;
  for (auto _ : state) {
    out = MeasureAlgorithm(algo, raw, kM, kB, /*seed=*/0xB0B, threads);
  }
  ReportIo(state, out, 0.0);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["checksum"] = static_cast<double>(out.checksum % 1000000007);
}

void BM_MgtEndToEnd(benchmark::State& state) {
  RunAlgoScaling(state, "mgt");
}

void BM_CacheAwareEndToEnd(benchmark::State& state) {
  RunAlgoScaling(state, "ps-cache-aware");
}

BENCHMARK(BM_MgtEndToEnd)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CacheAwareEndToEnd)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trienum::bench
