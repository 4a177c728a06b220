// Amortized query latency of the session architecture: answering k queries
// over one LoadedGraph (ingest + normalize once, cold cache per query)
// versus k full single-query runs (fresh context, re-ingest, re-normalize
// every time). The gap is exactly the load cost the query layer amortizes;
// per-query I/O is bit-identical on both sides by the session-reuse
// contract, so the counters double as a standing check that reuse never
// drifts. BENCH_session.json commits the amortization curve (k = 1, 4, 16).
//
// Each row runs kTracePairs back-to-back pairs of one untraced run and one
// with a TraceCollector installed (spans recording, sampler attributing,
// histograms windowed), in one process, and also reports the median over
// pairs of traced / untraced wall as `trace_overhead`. A host slow stretch
// hits both runs of a pair alike, so the paired median measures what
// tracing costs: on a 4-vCPU VM with both sides untraced it read 0.98-1.02,
// where the ratio of the two sides' fastest runs read 0.84-1.17. CI holds
// it to 1.05: tracing must be nearly free, or the "bit-invisible and cheap"
// contract is broken.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <vector>

#include "bench_util.h"
#include "obs/trace.h"
#include "query/query.h"

namespace trienum::bench {
namespace {

constexpr std::size_t kMemWords = 4096;
constexpr std::size_t kBlockWords = 64;
constexpr std::uint64_t kSeed = 0xB0B;
constexpr int kTracePairs = 31;

std::vector<graph::Edge> BenchEdges() {
  return graph::Rmat(10, 8192, 0.45, 0.22, 0.22, 7);
}

em::EmConfig BenchConfig() {
  em::EmConfig cfg;
  cfg.memory_words = kMemWords;
  cfg.block_words = kBlockWords;
  cfg.seed = kSeed;
  return cfg;
}

/// The triangles and I/O of one query of a row.
struct RowResult {
  std::uint64_t triangles = 0;
  em::IoStats io;
};

/// Loads once and answers k count queries through the reused session.
RowResult LoadOncePlusKQueries(const std::vector<graph::Edge>& raw,
                               std::size_t k) {
  query::Query q;
  q.algo = "ps-cache-aware";
  query::LoadedGraph lg = *query::LoadedGraph::FromEdges(BenchConfig(), raw);
  RowResult first;
  for (std::size_t i = 0; i < k; ++i) {
    query::QueryResult r = *lg.Run(q);
    // Session-reuse sanity: every query in the batch must charge the same
    // I/Os as the first (the bit-identity contract, kept hot in the bench).
    if (i == 0) {
      first = {r.triangles, r.io};
    } else {
      TRIENUM_CHECK(r.io.block_reads == first.io.block_reads &&
                    r.io.block_writes == first.io.block_writes &&
                    r.io.cache_hits == first.io.cache_hits);
    }
  }
  return first;
}

/// The baseline it amortizes against: k independent full runs, each paying
/// ingest + normalize again.
RowResult KFullRuns(const std::vector<graph::Edge>& raw, std::size_t k) {
  RunOutcome out;
  for (std::size_t i = 0; i < k; ++i) {
    out = MeasureAlgorithm("ps-cache-aware", raw, kMemWords, kBlockWords,
                           kSeed);
  }
  return {out.triangles, out.io};
}

/// One row, untraced and traced in back-to-back pairs. Each pair swaps which
/// side runs first, and a traced run must charge exactly what the untraced
/// one did. wall_ms and per_query_ms come from the untraced side's fastest
/// run, traced_ms from the traced side's.
void BM_Session(benchmark::State& state, bool load_once) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::vector<graph::Edge> raw = BenchEdges();
  obs::TraceCollector tc;
  double best_ms[2] = {std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::infinity()};
  std::vector<double> pair_ratios;
  RowResult first;
  for (auto _ : state) {
    for (int pair = 0; pair < kTracePairs; ++pair) {
      double ms[2] = {0, 0};
      for (int side : {pair & 1, 1 - (pair & 1)}) {
        tc.Clear();
        std::optional<obs::ScopedTraceCollector> install;
        if (side == 1) install.emplace(tc);
        auto t0 = std::chrono::steady_clock::now();
        const RowResult r =
            load_once ? LoadOncePlusKQueries(raw, k) : KFullRuns(raw, k);
        auto t1 = std::chrono::steady_clock::now();
        ms[side] = std::chrono::duration<double, std::milli>(t1 - t0).count();
        best_ms[side] = std::min(best_ms[side], ms[side]);
        if (pair == 0 && side == 0) first = r;
        TRIENUM_CHECK(r.triangles == first.triangles &&
                      r.io.block_reads == first.io.block_reads &&
                      r.io.block_writes == first.io.block_writes &&
                      r.io.cache_hits == first.io.cache_hits);
      }
      pair_ratios.push_back(ms[1] / ms[0]);
    }
  }
  std::sort(pair_ratios.begin(), pair_ratios.end());
  state.counters["wall_ms"] = best_ms[0];
  state.counters["per_query_ms"] = best_ms[0] / static_cast<double>(k);
  state.counters["traced_ms"] = best_ms[1];
  state.counters["trace_overhead"] = pair_ratios[pair_ratios.size() / 2];
  state.counters["ios_per_query"] = static_cast<double>(first.io.total_ios());
  state.counters["triangles"] = static_cast<double>(first.triangles);
  state.SetLabel(load_once ? "load_once" : "full_runs");
}

void BM_SessionLoadOncePlusKQueries(benchmark::State& state) {
  BM_Session(state, true);
}
BENCHMARK(BM_SessionLoadOncePlusKQueries)->Arg(1)->Arg(4)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_SessionKFullRuns(benchmark::State& state) {
  BM_Session(state, false);
}
BENCHMARK(BM_SessionKFullRuns)->Arg(1)->Arg(4)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace trienum::bench
