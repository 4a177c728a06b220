// Shared helpers for the experiment benches. MeasureAlgorithm runs an
// algorithm once from a cold cache and returns its *measured block I/Os*
// (the paper's complexity measure); the google-benchmark binaries report
// it as custom counters through ReportIo, alongside the theorem-predicted
// bound and the measured/bound ratio.
#ifndef TRIENUM_BENCH_BENCH_UTIL_H_
#define TRIENUM_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/sink.h"
#include "em/context.h"
#include "graph/generators.h"
#include "graph/normalize.h"

namespace trienum::bench {

struct RunOutcome {
  std::uint64_t triangles = 0;
  std::uint64_t checksum = 0;
  em::IoStats io;
  std::uint64_t work = 0;
  std::size_t num_edges = 0;
  std::size_t peak_disk_words = 0;
  double wall_ms = 0;  ///< wall clock of the measured run (build excluded)
};

/// Builds the graph (uncounted), resets the cache cold, runs the named
/// algorithm once on `threads` host threads, flushes, and returns the
/// measured I/O statistics.
inline RunOutcome MeasureAlgorithm(const std::string& algo_name,
                                   const std::vector<graph::Edge>& raw,
                                   std::size_t m_words, std::size_t b_words,
                                   std::uint64_t seed = 0xB0B,
                                   std::size_t threads = 1) {
  em::EmConfig cfg;
  cfg.memory_words = m_words;
  cfg.block_words = b_words;
  cfg.seed = seed;
  em::Context ctx(cfg);
  ctx.set_threads(threads);
  ctx.cache().set_counting(false);
  graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
  ctx.cache().set_counting(true);
  ctx.cache().Reset();
  ctx.ResetWork();
  ctx.device().ResetPeak();
  std::size_t disk_before = ctx.device().peak_words();

  core::ChecksumSink sink;
  const core::AlgorithmInfo* algo = core::FindAlgorithm(algo_name);
  auto t0 = std::chrono::steady_clock::now();
  algo->run(ctx, g, sink);
  ctx.cache().FlushAll();
  auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.triangles = sink.count();
  out.checksum = sink.checksum();
  out.io = ctx.cache().stats();
  out.work = ctx.work();
  out.num_edges = g.num_edges();
  out.peak_disk_words = ctx.device().peak_words() - disk_before;
  return out;
}

/// Attaches the standard counters to a benchmark state.
inline void ReportIo(benchmark::State& state, const RunOutcome& out,
                     double predicted_bound) {
  state.counters["wall_ms"] = out.wall_ms;
  state.counters["ios"] = static_cast<double>(out.io.total_ios());
  state.counters["reads"] = static_cast<double>(out.io.block_reads);
  state.counters["writes"] = static_cast<double>(out.io.block_writes);
  state.counters["triangles"] = static_cast<double>(out.triangles);
  state.counters["bound"] = predicted_bound;
  if (predicted_bound > 0) {
    state.counters["io_over_bound"] =
        static_cast<double>(out.io.total_ios()) / predicted_bound;
  }
}

}  // namespace trienum::bench

#endif  // TRIENUM_BENCH_BENCH_UTIL_H_
