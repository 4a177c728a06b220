// The observability invariance contract, pinned: installing a
// TraceCollector (spans sampled, histograms windowed) must be bit-invisible
// to triangles, emission order, IoStats, internal work, and the resolved
// seed, across the full algorithm x backend x threads x cache-geometry
// matrix.
// Plus the subsystem's own unit surface: histogram bucket geometry and
// windowed deltas, registry snapshot consistency under concurrent writers,
// span-imbalance death, exclusive-delta telescoping, and Chrome-JSON
// well-formedness of the emitted trace.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "graph/generators.h"
#include "obs/build_info.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"

namespace trienum {
namespace {

constexpr std::size_t kMemWords = 2048;
constexpr std::size_t kBlockWords = 32;
constexpr std::uint64_t kMasterSeed = 0x0B5;

em::EmConfig TestConfig(em::StorageKind storage,
                        std::size_t memory_words = kMemWords,
                        std::size_t block_words = kBlockWords) {
  em::EmConfig cfg;
  cfg.memory_words = memory_words;
  cfg.block_words = block_words;
  cfg.seed = kMasterSeed;
  cfg.storage = storage;
  return cfg;
}

std::vector<graph::Edge> FixtureEdges() {
  return graph::Rmat(8, 1200, 0.45, 0.22, 0.22, 17);
}

// ---------------------------------------------------------------------------
// Histogram geometry and windowed deltas.

TEST(ObsHistogram, BucketEdgesArePowersOfTwo) {
  // Bucket 0 holds exactly the value 0; bucket i >= 1 holds [2^(i-1), 2^i-1].
  EXPECT_EQ(obs::HistogramBucketIndex(0), 0);
  EXPECT_EQ(obs::HistogramBucketIndex(1), 1);
  EXPECT_EQ(obs::HistogramBucketIndex(2), 2);
  EXPECT_EQ(obs::HistogramBucketIndex(3), 2);
  EXPECT_EQ(obs::HistogramBucketIndex(4), 3);
  EXPECT_EQ(obs::HistogramBucketIndex((std::uint64_t{1} << 62) - 1), 62);
  EXPECT_EQ(obs::HistogramBucketIndex(std::uint64_t{1} << 62), 63);
  EXPECT_EQ(obs::HistogramBucketIndex(~std::uint64_t{0}), 63);

  for (int i = 1; i < obs::kHistogramBuckets - 1; ++i) {
    // Every bucket's edges map back to that bucket, and the edges tile.
    EXPECT_EQ(obs::HistogramBucketIndex(obs::HistogramBucketLo(i)), i) << i;
    EXPECT_EQ(obs::HistogramBucketIndex(obs::HistogramBucketHi(i)), i) << i;
    EXPECT_EQ(obs::HistogramBucketHi(i) + 1, obs::HistogramBucketLo(i + 1))
        << i;
  }
  EXPECT_EQ(obs::HistogramBucketHi(obs::kHistogramBuckets - 1),
            ~std::uint64_t{0});
}

TEST(ObsHistogram, ObserveFillsCountSumMaxAndBuckets) {
  obs::Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);    // bucket 3: [4, 7]
  h.Observe(100);  // bucket 7: [64, 127]
  obs::HistogramSnapshot s = h.Snapshot("t");
  EXPECT_EQ(s.name, "t");
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 106u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.buckets[7], 1u);
}

TEST(ObsHistogram, SnapshotDeltaIsolatesAWindow) {
  obs::Histogram h;
  h.Observe(10);
  obs::HistogramSnapshot before = h.Snapshot();
  h.Observe(20);
  h.Observe(30);
  obs::HistogramSnapshot delta = h.Snapshot() - before;
  EXPECT_EQ(delta.count, 2u);
  EXPECT_EQ(delta.sum, 50u);
  std::uint64_t total = 0;
  for (std::uint64_t b : delta.buckets) total += b;
  EXPECT_EQ(total, 2u);
}

// ---------------------------------------------------------------------------
// Registry: interning, stability, concurrent snapshot.

TEST(ObsRegistry, InternsByNameWithStableAddresses) {
  obs::Histogram& a =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.interned_ns");
  obs::Histogram& b =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.interned_ns");
  EXPECT_EQ(&a, &b);
  // Registering more names must not move an interned instrument.
  for (int i = 0; i < 64; ++i) {
    obs::MetricsRegistry::Global().GetHistogram("obs_test.filler_" +
                                                std::to_string(i));
  }
  EXPECT_EQ(&obs::MetricsRegistry::Global().GetHistogram("obs_test.interned_ns"),
            &a);
  const std::uint64_t before = a.Snapshot().count;
  a.Observe(3);
  b.Observe(4);
  EXPECT_EQ(a.Snapshot().count, before + 2);

  int seen = 0;
  obs::MetricsRegistry::Snapshot snap = obs::MetricsRegistry::Global().Snap();
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name == "obs_test.interned_ns") {
      ++seen;
      EXPECT_EQ(h.count, before + 2);
    }
  }
  EXPECT_EQ(seen, 1);
}

TEST(ObsRegistry, SnapshotUnderConcurrentWritersIsClean) {
  // The fast path is relaxed atomics; snapshots read the same atomics. This
  // is primarily a TSan test: writers hammer two registry histograms while
  // the main thread snapshots the histogram and the whole registry in a
  // loop. Afterwards, totals are exact.
  obs::Histogram& h =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.concurrent_ns");
  obs::Histogram& g =
      obs::MetricsRegistry::Global().GetHistogram("obs_test.concurrent_2_ns");
  const std::uint64_t before_count = h.Snapshot().count;
  const std::uint64_t before_g = g.Snapshot().count;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go, &h, &g, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(static_cast<std::uint64_t>(t * kPerThread + i));
        g.Observe(1);
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int i = 0; i < 50; ++i) {
    obs::HistogramSnapshot mid = h.Snapshot();
    std::uint64_t bucket_total = 0;
    for (std::uint64_t b : mid.buckets) bucket_total += b;
    // count and the bucket array may trail each other by in-flight
    // observations but neither can exceed the true total.
    EXPECT_LE(mid.count, before_count + kThreads * kPerThread);
    EXPECT_LE(bucket_total, before_count + kThreads * kPerThread);
    for (const obs::HistogramSnapshot& s :
         obs::MetricsRegistry::Global().Snap().histograms) {
      if (s.name == "obs_test.concurrent_2_ns") {
        EXPECT_LE(s.count, before_g + kThreads * kPerThread);
      }
    }
  }
  for (std::thread& w : writers) w.join();

  obs::HistogramSnapshot final_snap = h.Snapshot();
  EXPECT_EQ(final_snap.count, before_count + kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : final_snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, before_count + kThreads * kPerThread);
  EXPECT_EQ(g.Snapshot().count, before_g + kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Span mechanics.

TEST(ObsTraceDeath, UnbalancedSpanCloseAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        // Closing a span depth that was never opened is a hard check
        // failure: it means attribution is corrupt, not recoverable.
        obs::internal::EndSpanDepth();
      },
      "span close without a matching open");
}

TEST(ObsTrace, NoCollectorMeansNoEvents) {
  ASSERT_EQ(obs::CurrentTraceCollector(), nullptr)
      << "another test leaked an installed collector";
  {
    obs::Span span("obs_test.noop");
    span.AddArg("k", 1);
  }
  // Nothing observable happened; installing a collector afterwards starts
  // from zero events.
  obs::TraceCollector tc;
  EXPECT_EQ(tc.event_count(), 0u);
}

TEST(ObsTrace, SpansNestAndRecordDepthAndArgs) {
  obs::TraceCollector tc;
  obs::ScopedTraceCollector install(tc);
  {
    obs::Span outer("obs_test.outer");
    outer.AddArg("items", 42);
    { obs::Span inner("obs_test.inner"); }
  }
  std::vector<obs::TraceEvent> evs = tc.events_since(0);
  ASSERT_EQ(evs.size(), 2u);
  // Spans close inner-first.
  EXPECT_STREQ(evs[0].name, "obs_test.inner");
  EXPECT_STREQ(evs[1].name, "obs_test.outer");
  EXPECT_EQ(evs[0].depth, 1);
  EXPECT_EQ(evs[1].depth, 0);
  EXPECT_GE(evs[1].dur_ns, evs[0].dur_ns);
  ASSERT_EQ(evs[1].args.size(), 1u);
  EXPECT_STREQ(evs[1].args[0].first, "items");
  EXPECT_EQ(evs[1].args[0].second, 42u);
}

TEST(ObsTrace, ExclusiveDeltasTelescopeToInclusiveTotal) {
  // A fake counter driven by the test: the root span's inclusive delta must
  // equal the sum of all self deltas (root self + children selves).
  std::uint64_t fake = 0;
  obs::TraceCollector tc;
  obs::ScopedTraceCollector install(tc);
  tc.set_sampler([&fake] {
    obs::CounterSample s;
    s.work = fake;
    return s;
  });
  {
    obs::Span root("obs_test.root");
    fake += 5;  // root self
    {
      obs::Span child("obs_test.child");
      fake += 7;  // child self
    }
    fake += 11;  // root self again
  }
  tc.clear_sampler();

  std::vector<obs::TraceEvent> evs = tc.events_since(0);
  ASSERT_EQ(evs.size(), 2u);
  const obs::TraceEvent& child = evs[0];
  const obs::TraceEvent& root = evs[1];
  ASSERT_TRUE(child.has_delta);
  ASSERT_TRUE(root.has_delta);
  EXPECT_EQ(child.self.work, 7u);
  EXPECT_EQ(child.inclusive.work, 7u);
  EXPECT_EQ(root.self.work, 16u);  // 5 + 11
  EXPECT_EQ(root.inclusive.work, 23u);
  EXPECT_EQ(root.self.work + child.self.work, root.inclusive.work);
}

TEST(ObsTrace, OffOwnerThreadSpansRecordWallOnly) {
  obs::TraceCollector tc;
  obs::ScopedTraceCollector install(tc);
  std::uint64_t fake = 0;
  tc.set_sampler([&fake] {
    obs::CounterSample s;
    s.work = fake;
    return s;
  });
  std::thread worker([&fake] {
    obs::SetCurrentThreadName("obs-test-worker");
    obs::Span span("obs_test.worker_span");
    fake += 3;  // sampler must NOT run for this span (not the owner thread)
  });
  worker.join();
  tc.clear_sampler();

  std::vector<obs::TraceEvent> evs = tc.events_since(0);
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_FALSE(evs[0].has_delta);
  EXPECT_NE(evs[0].tid, tc.TidForCurrentThread());
}

// ---------------------------------------------------------------------------
// Chrome JSON emission.

TEST(ObsTrace, WriteChromeJsonEmitsWellFormedCompleteEvents) {
  obs::TraceCollector tc;
  {
    obs::ScopedTraceCollector install(tc);
    obs::Span span("obs_test.json");
    span.AddArg("n", 9);
  }
  std::ostringstream os;
  tc.WriteChromeJson(os);
  const std::string doc = os.str();

  // Structural spot-checks (the CI smoke step runs a full JSON parse; here
  // we pin the Chrome-trace essentials without depending on a parser).
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"obs_test.json\""), std::string::npos);
  EXPECT_NE(doc.find("\"n\":9"), std::string::npos);
  EXPECT_NE(doc.find("\"thread_name\""), std::string::npos);
  // Balanced braces/brackets — cheap well-formedness proxy.
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
            std::count(doc.begin(), doc.end(), '}'));
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
            std::count(doc.begin(), doc.end(), ']'));
}

// ---------------------------------------------------------------------------
// Build info.

TEST(ObsBuildInfo, ReportsCompilerAndStandard) {
  const obs::BuildInfo& bi = obs::GetBuildInfo();
  EXPECT_FALSE(bi.compiler.empty());
  EXPECT_GE(bi.cplusplus, 202002L);  // the build requires C++20
}

// ---------------------------------------------------------------------------
// The tentpole contract: tracing is bit-invisible. Full matrix.

struct Cell {
  std::string algo;
  em::StorageKind storage;
  std::size_t threads;
  std::size_t memory_words;
  std::size_t block_words;
};

class ObsInvarianceMatrix : public ::testing::TestWithParam<Cell> {};

query::QueryResult RunOnce(const Cell& c, const std::vector<graph::Edge>& raw,
                           bool traced, std::uint64_t* trace_events) {
  query::LoadedGraph lg = *query::LoadedGraph::FromEdges(
      TestConfig(c.storage, c.memory_words, c.block_words), raw);
  query::Query q;
  q.kind = query::QueryKind::kEnumerate;
  q.algo = c.algo;
  q.threads = c.threads;

  if (!traced) return *lg.Run(q);
  obs::TraceCollector tc;
  obs::ScopedTraceCollector install(tc);
  query::QueryResult r = *lg.Run(q);
  if (trace_events != nullptr) *trace_events = tc.event_count();
  return r;
}

TEST_P(ObsInvarianceMatrix, TracedRunIsBitIdenticalToUntraced) {
  const Cell& c = GetParam();
  const std::vector<graph::Edge> raw = FixtureEdges();
  std::uint64_t events = 0;
  query::QueryResult plain = RunOnce(c, raw, /*traced=*/false, nullptr);
  query::QueryResult traced = RunOnce(c, raw, /*traced=*/true, &events);

  EXPECT_EQ(traced.triangles, plain.triangles);
  EXPECT_EQ(traced.list, plain.list) << "emission order drifted under trace";
  EXPECT_EQ(traced.io.block_reads, plain.io.block_reads);
  EXPECT_EQ(traced.io.block_writes, plain.io.block_writes);
  EXPECT_EQ(traced.io.cache_hits, plain.io.cache_hits);
  EXPECT_EQ(traced.work, plain.work);
  EXPECT_EQ(traced.seed_used, plain.seed_used);
  EXPECT_EQ(traced.device_peak_words, plain.device_peak_words);

  // The traced run actually traced (phases populated, untraced stayed empty).
  EXPECT_GT(events, 0u);
  EXPECT_FALSE(traced.phases.empty());
  EXPECT_TRUE(plain.phases.empty());
  EXPECT_TRUE(plain.histogram_deltas.empty());
}

std::vector<Cell> AllCells() {
  // The fixture geometry, and a small one (64 lines of 8 words) on which the
  // cache-aware engines split the graph into more colors, chunks and
  // partitions, opening two to four times as many spans per run.
  struct Geometry {
    std::size_t memory_words, block_words;
  };
  const Geometry geometries[] = {{kMemWords, kBlockWords}, {512, 8}};
  std::vector<Cell> cells;
  for (const core::AlgorithmInfo& a : core::AllAlgorithms()) {
    for (em::StorageKind storage :
         {em::StorageKind::kMemory, em::StorageKind::kFile}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        for (const Geometry& g : geometries) {
          cells.push_back(
              Cell{a.name, storage, threads, g.memory_words, g.block_words});
        }
      }
    }
  }
  return cells;
}

std::string CellName(const ::testing::TestParamInfo<Cell>& info) {
  const Cell& c = info.param;
  std::string name = c.algo;
  std::replace(name.begin(), name.end(), '-', '_');
  name += c.storage == em::StorageKind::kFile ? "_file" : "_memory";
  name += "_t" + std::to_string(c.threads);
  name += "_M" + std::to_string(c.memory_words);
  name += "_B" + std::to_string(c.block_words);
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsBackendsThreadsGeometries,
                         ObsInvarianceMatrix,
                         ::testing::ValuesIn(AllCells()), CellName);

// ---------------------------------------------------------------------------
// Attribution: per-phase self deltas sum to the query's totals.

TEST(ObsAttribution, PhaseSelfDeltasSumToQueryTotals) {
  // A bigger graph than the matrix fixture: mgt must need several chunk
  // passes so the acceptance bar of >= 5 I/O-carrying spans is meaningful.
  const std::vector<graph::Edge> raw =
      graph::Rmat(10, 4000, 0.45, 0.22, 0.22, 17);
  query::LoadedGraph lg =
      *query::LoadedGraph::FromEdges(TestConfig(em::StorageKind::kFile), raw);
  obs::TraceCollector tc;
  obs::ScopedTraceCollector install(tc);

  query::Query q;
  q.algo = "mgt";
  query::QueryResult r = *lg.Run(q);
  ASSERT_GT(r.io.block_reads, 0u);
  ASSERT_FALSE(r.phases.empty());

  std::uint64_t br = 0, bw = 0, hits = 0, work = 0, spans = 0;
  for (const query::PhaseStat& p : r.phases) {
    br += p.self.block_reads;
    bw += p.self.block_writes;
    hits += p.self.cache_hits;
    work += p.self.work;
    spans += p.spans;
  }
  EXPECT_EQ(br, r.io.block_reads);
  EXPECT_EQ(bw, r.io.block_writes);
  EXPECT_EQ(hits, r.io.cache_hits);
  EXPECT_EQ(work, r.work);
  // The acceptance bar: at least 5 sampled spans carried nonzero I/O.
  std::uint64_t io_spans = 0;
  for (const obs::TraceEvent& ev : tc.events_since(0)) {
    if (ev.has_delta && (ev.self.block_reads > 0 || ev.self.block_writes > 0)) {
      ++io_spans;
    }
  }
  EXPECT_GE(io_spans, 5u);

  // The file backend's query did real preads: its syscall histogram window
  // is nonempty and consistent with the telemetry counter.
  bool saw_read_hist = false;
  for (const obs::HistogramSnapshot& h : r.histogram_deltas) {
    if (h.name == obs::metric_names::kFileReadNs) {
      saw_read_hist = true;
      EXPECT_EQ(h.count, r.telemetry.read_calls);
      EXPECT_GT(h.sum, 0u);
    }
  }
  EXPECT_TRUE(saw_read_hist);
}

/// Runs every registered algorithm on `lg` at `threads` and expects
/// query.run's own row, which holds what no phase claims, to hold no block
/// I/O. `widest` is the most threads any of the queries ran on.
void ExpectEveryAlgorithmChargesNamedPhases(query::LoadedGraph& lg,
                                            std::size_t threads,
                                            std::size_t& widest) {
  obs::TraceCollector tc;
  obs::ScopedTraceCollector install(tc);
  widest = 0;
  for (const core::AlgorithmInfo& algo : core::AllAlgorithms()) {
    query::Query q;
    q.algo = algo.name;
    q.threads = threads;
    const query::QueryResult r = *lg.Run(q);
    widest = std::max(widest, r.threads_used);
    const std::uint64_t total = r.io.block_reads + r.io.block_writes;
    ASSERT_GT(total, 0u) << algo.name;
    auto root = std::find_if(r.phases.begin(), r.phases.end(),
                             [](const query::PhaseStat& p) {
                               return p.name == "query.run";
                             });
    ASSERT_NE(root, r.phases.end()) << algo.name;
    const std::uint64_t unclaimed =
        root->self.block_reads + root->self.block_writes;
    EXPECT_EQ(unclaimed, 0u)
        << algo.name << ": query.run holds " << unclaimed << " of " << total;
  }
}

TEST(ObsAttribution, EveryAlgorithmChargesItsIoToNamedPhases) {
  // At CI's trace point no registered algorithm leaves a single block I/O
  // in query.run's own row.
  const std::vector<graph::Edge> raw =
      graph::Rmat(10, 8192, 0.45, 0.22, 0.22, 11);
  query::LoadedGraph lg = *query::LoadedGraph::FromEdges(
      TestConfig(em::StorageKind::kMemory, 4096, 64), raw);
  std::size_t widest = 0;
  ExpectEveryAlgorithmChargesNamedPhases(lg, 1, widest);
  EXPECT_EQ(widest, 1u);
}

TEST(ObsAttribution, EveryAlgorithmChargesNamedPhasesOnTheFileBackend) {
  // The same check with a small cache on the staged store, which takes
  // the file device's charge paths and never fans out.
  const std::vector<graph::Edge> raw =
      graph::Rmat(9, 2400, 0.45, 0.22, 0.22, 11);
  query::LoadedGraph lg = *query::LoadedGraph::FromEdges(
      TestConfig(em::StorageKind::kFile, 512, 16), raw);
  std::size_t widest = 0;
  ExpectEveryAlgorithmChargesNamedPhases(lg, 4, widest);
  EXPECT_EQ(widest, 1u);  // a staged store never fans out
}

TEST(ObsAttribution, OrderedRunsReplayTheirChargesInNamedPhases) {
  // At four threads the Lemma 2 chunks' charge logs are replayed by the
  // ordered run's commit loop on the caller; the replayed I/O lands in
  // named phases too.
  const std::vector<graph::Edge> raw =
      graph::Rmat(10, 8192, 0.45, 0.22, 0.22, 11);
  query::LoadedGraph lg = *query::LoadedGraph::FromEdges(
      TestConfig(em::StorageKind::kMemory, 4096, 64), raw);
  std::size_t widest = 0;
  ExpectEveryAlgorithmChargesNamedPhases(lg, 4, widest);
  EXPECT_EQ(widest, 4u);
}

TEST(ObsAttribution, SecondQueryWindowExcludesTheFirst) {
  // Histogram deltas are windowed per query: query 2's window counts only
  // its own syscalls even though the process-wide histogram accumulated
  // query 1's as well.
  const std::vector<graph::Edge> raw = FixtureEdges();
  query::LoadedGraph lg =
      *query::LoadedGraph::FromEdges(TestConfig(em::StorageKind::kFile), raw);
  obs::TraceCollector tc;
  obs::ScopedTraceCollector install(tc);

  query::Query q;
  q.algo = "mgt";
  query::QueryResult r1 = *lg.Run(q);
  query::QueryResult r2 = *lg.Run(q);
  ASSERT_GT(r1.telemetry.read_calls, 0u);
  for (const obs::HistogramSnapshot& h : r2.histogram_deltas) {
    if (h.name == obs::metric_names::kFileReadNs) {
      EXPECT_EQ(h.count, r2.telemetry.read_calls)
          << "window leaked the first query's syscalls";
    }
  }
}

}  // namespace
}  // namespace trienum
