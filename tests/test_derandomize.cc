// Section 4 derandomization: the greedy coloring must achieve the paper's
// deterministic guarantee X_xi < e*E*M, be fully deterministic, and plug
// into the cache-aware algorithm as Theorem 2's algorithm.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/cache_aware.h"
#include "core/coloring.h"
#include "core/derandomize.h"
#include "obs/trace.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

TEST(Derandomize, PotentialMeetsTheDeterministicBound) {
  for (std::uint64_t seed : {4ull, 5ull, 6ull}) {
    const std::size_t m_words = 1 << 8;
    em::Context ctx = test::MakeContext(m_words, 16);
    EmGraph g = BuildEmGraph(ctx, Gnm(400, 4000, seed));
    // c = smallest power of two with c^2 * M >= E.
    std::uint32_t c = 1;
    while (static_cast<std::uint64_t>(c) * c * m_words < g.num_edges()) c <<= 1;
    core::DeterministicColoring det =
        core::BuildDeterministicColoring(ctx, g.edges, c);
    EXPECT_LT(det.final_potential(),
              core::DerandomizedBound(g.num_edges(), m_words))
        << "seed " << seed;
  }
}

TEST(Derandomize, FinalPotentialEqualsMeasuredXxi) {
  // At the last level the potential *is* X_xi; cross-check against the
  // independent ComputeColoringStats measurement.
  const std::size_t m_words = 1 << 8;
  em::Context ctx = test::MakeContext(m_words, 16);
  EmGraph g = BuildEmGraph(ctx, Gnm(300, 2500, 8));
  std::uint32_t c = 4;
  core::DeterministicColoring det =
      core::BuildDeterministicColoring(ctx, g.edges, c);
  core::ColoringStats stats = core::ComputeColoringStats(
      ctx, g.edges, [&det](VertexId v) { return det.Color(v); }, c);
  EXPECT_DOUBLE_EQ(stats.x_total, det.final_potential());
}

TEST(Derandomize, FullyDeterministic) {
  em::Context ctx = test::MakeContext(1 << 8, 16);
  EmGraph g = BuildEmGraph(ctx, Gnm(200, 1500, 12));
  core::DeterministicColoring a = core::BuildDeterministicColoring(ctx, g.edges, 8);
  core::DeterministicColoring b = core::BuildDeterministicColoring(ctx, g.edges, 8);
  EXPECT_EQ(a.round_seeds(), b.round_seeds());
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    ASSERT_EQ(a.Color(v), b.Color(v));
  }
}

TEST(Derandomize, ColorsLieInRangeAndUseLog2CBits) {
  em::Context ctx = test::MakeContext(1 << 8, 16);
  EmGraph g = BuildEmGraph(ctx, Gnm(200, 1500, 12));
  core::DeterministicColoring det =
      core::BuildDeterministicColoring(ctx, g.edges, 8);
  EXPECT_EQ(det.num_colors(), 8u);
  EXPECT_EQ(det.round_seeds().size(), 3u);
  for (VertexId v = 0; v < 500; ++v) EXPECT_LT(det.Color(v), 8u);
}

TEST(Derandomize, TrivialSingleColor) {
  em::Context ctx = test::MakeContext();
  EmGraph g = BuildEmGraph(ctx, Gnm(50, 200, 1));
  core::DeterministicColoring det =
      core::BuildDeterministicColoring(ctx, g.edges, 1);
  EXPECT_EQ(det.Color(17), 0u);
  EXPECT_TRUE(det.round_seeds().empty());
}

TEST(Derandomize, GreedyAcceptsQuickly) {
  // Markov: a random candidate fails the (1+alpha) target with probability
  // <= 1/(1+alpha); the first-fit search should inspect only a handful of
  // candidates per round.
  em::Context ctx = test::MakeContext(1 << 8, 16);
  EmGraph g = BuildEmGraph(ctx, Gnm(400, 4000, 15));
  core::DeterministicColoring det =
      core::BuildDeterministicColoring(ctx, g.edges, 8);
  EXPECT_LE(det.candidates_tried(), 3u * det.round_seeds().size() + 8u);
}

TEST(Derandomize, DeterministicAlgorithmIsRepeatable) {
  // Theorem 2's algorithm end-to-end: two runs emit the identical sequence
  // (not just set) of triangles.
  auto raw = Gnm(150, 1100, 3);
  auto run_once = [&raw]() {
    em::Context ctx = test::MakeContext(1 << 9, 16);
    EmGraph g = BuildEmGraph(ctx, raw);
    core::CollectingSink sink;
    core::EnumerateDeterministic(ctx, g, sink);
    return sink.triangles();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Derandomize, LastRoundSkipsItsDeadRebuild) {
  // The CLI's gnm:n=600,m=6000 at M = 1024, B = 16: c = 4, so two rounds.
  // Refining, rebuilding and re-sorting the arrays after the last round,
  // which nothing reads, would raise this to 54,596 reads and 46,471
  // writes.
  em::Context ctx = test::MakeContext(1 << 10, 16);
  EmGraph g = BuildEmGraph(ctx, Gnm(600, 6000, 2014));
  ctx.cache().Reset();
  core::CountingSink sink;
  obs::TraceCollector tc;
  {
    obs::ScopedTraceCollector install(tc);
    core::EnumerateDeterministic(ctx, g, sink);
  }
  ctx.cache().FlushAll();
  EXPECT_EQ(sink.count(), 1310u);
  EXPECT_EQ(ctx.cache().stats().block_reads, 41535u);
  EXPECT_EQ(ctx.cache().stats().block_writes, 32253u);
  std::uint64_t spans = 0, rounds = 0;
  for (const obs::TraceEvent& ev : tc.events_since(0)) {
    if (std::string(ev.name) != "det.round") continue;
    ++spans;
    for (const auto& [key, value] : ev.args) {
      if (std::string(key) == "rounds") rounds = value;
    }
  }
  EXPECT_EQ(spans, 1u);
  EXPECT_EQ(rounds, 2u);
}

TEST(Derandomize, SkewedDegreesWithinBoundAfterHighDegreeRemoval) {
  // The X_adj term of the bound needs max degree <= sqrt(E*M); emulate the
  // §2 pipeline: strip high-degree vertices first, then derandomize.
  const std::size_t m_words = 1 << 8;
  em::Context ctx = test::MakeContext(m_words, 16);
  EmGraph g = BuildEmGraph(ctx, CliquePlusPath(40, 2000));
  double threshold =
      std::sqrt(static_cast<double>(g.num_edges()) * m_words);
  // Filter out edges touching vertices above the threshold (host-side prep).
  std::vector<Edge> low;
  ctx.cache().set_counting(false);
  std::vector<std::uint32_t> deg(g.num_vertices);
  for (VertexId v = 0; v < g.num_vertices; ++v) deg[v] = g.degrees.Get(v);
  for (const Edge& e : DownloadEdges(g)) {
    if (deg[e.u] <= threshold && deg[e.v] <= threshold) low.push_back(e);
  }
  ctx.cache().set_counting(true);
  em::Array<Edge> low_dev = ctx.Alloc<Edge>(low.size());
  for (std::size_t i = 0; i < low.size(); ++i) low_dev.Set(i, low[i]);

  std::uint32_t c = 1;
  while (static_cast<std::uint64_t>(c) * c * m_words < low.size()) c <<= 1;
  core::DeterministicColoring det =
      core::BuildDeterministicColoring(ctx, low_dev, c);
  EXPECT_LT(det.final_potential(), core::DerandomizedBound(low.size(), m_words));
}

TEST(Derandomize, AghpFamilySourceAlsoMeetsTheBound) {
  // The paper's actual Lemma 6 family (AGHP over GF(2^m)) as candidate
  // source: slower, but the greedy inequality and final guarantee must hold
  // just the same on a small input.
  const std::size_t m_words = 1 << 8;
  em::Context ctx = test::MakeContext(m_words, 16);
  EmGraph g = BuildEmGraph(ctx, Gnm(120, 900, 4));
  core::DerandOptions opts;
  opts.use_aghp_family = true;
  core::DeterministicColoring det =
      core::BuildDeterministicColoring(ctx, g.edges, 4, opts);
  EXPECT_LT(det.final_potential(),
            core::DerandomizedBound(g.num_edges(), m_words));
  // Deterministic across rebuilds.
  core::DeterministicColoring det2 =
      core::BuildDeterministicColoring(ctx, g.edges, 4, opts);
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    ASSERT_EQ(det.Color(v), det2.Color(v));
  }
  // Cross-check against independent stats measurement.
  core::ColoringStats stats = core::ComputeColoringStats(
      ctx, g.edges, [&det](VertexId v) { return det.Color(v); }, 4);
  EXPECT_DOUBLE_EQ(stats.x_total, det.final_potential());
}

TEST(Derandomize, AghpFamilyColoringIsDeterministic) {
  // The AGHP candidate source over GF(2^12) has no randomness either: two
  // builds accept the same candidates in every round, within the per-round
  // cap of 64 inspected candidates.
  em::Context ctx = test::MakeContext(1 << 8, 16);
  EmGraph g = BuildEmGraph(ctx, Gnm(120, 900, 4));
  core::DerandOptions opts;
  opts.use_aghp_family = true;
  core::DeterministicColoring a =
      core::BuildDeterministicColoring(ctx, g.edges, 4, opts);
  core::DeterministicColoring b =
      core::BuildDeterministicColoring(ctx, g.edges, 4, opts);
  ASSERT_EQ(a.round_seeds().size(), 2u);
  EXPECT_EQ(a.round_seeds(), b.round_seeds());
  EXPECT_EQ(a.candidates_tried(), b.candidates_tried());
  EXPECT_LE(a.candidates_tried(), 64u * a.round_seeds().size());
  EXPECT_DOUBLE_EQ(a.final_potential(), b.final_potential());
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    ASSERT_LT(a.Color(v), 4u);
    ASSERT_EQ(a.Color(v), b.Color(v)) << "vertex " << v;
  }
}

}  // namespace
}  // namespace trienum
