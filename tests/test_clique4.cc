// §6 extension: 4-clique enumeration via color coding.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "core/clique4.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

std::uint64_t RunCount4(const std::vector<Edge>& raw, std::size_t m = 1 << 12,
                        std::size_t b = 16, std::uint64_t seed = 0x41) {
  em::Context ctx = test::MakeContext(m, b, seed);
  EmGraph g = BuildEmGraph(ctx, raw);
  core::CountingCliqueSink sink;
  core::EnumerateFourCliques(ctx, g, sink);
  return sink.count();
}

TEST(Clique4Host, KnownCounts) {
  EXPECT_EQ(core::CountFourCliquesHost(Clique(4)), 1u);
  EXPECT_EQ(core::CountFourCliquesHost(Clique(6)), 15u);   // C(6,4)
  EXPECT_EQ(core::CountFourCliquesHost(Clique(10)), 210u); // C(10,4)
  EXPECT_EQ(core::CountFourCliquesHost(CompleteTripartite(4, 4, 4)), 0u);
  EXPECT_EQ(core::CountFourCliquesHost(Star(30)), 0u);
  EXPECT_EQ(core::CountFourCliquesHost(CliqueUnion(3, 5)), 15u);  // 3*C(5,4)
}

TEST(Clique4, MatchesHostReferenceOnMenagerie) {
  for (const test::GraphCase& gc : test::StandardGraphCases()) {
    EXPECT_EQ(RunCount4(gc.edges), core::CountFourCliquesHost(gc.edges))
        << gc.name;
  }
}

TEST(Clique4, TightMemoryForcesRecursiveRefinement) {
  // With M tiny relative to E, color 4-tuples overflow and the refinement
  // path is exercised.
  auto raw = Gnm(60, 900, 21);
  EXPECT_EQ(RunCount4(raw, /*m=*/256, /*b=*/8),
            core::CountFourCliquesHost(raw));
}

TEST(Clique4, HighDegreePathHandlesDenseCore) {
  // K_32 + periphery: the clique vertices are all high-degree, so step 1
  // (triangles of E'_x) does the bulk of the work, including cliques with
  // 1-4 high-degree members.
  auto raw = CliquePlusPath(32, 100);
  auto extra = Gnm(132, 400, 5);
  raw.insert(raw.end(), extra.begin(), extra.end());
  EXPECT_EQ(RunCount4(raw, 1 << 10, 16), core::CountFourCliquesHost(raw));
}

TEST(Clique4, ExactlyOnce) {
  auto raw = Gnm(40, 500, 33);
  em::Context ctx = test::MakeContext();
  EmGraph g = BuildEmGraph(ctx, raw);
  core::CollectingCliqueSink sink;
  core::EnumerateFourCliques(ctx, g, sink);
  auto cliques = sink.cliques();
  for (const auto& q : cliques) {
    EXPECT_TRUE(q[0] < q[1] && q[1] < q[2] && q[2] < q[3]);
  }
  std::set<std::array<VertexId, 4>> uniq(cliques.begin(), cliques.end());
  EXPECT_EQ(uniq.size(), cliques.size()) << "duplicate 4-clique emitted";
  EXPECT_EQ(cliques.size(), core::CountFourCliquesHost(raw));
}

TEST(Clique4, SeedsAgree) {
  auto raw = Gnm(80, 1200, 44);
  std::uint64_t expected = core::CountFourCliquesHost(raw);
  for (std::uint64_t seed : {1ull, 9ull, 123ull}) {
    EXPECT_EQ(RunCount4(raw, 1 << 12, 16, seed), expected) << seed;
  }
}

TEST(Clique4, SessionSeedFixesOrderAndIo) {
  // The coloring and splitting bits come from the session seed alone: one
  // seed repeats the emission order and the I/O cost exactly, and another
  // seed finds the same cliques.
  auto raw = Gnm(80, 1200, 44);
  auto run = [&raw](std::uint64_t seed) {
    em::Context ctx = test::MakeContext(1 << 10, 16, seed);
    EmGraph g = BuildEmGraph(ctx, raw);
    ctx.cache().Reset();
    core::CollectingCliqueSink sink;
    core::EnumerateFourCliques(ctx, g, sink);
    ctx.cache().FlushAll();
    return std::make_pair(sink.cliques(), ctx.cache().stats());
  };
  const auto [first, first_io] = run(9);
  const auto [again, again_io] = run(9);
  EXPECT_EQ(again, first);
  EXPECT_EQ(again_io.block_reads, first_io.block_reads);
  EXPECT_EQ(again_io.block_writes, first_io.block_writes);
  EXPECT_EQ(again_io.cache_hits, first_io.cache_hits);
  EXPECT_EQ(first.size(), core::CountFourCliquesHost(raw));

  auto other = run(123).first;
  auto sorted = first;
  std::sort(sorted.begin(), sorted.end());
  std::sort(other.begin(), other.end());
  EXPECT_EQ(other, sorted);
}

TEST(Clique4, IoScalesQuadraticallyInE) {
  // §6 bound E^2/(MB): growing E 2x at fixed M should grow I/O ~4x
  // (like MGT, one power of E above the triangle bound).
  const std::size_t m = 1 << 9, b = 16;
  auto measure = [&](std::size_t e) {
    em::Context ctx = test::MakeContext(m, b);
    EmGraph g = BuildEmGraph(ctx, Gnm(static_cast<VertexId>(e / 4), e, 7));
    ctx.cache().Reset();
    core::CountingCliqueSink sink;
    core::EnumerateFourCliques(ctx, g, sink);
    ctx.cache().FlushAll();
    return static_cast<double>(ctx.cache().stats().total_ios());
  };
  double g1 = measure(1 << 12);
  double g2 = measure(1 << 13);
  EXPECT_GT(g2 / g1, 2.0);
  EXPECT_LT(g2 / g1, 8.0);
}

}  // namespace
}  // namespace trienum
