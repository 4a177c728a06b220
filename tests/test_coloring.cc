// Color-class statistics (the X_xi random variable of eq. (1)) and the
// empirical Lemma 3 bound E[X_xi] <= E*M.
#include <gtest/gtest.h>

#include "core/coloring.h"
#include "hashing/kwise.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

TEST(ColoringStats, HandComputedTinyExample) {
  // Edges: (0,1) (0,2) (2,3) under coloring {0,1 -> color 0; 2,3 -> color 1}.
  // Classes: (0,1)->(0,0); (0,2)->(0,1); (2,3)->(1,1): all singletons =>
  // X_total = 0.
  em::Context ctx = test::MakeContext();
  em::Array<Edge> edges = ctx.Alloc<Edge>(3);
  edges.Set(0, Edge{0, 1});
  edges.Set(1, Edge{0, 2});
  edges.Set(2, Edge{2, 3});
  auto color = [](VertexId v) { return v < 2 ? 0u : 1u; };
  core::ColoringStats s = core::ComputeColoringStats(ctx, edges, color, 2);
  EXPECT_DOUBLE_EQ(s.x_total, 0.0);
  EXPECT_DOUBLE_EQ(s.x_adj, 0.0);
  EXPECT_EQ(s.nonempty_classes, 3u);
}

TEST(ColoringStats, SingleColorIsAllPairs) {
  // With one color, X_total = C(E, 2) and X_adj = sum_v C(deg v, 2).
  em::Context ctx = test::MakeContext();
  auto raw = Clique(6);  // 15 edges; every vertex degree 5
  EmGraph g = BuildEmGraph(ctx, raw);
  auto color = [](VertexId) { return 0u; };
  core::ColoringStats s = core::ComputeColoringStats(ctx, g.edges, color, 1);
  EXPECT_DOUBLE_EQ(s.x_total, 105.0);        // C(15,2)
  EXPECT_DOUBLE_EQ(s.x_adj, 6.0 * 10.0);     // 6 vertices * C(5,2)
  EXPECT_DOUBLE_EQ(s.x_nonadj, 105.0 - 60.0);
}

TEST(ColoringStats, AdjacentPairsOnAStar) {
  // Star: all edges share the hub; same class iff leaf colors equal.
  em::Context ctx = test::MakeContext();
  EmGraph g = BuildEmGraph(ctx, Star(10));
  // Hub is the max id (degree order); color leaves alternately.
  VertexId hub = g.num_vertices - 1;
  auto color = [hub](VertexId v) { return v == hub ? 0u : v % 2; };
  core::ColoringStats s = core::ComputeColoringStats(ctx, g.edges, color, 2);
  // Classes (leafcolor, hubcolor=0 as larger endpoint... hub has max id so
  // edges are (leaf, hub)): class key = (color(leaf), 0): two classes of 5.
  EXPECT_DOUBLE_EQ(s.x_total, 2 * 10.0);  // 2 * C(5,2)
  EXPECT_DOUBLE_EQ(s.x_adj, s.x_total);   // all pairs share the hub
}

TEST(ColoringStats, Lemma3HoldsOnAverage) {
  // E[X_xi] <= E*M for the 4-wise coloring with c = sqrt(E/M): average over
  // seeds must come in under the bound (with slack for variance). c = 4 is
  // the power of two with c^2 M = E at M = 256; c = 12, the least integer
  // with c^2 M >= E at M = 32, colours by the hash mod c.
  em::Context ctx = test::MakeContext(1 << 8, 16);
  EmGraph g = BuildEmGraph(ctx, Gnm(500, 4096, 2));
  for (std::size_t m_words : {std::size_t{256}, std::size_t{32}}) {
    std::uint32_t c = 1;
    while (static_cast<std::uint64_t>(c) * c * m_words < g.num_edges()) ++c;
    ASSERT_EQ(c, m_words == 256 ? 4u : 12u);

    double sum = 0;
    const int trials = 10;
    for (int t = 0; t < trials; ++t) {
      hashing::FourWiseHash h(1000 + t);
      core::ColoringStats s = core::ComputeColoringStats(
          ctx, g.edges, [h, c](VertexId v) { return h.Color(v, c); }, c);
      sum += s.x_total;
    }
    EXPECT_LT(sum / trials, 1.5 * core::Lemma3Bound(g.num_edges(), m_words))
        << "c = " << c;
  }
}

TEST(ColoringStats, MoreColorsShrinkX) {
  em::Context ctx = test::MakeContext();
  EmGraph g = BuildEmGraph(ctx, Gnm(400, 3000, 6));
  hashing::FourWiseHash h(9);
  double prev = -1;
  for (std::uint32_t c : {1u, 2u, 4u, 8u, 16u}) {
    core::ColoringStats s = core::ComputeColoringStats(
        ctx, g.edges, [h, c](VertexId v) { return h.Color(v, c); }, c);
    if (prev >= 0) {
      EXPECT_LT(s.x_total, prev) << "c = " << c;
    }
    prev = s.x_total;
  }
}

TEST(ColoringStats, EmptyEdgeSet) {
  em::Context ctx = test::MakeContext();
  em::Array<Edge> edges = ctx.Alloc<Edge>(0);
  core::ColoringStats s =
      core::ComputeColoringStats(ctx, edges, [](VertexId) { return 0u; }, 1);
  EXPECT_DOUBLE_EQ(s.x_total, 0.0);
  EXPECT_EQ(s.nonempty_classes, 0u);
}

}  // namespace
}  // namespace trienum
