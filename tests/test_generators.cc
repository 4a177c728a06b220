// Graph generators: exact structural invariants (edge counts, simplicity,
// known triangle counts), determinism in the seed, and the shape of the
// Barabasi-Albert and Watts-Strogatz families.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/reference.h"
#include "graph/generators.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

bool IsSimple(const std::vector<Edge>& edges) {
  std::set<std::pair<VertexId, VertexId>> seen;
  for (const Edge& e : edges) {
    if (e.u == e.v) return false;
    auto key = std::minmax(e.u, e.v);
    if (!seen.insert(key).second) return false;
  }
  return true;
}

TEST(Gnm, ExactEdgeCountSimpleAndSeeded) {
  auto g1 = Gnm(100, 500, 7);
  auto g2 = Gnm(100, 500, 7);
  auto g3 = Gnm(100, 500, 8);
  EXPECT_EQ(g1.size(), 500u);
  EXPECT_TRUE(IsSimple(g1));
  EXPECT_EQ(g1, g2);
  EXPECT_NE(g1, g3);
  for (const Edge& e : g1) {
    EXPECT_LT(e.u, 100u);
    EXPECT_LT(e.v, 100u);
  }
}

TEST(Gnm, CompleteGraphRequest) {
  auto g = Gnm(10, 45, 3);  // all C(10,2) edges
  EXPECT_EQ(g.size(), 45u);
  EXPECT_TRUE(IsSimple(g));
}

TEST(Clique, CountsAndTriangles) {
  auto k6 = Clique(6);
  EXPECT_EQ(k6.size(), 15u);
  EXPECT_TRUE(IsSimple(k6));
  EXPECT_EQ(core::CountTrianglesHost(k6), 20u);  // C(6,3)
}

TEST(CliquePlusPath, Shape) {
  auto g = CliquePlusPath(5, 10);
  EXPECT_EQ(g.size(), 10u + 10u);  // C(5,2) + 10
  EXPECT_TRUE(IsSimple(g));
  EXPECT_EQ(core::CountTrianglesHost(g), 10u);  // only the clique's C(5,3)
}

TEST(CompleteTripartite, TriangleCountIsProduct) {
  auto g = CompleteTripartite(3, 4, 5);
  EXPECT_EQ(g.size(), 3u * 4 + 4u * 5 + 3u * 5);
  EXPECT_TRUE(IsSimple(g));
  EXPECT_EQ(core::CountTrianglesHost(g), 3u * 4 * 5);
}

TEST(Rmat, SimpleSeededSkewed) {
  auto g = Rmat(10, 2000, 0.45, 0.2, 0.2, 5);
  EXPECT_TRUE(IsSimple(g));
  EXPECT_EQ(g, Rmat(10, 2000, 0.45, 0.2, 0.2, 5));
  EXPECT_GE(g.size(), 1900u);  // may fall slightly short after dedup attempts
  // Skew: the max degree should far exceed the average.
  std::map<VertexId, int> deg;
  for (const Edge& e : g) {
    ++deg[e.u];
    ++deg[e.v];
  }
  int maxdeg = 0;
  for (auto& [v, d] : deg) maxdeg = std::max(maxdeg, d);
  double avg = 2.0 * g.size() / deg.size();
  EXPECT_GT(maxdeg, 4 * avg);
}

TEST(PlantedTriangles, AtLeastPlantedMany) {
  auto g = PlantedTriangles(300, 100, 25, 3);
  EXPECT_GE(core::CountTrianglesHost(g), 25u);
}

TEST(TriangleFreeControls, HaveNoTriangles) {
  EXPECT_EQ(core::CountTrianglesHost(Star(50)), 0u);
  EXPECT_EQ(core::CountTrianglesHost(PathGraph(50)), 0u);
  EXPECT_EQ(core::CountTrianglesHost(CycleGraph(50)), 0u);
  EXPECT_EQ(core::CountTrianglesHost(BipartiteRandom(20, 20, 150, 9)), 0u);
}

TEST(CycleGraph, TriangleOnlyAtThree) {
  EXPECT_EQ(core::CountTrianglesHost(CycleGraph(3)), 1u);
  EXPECT_EQ(core::CountTrianglesHost(CycleGraph(4)), 0u);
}

TEST(CliqueUnion, DisjointCliques) {
  auto g = CliqueUnion(4, 5);
  EXPECT_EQ(g.size(), 4u * 10);
  EXPECT_EQ(core::CountTrianglesHost(g), 4u * 10);  // 4 * C(5,3)
}

TEST(Generators, BarabasiAlbertShape) {
  auto g = BarabasiAlbert(500, 3, 11);
  EXPECT_EQ(g, BarabasiAlbert(500, 3, 11));
  // ~3 edges per arriving vertex plus the seed clique.
  EXPECT_GE(g.size(), 3u * (500 - 4));
  // Preferential attachment: heavy tail — max degree far above attach.
  std::map<VertexId, int> deg;
  for (const Edge& e : g) {
    ++deg[e.u];
    ++deg[e.v];
  }
  int maxdeg = 0;
  for (auto& [v, d] : deg) maxdeg = std::max(maxdeg, d);
  EXPECT_GT(maxdeg, 30);
}

TEST(Generators, WattsStrogatzClusteringDropsWithBeta) {
  auto clustering = [](const std::vector<Edge>& edges) {
    double tri = static_cast<double>(core::CountTrianglesHost(edges));
    std::map<VertexId, double> deg;
    for (const Edge& e : edges) {
      ++deg[e.u];
      ++deg[e.v];
    }
    double wedges = 0;
    for (auto& [v, d] : deg) wedges += d * (d - 1) / 2;
    return wedges > 0 ? 3 * tri / wedges : 0.0;
  };
  double low_beta = clustering(WattsStrogatz(600, 4, 0.01, 5));
  double high_beta = clustering(WattsStrogatz(600, 4, 0.9, 5));
  EXPECT_GT(low_beta, 0.3);  // ring lattice: ~1/2 with k=4
  EXPECT_LT(high_beta, 0.15);
  EXPECT_GT(low_beta, 2 * high_beta);
}

TEST(Generators, NewFamiliesEnumerateCorrectly) {
  for (const auto& raw :
       {BarabasiAlbert(300, 4, 2), WattsStrogatz(400, 3, 0.1, 2)}) {
    EXPECT_EQ(test::RunCollect("ps-cache-oblivious", raw).size(),
              core::CountTrianglesHost(raw));
  }
}

}  // namespace
}  // namespace trienum
