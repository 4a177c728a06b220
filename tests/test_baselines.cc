// Baseline-specific behaviour: Dementiev's wedge join, the edge iterator,
// the BNL join, and the algorithm registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/bnl.h"
#include "core/dementiev.h"
#include "graph/host_graph.h"
#include "core/edge_iterator.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

TEST(Registry, AllEightPresentAndDistinct) {
  const auto& algos = core::AllAlgorithms();
  EXPECT_EQ(algos.size(), 8u);
  for (const auto& a : algos) {
    EXPECT_EQ(core::FindAlgorithm(a.name), &a);
    EXPECT_FALSE(a.description.empty());
  }
  EXPECT_EQ(core::FindAlgorithm("no-such-algo"), nullptr);
  // Exactly one algorithm never consults M/B besides the edge iterator.
  EXPECT_FALSE(core::FindAlgorithm("ps-cache-oblivious")->cache_aware);
  EXPECT_TRUE(core::FindAlgorithm("ps-cache-aware")->cache_aware);
  EXPECT_FALSE(core::FindAlgorithm("ps-deterministic")->randomized);
}

TEST(Dementiev, WedgeCountRespectsDegreeOrientation) {
  // On a star the low->high orientation generates zero wedges at the leaves
  // and C(n,2) at the hub... no: orientation points *into* the hub, so every
  // leaf has out-degree 1 (to the hub) and the hub out-degree 0 — zero
  // wedges, zero I/O blowup. This is the whole point of degree ordering.
  em::Context ctx = test::MakeContext();
  EmGraph g = BuildEmGraph(ctx, Star(64));
  ctx.ResetWork();
  core::CountingSink sink;
  core::EnumerateDementiev(ctx, g, sink);
  EXPECT_EQ(sink.count(), 0u);
  // Work must be near-linear: no quadratic wedge generation at the hub.
  EXPECT_LE(ctx.work(), 64u * 64u);
}

TEST(Dementiev, CliqueWedgeVolumeMatchesTheory) {
  // K_k under any total order: wedges = sum over vertices of C(outdeg, 2),
  // outdegs are 0..k-1 => total = C(k,3) * 3... exactly k(k-1)(k-2)/6 * ...
  // each triangle generates exactly one *closed* wedge plus open ones; we
  // simply check enumeration correctness and O(E^{3/2}) work.
  em::Context ctx = test::MakeContext();
  EmGraph g = BuildEmGraph(ctx, Clique(24));
  ctx.ResetWork();
  core::CountingSink sink;
  core::EnumerateDementiev(ctx, g, sink);
  EXPECT_EQ(sink.count(), 2024u);
  double e = static_cast<double>(g.num_edges());
  EXPECT_LE(static_cast<double>(ctx.work()), 40.0 * std::pow(e, 1.5));
}

TEST(Dementiev, IoHasWeakDependenceOnM) {
  // sort(E^{3/2}) barely improves with M (log base only) — the paper's §1.1
  // critique of the early algorithms.
  auto measure = [&](std::size_t m) {
    em::Context ctx = test::MakeContext(m, 16);
    EmGraph g = BuildEmGraph(ctx, Gnm(1 << 11, 1 << 13, 9));
    ctx.cache().Reset();
    core::CountingSink sink;
    core::EnumerateDementiev(ctx, g, sink);
    ctx.cache().FlushAll();
    return static_cast<double>(ctx.cache().stats().total_ios());
  };
  double small = measure(1 << 9);
  double big = measure(1 << 12);
  EXPECT_LT(small / big, 3.0) << "Dementiev should gain little from 8x memory";
}

TEST(Dementiev, PinnedIoStats) {
  // Its records carry ids and degrees only: a wedge query is 2 words, an
  // oriented edge 1 and a degree-annotated edge 2. Pinned exactly, so a
  // change to a record's width or to the sorts' charges shows.
  em::Context ctx = test::MakeContext(1 << 10, 16);
  EmGraph g = BuildEmGraph(ctx, Rmat(12, 16384, 0.45, 0.22, 0.22, 2014));
  ctx.cache().Reset();
  ctx.ResetWork();
  core::CountingSink sink;
  core::EnumerateDementiev(ctx, g, sink);
  ctx.cache().FlushAll();
  EXPECT_EQ(sink.count(), 3660u);
  EXPECT_EQ(ctx.cache().stats().block_reads, 60105u);
  EXPECT_EQ(ctx.cache().stats().block_writes, 55787u);
  EXPECT_EQ(ctx.work(), 1326482u);
}

/// One graph on one backend, with the FNV-1a hash of Dementiev's emitted
/// (a, b, c) sequence at M = 1,024, B = 16.
struct EmissionCase {
  std::string name;
  std::vector<Edge> (*make)();
  em::StorageKind storage;
  std::uint64_t triangles;
  std::uint64_t hash;
};

class DementievEmission : public ::testing::TestWithParam<EmissionCase> {};

TEST_P(DementievEmission, OrderPinned) {
  // The wedge join emits by query edge (a, b), then by cone vertex in the
  // sorts' stable order. Pinned as a hash of the ordered list, so a change
  // to the records or the sorts that keeps the triangle set but moves the
  // order shows; the backend must not move it either.
  const EmissionCase& c = GetParam();
  em::Context ctx = test::MakeContext(1 << 10, 16, 0x7001, c.storage);
  EmGraph g = BuildEmGraph(ctx, c.make());
  core::CollectingSink sink;
  core::EnumerateDementiev(ctx, g, sink);
  ASSERT_EQ(sink.triangles().size(), c.triangles);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const Triangle& t : sink.triangles()) {
    for (VertexId x : {t.a, t.b, t.c}) h = (h ^ x) * 0x100000001b3ull;
  }
  EXPECT_EQ(h, c.hash);
}

std::vector<Edge> Rmat12() { return Rmat(12, 16384, 0.45, 0.22, 0.22, 2014); }
std::vector<Edge> Tripartite30() { return CompleteTripartite(30, 30, 30); }

INSTANTIATE_TEST_SUITE_P(
    Backends, DementievEmission,
    ::testing::Values(
        EmissionCase{"rmat12_memory", Rmat12, em::StorageKind::kMemory,
                     3660, 12287217181001258349u},
        EmissionCase{"rmat12_file", Rmat12, em::StorageKind::kFile, 3660,
                     12287217181001258349u},
        EmissionCase{"tripartite30_memory", Tripartite30,
                     em::StorageKind::kMemory, 27000, 12361539563385475537u},
        EmissionCase{"tripartite30_file", Tripartite30, em::StorageKind::kFile,
                     27000, 12361539563385475537u}),
    [](const ::testing::TestParamInfo<EmissionCase>& info) {
      return info.param.name;
    });

TEST(EdgeIterator, TriangleFreeGraphStillPaysRandomAccesses) {
  // O(E + ...) term: even with zero triangles, ~E random accesses happen.
  em::Context ctx = test::MakeContext(1 << 8, 16);
  EmGraph g = BuildEmGraph(ctx, BipartiteRandom(256, 256, 1 << 12, 2));
  ctx.cache().Reset();
  core::CountingSink sink;
  core::EnumerateEdgeIterator(ctx, g, sink);
  ctx.cache().FlushAll();
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_GE(ctx.cache().stats().total_ios(), g.num_edges() / 16);
}

TEST(EdgeIterator, InsensitiveToM) {
  // The bound O(E + E^{3/2}/B) has no M at all: growing memory (beyond
  // trivial reuse) changes little once the graph exceeds it.
  auto measure = [&](std::size_t m) {
    em::Context ctx = test::MakeContext(m, 16);
    EmGraph g = BuildEmGraph(ctx, Gnm(1 << 12, 1 << 14, 9));
    ctx.cache().Reset();
    core::CountingSink sink;
    core::EnumerateEdgeIterator(ctx, g, sink);
    ctx.cache().FlushAll();
    return static_cast<double>(ctx.cache().stats().total_ios());
  };
  double small = measure(1 << 8);
  double big = measure(1 << 11);
  EXPECT_LT(small / big, 2.5);
}

TEST(Bnl, CandidateBufferFlushingIsExercised) {
  // Tiny memory forces many candidate flushes; correctness must hold.
  em::Context ctx = test::MakeContext(/*m=*/256, /*b=*/8);
  EmGraph g = BuildEmGraph(ctx, Gnm(50, 500, 7));
  core::CollectingSink sink;
  core::EnumerateBnl(ctx, g, sink);
  auto got = sink.triangles();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, core::ListTrianglesHost(DownloadEdges(g)));
}

TEST(Bnl, QuadraticInEOverM) {
  // BNL pays (E/M)^2-type costs: growing E by 2 at fixed M grows I/O by ~4+.
  auto measure = [&](std::size_t e) {
    em::Context ctx = test::MakeContext(1 << 9, 16);
    EmGraph g = BuildEmGraph(ctx, Gnm(e / 4, e, 9));
    ctx.cache().Reset();
    core::CountingSink sink;
    core::EnumerateBnl(ctx, g, sink);
    ctx.cache().FlushAll();
    return static_cast<double>(ctx.cache().stats().total_ios());
  };
  double g1 = measure(1 << 11);
  double g2 = measure(1 << 12);
  EXPECT_GT(g2 / g1, 3.0);
}

TEST(Baselines, WitnessEdgesExistForEveryEmission) {
  // Every emitted triple must be an actual triangle of the input graph
  // (witness semantics), across all algorithms on a skewed graph.
  auto raw = Rmat(9, 1200, 0.5, 0.2, 0.2, 77);
  em::Context ctx = test::MakeContext();
  EmGraph g = BuildEmGraph(ctx, raw);
  HostGraph host(DownloadEdges(g));
  for (const core::AlgorithmInfo& a : core::AllAlgorithms()) {
    core::CollectingSink sink;
    a.run(ctx, g, sink);
    for (const Triangle& t : sink.triangles()) {
      ASSERT_TRUE(host.HasEdge(t.a, t.b) && host.HasEdge(t.b, t.c) &&
                  host.HasEdge(t.a, t.c))
          << a.name << " emitted a non-triangle";
    }
  }
}

}  // namespace
}  // namespace trienum
