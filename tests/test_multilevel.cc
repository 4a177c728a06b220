// The multilevel-cache corollary (§1.2/§3, via [Frigo et al. Lemma 6.4]):
// "the claimed I/O complexity applies to each level of a multilevel cache
// with an LRU replacement policy". The cache-oblivious algorithm never reads
// M or B, so with a fixed seed it is one fixed access stream at every
// (M, B), and the misses of one level of an LRU hierarchy are exactly those
// of a single-level run at that level's geometry. Each level is therefore
// measured by its own run: these tests check that the runs are one stream
// and that each level stays within its bound.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "core/cache_oblivious.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

struct LevelRun {
  std::vector<Triangle> triangles;  // in emission order
  std::uint64_t work = 0;
  em::IoStats io;
  std::size_t edges = 0;
};

LevelRun RunLevel(const std::vector<Edge>& raw, std::size_t m, std::size_t b,
                  std::uint64_t seed) {
  em::Context ctx = test::MakeContext(m, b);
  ctx.set_seed(seed);
  EmGraph g = BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  ctx.ResetWork();
  core::CollectingSink sink;
  core::EnumerateCacheOblivious(ctx, g, sink);
  ctx.cache().FlushAll();
  LevelRun run;
  run.triangles = std::move(sink.mutable_triangles());
  run.work = ctx.work();
  run.io = ctx.cache().stats();
  run.edges = g.num_edges();
  return run;
}

TEST(Multilevel, ObliviousRunIsOneStreamAtEveryLevel) {
  // Above one leaf of kTinyBase edges, so the partition runs at both levels.
  auto raw = Gnm(1 << 11, 1 << 13, 5);
  ASSERT_GT(raw.size(), core::kTinyBase);
  const std::uint64_t seed = 1234;
  const std::size_t l1_m = 1 << 8, l2_m = 1 << 12, b = 16;
  const LevelRun l1 = RunLevel(raw, l1_m, b, seed);
  const LevelRun l2 = RunLevel(raw, l2_m, b, seed);

  // Same triangles in the same order, with the same work: M changed nothing
  // the algorithm did, only what the cache kept.
  ASSERT_GT(l1.triangles.size(), 0u);
  EXPECT_EQ(l1.triangles, l2.triangles);
  EXPECT_EQ(l1.work, l2.work);

  // And both levels behave: the smaller level misses strictly more.
  EXPECT_GT(l1.io.total_ios(), l2.io.total_ios());
}

TEST(Multilevel, ObliviousRunIsOneStreamAcrossLineSizes) {
  // Levels of a real hierarchy differ in line size too (64-byte L1 lines
  // against 4K pages). §3 never reads B either, so a level of 8-word lines
  // and one of 64-word lines run the same computation.
  auto raw = Gnm(1000, 6000, 9);
  ASSERT_GT(raw.size(), core::kTinyBase);
  const LevelRun l1 = RunLevel(raw, 1 << 9, 8, 77);
  const LevelRun l2 = RunLevel(raw, 1 << 12, 64, 77);
  ASSERT_GT(l1.triangles.size(), 0u);
  EXPECT_EQ(l1.triangles, l2.triangles);
  EXPECT_EQ(l1.work, l2.work);
  EXPECT_GT(l1.io.block_reads, 0u);
  EXPECT_GT(l2.io.block_reads, 0u);
}

TEST(Multilevel, ObliviousBoundHoldsAtBothLevels) {
  // The corollary itself: the same oblivious computation stays within a
  // constant of E^{3/2}/(sqrt(M_level) B) at *both* levels. (No such
  // statement exists for the cache-aware algorithm: its staged internal
  // buffers are sized for one level and live in host scratch here.)
  // L2 is 32x L1 and holds half of the root's 16,384 words.
  auto raw = Gnm(1 << 11, 1 << 13, 5);
  const std::size_t l1_m = 1 << 8, l2_m = 1 << 13, b = 16;
  const LevelRun l1 = RunLevel(raw, l1_m, b, 99);
  const LevelRun l2 = RunLevel(raw, l2_m, b, 99);

  const double e15 = std::pow(static_cast<double>(l1.edges), 1.5);
  const double bound_l1 = e15 / (std::sqrt(static_cast<double>(l1_m)) * b);
  const double bound_l2 = e15 / (std::sqrt(static_cast<double>(l2_m)) * b);
  EXPECT_LE(static_cast<double>(l1.io.total_ios()), 400.0 * bound_l1);
  EXPECT_LE(static_cast<double>(l2.io.total_ios()), 400.0 * bound_l2);
  // And the levels are genuinely separated: L1 misses dominate L2 misses.
  EXPECT_GT(l1.io.total_ios(), 2 * l2.io.total_ios());
}

}  // namespace
}  // namespace trienum
