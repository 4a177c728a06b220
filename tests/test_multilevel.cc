// The multilevel-cache corollary (§1.2/§3, via [Frigo et al. Lemma 6.4]):
// "the claimed I/O complexity applies to each level of a multilevel cache
// with an LRU replacement policy". With a fixed seed the cache-oblivious
// computation is one fixed access stream; a passive probe cache at a second
// (M', B') must observe exactly the misses a direct run at (M', B') would.
#include <gtest/gtest.h>

#include <cmath>

#include "core/cache_oblivious.h"
#include "core/mgt.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

em::IoStats DirectRun(const std::vector<Edge>& raw, std::size_t m, std::size_t b,
                      std::uint64_t seed) {
  em::Context ctx = test::MakeContext(m, b);
  ctx.set_seed(seed);
  EmGraph g = BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  core::CountingSink sink;
  core::EnumerateCacheOblivious(ctx, g, sink);
  ctx.cache().FlushAll();
  return ctx.cache().stats();
}

TEST(Multilevel, ProbeSeesExactlyTheDirectRunsMisses) {
  auto raw = Gnm(1 << 10, 1 << 12, 5);
  const std::uint64_t seed = 1234;
  const std::size_t l1_m = 1 << 8, l2_m = 1 << 12, b = 16;

  // One run at L2 with an L1 probe attached.
  em::Context ctx = test::MakeContext(l2_m, b);
  ctx.set_seed(seed);
  ctx.AttachProbe(l1_m, b);
  EmGraph g = BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  ctx.probe()->Reset();
  core::CountingSink sink;
  core::EnumerateCacheOblivious(ctx, g, sink);
  ctx.cache().FlushAll();
  ctx.probe()->FlushAll();

  // The oblivious computation is identical for any M, so the probe's miss
  // count must equal an independent direct run at (l1_m, b) and the main
  // cache's an independent run at (l2_m, b).
  em::IoStats direct_l1 = DirectRun(raw, l1_m, b, seed);
  em::IoStats direct_l2 = DirectRun(raw, l2_m, b, seed);
  EXPECT_EQ(ctx.probe()->stats().block_reads, direct_l1.block_reads);
  EXPECT_EQ(ctx.probe()->stats().block_writes, direct_l1.block_writes);
  EXPECT_EQ(ctx.cache().stats().block_reads, direct_l2.block_reads);
  EXPECT_EQ(ctx.cache().stats().block_writes, direct_l2.block_writes);

  // And both levels behave: the smaller level misses strictly more.
  EXPECT_GT(ctx.probe()->stats().total_ios(), ctx.cache().stats().total_ios());
}

TEST(Multilevel, ProbeWithDifferentBlockSize) {
  // Levels of a real hierarchy differ in line size too (e.g. 64B L1 lines
  // vs 4K pages); the probe supports that.
  auto raw = Gnm(500, 3000, 9);
  em::Context ctx = test::MakeContext(1 << 12, 64);
  ctx.set_seed(77);
  ctx.AttachProbe(1 << 9, 8);
  EmGraph g = BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  ctx.probe()->Reset();
  core::CountingSink sink;
  core::EnumerateCacheOblivious(ctx, g, sink);
  EXPECT_GT(sink.count(), 0u);
  EXPECT_GT(ctx.probe()->stats().block_reads, 0u);
}

TEST(Multilevel, ProbeRespectsCountingToggle) {
  em::Context ctx = test::MakeContext(1 << 10, 16);
  ctx.AttachProbe(1 << 8, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(1024);
  ctx.cache().set_counting(false);
  for (std::size_t i = 0; i < 1024; ++i) a.Set(i, i);
  ctx.cache().set_counting(true);
  EXPECT_EQ(ctx.probe()->stats().total_ios(), 0u);
  for (std::size_t i = 0; i < 1024; ++i) (void)a.Get(i);
  EXPECT_GT(ctx.probe()->stats().block_reads, 0u);
}

TEST(Multilevel, ObliviousBoundHoldsAtBothLevelsOfOneRun) {
  // The corollary itself: a single oblivious run stays within a constant of
  // E^{3/2}/(sqrt(M_level) B) at *both* levels simultaneously. (No such
  // statement exists for the cache-aware algorithm: its staged internal
  // buffers are sized for one level — and indeed live in host scratch here,
  // outside what a smaller-level probe could meaningfully observe.)
  // L2 is 32x L1 and holds half of the root's 16,384 words.
  auto raw = Gnm(1 << 11, 1 << 13, 5);
  const std::size_t l1_m = 1 << 8, l2_m = 1 << 13, b = 16;
  em::Context ctx = test::MakeContext(l2_m, b);
  ctx.set_seed(99);
  ctx.AttachProbe(l1_m, b);
  EmGraph g = BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  ctx.probe()->Reset();
  core::CountingSink sink;
  core::EnumerateCacheOblivious(ctx, g, sink);
  ctx.cache().FlushAll();
  ctx.probe()->FlushAll();

  const std::size_t e = g.num_edges();
  double bound_l1 = std::pow(static_cast<double>(e), 1.5) /
                    (std::sqrt(static_cast<double>(l1_m)) * b);
  double bound_l2 = std::pow(static_cast<double>(e), 1.5) /
                    (std::sqrt(static_cast<double>(l2_m)) * b);
  EXPECT_LE(static_cast<double>(ctx.probe()->stats().total_ios()),
            400.0 * bound_l1);
  EXPECT_LE(static_cast<double>(ctx.cache().stats().total_ios()),
            400.0 * bound_l2);
  // And the levels are genuinely separated: L1 misses dominate L2 misses.
  EXPECT_GT(ctx.probe()->stats().total_ios(),
            2 * ctx.cache().stats().total_ios());
}

TEST(Multilevel, ProbeIoStatsAreThreadCountInvariant) {
  // At threads > 1 the Lemma 2 chunks of ps-cache-aware and mgt run on pool
  // workers and their charge logs are replayed on the caller — into the
  // probe as well as the main cache. The tests above run one thread only,
  // so a replay that skipped the probe would pass them. Probe line sizes 8
  // and 24 against B = 32 make the logs record at gcd granularity.
  auto raw = Rmat(10, 6000, 0.45, 0.22, 0.22, 41);
  struct Level {
    std::size_t m, b;
  };
  for (const char* algo : {"ps-cache-aware", "mgt"}) {
    for (Level probe : {Level{1 << 9, 8}, Level{24 * 32, 24}}) {
      auto run = [&](std::size_t threads) {
        em::Context ctx = test::MakeContext(1 << 12, 32);
        ctx.set_threads(threads);
        ctx.AttachProbe(probe.m, probe.b);
        EmGraph g = BuildEmGraph(ctx, raw);
        ctx.cache().Reset();
        ctx.probe()->Reset();
        core::CountingSink sink;
        core::FindAlgorithm(algo)->run(ctx, g, sink);
        ctx.cache().FlushAll();
        ctx.probe()->FlushAll();
        return std::make_pair(ctx.cache().stats(), ctx.probe()->stats());
      };
      const auto [base_main, base_probe] = run(1);
      const auto [main_io, probe_io] = run(4);
      const std::string label =
          std::string(algo) + " probe B=" + std::to_string(probe.b);
      EXPECT_GT(base_probe.block_reads, 0u) << label;
      EXPECT_EQ(probe_io.block_reads, base_probe.block_reads) << label;
      EXPECT_EQ(probe_io.block_writes, base_probe.block_writes) << label;
      EXPECT_EQ(probe_io.cache_hits, base_probe.cache_hits) << label;
      EXPECT_EQ(main_io.block_reads, base_main.block_reads) << label;
      EXPECT_EQ(main_io.block_writes, base_main.block_writes) << label;
      EXPECT_EQ(main_io.cache_hits, base_main.cache_hits) << label;
    }
  }
}

}  // namespace
}  // namespace trienum
