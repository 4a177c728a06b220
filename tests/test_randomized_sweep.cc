// Seed-sweep property tests for the randomized algorithms: across many seeds
// and both randomized engines, the emitted triangle set must be invariant
// (only the I/O trajectory may change). Parameterized on (algorithm, seed).
#include <gtest/gtest.h>

#include "core/cache_aware.h"
#include "core/cache_oblivious.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

struct SweepParam {
  bool oblivious;
  std::uint64_t seed;
};

class RandomizedSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomizedSweepTest, TriangleSetInvariantUnderSeed) {
  const SweepParam& p = GetParam();
  auto raw = Gnm(300, 2600, 12345);  // one fixed instance for all seeds
  static const std::vector<Triangle> expected = test::ReferenceNormalized(raw);

  em::Context ctx = test::MakeContext(1 << 10, 16);
  ctx.set_seed(p.seed);
  EmGraph g = BuildEmGraph(ctx, raw);
  core::CollectingSink sink;
  if (p.oblivious) {
    core::EnumerateCacheOblivious(ctx, g, sink);
  } else {
    core::EnumerateCacheAware(ctx, g, sink);
  }
  std::vector<Triangle> got = sink.triangles();
  std::sort(got.begin(), got.end());
  EXPECT_TRUE(test::NoDuplicates(got));
  EXPECT_EQ(got, expected);
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> out;
  for (bool oblivious : {false, true}) {
    for (std::uint64_t s = 1; s <= 12; ++s) {
      out.push_back(SweepParam{oblivious, s * 0x9E37 + 1});
    }
  }
  return out;
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  return std::string(info.param.oblivious ? "oblivious" : "aware") + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSweepTest,
                         ::testing::ValuesIn(SweepParams()), SweepName);

TEST(SessionSeed, SetSeedMatchesAFreshContextBuiltWithIt) {
  // The session's seed is the randomized algorithms' only seed: setting it
  // on a context built with another one reproduces a fresh context built
  // with it, emission order, IoStats and work included.
  const auto raw = Rmat(10, 6000, 0.57, 0.19, 0.19, 3);
  struct Run {
    std::vector<Triangle> tris;
    em::IoStats io;
    std::uint64_t work = 0;
  };
  for (const char* algo : {"ps-cache-aware", "ps-cache-oblivious"}) {
    auto run = [&](std::uint64_t config_seed, std::uint64_t session_seed) {
      em::Context ctx = test::MakeContext(1 << 10, 16, config_seed);
      if (session_seed != 0) ctx.set_seed(session_seed);
      EmGraph g = BuildEmGraph(ctx, raw);
      ctx.cache().Reset();
      ctx.ResetWork();
      core::CollectingSink sink;
      core::FindAlgorithm(algo)->run(ctx, g, sink);
      ctx.cache().FlushAll();
      return Run{sink.triangles(), ctx.cache().stats(), ctx.work()};
    };
    const Run fresh = run(4242, 0);
    const Run set = run(0x7001, 4242);
    EXPECT_EQ(set.tris, fresh.tris) << algo;
    EXPECT_EQ(set.io.block_reads, fresh.io.block_reads) << algo;
    EXPECT_EQ(set.io.block_writes, fresh.io.block_writes) << algo;
    EXPECT_EQ(set.io.cache_hits, fresh.io.cache_hits) << algo;
    EXPECT_EQ(set.work, fresh.work) << algo;
    // And the seed reaches the algorithm: the context's own seed emits the
    // same triangles in another order.
    const Run other = run(0x7001, 0);
    EXPECT_NE(other.tris, fresh.tris) << algo;
  }
}

}  // namespace
}  // namespace trienum
