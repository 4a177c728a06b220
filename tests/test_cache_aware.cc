// The §2 cache-aware algorithm: seeds, colour counts and chunk sizes across
// M, exactly-once semantics on adversarial shapes, and the
// E^{3/2}/(sqrt(M)B) behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/cache_aware.h"
#include "core/mgt.h"
#include "obs/trace.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

std::vector<Triangle> RunAware(const std::vector<Edge>& raw,
                               std::uint64_t seed = 0x7001,
                               std::size_t m = 1 << 12, std::size_t b = 16) {
  em::Context ctx = test::MakeContext(m, b);
  ctx.set_seed(seed);
  EmGraph g = BuildEmGraph(ctx, raw);
  core::CollectingSink sink;
  core::EnumerateCacheAware(ctx, g, sink);
  auto out = sink.triangles();
  std::sort(out.begin(), out.end());
  return out;
}

/// The colour count of a traced run, read from its ca.coloring span.
struct TracedAware {
  std::vector<Triangle> tris;  // sorted
  std::uint64_t colors = 0;
};

TracedAware RunAwareTraced(const std::vector<Edge>& raw, std::size_t m,
                           std::size_t b) {
  em::Context ctx = test::MakeContext(m, b);
  EmGraph g = BuildEmGraph(ctx, raw);
  core::CollectingSink sink;
  obs::TraceCollector tc;
  {
    obs::ScopedTraceCollector install(tc);
    core::EnumerateCacheAware(ctx, g, sink);
  }
  TracedAware r;
  r.tris = sink.triangles();
  std::sort(r.tris.begin(), r.tris.end());
  for (const obs::TraceEvent& ev : tc.events_since(0)) {
    if (std::string(ev.name) != "ca.coloring") continue;
    for (const auto& [key, value] : ev.args) {
      if (std::string(key) == "colors") r.colors = value;
    }
  }
  return r;
}

TEST(CacheAware, DifferentSeedsSameAnswer) {
  auto raw = Gnm(120, 900, 55);
  auto expected = test::ReferenceNormalized(raw);
  for (std::uint64_t seed : {1ull, 2ull, 0xDEADBEEFull, 77777ull}) {
    EXPECT_EQ(RunAware(raw, seed), expected) << "seed " << seed;
  }
}

TEST(CacheAware, ColorCountIsLeastCWithClassesOfOneChunk) {
  // M = 65,536 words: Lemma 2's chunk holds alpha*M = 8,192 one-word edges.
  em::Context ctx = test::MakeContext(1 << 16, 64);
  const std::size_t chunk = 8192;
  auto random = [&](std::size_t e) {
    return core::internal::ColorCount(ctx, e, /*deterministic=*/false);
  };
  auto deterministic = [&](std::size_t e) {
    return core::internal::ColorCount(ctx, e, /*deterministic=*/true);
  };
  for (std::size_t e : {std::size_t{0}, std::size_t{1}, chunk}) {
    EXPECT_EQ(random(e), 1u) << "E_low = " << e;
  }
  for (std::uint32_t c = 1; c <= 12; ++c) {
    EXPECT_EQ(random(c * c * chunk), c) << "E_low = c^2 alpha M, c = " << c;
    EXPECT_EQ(random(c * c * chunk + 1), c + 1) << "one edge more, c = " << c;
  }
  EXPECT_EQ(random(600000), 9u);  // rmat16: 8^2 chunks hold 524,288 edges
  // §4 keeps the least power of two with c^2 M >= E_low.
  EXPECT_EQ(deterministic(1 << 16), 1u);
  EXPECT_EQ(deterministic((1 << 16) + 1), 2u);
  EXPECT_EQ(deterministic(4 << 16), 2u);
  EXPECT_EQ(deterministic((4 << 16) + 1), 4u);
  EXPECT_EQ(deterministic(600000), 4u);
}

TEST(CacheAware, ColorCountFollowsMStillCorrect) {
  // c is the least integer with c^2 M/8 >= E (no vertex of this Gnm is
  // high-degree at any of these M), so from M = 2048 on each quartering of
  // M doubles it.
  auto raw = Gnm(400, 4000, 9);
  auto expected = test::ReferenceNormalized(raw);
  struct Point {
    std::size_t m, b;
    std::uint64_t colors;
  };
  for (Point p : {Point{4096, 16, 3}, Point{2048, 16, 4}, Point{512, 16, 8},
                  Point{128, 8, 16}, Point{32, 4, 32}}) {
    const TracedAware run = RunAwareTraced(raw, p.m, p.b);
    EXPECT_EQ(run.colors, p.colors) << "M = " << p.m;
    EXPECT_EQ(run.tris, expected) << "M = " << p.m;
  }
}

TEST(CacheAware, HubGraphExactlyOnce) {
  // Multiple overlapping hubs: triangles with 1, 2, and 3 high-degree
  // vertices must each be emitted exactly once across step 1's iterations.
  std::vector<Edge> raw = Clique(20);  // in K20 every vertex is "high degree"
  auto got = RunAware(raw, 0x7001, /*m=*/256, /*b=*/8);
  EXPECT_TRUE(test::NoDuplicates(got));
  EXPECT_EQ(got.size(), 1140u);  // C(20,3)
}

TEST(CacheAware, ChunkSizesFollowMStillCorrect) {
  // Lemma 2's resident chunk is M/8 records: 64 at M = 512, 512 at 4096.
  auto raw = Gnm(90, 650, 31);
  auto expected = test::ReferenceNormalized(raw);
  for (std::size_t m : {std::size_t{512}, std::size_t{4096}}) {
    EXPECT_EQ(RunAware(raw, 0x7001, m), expected) << "M = " << m;
  }
}

TEST(CacheAware, IoImprovesOverMgtWhenEFarExceedsM) {
  // The headline claim: with E >> M, ours beats MGT by ~sqrt(E/M).
  const std::size_t m = 1 << 9, b = 16;
  em::Context ctx = test::MakeContext(m, b);
  EmGraph g = BuildEmGraph(ctx, Gnm(1 << 12, 1 << 14, 3));

  ctx.cache().Reset();
  core::CountingSink s1;
  core::EnumerateCacheAware(ctx, g, s1);
  ctx.cache().FlushAll();
  double ours = static_cast<double>(ctx.cache().stats().total_ios());

  ctx.cache().Reset();
  core::CountingSink s2;
  core::EnumerateMgt(ctx, g, s2);
  ctx.cache().FlushAll();
  double mgt = static_cast<double>(ctx.cache().stats().total_ios());

  EXPECT_EQ(s1.count(), s2.count());
  EXPECT_LT(ours, mgt) << "E/M = 32: color coding must already win";
}

TEST(CacheAware, IoScalesLikeRootM) {
  // Quadrupling M should reduce I/Os by ~2x (1/sqrt(M)), not ~4x (1/M).
  const std::size_t e = 1 << 14;
  auto run = [&](std::size_t m) {
    em::Context ctx = test::MakeContext(m, 16);
    EmGraph g = BuildEmGraph(ctx, Gnm(1 << 12, e, 3));
    ctx.cache().Reset();
    core::CountingSink sink;
    core::EnumerateCacheAware(ctx, g, sink);
    ctx.cache().FlushAll();
    return static_cast<double>(ctx.cache().stats().total_ios());
  };
  double io_small = run(1 << 9);
  double io_big = run(1 << 11);
  double ratio = io_small / io_big;
  EXPECT_GT(ratio, 1.3);
  EXPECT_LT(ratio, 3.5) << "scaling looks like 1/M, not the expected 1/sqrt(M)";
}

TEST(CacheAware, DiskUsageStaysLinear) {
  const std::size_t e = 1 << 13;
  em::Context ctx = test::MakeContext(1 << 10, 16);
  EmGraph g = BuildEmGraph(ctx, Gnm(1 << 11, e, 3));
  ctx.device().ResetPeak();
  std::size_t before = ctx.device().peak_words();
  core::CountingSink sink;
  core::EnumerateCacheAware(ctx, g, sink);
  // O(E) words on disk (Theorem 4): generous constant, but linear.
  EXPECT_LE(ctx.device().peak_words() - before, 24 * e);
}

}  // namespace
}  // namespace trienum
