// Theorem-shaped I/O envelope tests: every algorithm's measured I/Os stay
// within a constant of its claimed bound on random graphs, and the paper's
// algorithms stay within a constant of E^{3/2}/(sqrt(M)B).
#include <gtest/gtest.h>

#include <cmath>

#include "core/algorithms.h"
#include "core/bnl.h"
#include "core/cache_aware.h"
#include "core/dementiev.h"
#include "core/edge_iterator.h"
#include "core/mgt.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

double MeasureIos(const std::string& algo_name, const std::vector<Edge>& raw,
                  std::size_t m, std::size_t b, std::uint64_t* tris = nullptr) {
  em::Context ctx = test::MakeContext(m, b);
  EmGraph g = BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  core::CountingSink sink;
  core::FindAlgorithm(algo_name)->run(ctx, g, sink);
  ctx.cache().FlushAll();
  if (tris != nullptr) *tris = sink.count();
  return static_cast<double>(ctx.cache().stats().total_ios());
}

constexpr std::size_t kM = 1 << 10;
constexpr std::size_t kB = 16;
constexpr std::size_t kE = 1 << 14;

std::vector<Edge> TestGraph() { return Gnm(1 << 12, kE, 101); }

TEST(IoBounds, CacheAwareWithinTheoremBound) {
  double ios = MeasureIos("ps-cache-aware", TestGraph(), kM, kB);
  EXPECT_LE(ios, 60.0 * core::PaghSilvestriIoBound(kE, kM, kB));
}

TEST(IoBounds, DeterministicWithinTheoremBound) {
  double ios = MeasureIos("ps-deterministic", TestGraph(), kM, kB);
  EXPECT_LE(ios, 120.0 * core::PaghSilvestriIoBound(kE, kM, kB));
}

TEST(IoBounds, CacheObliviousWithinTheoremBound) {
  double ios = MeasureIos("ps-cache-oblivious", TestGraph(), kM, kB);
  EXPECT_LE(ios, 300.0 * core::PaghSilvestriIoBound(kE, kM, kB));
}

TEST(IoBounds, MgtWithinModel) {
  double ios = MeasureIos("mgt", TestGraph(), kM, kB);
  EXPECT_LE(ios, 3.0 * core::MgtIoBound(kE, kM, kB));
}

TEST(IoBounds, MgtBoundIsTightAcrossM) {
  // MgtIoBound and mgt both size the resident pivot chunk as
  // kChunkFraction of M, so at E >> M the prediction matches
  // the measurement to within a few percent at every M, not just below it.
  for (std::size_t m : {std::size_t{512}, std::size_t{1024},
                        std::size_t{2048}, std::size_t{4096}}) {
    const double ios = MeasureIos("mgt", TestGraph(), m, kB);
    const double bound = core::MgtIoBound(kE, m, kB);
    EXPECT_GE(ios, 0.9 * bound) << "M=" << m;
    EXPECT_LE(ios, 1.1 * bound) << "M=" << m;
  }
}

TEST(IoBounds, DementievWithinModel) {
  double ios = MeasureIos("dementiev", TestGraph(), kM, kB);
  EXPECT_LE(ios, 6.0 * core::DementievIoBound(kE, kM, kB));
}

TEST(IoBounds, EdgeIteratorWithinModel) {
  double ios = MeasureIos("edge-iterator", TestGraph(), kM, kB);
  EXPECT_LE(ios, 4.0 * core::EdgeIteratorIoBound(kE, kB));
}

TEST(IoBounds, BnlWithinModel) {
  // BNL is O(E^3/(M^2 B)); use a smaller instance to keep runtime sane.
  const std::size_t e = 1 << 12;
  double ios = MeasureIos("bnl", Gnm(1 << 10, e, 5), kM, kB);
  EXPECT_LE(ios, 2.0 * core::BnlIoBound(e, kM, kB));
}

TEST(IoBounds, EveryAlgorithmAtLeastScansTheInput) {
  // Sanity floor: nobody can enumerate without reading the edges once.
  for (const core::AlgorithmInfo& a : core::AllAlgorithms()) {
    if (a.name == "bnl") continue;  // measured above on the smaller instance
    double ios = MeasureIos(a.name, TestGraph(), kM, kB);
    EXPECT_GE(ios, static_cast<double>(kE) / kB) << a.name;
  }
}

// ---------------------------------------------------------------------------
// Pinned I/O regressions: exact measured block I/Os on a fixed seeded input
// (Gnm(2^12, 2^14, seed 101) under M=2^10, B=16, context seed 0x7001),
// with a ±10% tolerance band. A cache or algorithm refactor that silently
// changes I/O behavior beyond noise must show up here and be re-pinned
// deliberately. The triangle count is pinned exactly: it is seed-determined
// and any drift means the algorithm (not just the accounting) changed.

constexpr double kPinTolerance = 0.10;

void ExpectPinnedIos(const std::string& algo, std::uint64_t pinned_tris,
                     double pinned_ios) {
  std::uint64_t tris = 0;
  double ios = MeasureIos(algo, TestGraph(), kM, kB, &tris);
  EXPECT_EQ(tris, pinned_tris) << algo << ": seed-determined count drifted";
  EXPECT_GE(ios, (1.0 - kPinTolerance) * pinned_ios)
      << algo << ": I/Os dropped >10% below the pinned value " << pinned_ios
      << " — if intentional, re-pin (and celebrate)";
  EXPECT_LE(ios, (1.0 + kPinTolerance) * pinned_ios)
      << algo << ": I/Os regressed >10% above the pinned value " << pinned_ios;
}

TEST(IoBounds, PinnedRegressionCacheAware) {
  ExpectPinnedIos("ps-cache-aware", 71, 48078.0);
}

TEST(IoBounds, PinnedRegressionCacheOblivious) {
  ExpectPinnedIos("ps-cache-oblivious", 71, 170928.0);
}

TEST(IoBounds, PinnedRegressionHoldsOnFileBackend) {
  // The same pinned envelope measured on the file backend: IoStats are
  // backend-independent, so the identical values must reproduce bit-for-bit
  // against the memory measurement.
  std::uint64_t tris_mem = 0, tris_file = 0;
  double ios_mem =
      MeasureIos("ps-cache-aware", TestGraph(), kM, kB, &tris_mem);
  em::Context ctx = test::MakeFileContext(kM, kB);
  EmGraph g = BuildEmGraph(ctx, TestGraph());
  ctx.cache().Reset();
  core::CountingSink sink;
  core::FindAlgorithm("ps-cache-aware")->run(ctx, g, sink);
  ctx.cache().FlushAll();
  tris_file = sink.count();
  double ios_file = static_cast<double>(ctx.cache().stats().total_ios());
  EXPECT_EQ(tris_mem, tris_file);
  EXPECT_EQ(ios_mem, ios_file);
}

TEST(IoBounds, ImprovementFactorGrowsWithEOverM) {
  // The paper's improvement over MGT is min(sqrt(E/M), sqrt(M)): the
  // measured MGT/ours ratio must grow as E/M grows (M fixed, E growing).
  const std::size_t m = 1 << 9;
  auto ratio_at = [&](std::size_t e) {
    auto raw = Gnm(e / 2, e, 33);
    double ours = MeasureIos("ps-cache-aware", raw, m, kB);
    double mgt = MeasureIos("mgt", raw, m, kB);
    return mgt / ours;
  };
  double r1 = ratio_at(1 << 12);
  double r2 = ratio_at(1 << 15);
  EXPECT_GT(r2, 1.5 * r1) << "ratio should grow ~sqrt(8) when E grows 8x";
}

TEST(IoBounds, WorkIsWithinE15) {
  // §1.2 remark: all three algorithms perform O(E^{3/2}) operations.
  for (const char* name :
       {"ps-cache-aware", "ps-cache-oblivious", "ps-deterministic"}) {
    em::Context ctx = test::MakeContext(kM, kB);
    EmGraph g = BuildEmGraph(ctx, TestGraph());
    ctx.ResetWork();
    core::CountingSink sink;
    core::FindAlgorithm(name)->run(ctx, g, sink);
    double e15 = std::pow(static_cast<double>(kE), 1.5);
    EXPECT_LE(static_cast<double>(ctx.work()), 40.0 * e15) << name;
  }
}

}  // namespace
}  // namespace trienum
