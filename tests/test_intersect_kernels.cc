// Exhaustive and randomized tests for the src/simd/ kernels, each against
// an independent oracle.
//
// IntersectSorted must return std::set_intersection's matches, in order,
// and the two-pointer merge's exhaustion point in closed form: the side
// with the smaller maximum is consumed in full, the other up to the
// upper_bound of that maximum. DenseBitmap::Probe must keep exactly the
// probes std::binary_search finds among the members, in probe order, and
// ProbeFlatMapU32 must answer what a std::map of the inserted payloads
// holds. No kernel may write past its documented output capacity. The
// exhaustive section covers every width 0..65 on both sides under a
// family of adversarial overlap patterns; the randomized section fuzzes
// large skewed sets with the seed logged so failures replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/pivot_enum.h"
#include "graph/generators.h"
#include "simd/flat_set.h"
#include "simd/intersect.h"
#include "simd/kernel_policy.h"
#include "test_util.h"

namespace trienum {
namespace {

using simd::IntersectStats;

/// Written one past each output buffer's documented capacity; a kernel that
/// overwrites it has scribbled out of bounds.
constexpr std::uint32_t kGuard = 0xDEADBEEFu;

// ---------------------------------------------------------------------------
// Oracles.

/// The merge's exhaustion point in closed form. Both sides are consumed up
/// to the upper_bound of the smaller maximum, which is all of the side that
/// owns it (all of both when the maxima tie, nothing when a side is empty).
std::pair<std::size_t, std::size_t> ClosedFormConsumed(
    const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  if (a.empty() || b.empty()) return {0, 0};
  const std::uint32_t stop = std::min(a.back(), b.back());
  auto upto = [stop](const std::vector<std::uint32_t>& v) {
    return static_cast<std::size_t>(std::upper_bound(v.begin(), v.end(), stop) -
                                    v.begin());
  };
  return {upto(a), upto(b)};
}

/// Runs IntersectSorted on (a, b) with exactly min(na, nb) output slots and
/// checks matches, order, consumed counts and the guard slot.
void ExpectIntersectMatchesOracle(const std::vector<std::uint32_t>& a,
                                  const std::vector<std::uint32_t>& b,
                                  const std::string& label) {
  std::vector<std::uint32_t> want;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(want));
  const std::size_t cap = std::min(a.size(), b.size());
  std::vector<std::uint32_t> out(cap + 1, kGuard);
  const IntersectStats got = simd::IntersectSorted(
      a.data(), a.size(), b.data(), b.size(), out.data());
  ASSERT_EQ(got.matches, want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(out[i], want[i]) << label << " at match " << i;
  }
  EXPECT_EQ(out[cap], kGuard) << label << ": wrote past min(na, nb)";
  const auto [ca, cb] = ClosedFormConsumed(a, b);
  EXPECT_EQ(got.consumed_a, ca) << label;
  EXPECT_EQ(got.consumed_b, cb) << label;
}

// ---------------------------------------------------------------------------
// Set builders.

std::vector<std::uint32_t> Iota(std::size_t n, std::uint32_t start,
                                std::uint32_t step) {
  std::vector<std::uint32_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = start + static_cast<std::uint32_t>(i) * step;
  }
  return v;
}

/// `n` distinct sorted values drawn from [0, range) by `rng`.
std::vector<std::uint32_t> RandomSet(SplitMix64& rng, std::size_t n,
                                     std::uint32_t range) {
  std::unordered_set<std::uint32_t> seen;
  while (seen.size() < n) {
    seen.insert(static_cast<std::uint32_t>(rng.Next() % range));
  }
  std::vector<std::uint32_t> v(seen.begin(), seen.end());
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------------
// Exhaustive small-width sweeps: every width 0..65 on both sides, every
// tail length.

constexpr std::size_t kMaxWidth = 65;

TEST(IntersectKernels, ExhaustiveWidthsDisjointLowHigh) {
  for (std::size_t na = 0; na <= kMaxWidth; ++na) {
    for (std::size_t nb = 0; nb <= kMaxWidth; ++nb) {
      // a entirely below b: exhausts a with zero matches.
      auto a = Iota(na, 0, 1);
      auto b = Iota(nb, 1000, 1);
      const std::string dims = std::to_string(na) + "x" + std::to_string(nb);
      ExpectIntersectMatchesOracle(a, b, "low/high " + dims);
      ExpectIntersectMatchesOracle(b, a, "high/low " + dims);
    }
  }
}

TEST(IntersectKernels, ExhaustiveWidthsInterleaved) {
  for (std::size_t na = 0; na <= kMaxWidth; ++na) {
    for (std::size_t nb = 0; nb <= kMaxWidth; ++nb) {
      // Evens vs odds: perfectly interleaved, zero matches, both sides
      // advance in lockstep.
      auto a = Iota(na, 0, 2);
      auto b = Iota(nb, 1, 2);
      ExpectIntersectMatchesOracle(
          a, b, "interleave " + std::to_string(na) + "x" + std::to_string(nb));
    }
  }
}

TEST(IntersectKernels, ExhaustiveWidthsEqualAndSubset) {
  for (std::size_t na = 0; na <= kMaxWidth; ++na) {
    // Identical sets: every element matches.
    auto a = Iota(na, 7, 3);
    ExpectIntersectMatchesOracle(a, a, "equal " + std::to_string(na));
    // Every second element of a: a proper subset.
    std::vector<std::uint32_t> sub;
    for (std::size_t i = 0; i < na; i += 2) sub.push_back(a[i]);
    ExpectIntersectMatchesOracle(a, sub, "superset " + std::to_string(na));
    ExpectIntersectMatchesOracle(sub, a, "subset " + std::to_string(na));
  }
}

TEST(IntersectKernels, ExhaustiveShiftedOverlaps) {
  // Sliding window: a = [s, s+n), b = [0, n) for every shift — every
  // possible overlap length, including the one-past-the-end boundary where
  // the first compare already exhausts one side.
  for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                        std::size_t{13}, std::size_t{32}, std::size_t{65}}) {
    for (std::size_t s = 0; s <= n + 1; ++s) {
      auto a = Iota(n, static_cast<std::uint32_t>(s), 1);
      auto b = Iota(n, 0, 1);
      ExpectIntersectMatchesOracle(
          a, b, "shift " + std::to_string(s) + "/" + std::to_string(n));
    }
  }
}

TEST(IntersectKernels, ExtremeValuesNearUint32Max) {
  // Nothing may wrap near 2^32 - 1, and zero is a legal member.
  std::vector<std::uint32_t> a, b;
  for (std::uint32_t i = 0; i < 40; ++i) a.push_back(0xFFFFFFFFu - 2 * i);
  for (std::uint32_t i = 0; i < 40; ++i) b.push_back(0xFFFFFFFFu - 3 * i);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  ExpectIntersectMatchesOracle(a, b, "near-max values");
  std::vector<std::uint32_t> z1 = {0, 1, 2, 70000};
  std::vector<std::uint32_t> z2 = {0, 2, 65536, 70000};
  ExpectIntersectMatchesOracle(z1, z2, "zero member");
}

TEST(IntersectKernels, RandomizedSkewedDensities) {
  // Large randomized sets across overlap densities from disjoint-ish to
  // near-identical. Seeds are fixed and logged so any failure replays.
  for (std::uint64_t seed : {0xA001ull, 0xA002ull, 0xA003ull}) {
    SplitMix64 rng(seed);
    for (std::uint32_t range : {600u, 5000u, 1u << 20}) {
      for (std::size_t na : {std::size_t{3}, std::size_t{100},
                             std::size_t{257}, std::size_t{500}}) {
        const std::size_t nb = 1 + rng.Next() % 500;
        auto a = RandomSet(rng, na, range);
        auto b = RandomSet(rng, std::min<std::size_t>(nb, range / 2), range);
        const std::string label =
            "seed=" + std::to_string(seed) + " range=" + std::to_string(range) +
            " na=" + std::to_string(na) + " nb=" + std::to_string(nb);
        ExpectIntersectMatchesOracle(a, b, label);
        ExpectIntersectMatchesOracle(b, a, label + " swapped");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dense regime.

TEST(IntersectKernels, ChooseRegimeThresholds) {
  using simd::Regime;
  // Too small: merge regardless of density.
  EXPECT_EQ(simd::ChooseRegime(simd::kBitmapMinSize - 1, 0, 10), Regime::kMerge);
  // Large and perfectly dense: bitmap.
  EXPECT_EQ(simd::ChooseRegime(64, 100, 163), Regime::kBitmap);
  // Exactly at the span budget (16 positions per value): bitmap.
  EXPECT_EQ(simd::ChooseRegime(64, 0, 64 * 16 - 1), Regime::kBitmap);
  // One past it: merge.
  EXPECT_EQ(simd::ChooseRegime(64, 0, 64 * 16), Regime::kMerge);
  // Huge sparse span (hash-like ids): merge.
  EXPECT_EQ(simd::ChooseRegime(1000, 0, 0xFFFFFFFFu), Regime::kMerge);
}

/// Probes `bm` (built over `members`) with probe[0..n) into exactly n
/// output slots and checks the result against std::binary_search.
void ExpectProbeMatchesOracle(const simd::DenseBitmap& bm,
                              const std::vector<std::uint32_t>& members,
                              const std::vector<std::uint32_t>& probes,
                              std::size_t n, const std::string& label) {
  std::vector<std::uint32_t> want;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::binary_search(members.begin(), members.end(), probes[i])) {
      want.push_back(probes[i]);
    }
  }
  std::vector<std::uint32_t> out(n + 1, kGuard);
  const std::size_t m = bm.Probe(probes.data(), n, out.data());
  ASSERT_EQ(m, want.size()) << label;
  for (std::size_t i = 0; i < m; ++i) {
    ASSERT_EQ(out[i], want[i]) << label << " at " << i;
  }
  EXPECT_EQ(out[n], kGuard) << label << ": wrote past n";
}

TEST(IntersectKernels, DenseBitmapProbeMatchesBinarySearch) {
  for (std::uint64_t seed : {0xB001ull, 0xB002ull}) {
    SplitMix64 rng(seed);
    // Offset base exercises the out-of-range guard on both sides.
    auto members = RandomSet(rng, 300, 4000);
    for (auto& v : members) v += 50000;
    simd::DenseBitmap bm;
    bm.Build(members.data(), members.size());
    ASSERT_TRUE(bm.built());
    EXPECT_EQ(bm.size(), members.size());

    // Probe batch straddling the bitmap's range on both ends.
    std::vector<std::uint32_t> probes;
    for (std::size_t i = 0; i < 500; ++i) {
      probes.push_back(49000 + static_cast<std::uint32_t>(rng.Next() % 7000));
    }
    std::sort(probes.begin(), probes.end());
    probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
    const std::string label = "seed=" + std::to_string(seed);
    for (std::size_t n = 0; n <= kMaxWidth; ++n) {
      ExpectProbeMatchesOracle(bm, members, probes, n,
                               label + " n=" + std::to_string(n));
    }
    ExpectProbeMatchesOracle(bm, members, probes, probes.size(), label);
  }
  // Members and probes near 2^32 - 1, with probes below the base.
  std::vector<std::uint32_t> members, probes;
  for (std::uint32_t i = 0; i < 100; ++i) members.push_back(0xFFFFFF00u + 2 * i);
  for (std::uint32_t i = 0; i < 300; ++i) probes.push_back(0xFFFFFED4u + i);
  simd::DenseBitmap bm;
  bm.Build(members.data(), members.size());
  ExpectProbeMatchesOracle(bm, members, probes, probes.size(), "near-max");
}

// ---------------------------------------------------------------------------
// Flat-map probe batches and the clique4 membership set.

TEST(IntersectKernels, ProbeFlatMapMatchesMapOracle) {
  SplitMix64 rng(0xC001);
  core::internal::FlatVertexMap map;
  std::map<std::uint32_t, std::uint32_t> oracle;
  map.Reset(500);
  std::vector<std::uint32_t> keys;
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t k = static_cast<std::uint32_t>(rng.Next() % 100000);
    const std::uint32_t bits = 1u + static_cast<std::uint32_t>(i % 7);
    keys.push_back(k);
    map.Add(k, bits);
    oracle[k] |= bits;  // Add ORs into an existing payload
  }
  // Query mix: present keys, absent keys, duplicates — across batch sizes
  // 0..65 and the full batch.
  std::vector<std::uint32_t> queries;
  for (int i = 0; i < 300; ++i) queries.push_back(keys[rng.Next() % keys.size()]);
  for (int i = 0; i < 300; ++i) {
    queries.push_back(static_cast<std::uint32_t>(rng.Next() % 200000));
  }
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= kMaxWidth; ++n) sizes.push_back(n);
  sizes.push_back(queries.size());
  const core::internal::FlatVertexMap::View view = map.view();
  for (std::size_t n : sizes) {
    std::vector<std::uint32_t> out(n + 1, kGuard);
    simd::ProbeFlatMapU32(view.keys, view.vals, view.mask, queries.data(), n,
                          out.data());
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = oracle.find(queries[i]);
      const std::uint32_t want = it == oracle.end()
                                     ? core::internal::FlatVertexMap::kEmpty
                                     : it->second;
      ASSERT_EQ(out[i], want) << "n=" << n << " i=" << i << " q=" << queries[i];
    }
    EXPECT_EQ(out[n], kGuard) << "n=" << n << ": wrote past the batch";
  }
}

TEST(IntersectKernels, FlatU64SetMatchesUnorderedSet) {
  SplitMix64 rng(0xC002);
  simd::FlatU64Set flat;
  std::unordered_set<std::uint64_t> ref;
  flat.Reset(400);
  for (int i = 0; i < 400; ++i) {
    // Packed-edge-shaped keys (never 0).
    const std::uint64_t k = (rng.Next() % 1000 + 1) << 32 | (rng.Next() % 1000);
    flat.Insert(k);
    ref.insert(k);
  }
  std::vector<std::uint64_t> queries;
  for (int i = 0; i < 2000; ++i) {
    queries.push_back((rng.Next() % 1200 + 1) << 32 | (rng.Next() % 1200));
  }
  for (std::uint64_t q : queries) {
    ASSERT_EQ(flat.Contains(q), ref.count(q) != 0) << "q=" << q;
  }
  for (std::size_t i = 0; i + 4 <= queries.size(); i += 4) {
    const bool want = ref.count(queries[i]) != 0 &&
                      ref.count(queries[i + 1]) != 0 &&
                      ref.count(queries[i + 2]) != 0 &&
                      ref.count(queries[i + 3]) != 0;
    ASSERT_EQ(flat.ContainsAll4(queries[i], queries[i + 1], queries[i + 2],
                                queries[i + 3]),
              want)
        << "i=" << i;
  }
}

// ---------------------------------------------------------------------------
// Invocation counters.

TEST(KernelDispatch, InvocationCountsStayExactAcrossThreads) {
  // Every thread counts into its own slot; Invocations sums the live slots
  // (here the main thread's) and the counts of threads that have exited.
  // Each iteration enters all three counted kernels once.
  simd::ResetInvocationCounters();
  constexpr int kThreads = 7;
  constexpr int kCalls = 4000;
  const auto a = Iota(40, 0, 2);
  const auto b = Iota(40, 0, 3);
  simd::DenseBitmap bm;
  bm.Build(b.data(), b.size());
  core::internal::FlatVertexMap map;
  map.Reset(b.size());
  for (std::uint32_t v : b) map.Put(v, v);
  const core::internal::FlatVertexMap::View view = map.view();
  auto calls = [&] {
    std::vector<std::uint32_t> out(a.size());
    for (int i = 0; i < kCalls; ++i) {
      simd::IntersectSorted(a.data(), a.size(), b.data(), b.size(), out.data());
      bm.Probe(a.data(), a.size(), out.data());
      simd::ProbeFlatMapU32(view.keys, view.vals, view.mask, a.data(),
                            a.size(), out.data());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(calls);
  calls();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(simd::Invocations(simd::ActiveVariant()),
            std::uint64_t{3} * (kThreads + 1) * kCalls);
  EXPECT_STREQ(simd::KernelVariantName(simd::ActiveVariant()), "scalar");
}

TEST(KernelDispatch, AlgorithmRunsEnterTheKernels) {
  // Guards the kernel tests above against passing vacuously: the
  // algorithms whose inner loops intersect adjacency lists must reach the
  // counted kernels, the same number of times on every run of one input.
  const std::vector<graph::Edge> raw = graph::Clique(24);
  for (const char* algo : {"mgt", "ps-cache-aware", "edge-iterator"}) {
    std::uint64_t calls[2];
    for (std::uint64_t& c : calls) {
      simd::ResetInvocationCounters();
      EXPECT_EQ(test::RunCollect(algo, raw, 1 << 11, 32).size(),
                24u * 23u * 22u / 6u)
          << algo;
      c = simd::Invocations(simd::ActiveVariant());
    }
    EXPECT_GT(calls[0], 0u) << algo;
    EXPECT_EQ(calls[1], calls[0]) << algo;
  }
}

}  // namespace
}  // namespace trienum
