// Exhaustive and randomized differential harness for the src/simd/ kernels.
//
// Every vectorized variant (SWAR always, AVX2 when compiled) must be a
// bit-exact replica of the scalar reference: same matches in the same
// order, same consumed_a/consumed_b (the scalar two-pointer's
// data-determined exhaustion point), same bitmap probe output, same
// flat-map payloads. The exhaustive section covers every width 0..65 on
// both sides — crossing the 4-wide SWAR and 8-wide AVX2 block boundaries
// and every tail alignment — under a family of adversarial overlap
// patterns; the randomized section fuzzes large skewed sets with the seed
// logged so failures replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "core/pivot_enum.h"
#include "simd/flat_set.h"
#include "simd/intersect.h"
#include "simd/kernel_policy.h"

namespace trienum {
namespace {

using simd::IntersectStats;
using simd::KernelMode;
using simd::KernelVariant;

// ---------------------------------------------------------------------------
// Variant plumbing: every mode a test matrix requests, with kAvx2 silently
// degrading to SWAR on non-AVX2 builds (the policy contract).

const std::vector<KernelMode>& AllModes() {
  static const std::vector<KernelMode> kModes = {
      KernelMode::kScalar, KernelMode::kSwar, KernelMode::kAvx2};
  return kModes;
}

// Runs IntersectSorted's variant for `mode` directly (the internal entry
// points), so the exhaustive loops don't depend on dispatch.
IntersectStats RunVariant(KernelMode mode, const std::uint32_t* a,
                          std::size_t na, const std::uint32_t* b,
                          std::size_t nb, std::uint32_t* out) {
  switch (mode) {
    case KernelMode::kScalar:
      return simd::internal::IntersectScalar(a, na, b, nb, out);
    case KernelMode::kSwar:
      return simd::internal::IntersectSwar(a, na, b, nb, out);
    case KernelMode::kAvx2:
#if defined(__AVX2__)
      if (simd::Avx2Available()) {
        return simd::internal::IntersectAvx2(a, na, b, nb, out);
      }
#endif
      return simd::internal::IntersectSwar(a, na, b, nb, out);
    case KernelMode::kAuto:
      break;
  }
  return simd::IntersectSorted(a, na, b, nb, out);
}

/// Compares one variant's full observable behaviour (stats + output,
/// including that it stayed within the slack region) to the scalar
/// reference on (a, b).
void ExpectVariantMatchesReference(KernelMode mode,
                                   const std::vector<std::uint32_t>& a,
                                   const std::vector<std::uint32_t>& b,
                                   const std::string& label) {
  const std::size_t cap = std::min(a.size(), b.size()) + simd::kOutSlack;
  std::vector<std::uint32_t> ref_out(cap, 0xDEADBEEFu);
  std::vector<std::uint32_t> got_out(cap, 0xDEADBEEFu);
  const IntersectStats ref = simd::internal::IntersectScalar(
      a.data(), a.size(), b.data(), b.size(), ref_out.data());
  const IntersectStats got =
      RunVariant(mode, a.data(), a.size(), b.data(), b.size(), got_out.data());
  ASSERT_EQ(ref.matches, got.matches) << label;
  EXPECT_EQ(ref.consumed_a, got.consumed_a) << label;
  EXPECT_EQ(ref.consumed_b, got.consumed_b) << label;
  for (std::size_t i = 0; i < ref.matches; ++i) {
    ASSERT_EQ(ref_out[i], got_out[i]) << label << " at match " << i;
  }
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
// Exhaustive small-width sweeps: widths 0..65 cross every SWAR 4-block and
// AVX2 8-block boundary and every tail length.

constexpr std::size_t kMaxWidth = 65;

TEST(IntersectKernels, ExhaustiveWidthsDisjointLowHigh) {
  for (KernelMode mode : AllModes()) {
    for (std::size_t na = 0; na <= kMaxWidth; ++na) {
      for (std::size_t nb = 0; nb <= kMaxWidth; ++nb) {
        // a entirely below b: exhausts a with zero matches.
        auto a = Iota(na, 0, 1);
        auto b = Iota(nb, 1000, 1);
        ExpectVariantMatchesReference(
            mode, a, b,
            std::string(simd::KernelModeName(mode)) + " low/high " +
                std::to_string(na) + "x" + std::to_string(nb));
        ExpectVariantMatchesReference(
            mode, b, a,
            std::string(simd::KernelModeName(mode)) + " high/low " +
                std::to_string(na) + "x" + std::to_string(nb));
      }
    }
  }
}

TEST(IntersectKernels, ExhaustiveWidthsInterleaved) {
  for (KernelMode mode : AllModes()) {
    for (std::size_t na = 0; na <= kMaxWidth; ++na) {
      for (std::size_t nb = 0; nb <= kMaxWidth; ++nb) {
        // Evens vs odds: perfectly interleaved, zero matches, both sides
        // advance in lockstep — the worst case for block advancement.
        auto a = Iota(na, 0, 2);
        auto b = Iota(nb, 1, 2);
        ExpectVariantMatchesReference(
            mode, a, b,
            std::string(simd::KernelModeName(mode)) + " interleave " +
                std::to_string(na) + "x" + std::to_string(nb));
      }
    }
  }
}

TEST(IntersectKernels, ExhaustiveWidthsEqualAndSubset) {
  for (KernelMode mode : AllModes()) {
    for (std::size_t na = 0; na <= kMaxWidth; ++na) {
      // Identical sets: every element matches.
      auto a = Iota(na, 7, 3);
      ExpectVariantMatchesReference(
          mode, a, a,
          std::string(simd::KernelModeName(mode)) + " equal " +
              std::to_string(na));
      // Every second element of a: a proper subset.
      std::vector<std::uint32_t> sub;
      for (std::size_t i = 0; i < na; i += 2) sub.push_back(a[i]);
      ExpectVariantMatchesReference(
          mode, a, sub,
          std::string(simd::KernelModeName(mode)) + " superset " +
              std::to_string(na));
      ExpectVariantMatchesReference(
          mode, sub, a,
          std::string(simd::KernelModeName(mode)) + " subset " +
              std::to_string(na));
    }
  }
}

TEST(IntersectKernels, ExhaustiveShiftedOverlaps) {
  // Sliding window: a = [s, s+n), b = [0, n) for every shift — every
  // possible overlap length, including the one-past-the-end boundary where
  // a block's first compare already exhausts one side.
  for (KernelMode mode : AllModes()) {
    for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                          std::size_t{13}, std::size_t{32}, std::size_t{65}}) {
      for (std::size_t s = 0; s <= n + 1; ++s) {
        auto a = Iota(n, static_cast<std::uint32_t>(s), 1);
        auto b = Iota(n, 0, 1);
        ExpectVariantMatchesReference(
            mode, a, b,
            std::string(simd::KernelModeName(mode)) + " shift " +
                std::to_string(s) + "/" + std::to_string(n));
      }
    }
  }
}

TEST(IntersectKernels, ExtremeValuesNearUint32Max) {
  // The SWAR zero-half filter and the AVX2 unsigned-compare trick must not
  // wrap near 2^32 - 1.
  for (KernelMode mode : AllModes()) {
    std::vector<std::uint32_t> a, b;
    for (std::uint32_t i = 0; i < 40; ++i) a.push_back(0xFFFFFFFFu - 2 * i);
    for (std::uint32_t i = 0; i < 40; ++i) b.push_back(0xFFFFFFFFu - 3 * i);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ExpectVariantMatchesReference(mode, a, b, "near-max values");
    // Zero is a legal member (the SWAR filter subtracts 1 per half).
    std::vector<std::uint32_t> z1 = {0, 1, 2, 70000};
    std::vector<std::uint32_t> z2 = {0, 2, 65536, 70000};
    ExpectVariantMatchesReference(mode, z1, z2, "zero member");
  }
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
        for (KernelMode mode : AllModes()) {
          ExpectVariantMatchesReference(
              mode, a, b,
              "seed=" + std::to_string(seed) + " range=" +
                  std::to_string(range) + " na=" + std::to_string(na) +
                  " nb=" + std::to_string(nb) + " mode=" +
                  simd::KernelModeName(mode));
        }
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

TEST(IntersectKernels, DenseBitmapProbeMatchesScalarAcrossVariants) {
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

    std::vector<std::uint32_t> ref_out(probes.size() + simd::kOutSlack);
    std::size_t ref_m = 0;
    {
      simd::ScopedKernelMode scoped(KernelMode::kScalar);
      ref_m = bm.Probe(probes.data(), probes.size(), ref_out.data());
    }
    // Scalar probe agrees with Test() membership.
    std::size_t want = 0;
    for (std::uint32_t p : probes) {
      if (bm.Test(p)) ++want;
    }
    ASSERT_EQ(ref_m, want) << "seed=" << seed;

    for (KernelMode mode : {KernelMode::kSwar, KernelMode::kAvx2}) {
      simd::ScopedKernelMode scoped(mode);
      std::vector<std::uint32_t> got_out(probes.size() + simd::kOutSlack);
      const std::size_t got_m =
          bm.Probe(probes.data(), probes.size(), got_out.data());
      ASSERT_EQ(ref_m, got_m)
          << "seed=" << seed << " mode=" << simd::KernelModeName(mode);
      for (std::size_t i = 0; i < ref_m; ++i) {
        ASSERT_EQ(ref_out[i], got_out[i])
            << "seed=" << seed << " mode=" << simd::KernelModeName(mode)
            << " at " << i;
      }
    }
  }
}

TEST(IntersectKernels, DenseBitmapCountAndMatchesBruteForce) {
  SplitMix64 rng(0xB003);
  // Overlapping, partially disjoint ranges with different bases stress the
  // word-stitching (unaligned relative offsets) in CountAnd.
  for (int round = 0; round < 8; ++round) {
    auto va = RandomSet(rng, 200 + rng.Next() % 200, 3000);
    auto vb = RandomSet(rng, 200 + rng.Next() % 200, 3000);
    const std::uint32_t shift_a = static_cast<std::uint32_t>(rng.Next() % 130);
    const std::uint32_t shift_b = static_cast<std::uint32_t>(rng.Next() % 130);
    for (auto& v : va) v += 10000 + shift_a;
    for (auto& v : vb) v += 10000 + shift_b;
    simd::DenseBitmap ba, bb;
    ba.Build(va.data(), va.size());
    bb.Build(vb.data(), vb.size());
    std::uint64_t want = 0;
    for (std::uint32_t v : va) {
      want += std::binary_search(vb.begin(), vb.end(), v) ? 1 : 0;
    }
    for (KernelMode mode : AllModes()) {
      simd::ScopedKernelMode scoped(mode);
      EXPECT_EQ(ba.CountAnd(bb), want)
          << "round=" << round << " mode=" << simd::KernelModeName(mode);
      EXPECT_EQ(bb.CountAnd(ba), want)
          << "round=" << round << " swapped mode="
          << simd::KernelModeName(mode);
    }
  }
}

TEST(IntersectKernels, PopcountWordsMatchesBuiltin) {
  SplitMix64 rng(0xB004);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{64}, std::size_t{255}, std::size_t{1000}}) {
    std::vector<std::uint64_t> w(n);
    for (auto& x : w) x = rng.Next();
    std::uint64_t want = 0;
    for (std::uint64_t x : w) {
      want += static_cast<std::uint64_t>(__builtin_popcountll(x));
    }
    for (KernelMode mode : AllModes()) {
      simd::ScopedKernelMode scoped(mode);
      EXPECT_EQ(simd::PopcountWords(w.data(), n), want)
          << "n=" << n << " mode=" << simd::KernelModeName(mode);
    }
  }
}

// ---------------------------------------------------------------------------
// Flat-map probe batches and the clique4 membership set.

TEST(IntersectKernels, ProbeFlatMapMatchesPerQueryGet) {
  SplitMix64 rng(0xC001);
  core::internal::FlatVertexMap map;
  map.Reset(500);
  std::vector<std::uint32_t> keys;
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t k = static_cast<std::uint32_t>(rng.Next() % 100000);
    keys.push_back(k);
    map.Add(k, 1u + static_cast<std::uint32_t>(i % 7));
  }
  // Query mix: present keys, absent keys, duplicates — across batch sizes
  // that cover the vector widths and their tails.
  std::vector<std::uint32_t> queries;
  for (int i = 0; i < 300; ++i) queries.push_back(keys[rng.Next() % keys.size()]);
  for (int i = 0; i < 300; ++i) {
    queries.push_back(static_cast<std::uint32_t>(rng.Next() % 200000));
  }
  const core::internal::FlatVertexMap::View view = map.view();
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4}, std::size_t{7}, std::size_t{8},
                        std::size_t{9}, queries.size()}) {
    std::vector<std::uint32_t> out(n + 1, 0x12345678u);
    for (KernelMode mode : AllModes()) {
      simd::ScopedKernelMode scoped(mode);
      simd::ProbeFlatMapU32(view.keys, view.vals, view.mask, queries.data(), n,
                            out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], view.Get(queries[i]))
            << "n=" << n << " i=" << i << " q=" << queries[i]
            << " mode=" << simd::KernelModeName(mode);
      }
      EXPECT_EQ(out[n], 0x12345678u) << "overwrote past the batch";
    }
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
  for (KernelMode mode : AllModes()) {
    simd::ScopedKernelMode scoped(mode);
    for (std::size_t i = 0; i + 4 <= queries.size(); i += 4) {
      const bool want = ref.count(queries[i]) != 0 &&
                        ref.count(queries[i + 1]) != 0 &&
                        ref.count(queries[i + 2]) != 0 &&
                        ref.count(queries[i + 3]) != 0;
      ASSERT_EQ(flat.ContainsAll4(queries[i], queries[i + 1], queries[i + 2],
                                  queries[i + 3]),
                want)
          << "i=" << i << " mode=" << simd::KernelModeName(mode);
    }
  }
}

// ---------------------------------------------------------------------------
// Runtime dispatch: the invocation counters prove which variant actually
// serviced the calls — including that the portable fallback executes when
// AVX2 is masked off (or absent from the build).

TEST(KernelDispatch, ScalarModeRunsOnlyTheScalarPath) {
  simd::ScopedKernelMode scoped(KernelMode::kScalar);
  simd::ResetInvocationCounters();
  auto a = Iota(40, 0, 2);
  auto b = Iota(40, 0, 3);
  std::vector<std::uint32_t> out(40 + simd::kOutSlack);
  simd::IntersectSorted(a.data(), a.size(), b.data(), b.size(), out.data());
  EXPECT_GT(simd::Invocations(KernelVariant::kScalar), 0u);
  EXPECT_EQ(simd::Invocations(KernelVariant::kSwar), 0u);
  EXPECT_EQ(simd::Invocations(KernelVariant::kAvx2), 0u);
}

TEST(KernelDispatch, SwarModeMasksOffAvx2) {
  // The core of the fallback guarantee: with AVX2 masked off, kernel calls
  // run the portable SWAR path — on every build, including TRIENUM_NATIVE.
  simd::ScopedKernelMode scoped(KernelMode::kSwar);
  simd::ResetInvocationCounters();
  auto a = Iota(64, 0, 2);
  auto b = Iota(64, 0, 3);
  std::vector<std::uint32_t> out(64 + simd::kOutSlack);
  simd::IntersectSorted(a.data(), a.size(), b.data(), b.size(), out.data());
  EXPECT_EQ(simd::ActiveVariant(), KernelVariant::kSwar);
  EXPECT_GT(simd::Invocations(KernelVariant::kSwar), 0u);
  EXPECT_EQ(simd::Invocations(KernelVariant::kAvx2), 0u);
}

TEST(KernelDispatch, Avx2RequestDegradesToSwarWhenUnavailable) {
  simd::ScopedKernelMode scoped(KernelMode::kAvx2);
  simd::ResetInvocationCounters();
  auto a = Iota(64, 0, 2);
  auto b = Iota(64, 0, 3);
  std::vector<std::uint32_t> out(64 + simd::kOutSlack);
  simd::IntersectSorted(a.data(), a.size(), b.data(), b.size(), out.data());
  if (simd::Avx2Available()) {
    EXPECT_EQ(simd::ActiveVariant(), KernelVariant::kAvx2);
    EXPECT_GT(simd::Invocations(KernelVariant::kAvx2), 0u);
  } else {
    // Unsatisfiable request resolves to the portable fallback, proving the
    // non-AVX2 path is compiled and reachable in this build.
    EXPECT_EQ(simd::ActiveVariant(), KernelVariant::kSwar);
    EXPECT_GT(simd::Invocations(KernelVariant::kSwar), 0u);
    EXPECT_EQ(simd::Invocations(KernelVariant::kAvx2), 0u);
  }
}

TEST(KernelDispatch, InvocationCountsStayExactAcrossThreads) {
  // Every thread counts into its own slot; Invocations sums the live slots
  // (here the main thread's) and the counts of threads that have exited.
  simd::ScopedKernelMode scoped(KernelMode::kScalar);
  simd::ResetInvocationCounters();
  constexpr int kThreads = 7;
  constexpr int kCalls = 4000;
  const auto a = Iota(40, 0, 2);
  const auto b = Iota(40, 0, 3);
  auto calls = [&] {
    std::vector<std::uint32_t> out(40 + simd::kOutSlack);
    for (int i = 0; i < kCalls; ++i) {
      simd::IntersectSorted(a.data(), a.size(), b.data(), b.size(), out.data());
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(calls);
  calls();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(simd::Invocations(KernelVariant::kScalar),
            std::uint64_t{kThreads + 1} * kCalls);
  EXPECT_EQ(simd::Invocations(KernelVariant::kSwar), 0u);
  EXPECT_EQ(simd::Invocations(KernelVariant::kAvx2), 0u);
}

TEST(KernelDispatch, ModeRoundTripsThroughParseAndName) {
  for (KernelMode m : {KernelMode::kAuto, KernelMode::kScalar,
                       KernelMode::kSwar, KernelMode::kAvx2}) {
    KernelMode parsed;
    ASSERT_TRUE(simd::ParseKernelMode(simd::KernelModeName(m), &parsed));
    EXPECT_EQ(parsed, m);
  }
  KernelMode dummy;
  EXPECT_FALSE(simd::ParseKernelMode("sse9", &dummy));
  EXPECT_FALSE(simd::ParseKernelMode("", &dummy));
}

}  // namespace
}  // namespace trienum
