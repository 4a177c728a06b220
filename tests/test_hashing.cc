// 4-wise polynomial hashing, GF(2^m), and the AGHP epsilon-biased family:
// determinism, field axioms, uniformity, and measured bias.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/rng.h"
#include "hashing/bit_family.h"
#include "hashing/gf2.h"
#include "hashing/kwise.h"

namespace trienum {
namespace {

using hashing::FourWiseHash;
using hashing::GF2m;

TEST(MulMod61, KnownValuesAndBounds) {
  EXPECT_EQ(hashing::MulMod61(0, 12345), 0u);
  EXPECT_EQ(hashing::MulMod61(1, 12345), 12345u);
  // (p-1)^2 mod p == 1.
  EXPECT_EQ(hashing::MulMod61(hashing::kMersenne61 - 1, hashing::kMersenne61 - 1),
            1u);
  SplitMix64 rng(1);
  for (int i = 0; i < 1000; ++i) {
    std::uint64_t a = rng.Next() % hashing::kMersenne61;
    std::uint64_t b = rng.Next() % hashing::kMersenne61;
    std::uint64_t r = hashing::MulMod61(a, b);
    EXPECT_LT(r, hashing::kMersenne61);
    __uint128_t expect = (static_cast<__uint128_t>(a) * b) % hashing::kMersenne61;
    EXPECT_EQ(r, static_cast<std::uint64_t>(expect));
  }
}

TEST(FourWiseHash, DeterministicPerSeed) {
  FourWiseHash h1(42), h2(42), h3(43);
  for (std::uint64_t x : {0ull, 1ull, 999ull, 1ull << 40}) {
    EXPECT_EQ(h1(x), h2(x));
  }
  int diff = 0;
  for (std::uint64_t x = 0; x < 64; ++x) diff += h1(x) != h3(x);
  EXPECT_GE(diff, 60);  // different seeds give (almost surely) different maps
}

TEST(FourWiseHash, ColorsRoughlyUniform) {
  const std::uint32_t c = 8;
  const int n = 80000;
  FourWiseHash h(777);
  std::vector<int> counts(c, 0);
  for (int x = 0; x < n; ++x) ++counts[h.Color(x, c)];
  double expect = static_cast<double>(n) / c;
  for (std::uint32_t k = 0; k < c; ++k) {
    EXPECT_NEAR(counts[k], expect, 6 * std::sqrt(expect)) << "color " << k;
  }
}

TEST(FourWiseHash, ColorIsHashModCAtAnyC) {
  FourWiseHash h(2014);
  for (std::uint32_t c : {3u, 5u, 9u, 12u}) {
    std::vector<int> counts(c, 0);
    for (std::uint64_t x = 0; x < 10000; ++x) {
      const std::uint32_t color = h.Color(x, c);
      ASSERT_LT(color, c) << "x = " << x;
      ++counts[color];
    }
    for (std::uint32_t k = 0; k < c; ++k) {
      EXPECT_GT(counts[k], 0) << "c = " << c << ", colour " << k;
    }
  }
  // At a power of two the colour is the hash's low bits.
  for (std::uint32_t c : {1u, 2u, 8u, 64u}) {
    for (std::uint64_t x = 0; x < 1000; ++x) {
      ASSERT_EQ(h.Color(x, c), h(x) & (c - 1)) << "c = " << c;
    }
  }
}

TEST(FourWiseHash, BitsPairwiseBalanced) {
  // For any fixed pair (x, y), over random seeds Pr[b(x) == b(y)] ~ 1/2 —
  // the property Lemma 3's adjacent-pair argument needs.
  const int trials = 4000;
  int equal = 0;
  for (int s = 0; s < trials; ++s) {
    FourWiseHash h(1000 + s);
    equal += h.Bit(123) == h.Bit(45678);
  }
  EXPECT_NEAR(equal, trials / 2, 5 * std::sqrt(trials / 4.0));
}

TEST(FourWiseHash, FourPointPatternsBalanced) {
  // 4-wise independence: over random seeds, the 4-bit pattern of four fixed
  // points should be ~uniform over 16 possibilities.
  const int trials = 16000;
  std::map<int, int> hist;
  for (int s = 0; s < trials; ++s) {
    FourWiseHash h(5000 + s);
    int pat = (h.Bit(3) << 3) | (h.Bit(17) << 2) | (h.Bit(999) << 1) | h.Bit(52);
    ++hist[pat];
  }
  for (int pat = 0; pat < 16; ++pat) {
    EXPECT_NEAR(hist[pat], trials / 16, 6 * std::sqrt(trials / 16.0))
        << "pattern " << pat;
  }
}

TEST(GF2, FindsIrreducibleModulus) {
  for (int m : {2, 3, 4, 8, 12, 16}) {
    GF2m f(m);
    EXPECT_EQ(f.modulus() >> m, 1u) << "degree must be exactly m";
    EXPECT_TRUE(GF2m::IsIrreducible(f.modulus(), m));
  }
}

TEST(GF2, KnownIrreducibility) {
  // x^2 + x + 1 irreducible; x^2 + 1 = (x+1)^2 reducible over GF(2).
  EXPECT_TRUE(GF2m::IsIrreducible(0b111, 2));
  EXPECT_FALSE(GF2m::IsIrreducible(0b101, 2));
  // x^3 + x + 1 irreducible; x^3 + x^2 + x + 1 divisible by x + 1.
  EXPECT_TRUE(GF2m::IsIrreducible(0b1011, 3));
  EXPECT_FALSE(GF2m::IsIrreducible(0b1111, 3));
}

TEST(GF2, FieldAxiomsSampled) {
  GF2m f(8);
  SplitMix64 rng(2);
  for (int i = 0; i < 200; ++i) {
    std::uint64_t a = rng.Below(f.order());
    std::uint64_t b = rng.Below(f.order());
    std::uint64_t c = rng.Below(f.order());
    EXPECT_EQ(f.Mul(a, b), f.Mul(b, a));
    EXPECT_EQ(f.Mul(a, f.Mul(b, c)), f.Mul(f.Mul(a, b), c));
    EXPECT_EQ(f.Mul(a, 1), a);
    EXPECT_EQ(f.Mul(a, 0), 0u);
    // Distributivity: a*(b+c) = a*b + a*c (addition is xor).
    EXPECT_EQ(f.Mul(a, b ^ c), f.Mul(a, b) ^ f.Mul(a, c));
  }
}

TEST(GF2, NonzeroElementsInvertible) {
  GF2m f(8);
  // a^(2^m - 1) == 1 for every nonzero a (the multiplicative group).
  for (std::uint64_t a = 1; a < f.order(); a += 17) {
    EXPECT_EQ(f.Pow(a, f.order() - 1), 1u) << a;
  }
}

TEST(Aghp, MeasuredBiasIsSmall) {
  // For the epsilon-biased family over n positions, every fixed nonempty
  // parity should be near-balanced across the whole family. We spot-check a
  // few parities over a subsampled family with m = 10.
  hashing::AghpFamily fam(10);
  const std::uint64_t stride = 257;  // subsample the 2^20 sample points
  const std::vector<std::vector<std::uint64_t>> parities = {
      {5}, {1, 2}, {10, 20, 30}, {7, 77, 777, 7777}};
  for (const auto& pos : parities) {
    std::int64_t sum = 0;
    std::int64_t total = 0;
    for (std::uint64_t idx = 0; idx < fam.size(); idx += stride) {
      hashing::AghpBitFunction f = fam.Get(idx);
      int parity = 0;
      for (std::uint64_t p : pos) parity ^= f.Bit(p);
      sum += parity ? 1 : -1;
      ++total;
    }
    double bias = std::abs(static_cast<double>(sum)) / total;
    EXPECT_LT(bias, 0.05) << "parity size " << pos.size();
  }
}

TEST(BitCandidates, ScheduleIsDeterministic) {
  FourWiseHash a = hashing::FourWiseBitCandidates::Candidate(3, 7);
  FourWiseHash b = hashing::FourWiseBitCandidates::Candidate(3, 7);
  FourWiseHash c = hashing::FourWiseBitCandidates::Candidate(3, 8);
  EXPECT_EQ(a.seed(), b.seed());
  EXPECT_NE(a.seed(), c.seed());
}

}  // namespace
}  // namespace trienum
