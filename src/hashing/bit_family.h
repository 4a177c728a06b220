// Candidate two-coloring families for the Section 4 derandomization.
//
// The paper (Lemma 6, citing Alon-Goldreich-Hastad-Peralta) uses an almost
// 4-wise independent family of t = O((log V / alpha)^2) bit functions and
// scans it for one satisfying the potential inequality (4). Two families are
// provided:
//
//  * AghpBitFunction — the genuine epsilon-biased "powering" construction
//    over GF(2^m): sample point (x, y), bit_v = <x^v, y>. Its bias is
//    verifiable (tested) and the family is deterministically enumerable, but
//    its theoretical size makes exhaustive scans practical only for small
//    inputs.
//  * FourWiseBitCandidates — a fixed deterministic schedule of seeds into
//    the exactly-4-wise polynomial family. The derandomizer's greedy
//    first-fit over this schedule terminates after O(1) candidates in
//    expectation (Markov on the potential), so the deterministic algorithm
//    runs at full speed. The substitution keeps the guarantee: the
//    derandomizer evaluates (4) exactly for every candidate and accepts
//    only one that satisfies it, so the final coloring meets Theorem 2's
//    bound whichever family supplied the bits. The family decides only
//    how many candidates a round inspects (tests/test_derandomize.cc runs
//    both families against the bound).
#ifndef TRIENUM_HASHING_BIT_FAMILY_H_
#define TRIENUM_HASHING_BIT_FAMILY_H_

#include <cstdint>

#include "hashing/gf2.h"
#include "hashing/kwise.h"

namespace trienum::hashing {

/// \brief One function from the AGHP epsilon-biased space.
///
/// b(v) = <x^(v+1), y> over GF(2^m). For n points the bias is at most
/// (n - 1) / 2^m.
class AghpBitFunction {
 public:
  AghpBitFunction(const GF2m* field, std::uint64_t x, std::uint64_t y)
      : field_(field), x_(x), y_(y) {}

  std::uint32_t Bit(std::uint64_t v) const {
    return GF2m::InnerProduct(field_->Pow(x_, v + 1), y_);
  }

 private:
  const GF2m* field_;
  std::uint64_t x_;
  std::uint64_t y_;
};

/// \brief Deterministic enumeration of the AGHP family (index -> (x, y)).
class AghpFamily {
 public:
  explicit AghpFamily(int m) : field_(m) {}

  std::uint64_t size() const { return field_.order() * field_.order(); }

  AghpBitFunction Get(std::uint64_t index) const {
    std::uint64_t x = index % field_.order();
    std::uint64_t y = index / field_.order();
    return AghpBitFunction(&field_, x, y);
  }

  const GF2m& field() const { return field_; }

 private:
  GF2m field_;
};

/// \brief Deterministic schedule of candidate bit functions for the greedy
/// derandomizer (fixed base seed; candidate j uses SplitMix64 stream j).
class FourWiseBitCandidates {
 public:
  /// Base constant fixed once for the library: the deterministic algorithm's
  /// output never depends on external randomness.
  static constexpr std::uint64_t kScheduleBase = 0xD3C0D3D1A6E5ULL;

  static FourWiseHash Candidate(std::uint64_t round, std::uint64_t j) {
    return FourWiseHash(kScheduleBase ^ (round * 0x9E3779B97F4A7C15ULL) ^
                        Mix(j + 1));
  }

 private:
  static std::uint64_t Mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

}  // namespace trienum::hashing

#endif  // TRIENUM_HASHING_BIT_FAMILY_H_
