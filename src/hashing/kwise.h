// k-wise independent hashing via random polynomials over GF(p), p = 2^61 - 1.
//
// The paper's algorithms draw vertex colorings from a 4-wise independent
// family (Section 2, step 2; Section 3, step 2). A degree-(k-1) polynomial
// with uniform coefficients over a prime field is the textbook k-wise
// independent family.
#ifndef TRIENUM_HASHING_KWISE_H_
#define TRIENUM_HASHING_KWISE_H_

#include <array>
#include <cstdint>

namespace trienum::hashing {

/// Mersenne prime 2^61 - 1 used as the field modulus.
inline constexpr std::uint64_t kMersenne61 = (std::uint64_t{1} << 61) - 1;

/// (a * b) mod (2^61 - 1) without overflow. Inline: this runs twice per
/// vertex-color evaluation on the recursion's hottest loop.
inline std::uint64_t MulMod61(std::uint64_t a, std::uint64_t b) {
  __uint128_t prod = static_cast<__uint128_t>(a) * b;
  std::uint64_t lo = static_cast<std::uint64_t>(prod & kMersenne61);
  std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
  std::uint64_t s = lo + hi;
  if (s >= kMersenne61) s -= kMersenne61;
  return s;
}

/// (a + b) mod (2^61 - 1).
inline std::uint64_t AddMod61(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a + b;
  if (s >= kMersenne61) s -= kMersenne61;
  return s;
}

/// \brief 4-wise independent hash h : u64 -> [0, 2^61-1).
///
/// h(x) = a3*x^3 + a2*x^2 + a1*x + a0 over GF(2^61 - 1), coefficients drawn
/// deterministically from `seed`.
///
/// Every evaluator is const and touches only the immutable coefficient
/// array, so a constructed hash may be called concurrently from par pool
/// workers — the contract the batched refinement-bit kernel (the §3
/// recursion's counting scan in cache_oblivious.cc) relies on.
class FourWiseHash {
 public:
  FourWiseHash() : FourWiseHash(0) {}
  explicit FourWiseHash(std::uint64_t seed);

  /// Full 61-bit hash value.
  std::uint64_t operator()(std::uint64_t x) const {
    // Vertex ids are < 2^32 < p, so the reduction is almost always the
    // identity — skip the 64-bit division on that path.
    std::uint64_t xm = x < kMersenne61 ? x : x % kMersenne61;
    // Horner evaluation: ((a3*x + a2)*x + a1)*x + a0.
    std::uint64_t h = a_[3];
    h = AddMod61(MulMod61(h, xm), a_[2]);
    h = AddMod61(MulMod61(h, xm), a_[1]);
    h = AddMod61(MulMod61(h, xm), a_[0]);
    return h;
  }

  /// One (pairwise-exactly, 4-wise almost) unbiased bit.
  std::uint32_t Bit(std::uint64_t x) const {
    return static_cast<std::uint32_t>((*this)(x)&1u);
  }

  /// Both refinement bits of an edge's endpoints in one batched evaluation:
  /// Bit(x) | Bit(y) << 1. The two Horner chains are interleaved so their
  /// independent multiply trees pipeline instead of serializing — the §3
  /// recursion evaluates this once per record per node, its hottest hashing
  /// site.
  std::uint32_t PairBits(std::uint64_t x, std::uint64_t y) const {
    std::uint64_t xm = x < kMersenne61 ? x : x % kMersenne61;
    std::uint64_t ym = y < kMersenne61 ? y : y % kMersenne61;
    std::uint64_t hx = a_[3];
    std::uint64_t hy = a_[3];
    hx = AddMod61(MulMod61(hx, xm), a_[2]);
    hy = AddMod61(MulMod61(hy, ym), a_[2]);
    hx = AddMod61(MulMod61(hx, xm), a_[1]);
    hy = AddMod61(MulMod61(hy, ym), a_[1]);
    hx = AddMod61(MulMod61(hx, xm), a_[0]);
    hy = AddMod61(MulMod61(hy, ym), a_[0]);
    return static_cast<std::uint32_t>((hx & 1u) | ((hy & 1u) << 1));
  }

  /// Color in [0, c), c >= 1: the hash mod c. For a power-of-two c that is
  /// the hash's low bits.
  std::uint32_t Color(std::uint64_t x, std::uint32_t c) const {
    return static_cast<std::uint32_t>((*this)(x) % c);
  }

  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::array<std::uint64_t, 4> a_;
};

}  // namespace trienum::hashing

#endif  // TRIENUM_HASHING_KWISE_H_
