// Open-addressed membership set over 64-bit keys, with a batched 4-probe
// lookup for the clique4 wedge join.
//
// Replaces std::unordered_set on the join's hot path: linear probing over a
// power-of-two flat array (no per-node mallocs, no bucket chasing), key 0
// reserved as the empty sentinel — packed edges (u << 32 | v with u < v)
// are never 0. The batched ContainsAll4 services one join candidate's four
// membership tests: it computes all four hashes up front so the (usually
// cache-missing) slot loads overlap. Membership is pure, so the answer is
// the naive `&&` chain's.
#ifndef TRIENUM_SIMD_FLAT_SET_H_
#define TRIENUM_SIMD_FLAT_SET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trienum::simd {

class FlatU64Set {
 public:
  /// Clears and sizes the table for `expected` keys at <= 50% load.
  void Reset(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    slots_.assign(cap, 0);
    mask_ = cap - 1;
  }

  /// Inserts `key` (key != 0; duplicates are fine).
  void Insert(std::uint64_t key) {
    std::size_t i = Hash(key);
    while (slots_[i] != 0 && slots_[i] != key) i = (i + 1) & mask_;
    slots_[i] = key;
  }

  bool Contains(std::uint64_t key) const {
    std::size_t i = Hash(key);
    while (slots_[i] != 0) {
      if (slots_[i] == key) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

  /// All four keys present? The join's per-candidate test.
  bool ContainsAll4(std::uint64_t k0, std::uint64_t k1, std::uint64_t k2,
                    std::uint64_t k3) const {
    // Batched: hash all four before touching the table, so the four slot
    // loads issue back-to-back instead of serializing behind each other.
    const std::size_t h0 = Hash(k0), h1 = Hash(k1), h2 = Hash(k2),
                      h3 = Hash(k3);
    const std::uint64_t s0 = slots_[h0], s1 = slots_[h1], s2 = slots_[h2],
                        s3 = slots_[h3];
    if (s0 == k0 && s1 == k1 && s2 == k2 && s3 == k3) return true;
    return ContainsFrom(k0, h0, s0) && ContainsFrom(k1, h1, s1) &&
           ContainsFrom(k2, h2, s2) && ContainsFrom(k3, h3, s3);
  }

 private:
  std::size_t Hash(std::uint64_t key) const {
    // splitmix64 finalizer-style mix; high bits feed the mask.
    key ^= key >> 33;
    key *= 0xFF51AFD7ED558CCDull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key) & mask_;
  }

  /// Resumes a probe whose first slot `s = slots_[i]` is already loaded.
  bool ContainsFrom(std::uint64_t key, std::size_t i, std::uint64_t s) const {
    while (s != 0) {
      if (s == key) return true;
      i = (i + 1) & mask_;
      s = slots_[i];
    }
    return false;
  }

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
};

}  // namespace trienum::simd

#endif  // TRIENUM_SIMD_FLAT_SET_H_
