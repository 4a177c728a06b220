#include "simd/intersect.h"

#include "simd/kernel_policy.h"

namespace trienum::simd {
namespace {

constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
constexpr std::uint32_t kFlatMapHashMul = 0x9E3779B1u;

std::uint32_t WalkFlatMap(const std::uint32_t* keys, const std::uint32_t* vals,
                          std::uint32_t mask, std::uint32_t q) {
  std::uint32_t i = (q * kFlatMapHashMul) & mask;
  while (vals[i] != kEmptySlot) {
    if (keys[i] == q) return vals[i];
    i = (i + 1) & mask;
  }
  return kEmptySlot;
}

}  // namespace

IntersectStats IntersectSorted(const std::uint32_t* a, std::size_t na,
                               const std::uint32_t* b, std::size_t nb,
                               std::uint32_t* out) {
  CountInvocation();
  std::size_t i = 0, j = 0, m = 0;
  while (i < na && j < nb) {
    const std::uint32_t x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out[m++] = x;
      ++i;
      ++j;
    }
  }
  return IntersectStats{m, i, j};
}

void DenseBitmap::Build(const std::uint32_t* values, std::size_t n) {
  base_ = values[0];
  span_ = static_cast<std::uint64_t>(values[n - 1]) - base_ + 1;
  count_ = n;
  words_.assign(static_cast<std::size_t>((span_ + 63) >> 6), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t off = values[i] - static_cast<std::uint64_t>(base_);
    words_[static_cast<std::size_t>(off >> 6)] |= std::uint64_t{1}
                                                  << (off & 63);
  }
}

std::size_t DenseBitmap::Probe(const std::uint32_t* probe, std::size_t n,
                               std::uint32_t* out) const {
  CountInvocation();
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (Test(probe[i])) out[m++] = probe[i];
  }
  return m;
}

void ProbeFlatMapU32(const std::uint32_t* keys, const std::uint32_t* vals,
                     std::uint32_t mask, const std::uint32_t* queries,
                     std::size_t n, std::uint32_t* out) {
  CountInvocation();
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = WalkFlatMap(keys, vals, mask, queries[i]);
  }
}

}  // namespace trienum::simd
