// Two-regime intersection kernels for sorted u32 sets (adjacency lists).
//
// Regime 1 — merge: `IntersectSorted` is the two-pointer merge of two
// strictly increasing arrays, returning the matches plus how far each side
// was consumed when the other exhausted. The consumed counts let callers
// charge the loop's work to the unit: the merge performs exactly
// (consumed_a + consumed_b - matches) iterations, and that total is
// data-determined (tests/test_intersect_kernels.cc checks it against its
// closed form).
//
// Regime 2 — bitmap: `DenseBitmap` rasterizes one side once (offset-based,
// one bit per value in [min, max]) and answers membership probes against
// it. It wins when the rasterized side is large and dense and is reused
// across many probes — the high-degree-hub shape Latapy and Berry et al.
// document for real power-law graphs. The `ChooseRegime` dispatcher
// applies the size/span threshold.
//
// Each operation has one scalar implementation; every entry point counts
// one call in simd/kernel_policy.h. Nothing here touches the em:: layer,
// so the regime choice can never move an I/O charge.
//
// Preconditions shared by all entry points: inputs are strictly increasing
// (sets — adjacency lists have no duplicate neighbours).
#ifndef TRIENUM_SIMD_INTERSECT_H_
#define TRIENUM_SIMD_INTERSECT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace trienum::simd {

/// What the two-pointer loop did: `matches` values written to `out`
/// (ascending), and the i/j positions at which the loop terminated (first
/// side exhausted). The loop's iteration count is
/// consumed_a + consumed_b - matches.
struct IntersectStats {
  std::size_t matches = 0;
  std::size_t consumed_a = 0;
  std::size_t consumed_b = 0;
};

/// Early-exit merge intersection of two strictly increasing arrays; writes
/// the common values (ascending) to `out` (capacity >= min(na, nb)).
IntersectStats IntersectSorted(const std::uint32_t* a, std::size_t na,
                               const std::uint32_t* b, std::size_t nb,
                               std::uint32_t* out);

// ---------------------------------------------------------------------------
// Dense regime.

/// Regime chosen by the degree-threshold dispatcher.
enum class Regime { kMerge, kBitmap };

/// The rasterized side must amortize its build: at least this many values.
inline constexpr std::size_t kBitmapMinSize = 64;
/// ...and be dense: span no more than this many positions per value (the
/// bitmap costs span/64 words to build and scan; beyond 16x the set size,
/// the merge kernel wins and the bitmap stops fitting the scratch budget).
inline constexpr std::size_t kBitmapMaxSpanPerValue = 16;

/// Picks the regime for intersections against one reused sorted set of
/// `size` values spanning [min_value, max_value]. Pure threshold logic —
/// both regimes produce identical results, so this is performance only.
inline Regime ChooseRegime(std::size_t size, std::uint32_t min_value,
                           std::uint32_t max_value) {
  if (size < kBitmapMinSize) return Regime::kMerge;
  const std::uint64_t span =
      static_cast<std::uint64_t>(max_value) - min_value + 1;
  if (span > static_cast<std::uint64_t>(size) * kBitmapMaxSpanPerValue) {
    return Regime::kMerge;
  }
  return Regime::kBitmap;
}

/// Offset-based bitmap over one strictly increasing array, reused across
/// many probe batches (the high-degree side of the two-regime split).
class DenseBitmap {
 public:
  /// Rasterizes `values[0..n)`; any previous contents are discarded.
  /// Requires n > 0.
  void Build(const std::uint32_t* values, std::size_t n);

  bool built() const { return !words_.empty(); }
  std::size_t size() const { return count_; }

  /// Membership of a single value.
  bool Test(std::uint32_t v) const {
    const std::uint64_t off = static_cast<std::uint64_t>(v) - base_;
    if (off >= span_) return false;
    return (words_[off >> 6] >> (off & 63)) & 1u;
  }

  /// Writes probe[i] for every member, in probe order, to `out` (capacity
  /// >= n); returns the match count.
  std::size_t Probe(const std::uint32_t* probe, std::size_t n,
                    std::uint32_t* out) const;

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t base_ = 0;   // value of bit 0
  std::uint64_t span_ = 0;   // number of addressable positions
  std::size_t count_ = 0;    // values rasterized
};

// ---------------------------------------------------------------------------
// Open-addressed probe batch (the FlatVertexMap hot loop).

/// Batched lookups against core's FlatVertexMap layout: linear probing over
/// power-of-two tables keyed by `key * 0x9E3779B1 & mask`, empty slots
/// marked by vals[i] == 0xFFFFFFFF. Writes the payload (or the empty
/// sentinel) for each query.
void ProbeFlatMapU32(const std::uint32_t* keys, const std::uint32_t* vals,
                     std::uint32_t mask, const std::uint32_t* queries,
                     std::size_t n, std::uint32_t* out);

}  // namespace trienum::simd

#endif  // TRIENUM_SIMD_INTERSECT_H_
