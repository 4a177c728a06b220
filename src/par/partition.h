// Stable range splitting: the determinism substrate of the par subsystem.
//
// A fork/join kernel (clique4's in-memory pair join) decomposes its input
// into contiguous partitions of [0, n), hands partition i to some worker,
// and merges the per-partition results *in partition order*. Because the
// split depends only on (n, parts) — never on thread scheduling — the merged
// result reproduces the serial left-to-right order exactly, which is what
// makes threads=N bit-for-bit equivalent to threads=1 (triangle output and
// enumeration order).
#ifndef TRIENUM_PAR_PARTITION_H_
#define TRIENUM_PAR_PARTITION_H_

#include <cstddef>

namespace trienum::par {

/// One contiguous partition [lo, hi) of an index range.
struct Range {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::size_t size() const { return hi - lo; }
};

/// Number of partitions to split `n` items into under `grain` control: at
/// most `threads`, and never so many that a partition would hold fewer than
/// `grain` items. 0 for an empty range, 1 when parallelism cannot pay.
inline std::size_t PartsFor(std::size_t n, std::size_t threads,
                            std::size_t grain) {
  if (n == 0) return 0;
  if (threads <= 1) return 1;
  if (grain == 0) grain = 1;
  const std::size_t by_grain = n / grain;  // partitions of >= grain items
  const std::size_t parts = threads < by_grain ? threads : by_grain;
  return parts == 0 ? 1 : parts;
}

/// Partition `i` of `n` items split into `parts` contiguous ranges whose
/// sizes differ by at most one (the first n % parts ranges get the extra
/// item). Deterministic in (n, parts, i): concatenating partitions 0..parts-1
/// is exactly [0, n).
inline Range PartRange(std::size_t n, std::size_t parts, std::size_t i) {
  const std::size_t base = n / parts;
  const std::size_t extra = n % parts;
  const std::size_t lo = i * base + (i < extra ? i : extra);
  const std::size_t len = base + (i < extra ? 1 : 0);
  return Range{lo, lo + len};
}

}  // namespace trienum::par

#endif  // TRIENUM_PAR_PARTITION_H_
