// Run formation of the sort engine: host-side sorting of one memory load
// (at most M/2 words), shared by `ExternalMergeSort`'s run loop and
// `FunnelSort`'s base case.
//
// Keyed comparators (see sort_key.h) go down an LSD byte-radix on the
// extracted 64-bit keys that scatters the records themselves, with passes
// whose byte is constant across the load skipped outright (the common case:
// 32-bit vertex ids leave half the key bytes empty). Prefix keys finish
// equal-key runs with the comparator; keyless comparators fall back to
// std::stable_sort.
//
// Every path is stable, so SortRun(rec, n, less) == std::stable_sort(rec,
// rec + n, less) record-for-record — the determinism contract the
// differential suite (tests/test_sort_engine.cc) pins. None of this touches
// the device: run formation changes host work only, never the I/O charge
// sequence around it.
//
// Run formation is serial at every thread count: a radix with per-partition
// histograms and scatters measured slower than this one at 2, 4 and 8
// threads on a 65,536-record load. The query's thread count goes to whole
// subproblems instead (core/pivot_enum.h).
#ifndef TRIENUM_EXTSORT_RUN_FORMATION_H_
#define TRIENUM_EXTSORT_RUN_FORMATION_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "extsort/sort_key.h"

namespace trienum::extsort {
namespace internal {

/// Below this many records the constant costs of key extraction and
/// histogramming beat any radix win; a stable insertion sort (no allocation
/// — this path runs once per funnel base case) takes over.
inline constexpr std::size_t kRadixMinRecords = 48;

/// Widest keyed record SortRun accepts: records are moved directly through
/// the scatter passes (with constant-byte skipping, usually ~4 of them).
/// 24 bytes covers every record type in the library (the widest are the
/// derandomization's incidence records), and keeps the scatter scratch at
/// one run of records — the amount the run-formation scratch lease accounts
/// for.
inline constexpr std::size_t kDirectScatterMaxBytes = 24;

/// Stable insertion sort for tiny loads.
template <typename T, typename Less>
void InsertionSort(T* rec, std::size_t n, Less less) {
  for (std::size_t i = 1; i < n; ++i) {
    T v = rec[i];
    std::size_t j = i;
    while (j > 0 && less(v, rec[j - 1])) {
      rec[j] = rec[j - 1];
      --j;
    }
    rec[j] = v;
  }
}

/// LSD byte-radix over `a` by `key_of(a[i])`. Stable. One histogram pass
/// builds all eight tables; scatter passes whose byte is constant across
/// the whole load are skipped (a multiset property, so the first element of
/// the *original* order decides for every pass).
template <typename Rec, typename KeyOf>
void RadixSortByKey(Rec* a, std::size_t n, std::vector<Rec>& scratch,
                    KeyOf key_of) {
  if (n < 2) return;
  std::uint32_t cnt[8][256] = {};
  const std::uint64_t k0 = key_of(a[0]);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = key_of(a[i]);
    for (int p = 0; p < 8; ++p) ++cnt[p][(k >> (8 * p)) & 0xFF];
  }
  Rec* src = a;
  Rec* dst = nullptr;  // the ping-pong copy is sized only if a pass scatters
  for (int p = 0; p < 8; ++p) {
    if (cnt[p][(k0 >> (8 * p)) & 0xFF] == n) continue;  // constant byte
    if (dst == nullptr) {
      if (scratch.size() < n) scratch.resize(n);
      dst = scratch.data();
    }
    std::uint32_t pos[256];
    std::uint32_t run = 0;
    for (int b = 0; b < 256; ++b) {
      pos[b] = run;
      run += cnt[p][b];
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[pos[(key_of(src[i]) >> (8 * p)) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != a) std::memcpy(a, src, n * sizeof(Rec));
}

}  // namespace internal

/// Reusable host buffers for run formation, so a run loop pays one
/// allocation per sort rather than one per run.
template <typename T>
struct RunScratch {
  std::vector<T> recs;
};

/// \brief Sorts the host load [rec, rec + n) under `less`.
///
/// Output is record-for-record what std::stable_sort would produce, down
/// every path (radix is LSD-stable, tie runs and fallbacks use stable
/// sorts).
template <typename T, typename Less>
void SortRun(T* rec, std::size_t n, RunScratch<T>& rs, Less less) {
  using Traits = SortKeyTraits<Less, T>;
  if (n < 2) return;
  if constexpr (!Traits::kHasKey) {
    std::stable_sort(rec, rec + n, less);
  } else {
    static_assert(sizeof(T) <= internal::kDirectScatterMaxBytes,
                  "keyed records wider than kDirectScatterMaxBytes");
    if (n < internal::kRadixMinRecords) {
      internal::InsertionSort(rec, n, less);
      return;
    }
    internal::RadixSortByKey(rec, n, rs.recs,
                             [](const T& r) { return Traits::Key(r); });
    if constexpr (!Traits::kComplete) {
      // Prefix key: finish equal-key runs with the full comparator (stable,
      // so the composition equals one stable_sort under `less`). Small runs
      // insertion-sort in place — no temp, and the scratch buffer stays
      // warm for the next load. A large run (one key class spanning much of
      // the load) goes through std::stable_sort, whose internal temp can
      // reach a full run; the now-dead radix buffer is released first so
      // the peak working set stays at load buffer + temp — within the
      // caller's 2x-run lease — even when one class spans everything.
      bool released = false;
      std::size_t lo = 0;
      while (lo < n) {
        const std::uint64_t k = Traits::Key(rec[lo]);
        std::size_t hi = lo + 1;
        while (hi < n && Traits::Key(rec[hi]) == k) ++hi;
        if (hi - lo > 1) {
          if (hi - lo < internal::kRadixMinRecords) {
            internal::InsertionSort(rec + lo, hi - lo, less);
          } else {
            if (!released) {
              rs.recs = std::vector<T>();
              released = true;
            }
            std::stable_sort(rec + lo, rec + hi, less);
          }
        }
        lo = hi;
      }
    }
  }
}

/// Single-shot convenience overload (allocates its own scratch).
template <typename T, typename Less>
void SortRun(T* rec, std::size_t n, Less less) {
  RunScratch<T> rs;
  SortRun(rec, n, rs, less);
}

}  // namespace trienum::extsort

#endif  // TRIENUM_EXTSORT_RUN_FORMATION_H_
