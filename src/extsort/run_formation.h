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
// Under par::SetThreads(N > 1), large loads run the radix passes in
// parallel: per-partition histograms and scatters over the stable splits of
// partition.h, with scatter cursors laid out so the merged result is the
// serial LSD order bit-for-bit (tests/test_parallel.cc pins SortRun against
// std::stable_sort at several thread counts). Runs are still emitted
// serially by the caller through the same WriteScan charges.
#ifndef TRIENUM_EXTSORT_RUN_FORMATION_H_
#define TRIENUM_EXTSORT_RUN_FORMATION_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

#include "extsort/sort_key.h"
#include "par/thread_pool.h"

namespace trienum::extsort {
namespace internal {

/// Below this many records the constant costs of key extraction and
/// histogramming beat any radix win; a stable insertion sort (no allocation
/// — this path runs once per funnel base case) takes over.
inline constexpr std::size_t kRadixMinRecords = 48;

/// Widest keyed record SortRun accepts: records are moved directly through
/// the scatter passes (with constant-byte skipping, usually ~4 of them).
/// 24 bytes covers every record type in the library (wedge and incidence
/// records), and keeps the scatter scratch at one run of records — the
/// amount the run-formation scratch lease accounts for.
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

/// Records per pool partition below which the parallel radix cannot recoup
/// its per-pass fork/join handshakes; loads smaller than 2x this stay on
/// the serial single-histogram path. 4096 keeps the reference operating
/// point's 8192-record loads (M = 2^14 words of one-word edges) eligible
/// for a 2-way split while a partition still carries tens of microseconds
/// of histogram + scatter work per pass.
inline constexpr std::size_t kParGrainRecords = std::size_t{1} << 12;

/// Parallel LSD byte-radix: bit-identical to the serial RadixSortByKey.
///
/// Per pass: a parallel per-partition histogram of that byte over the
/// array's *current* order, one serial 256 x parts prefix walk turning
/// counts into scatter cursors laid out byte-major then partition-major —
/// exactly the order the serial scan visits records — and a parallel
/// per-partition scatter where each worker advances only its own cursors.
/// Stability (and therefore the std::stable_sort contract) follows from the
/// cursor layout; no two workers ever write the same destination slot.
/// Constant bytes are detected from the pass histogram and skipped like the
/// serial path (skipping a constant byte's scatter is the identity
/// permutation, so output is unchanged either way).
template <typename Rec, typename KeyOf>
void RadixSortByKeyParallel(Rec* a, std::size_t n, std::vector<Rec>& scratch,
                            KeyOf key_of, std::size_t parts) {
  if (scratch.size() < n) scratch.resize(n);
  Rec* src = a;
  Rec* dst = scratch.data();
  std::vector<std::array<std::uint32_t, 256>> cnt(parts);
  for (int p = 0; p < 8; ++p) {
    const int shift = 8 * p;
    par::ParallelFor(parts, 1, [&](std::size_t q0, std::size_t q1) {
      for (std::size_t q = q0; q < q1; ++q) {
        auto& c = cnt[q];
        c.fill(0);
        const par::Range r = par::PartRange(n, parts, q);
        for (std::size_t i = r.lo; i < r.hi; ++i) {
          ++c[(key_of(src[i]) >> shift) & 0xFF];
        }
      }
    });
    const std::uint32_t b0 =
        static_cast<std::uint32_t>((key_of(src[0]) >> shift) & 0xFF);
    std::uint64_t b0_total = 0;
    for (std::size_t q = 0; q < parts; ++q) b0_total += cnt[q][b0];
    if (b0_total == n) continue;  // constant byte: scatter would be identity
    std::uint32_t run = 0;
    for (int b = 0; b < 256; ++b) {
      for (std::size_t q = 0; q < parts; ++q) {
        const std::uint32_t c = cnt[q][b];
        cnt[q][b] = run;  // count -> this partition's scatter cursor
        run += c;
      }
    }
    par::ParallelFor(parts, 1, [&](std::size_t q0, std::size_t q1) {
      for (std::size_t q = q0; q < q1; ++q) {
        auto& pos = cnt[q];
        const par::Range r = par::PartRange(n, parts, q);
        for (std::size_t i = r.lo; i < r.hi; ++i) {
          dst[pos[(key_of(src[i]) >> shift) & 0xFF]++] = src[i];
        }
      }
    });
    std::swap(src, dst);
  }
  if (src != a) std::memcpy(a, src, n * sizeof(Rec));
}

/// LSD byte-radix over `a` by `key_of(a[i])`. Stable. One histogram pass
/// builds all eight tables; scatter passes whose byte is constant across
/// the whole load are skipped (a multiset property, so the first element of
/// the *original* order decides for every pass).
template <typename Rec, typename KeyOf>
void RadixSortByKey(Rec* a, std::size_t n, std::vector<Rec>& scratch,
                    KeyOf key_of) {
  if (n < 2) return;
  // Pool fan-out when the load is large enough and threads are configured;
  // the parallel path reproduces this function's output bit-for-bit (see
  // tests/test_parallel.cc, SortRunParallel.*).
  const std::size_t parts =
      par::PartsFor(n, par::Threads(), kParGrainRecords);
  if (parts > 1) {
    RadixSortByKeyParallel(a, n, scratch, key_of, parts);
    return;
  }
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
