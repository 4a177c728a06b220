// Sort policies: the paper's Lemma 1 subroutine is parameterized by which
// sort primitive it uses — the cache-aware algorithms plug in the multiway
// merge sort, the cache-oblivious recursion of §3 plugs in funnelsort.
// Passing the policy as a template parameter keeps the cache-oblivious code
// path free of any M/B-dependent choice.
//
// Both policies sit on the same layered engine: trait-driven key extraction
// (sort_key.h) feeds radix run formation (run_formation.h), and merging goes
// through the stable loser-tree winner rule (loser_tree.h) — so a comparator
// converted to the key protocol speeds up every algorithm through either
// policy at once. Signatures are unchanged; callers of Lemma 1 ride along
// for free.
#ifndef TRIENUM_EXTSORT_SORTER_H_
#define TRIENUM_EXTSORT_SORTER_H_

#include "extsort/ext_merge_sort.h"
#include "extsort/funnel_sort.h"

namespace trienum::extsort {

/// Cache-aware sort policy (uses M and B).
struct AwareSorter {
  template <typename T, typename Less>
  void operator()(em::QuerySession& ctx, em::Array<T> data, Less less) const {
    ExternalMergeSort(ctx, data, less);
  }
};

/// Cache-oblivious sort policy (funnelsort; never consults M or B).
struct ObliviousSorter {
  template <typename T, typename Less>
  void operator()(em::QuerySession& ctx, em::Array<T> data, Less less) const {
    FunnelSort(ctx, data, less);
  }
};

}  // namespace trienum::extsort

#endif  // TRIENUM_EXTSORT_SORTER_H_
