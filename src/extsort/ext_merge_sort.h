// Cache-aware external merge sort: run formation with M/2-word loads followed
// by (M/B)-way merge passes. This is the sort(n) = O((n/B) log_{M/B}(n/B))
// primitive the paper's cache-aware algorithms (Theorems 2 and 4) rely on.
//
// The host-compute layers are pluggable engine pieces: run formation goes
// through SortRun (radix on extracted keys when the comparator has them, see
// run_formation.h) and the multiway merge through a tournament loser tree
// (loser_tree.h). Both change host work only — the ReadTo/WriteFrom and
// Scanner/Writer charge sequence is the one the std::sort + priority-queue
// implementation issued, so IoStats are engine-independent (pinned by
// tests/test_sort_engine.cc against a reference implementation).
#ifndef TRIENUM_EXTSORT_EXT_MERGE_SORT_H_
#define TRIENUM_EXTSORT_EXT_MERGE_SORT_H_

#include <algorithm>
#include <bit>
#include <vector>

#include "em/array.h"
#include "extsort/io_bounds.h"
#include "extsort/loser_tree.h"
#include "extsort/run_formation.h"
#include "extsort/scan_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trienum::extsort {

/// \brief Sorts `data` in place with a cache-aware multiway external merge
/// sort. Stable (== std::stable_sort order under `less`).
///
/// Internal-memory usage: one run buffer of at most M/2 words during run
/// formation, and during merging one loser tree of fan-in
/// k = max(2, min(M/(2B), bit_floor(M/(words_per+2)))) entries; both are
/// accounted via scratch leases.
template <typename T, typename Less>
void ExternalMergeSort(em::QuerySession& ctx, em::Array<T> data, Less less) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  const std::size_t words_per = em::Array<T>::kWordsPer;

  auto region = ctx.Region();

  // --- Run formation -------------------------------------------------------
  // Run boundaries are host bookkeeping, O(n/run_items) words: metadata of
  // the same order as the number of runs, standard for EM sorting.
  const std::size_t run_items =
      std::max<std::size_t>(1, (ctx.memory_words() / 2) / words_per);
  em::Array<T> ping = ctx.Alloc<T>(n);
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  runs.reserve((n + run_items - 1) / run_items);
  // One sequential read + one sequential write of the whole input is the
  // textbook prediction for a formation or merge pass; the spans carry it
  // so tools/trace_summary.py can flag phases whose measured share drifts.
  const std::size_t pass_predicted_ios =
      2 * ((n * words_per + ctx.block_words() - 1) / ctx.block_words());
  {
    obs::Span span("sort.run_formation");
    span.AddArg("items", n);
    span.AddArg("predicted_ios", pass_predicted_ios);
    // 2x the run — together exactly M, the model's internal-memory budget —
    // covering the load buffer plus run formation's scratch down either
    // path: the radix's ping-pong copy of the records (keyed records of at
    // most 24 B) or std::stable_sort's internal temp buffer (keyless
    // comparators, and a prefix key's large tie runs).
    em::ScratchLease lease = ctx.LeaseScratch(2 * run_items * words_per);
    std::vector<T> buf(std::min(run_items, n));
    RunScratch<T> rs;
    for (std::size_t lo = 0; lo < n; lo += run_items) {
      std::size_t hi = std::min(n, lo + run_items);
      data.ReadTo(lo, hi, buf.data());
      SortRun(buf.data(), hi - lo, rs, less);
      ctx.AddWork((hi - lo) * 4);
      ping.WriteFrom(lo, hi, buf.data());
      runs.emplace_back(lo, hi);
    }
  }

  // M/(2B)-way merging, capped so the loser tree's padded scratch lease
  // (a power of two times words_per + 2 words, below) still fits in M. The
  // cap binds only at tiny M relative to B, where the uncapped lease would
  // overflow the budget; elsewhere the fan-in is exactly M/(2B).
  const std::size_t fan = std::max<std::size_t>(
      2, std::min(ctx.memory_words() / (2 * ctx.block_words()),
                  std::bit_floor(ctx.memory_words() / (words_per + 2))));

  em::Array<T> pong = runs.size() > 1 ? ctx.Alloc<T>(n) : em::Array<T>();
  em::Array<T> src = ping;
  // --- Merge passes ---------------------------------------------------------
  while (runs.size() > 1) {
    obs::Span span("sort.merge_pass");
    span.AddArg("runs_in", runs.size());
    span.AddArg("fan", fan);
    span.AddArg("predicted_ios", pass_predicted_ios);
    // Merge-pass wall latency: the loser-tree pass is the sort's dominant
    // real-I/O phase out of core, so its wall distribution is a seam metric
    // alongside the span.
    static obs::Histogram& merge_hist =
        obs::MetricsRegistry::Global().GetHistogram(
            obs::metric_names::kMergePassNs);
    obs::LatencyTimer pass_timer(merge_hist);
    std::vector<std::pair<std::size_t, std::size_t>> next_runs;
    em::Writer<T> out(pong);
    for (std::size_t g = 0; g < runs.size(); g += fan) {
      std::size_t g_end = std::min(runs.size(), g + fan);
      std::size_t out_lo = out.count();

      // The loser tree pads its sources to a power of two; lease the padded
      // size (value slot + tie flag + loser node per leaf fits words_per+2).
      std::size_t cap2 = 1;
      while (cap2 < g_end - g) cap2 <<= 1;
      em::ScratchLease lease = ctx.LeaseScratch(cap2 * (words_per + 2));
      std::vector<em::Scanner<T>> streams;
      streams.reserve(g_end - g);
      for (std::size_t r = g; r < g_end; ++r) {
        streams.emplace_back(src, runs[r].first, runs[r].second);
      }
      LoserTree<T, Less> tree(streams.size(), less);
      for (std::size_t s = 0; s < streams.size(); ++s) {
        if (streams[s].HasNext()) tree.SetInitial(s, streams[s].Next());
      }
      tree.Init();
      std::size_t merged = 0;
      while (tree.HasWinner()) {
        const std::size_t s = tree.WinnerSource();
        out.Push(tree.WinnerValue());
        ++merged;
        if (streams[s].HasNext()) {
          tree.ReplaceWinner(streams[s].Next());
        } else {
          tree.ExhaustWinner();
        }
      }
      ctx.AddWork(merged * 4);
      next_runs.emplace_back(out_lo, out.count());
    }
    out.Flush();  // pending records must land before the next pass reads them
    runs.swap(next_runs);
    std::swap(src, pong);
  }

  // Copy the final run back into `data` unless it is already there.
  if (src.base() != data.base()) Copy(src, data);
}

}  // namespace trienum::extsort

#endif  // TRIENUM_EXTSORT_EXT_MERGE_SORT_H_
