// The par subsystem's determinism contract, adversarially pinned.
//
// Four layers:
//   * pool unit tests — stable range splitting, grain edge cases, empty
//     ranges, ordered reduction, nested fan-out rejection, ScopedThreads;
//   * RunOrdered unit tests — commit order on the caller, the look-ahead
//     bound, and a throwing task or commit;
//   * SortRun differentials — the parallel radix (histogram + scatter per
//     stable partition), and the keyless std::stable_sort path for wide
//     records, against std::stable_sort at threads in {1, 2, 7};
//   * the full algorithm matrix — threads in {1, 2, 7} x both storage
//     backends, asserting byte-identical triangle output (same triangles IN
//     THE SAME ORDER), identical IoStats, and identical host work counters
//     against the threads=1 run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cache_aware.h"
#include "core/clique4.h"
#include "em/array.h"
#include "extsort/ext_merge_sort.h"
#include "par/par_config.h"
#include "par/partition.h"
#include "par/thread_pool.h"
#include "test_util.h"

namespace trienum {
namespace {

using par::ParallelFor;
using par::ParallelReduce;
using par::PartRange;
using par::PartsFor;
using par::Range;
using par::ScopedThreads;
using par::SplitRange;

// ---------------------------------------------------------------------------
// partition.h: stable splitting.

TEST(Partition, SplitRangeCoversContiguouslyWithBalancedSizes) {
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                        std::size_t{64}, std::size_t{1000}, std::size_t{1001}}) {
    for (std::size_t parts = 1; parts <= 9; ++parts) {
      std::vector<Range> rs = SplitRange(n, parts);
      ASSERT_EQ(rs.size(), parts);
      std::size_t expect_lo = 0;
      std::size_t min_sz = n, max_sz = 0;
      for (const Range& r : rs) {
        EXPECT_EQ(r.lo, expect_lo);
        expect_lo = r.hi;
        min_sz = std::min(min_sz, r.size());
        max_sz = std::max(max_sz, r.size());
      }
      EXPECT_EQ(expect_lo, n);
      EXPECT_LE(max_sz - min_sz, 1u) << "n=" << n << " parts=" << parts;
    }
  }
}

TEST(Partition, SplitRangeEmpty) {
  EXPECT_TRUE(SplitRange(0, 4).empty());
  EXPECT_TRUE(SplitRange(10, 0).empty());
}

TEST(Partition, PartsForGrainControl) {
  EXPECT_EQ(PartsFor(0, 8, 100), 0u);      // empty range: nothing to do
  EXPECT_EQ(PartsFor(1000, 1, 1), 1u);     // one thread: always serial
  EXPECT_EQ(PartsFor(99, 8, 100), 1u);     // under one grain: serial
  EXPECT_EQ(PartsFor(200, 8, 100), 2u);    // two grains: two parts
  EXPECT_EQ(PartsFor(100000, 4, 100), 4u); // capped by threads
  EXPECT_EQ(PartsFor(100, 8, 0), 8u);      // grain 0 treated as 1
}

// ---------------------------------------------------------------------------
// par_config.h.

TEST(ParConfig, DefaultIsSerialAndScopedRestores) {
  EXPECT_EQ(par::Threads(), 1u);
  {
    ScopedThreads scope(7);
    EXPECT_EQ(par::Threads(), 7u);
    {
      ScopedThreads inner(2);
      EXPECT_EQ(par::Threads(), 2u);
    }
    EXPECT_EQ(par::Threads(), 7u);
  }
  EXPECT_EQ(par::Threads(), 1u);
}

TEST(ParConfig, ZeroMeansHardwareConcurrencyAndHugeClamps) {
  ScopedThreads save(1);
  par::SetThreads(0);
  EXPECT_EQ(par::Threads(), par::HardwareThreads());
  EXPECT_GE(par::Threads(), 1u);
  par::SetThreads(std::size_t{1} << 40);
  EXPECT_EQ(par::Threads(), par::kMaxThreads);
}

// ---------------------------------------------------------------------------
// thread_pool.h: ParallelFor / ParallelReduce.

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads scope(threads);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    ParallelFor(n, 64, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, ParallelForEmptyRangeNeverInvokes) {
  ScopedThreads scope(4);
  bool called = false;
  ParallelFor(0, 1, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForGrainKeepsSmallRangesInline) {
  ScopedThreads scope(8);
  // 99 items under grain 100: must run as ONE inline invocation on the
  // calling thread (no pool interaction, no split).
  int calls = 0;
  std::thread::id caller = std::this_thread::get_id();
  ParallelFor(99, 100, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 99u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForSingleItem) {
  ScopedThreads scope(4);
  int sum = 0;
  ParallelFor(1, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += 1;
  });
  EXPECT_EQ(sum, 1);
}

TEST(ThreadPool, ParallelReduceIsOrderedAndDeterministic) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads scope(threads);
    const std::size_t n = 5000;
    // Concatenation is order-sensitive: any out-of-order combine or lost
    // partition shows up immediately.
    std::vector<std::uint32_t> cat = ParallelReduce(
        n, 16, std::vector<std::uint32_t>{},
        [](std::size_t lo, std::size_t hi) {
          std::vector<std::uint32_t> part;
          for (std::size_t i = lo; i < hi; ++i) {
            part.push_back(static_cast<std::uint32_t>(i));
          }
          return part;
        },
        [](std::vector<std::uint32_t> acc, std::vector<std::uint32_t> part) {
          acc.insert(acc.end(), part.begin(), part.end());
          return acc;
        });
    ASSERT_EQ(cat.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(cat[i], i) << "threads " << threads;
    }
  }
}

TEST(ThreadPool, ParallelReduceEmptyReturnsInit) {
  ScopedThreads scope(4);
  const int out = ParallelReduce(
      0, 1, 42, [](std::size_t, std::size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(out, 42);
}

TEST(ThreadPoolDeathTest, NestedFanOutIsRejected) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_DEATH(
      {
        par::SetThreads(4);
        ParallelFor(1000, 1, [&](std::size_t, std::size_t) {
          // A nested region that would fan out again must trip the check.
          ParallelFor(1000, 1, [](std::size_t, std::size_t) {});
        });
      },
      "nested ParallelFor");
}

TEST(ThreadPool, NestedSerialResolutionRunsInline) {
  // A nested call that resolves to a single partition (here: under one
  // grain) is allowed — that keeps grain-guarded helper loops composable.
  ScopedThreads scope(4);
  std::atomic<int> inner_calls{0};
  ParallelFor(8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      ParallelFor(3, 100, [&](std::size_t l2, std::size_t h2) {
        inner_calls.fetch_add(static_cast<int>(h2 - l2));
      });
    }
  });
  EXPECT_EQ(inner_calls.load(), 8 * 3);
}

// ---------------------------------------------------------------------------
// thread_pool.h: RunOrdered.

/// A task of uneven length (so workers finish out of order) with a result
/// that identifies it.
std::uint64_t UnevenWork(std::size_t i) {
  std::uint64_t h = i + 1;
  for (std::size_t k = 0; k < (i * 7919) % 4096; ++k) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return h;
}

TEST(OrderedRun, CommitsEveryTaskInOrderOnTheCaller) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    const std::size_t n = 300;
    const std::size_t window = par::OrderedWindow(threads);
    std::vector<std::pair<std::size_t, std::uint64_t>> slots(window);
    std::vector<std::size_t> order;
    const std::thread::id caller = std::this_thread::get_id();
    par::RunOrdered(
        n, threads,
        [&](std::size_t i, std::size_t s) { slots[s] = {i, UnevenWork(i)}; },
        [&](std::size_t i, std::size_t s) {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          EXPECT_EQ(s, i % window);
          EXPECT_EQ(slots[s].first, i) << "threads " << threads;
          EXPECT_EQ(slots[s].second, UnevenWork(i));
          order.push_back(i);
        });
    ASSERT_EQ(order.size(), n) << "threads " << threads;
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(order[i], i);
  }
}

TEST(OrderedRun, LookAheadStaysWithinTheWindow) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    const std::size_t window = par::OrderedWindow(threads);
    std::atomic<std::size_t> committed{0};
    std::vector<std::atomic<int>> in_use(window);
    for (auto& u : in_use) u.store(0);
    std::atomic<bool> too_far{false};
    std::atomic<bool> shared{false};
    par::RunOrdered(
        400, threads,
        [&](std::size_t i, std::size_t s) {
          // Task i may start only once task i - window has committed, and
          // never while another task holds its slot.
          if (i >= committed.load() + window) too_far = true;
          if (in_use[s].fetch_add(1) != 0) shared = true;
          (void)UnevenWork(i);
          in_use[s].fetch_sub(1);
        },
        [&](std::size_t i, std::size_t s) {
          if (in_use[s].load() != 0) shared = true;
          (void)UnevenWork(i);  // a slow committer lets workers run ahead
          committed.store(i + 1);
        });
    EXPECT_FALSE(too_far.load()) << "threads " << threads;
    EXPECT_FALSE(shared.load()) << "threads " << threads;
    EXPECT_EQ(committed.load(), 400u);
  }
}

TEST(OrderedRun, ThrowingTaskRethrowsAtItsCommitPointAfterTheDrain) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    std::atomic<int> in_flight{0};
    std::vector<std::size_t> committed;
    bool caught = false;
    try {
      par::RunOrdered(
          200, threads,
          [&](std::size_t i, std::size_t) {
            ++in_flight;
            (void)UnevenWork(i);
            --in_flight;
            // The shape of an over-budget ScratchLease.
            if (i == 37) throw Status::InvalidArgument("task 37 over budget");
          },
          [&](std::size_t i, std::size_t) { committed.push_back(i); });
    } catch (const Status& st) {
      caught = true;
      EXPECT_EQ(in_flight.load(), 0) << "threads " << threads;
      EXPECT_EQ(st.message(), "task 37 over budget");
    }
    ASSERT_TRUE(caught) << "threads " << threads;
    ASSERT_EQ(committed.size(), 37u) << "threads " << threads;
    for (std::size_t i = 0; i < committed.size(); ++i) {
      EXPECT_EQ(committed[i], i);
    }
  }
}

TEST(OrderedRun, ThrowingCommitStopsTheRunAndThePoolStaysUsable) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    std::atomic<int> in_flight{0};
    std::atomic<std::size_t> computed{0};
    bool caught = false;
    try {
      par::RunOrdered(
          500, threads,
          [&](std::size_t i, std::size_t) {
            ++in_flight;
            (void)UnevenWork(i);
            ++computed;
            --in_flight;
          },
          [&](std::size_t i, std::size_t) {
            if (i == 50) throw std::runtime_error("commit 50");
          });
    } catch (const std::runtime_error& e) {
      caught = true;
      EXPECT_EQ(in_flight.load(), 0);
      EXPECT_STREQ(e.what(), "commit 50");
    }
    ASSERT_TRUE(caught) << "threads " << threads;
    // No task started past the failed commit's window.
    EXPECT_LE(computed.load(), 51 + par::OrderedWindow(threads));
    std::size_t after = 0;
    par::RunOrdered(
        10, threads, [](std::size_t, std::size_t) {},
        [&](std::size_t, std::size_t) { ++after; });
    EXPECT_EQ(after, 10u);
  }
}

// ---------------------------------------------------------------------------
// SortRun: the parallel radix must be bit-identical to std::stable_sort.

struct StableRec {
  std::uint32_t k = 0;
  std::uint32_t tag = 0;  // makes stability observable
  friend bool operator==(const StableRec& a, const StableRec& b) {
    return a.k == b.k && a.tag == b.tag;
  }
};
struct StableRecLess {
  static constexpr bool kKeyComplete = true;
  static std::uint64_t Key(const StableRec& r) { return r.k; }
  bool operator()(const StableRec& a, const StableRec& b) const {
    return a.k < b.k;
  }
};

/// 32-byte record under a keyless comparator: too wide for the radix, so
/// SortRun takes std::stable_sort at every thread count.
struct Wide32 {
  std::uint64_t key = 0;
  std::uint64_t x = 0, y = 0, z = 0;
  friend bool operator==(const Wide32& a, const Wide32& b) {
    return a.key == b.key && a.x == b.x && a.y == b.y && a.z == b.z;
  }
};
struct Wide32Less {
  bool operator()(const Wide32& a, const Wide32& b) const {
    return a.key < b.key;
  }
};

template <typename T, typename Less, typename Gen>
void CheckSortRunAcrossThreads(std::size_t n, Less less, Gen gen) {
  std::vector<T> input(n);
  for (std::size_t i = 0; i < n; ++i) input[i] = gen(i);
  std::vector<T> expect = input;
  std::stable_sort(expect.begin(), expect.end(), less);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads scope(threads);
    std::vector<T> got = input;
    extsort::SortRun(got.data(), got.size(), less);
    ASSERT_EQ(got, expect) << "n=" << n << " threads=" << threads;
  }
}

TEST(SortRunParallel, DirectScatterPathMatchesStableSort) {
  SplitMix64 rng(0x9A17);
  // Duplicate-heavy keys with tags: exercises stability through the
  // per-partition scatter cursors.
  CheckSortRunAcrossThreads<StableRec>(
      std::size_t{1} << 16, StableRecLess{}, [&](std::size_t i) {
        return StableRec{static_cast<std::uint32_t>(rng.Next() % 97),
                         static_cast<std::uint32_t>(i)};
      });
}

TEST(SortRunParallel, WideKeylessRecordsMatchStableSort) {
  SplitMix64 rng(0x51DE);
  CheckSortRunAcrossThreads<Wide32>(
      (std::size_t{1} << 15) + 1237, Wide32Less{}, [&](std::size_t i) {
        return Wide32{rng.Next() % 513, i, i * 3, ~i};
      });
}

TEST(SortRunParallel, PresortedReversedAllEqualPatterns) {
  const std::size_t n = std::size_t{1} << 15;
  CheckSortRunAcrossThreads<StableRec>(
      n, StableRecLess{}, [&](std::size_t i) {
        return StableRec{static_cast<std::uint32_t>(i), 0};  // presorted
      });
  CheckSortRunAcrossThreads<StableRec>(
      n, StableRecLess{}, [&](std::size_t i) {
        return StableRec{static_cast<std::uint32_t>(n - i), 0};  // reversed
      });
  CheckSortRunAcrossThreads<StableRec>(
      n, StableRecLess{}, [&](std::size_t i) {
        return StableRec{7, static_cast<std::uint32_t>(i)};  // all equal
      });
}

TEST(SortRunParallel, BelowGrainLoadsStaySerialAndCorrect) {
  // Small loads never fan out (PartsFor returns 1) but must still sort.
  SplitMix64 rng(0x77);
  CheckSortRunAcrossThreads<StableRec>(
      500, StableRecLess{}, [&](std::size_t i) {
        return StableRec{static_cast<std::uint32_t>(rng.Next() % 17),
                         static_cast<std::uint32_t>(i)};
      });
}

// ---------------------------------------------------------------------------
// The algorithm matrix: threads x backend, byte-identical runs.

struct MatrixRun {
  std::vector<graph::Triangle> triangles;  // in EMISSION order
  em::IoStats io;
  std::uint64_t work = 0;
};

MatrixRun RunMatrixCase(const std::string& algo,
                        const std::vector<graph::Edge>& raw,
                        std::size_t threads, em::StorageKind storage) {
  ScopedThreads tscope(threads);
  em::Context ctx = test::MakeContext(1 << 11, 32, 0x7001, storage);
  graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  ctx.ResetWork();
  core::CollectingSink sink;
  const core::AlgorithmInfo* info = core::FindAlgorithm(algo);
  EXPECT_NE(info, nullptr) << algo;
  info->run(ctx, g, sink);
  ctx.cache().FlushAll();
  MatrixRun out;
  out.triangles = sink.triangles();
  out.io = ctx.cache().stats();
  out.work = ctx.work();
  return out;
}

TEST(ParallelInvariance, FullAlgorithmMatrixIsThreadCountInvariant) {
  // Every registered engine the parallel kernels feed into, over both
  // backends: threads in {2, 7} must reproduce the threads=1 run
  // byte-for-byte — same triangles in the same order, same
  // IoStats (reads, writes AND hits), same host work counter.
  const std::vector<graph::Edge> raw =
      graph::Rmat(9, 1200, 0.45, 0.22, 0.22, 31);
  const char* algos[] = {"mgt", "ps-cache-aware", "ps-cache-oblivious",
                         "ps-deterministic", "dementiev"};
  const em::StorageKind backends[] = {em::StorageKind::kMemory,
                                      em::StorageKind::kFile};
  for (const char* algo : algos) {
    for (em::StorageKind storage : backends) {
      const MatrixRun base = RunMatrixCase(algo, raw, 1, storage);
      ASSERT_FALSE(base.triangles.empty()) << algo;
      for (std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
        const MatrixRun got = RunMatrixCase(algo, raw, threads, storage);
        const std::string label =
            std::string(algo) + " threads=" + std::to_string(threads) +
            (storage == em::StorageKind::kFile ? " file" : " memory");
        ASSERT_EQ(got.triangles, base.triangles) << label;
        EXPECT_EQ(got.io.block_reads, base.io.block_reads) << label;
        EXPECT_EQ(got.io.block_writes, base.io.block_writes) << label;
        EXPECT_EQ(got.io.cache_hits, base.io.cache_hits) << label;
        EXPECT_EQ(got.work, base.work) << label;
      }
    }
  }
}

TEST(ParallelInvariance, HighThreadCountOnDenseGraph) {
  // A dense core gives every Lemma 2 chunk task large Gamma_v groups; run
  // it at a thread count far above the core count.
  const std::vector<graph::Edge> raw = graph::Clique(40);
  const MatrixRun base = RunMatrixCase("mgt", raw, 1, em::StorageKind::kMemory);
  const MatrixRun got = RunMatrixCase("mgt", raw, 16, em::StorageKind::kMemory);
  ASSERT_EQ(base.triangles.size(), 40u * 39u * 38u / 6u);
  EXPECT_EQ(got.triangles, base.triangles);
  EXPECT_EQ(got.io.block_reads, base.io.block_reads);
  EXPECT_EQ(got.io.block_writes, base.io.block_writes);
  EXPECT_EQ(got.io.cache_hits, base.io.cache_hits);
  EXPECT_EQ(got.work, base.work);
}

TEST(ParallelInvariance, Clique4EnumerationIsThreadCountInvariant) {
  // The 4-clique engine's refine loop also batches PairBits over the pool.
  const std::vector<graph::Edge> raw = graph::CliqueUnion(4, 9);
  auto run = [&](std::size_t threads) {
    ScopedThreads scope(threads);
    em::Context ctx = test::MakeContext(1 << 11, 32);
    graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
    ctx.cache().Reset();
    core::CollectingCliqueSink sink;
    core::EnumerateFourCliques(ctx, g, sink);
    ctx.cache().FlushAll();
    return std::make_pair(sink.cliques(), ctx.cache().stats());
  };
  const auto [base_quads, base_io] = run(1);
  EXPECT_FALSE(base_quads.empty());
  for (std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    const auto [quads, io] = run(threads);
    EXPECT_EQ(quads, base_quads) << "threads " << threads;
    EXPECT_EQ(io.block_reads, base_io.block_reads) << "threads " << threads;
    EXPECT_EQ(io.block_writes, base_io.block_writes) << "threads " << threads;
    EXPECT_EQ(io.cache_hits, base_io.cache_hits) << "threads " << threads;
  }
}

TEST(ParallelInvariance, EngineSortFanOutKeepsOutputAndIoStatsIdentical) {
  // Operating point chosen so run formation actually fans out: M = 2^16
  // words gives 32768-record loads, 4x the parallel radix grain. The full
  // external sort at threads=7 must reproduce the threads=1 array AND the
  // threads=1 charge sequence.
  const std::size_t n = std::size_t{1} << 17;
  auto run = [&](std::size_t threads) {
    ScopedThreads scope(threads);
    em::Context ctx = test::MakeContext(1 << 16, 64, 0xE5);
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
    ctx.cache().set_counting(false);
    SplitMix64 rng(0xFEED);
    for (std::size_t i = 0; i < n; ++i) a.Set(i, rng.Next() % 5000);
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    extsort::ExternalMergeSort(ctx, a, std::less<std::uint64_t>{});
    ctx.cache().FlushAll();
    std::vector<std::uint64_t> out(n);
    a.ReadTo(0, n, out.data());
    return std::make_pair(out, ctx.cache().stats());
  };
  const auto [base, base_io] = run(1);
  ASSERT_TRUE(std::is_sorted(base.begin(), base.end()));
  const auto [got, got_io] = run(7);
  ASSERT_EQ(got, base);
  EXPECT_EQ(got_io.block_reads, base_io.block_reads);
  EXPECT_EQ(got_io.block_writes, base_io.block_writes);
  EXPECT_EQ(got_io.cache_hits, base_io.cache_hits);
  // Fan-out genuinely engaged: the pool had to spawn workers.
  EXPECT_GT(par::ThreadPool::Global().spawned_workers(), 0u);
}

TEST(ParallelInvariance, CacheAwareChunksAcrossManyColorTriples) {
  // The matrix graph yields a single color triple. Forcing c = 4 gives 64
  // triples, and alpha = 1/64 cuts every pivot bucket into several 64-edge
  // chunks, so the ordered run commits across triples and across chunks of
  // one triple — with each triple's charged bucket-bound reads in between.
  const std::vector<graph::Edge> raw =
      graph::Rmat(11, 12000, 0.45, 0.22, 0.22, 97);
  auto run = [&](std::size_t threads) {
    ScopedThreads scope(threads);
    em::Context ctx = test::MakeContext(1 << 12, 32, 0xCA4);
    graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
    ctx.cache().Reset();
    ctx.ResetWork();
    core::CollectingSink sink;
    core::CacheAwareOptions opts;
    opts.force_colors = 4;
    opts.chunk_fraction = 1.0 / 64;
    core::EnumerateCacheAware(ctx, g, sink, opts);
    ctx.cache().FlushAll();
    MatrixRun out;
    out.triangles = sink.triangles();
    out.io = ctx.cache().stats();
    out.work = ctx.work();
    return out;
  };
  const MatrixRun base = run(1);
  ASSERT_FALSE(base.triangles.empty());
  for (std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    const MatrixRun got = run(threads);
    ASSERT_EQ(got.triangles, base.triangles) << "threads " << threads;
    const std::string label = "threads " + std::to_string(threads);
    EXPECT_EQ(got.io.block_reads, base.io.block_reads) << label;
    EXPECT_EQ(got.io.block_writes, base.io.block_writes) << label;
    EXPECT_EQ(got.io.cache_hits, base.io.cache_hits) << label;
    EXPECT_EQ(got.work, base.work) << label;
  }
}

TEST(ParallelInvariance, Lemma2EmitLoopFanOutOnDenseCore) {
  // K_150 under M = 2^15: resident pivot chunks of 4096 edges with dense
  // groups, so each chunk task emits many triangles; the ordered run must
  // flush them in byte-identical emission order.
  const std::vector<graph::Edge> raw = graph::Clique(150);
  auto run = [&](std::size_t threads) {
    ScopedThreads scope(threads);
    em::Context ctx = test::MakeContext(1 << 15, 64, 0x150);
    graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
    ctx.cache().Reset();
    ctx.ResetWork();
    core::CollectingSink sink;
    core::FindAlgorithm("mgt")->run(ctx, g, sink);
    ctx.cache().FlushAll();
    MatrixRun out;
    out.triangles = sink.triangles();
    out.io = ctx.cache().stats();
    out.work = ctx.work();
    return out;
  };
  const MatrixRun base = run(1);
  ASSERT_EQ(base.triangles.size(), 150u * 149u * 148u / 6u);
  const MatrixRun got = run(7);
  ASSERT_EQ(got.triangles, base.triangles);
  EXPECT_EQ(got.io.block_reads, base.io.block_reads);
  EXPECT_EQ(got.io.block_writes, base.io.block_writes);
  EXPECT_EQ(got.io.cache_hits, base.io.cache_hits);
  EXPECT_EQ(got.work, base.work);
}

TEST(OrderedRun, FailedLemma2RunUnwindsAndTheContextStaysUsable) {
  // A commit-time failure inside the real engine: the sink throws on the
  // 500th emission while later chunks are still in flight. The Status must
  // reach the caller (where RunQuery catches it) with every lease released,
  // and a rerun on the same context must match a clean threads=1 run.
  const std::vector<graph::Edge> raw = graph::Clique(60);
  auto clean_run = [&](em::Context& ctx, const graph::EmGraph& g) {
    ctx.cache().Reset();
    ctx.ResetWork();
    core::CollectingSink sink;
    core::FindAlgorithm("mgt")->run(ctx, g, sink);
    ctx.cache().FlushAll();
    MatrixRun out;
    out.triangles = sink.triangles();
    out.io = ctx.cache().stats();
    out.work = ctx.work();
    return out;
  };
  em::Context serial_ctx = test::MakeContext(1 << 12, 32);
  const graph::EmGraph serial_g = graph::BuildEmGraph(serial_ctx, raw);
  const MatrixRun serial = clean_run(serial_ctx, serial_g);
  ASSERT_EQ(serial.triangles.size(), 60u * 59u * 58u / 6u);

  ScopedThreads scope(4);
  em::Context ctx = test::MakeContext(1 << 12, 32);
  const graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
  std::size_t emitted = 0;
  core::CallbackSink failing(
      [&](graph::VertexId, graph::VertexId, graph::VertexId) {
        if (++emitted == 500) throw Status::InvalidArgument("sink failed");
      });
  ctx.cache().Reset();
  EXPECT_THROW(core::FindAlgorithm("mgt")->run(ctx, g, failing), Status);
  EXPECT_EQ(ctx.scratch_in_use(), 0u);
  ctx.cache().Discard();
  const MatrixRun rerun = clean_run(ctx, g);
  EXPECT_EQ(rerun.triangles, serial.triangles);
  EXPECT_EQ(rerun.io.block_reads, serial.io.block_reads);
  EXPECT_EQ(rerun.io.block_writes, serial.io.block_writes);
  EXPECT_EQ(rerun.io.cache_hits, serial.io.cache_hits);
  EXPECT_EQ(rerun.work, serial.work);
}

TEST(ParallelInvariance, PinnedIoRegressionsUnchangedUnderThreads) {
  // The repo's pinned end-to-end I/O numbers (test_io_bounds.cc) must not
  // move when the pool is active: re-measure one of them at threads=7.
  const std::vector<graph::Edge> raw =
      graph::Rmat(10, 8192, 0.45, 0.22, 0.22, 2014);
  const MatrixRun serial =
      RunMatrixCase("ps-cache-aware", raw, 1, em::StorageKind::kMemory);
  const MatrixRun par7 =
      RunMatrixCase("ps-cache-aware", raw, 7, em::StorageKind::kMemory);
  EXPECT_EQ(par7.io.block_reads, serial.io.block_reads);
  EXPECT_EQ(par7.io.block_writes, serial.io.block_writes);
  EXPECT_EQ(par7.triangles, serial.triangles);
}

}  // namespace
}  // namespace trienum
