// The par subsystem's determinism contract, adversarially pinned.
//
// Five layers:
//   * pool unit tests — ThreadPool::Run's part coverage, its one region
//     shape (part 0 on the caller, the rest claimed by workers in index
//     order), its width, its thread cap, its lazy worker spawn and its
//     nested fan-out rejection;
//   * RunOrdered unit tests — commit order on the caller, its width, the
//     look-ahead bound, and a throwing task or commit;
//   * the session's thread count — per context, resolved by RunQuery;
//   * the full algorithm matrix — threads in {1, 2, 7} x both storage
//     backends, asserting byte-identical triangle output (same triangles IN
//     THE SAME ORDER), identical IoStats, and identical host work counters
//     against the threads=1 run;
//   * sorts, which run serially at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cache_aware.h"
#include "core/pivot_enum.h"
#include "em/array.h"
#include "extsort/ext_merge_sort.h"
#include "obs/trace.h"
#include "par/par_config.h"
#include "par/thread_pool.h"
#include "query/query.h"
#include "test_util.h"

namespace trienum {
namespace {

using par::ThreadPool;

// ---------------------------------------------------------------------------
// thread_pool.h: ThreadPool::Run.

TEST(ThreadPool, RunVisitsEveryPartExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    const std::size_t parts = 10000;
    std::vector<std::atomic<int>> hits(parts);
    for (auto& h : hits) h.store(0);
    ThreadPool::Global().Run(parts, threads,
                             [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < parts; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "part " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, RunAtOneThreadRunsEveryPartOnTheCallerInOrder) {
  // Grow the pool first: its idle workers must still stay out of a
  // one-thread region.
  ThreadPool::Global().Run(8, 8, [](std::size_t) {});
  std::vector<std::size_t> order;
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool::Global().Run(99, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 99u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, RunOfOnePartRunsOnTheCaller) {
  int calls = 0;
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool::Global().Run(1, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PartZeroRunsOnTheCallerWhileWorkersTakeTheRestInOrder) {
  // RunOrdered's commit loop is part 0: it charges the session's cache, so
  // it must run on the caller while workers compute the other parts. Part 0
  // here waits for every other part, so a region that handed it to a worker
  // and left the rest to the caller would show it. At two threads the one
  // worker runs parts 1, 2, ... alone, in the order it claims them.
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    for (int rep = 0; rep < 50; ++rep) {
      const std::size_t parts = 64;
      std::atomic<std::size_t> done{0};
      std::mutex mu;
      std::vector<std::size_t> order;
      std::thread::id zero;
      ThreadPool::Global().Run(parts, threads, [&](std::size_t i) {
        if (i == 0) {
          zero = std::this_thread::get_id();
          while (done.load() < parts - 1) std::this_thread::yield();
          return;
        }
        {
          std::lock_guard<std::mutex> lk(mu);
          order.push_back(i);
        }
        done.fetch_add(1);
      });
      ASSERT_EQ(zero, caller) << "threads " << threads << " rep " << rep;
      ASSERT_EQ(order.size(), parts - 1);
      if (threads == 2) {
        for (std::size_t k = 0; k < order.size(); ++k) {
          ASSERT_EQ(order[k], k + 1) << "rep " << rep;
        }
      }
    }
  }
}

TEST(ThreadPool, RunNeverUsesMoreThreadsThanAsked) {
  // A region at 7 threads leaves 6 workers behind; a later region at 2
  // (another session's count) must run on the caller plus one of them.
  ThreadPool::Global().Run(64, 7, [](std::size_t) {});
  ASSERT_GE(ThreadPool::Global().spawned_workers(), 6u);
  std::mutex mu;
  std::set<std::thread::id> seen;
  ThreadPool::Global().Run(256, 2, [&](std::size_t) {
    // Long enough parts that every awake worker would get some.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    std::lock_guard<std::mutex> lk(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_LE(seen.size(), 2u);
}

TEST(ThreadPool, RunReturnsTheRegionWidth) {
  // The caller plus the helpers allowed to claim a part: min(threads,
  // parts), and 1 at zero threads, which run serially like one. A region
  // of width 1 runs every part on the caller.
  struct Case {
    std::size_t parts, threads, width;
  };
  const std::thread::id caller = std::this_thread::get_id();
  for (const Case& c : {Case{1, 4, 1}, Case{3, 8, 3}, Case{64, 2, 2},
                        Case{64, 7, 7}, Case{10, 1, 1}, Case{10, 0, 1}}) {
    std::atomic<std::size_t> calls{0};
    std::atomic<std::size_t> off_caller{0};
    const std::size_t width =
        ThreadPool::Global().Run(c.parts, c.threads, [&](std::size_t) {
          calls.fetch_add(1);
          if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
        });
    const std::string label = "parts " + std::to_string(c.parts) +
                              " threads " + std::to_string(c.threads);
    EXPECT_EQ(width, c.width) << label;
    EXPECT_EQ(calls.load(), c.parts) << label;
    if (c.width == 1) {
      EXPECT_EQ(off_caller.load(), 0u) << label;
    }
  }
}

TEST(ThreadPool, CallerClaimsWhatTheWorkersLeaveOncePartZeroReturns) {
  // Three parts at two threads: part 0 returns at once and part 1 waits for
  // part 2. Whichever of the caller and the one worker claims part 1, the
  // other runs part 2, so the caller runs part 0 first and then exactly one
  // more part.
  const std::thread::id caller = std::this_thread::get_id();
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<bool> two_done{false};
    std::mutex mu;
    std::vector<std::size_t> on_caller;
    ThreadPool::Global().Run(3, 2, [&](std::size_t i) {
      if (std::this_thread::get_id() == caller) {
        std::lock_guard<std::mutex> lk(mu);
        on_caller.push_back(i);
      }
      if (i == 1) {
        while (!two_done.load()) std::this_thread::yield();
      }
      if (i == 2) two_done.store(true);
    });
    ASSERT_EQ(on_caller.size(), 2u) << "rep " << rep;
    EXPECT_EQ(on_caller[0], 0u) << "rep " << rep;
    EXPECT_NE(on_caller[1], 0u) << "rep " << rep;
  }
}

TEST(ThreadPool, WorkersSpawnLazilyUpToTheRegionsHelpers) {
  // A one-thread region spawns no worker, and a wider one spawns only the
  // helpers it can use: at most parts - 1, however many threads it may
  // take. Workers are never given back.
  ThreadPool& pool = ThreadPool::Global();
  const std::size_t before = pool.spawned_workers();
  pool.Run(100, 1, [](std::size_t) {});
  EXPECT_EQ(pool.spawned_workers(), before);
  pool.Run(3, 8, [](std::size_t) {});
  EXPECT_EQ(pool.spawned_workers(), std::max<std::size_t>(before, 2));
  pool.Run(1, 8, [](std::size_t) {});
  EXPECT_EQ(pool.spawned_workers(), std::max<std::size_t>(before, 2));
  pool.Run(64, 5, [](std::size_t) {});
  EXPECT_EQ(pool.spawned_workers(), std::max<std::size_t>(before, 4));
  pool.Run(64, 2, [](std::size_t) {});
  EXPECT_EQ(pool.spawned_workers(), std::max<std::size_t>(before, 4));
}

TEST(ThreadPool, RegionsOfChangingWidthEachVisitEveryPartOnce) {
  // Back-to-back regions alternate between wide and narrow. Workers that a
  // wide region woke must not claim parts of a narrower one or of the next
  // region, so every part runs once, on at most the region's width of
  // threads.
  struct Region {
    std::size_t parts, threads;
  };
  for (int round = 0; round < 20; ++round) {
    for (const Region& r : {Region{1000, 7}, Region{5, 2}, Region{1, 7},
                            Region{300, 1}, Region{64, 3}, Region{2, 7}}) {
      std::vector<std::atomic<int>> hits(r.parts);
      for (auto& h : hits) h.store(0);
      std::mutex mu;
      std::set<std::thread::id> seen;
      const std::size_t width =
          ThreadPool::Global().Run(r.parts, r.threads, [&](std::size_t i) {
            hits[i].fetch_add(1);
            std::lock_guard<std::mutex> lk(mu);
            seen.insert(std::this_thread::get_id());
          });
      const std::string label = "round " + std::to_string(round) +
                                " parts " + std::to_string(r.parts) +
                                " threads " + std::to_string(r.threads);
      ASSERT_LE(seen.size(), width) << label;
      for (std::size_t i = 0; i < r.parts; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << label << " part " << i;
      }
    }
  }
}

TEST(ThreadPoolDeathTest, NestedFanOutIsRejected) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_DEATH(
      {
        ThreadPool::Global().Run(4, 4, [](std::size_t) {
          // A part that fans out again must trip the check.
          ThreadPool::Global().Run(2, 2, [](std::size_t) {});
        });
      },
      "nested fan-out");
}

TEST(ThreadPool, NestedSerialRunOrderedRunsInline) {
  // RunOrdered at one thread never enters the pool, so a part may use it:
  // that is how a Lemma 2 worker's one-thread session stays composable.
  std::atomic<int> inner_commits{0};
  ThreadPool::Global().Run(8, 4, [&](std::size_t) {
    par::RunOrdered(
        3, 1, [](std::size_t, std::size_t) {},
        [&](std::size_t, std::size_t) { inner_commits.fetch_add(1); });
  });
  EXPECT_EQ(inner_commits.load(), 8 * 3);
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

TEST(OrderedRun, ReturnsTheWidthItRanAt) {
  // A query's threads_used is this value. An inline run (one thread or
  // fewer, or no task) reports 1; a run that fans out reports its region's
  // width: the caller's commit loop plus at most one worker per task.
  struct Case {
    std::size_t n, threads, width;
  };
  for (const Case& c : {Case{0, 4, 1}, Case{50, 1, 1}, Case{50, 0, 1},
                        Case{1, 4, 2}, Case{2, 7, 3}, Case{50, 4, 4}}) {
    std::atomic<std::size_t> computes{0};
    std::size_t commits = 0;
    const std::size_t width = par::RunOrdered(
        c.n, c.threads,
        [&](std::size_t, std::size_t) { computes.fetch_add(1); },
        [&](std::size_t, std::size_t) { ++commits; });
    const std::string label =
        "n " + std::to_string(c.n) + " threads " + std::to_string(c.threads);
    EXPECT_EQ(width, c.width) << label;
    EXPECT_EQ(computes.load(), c.n) << label;
    EXPECT_EQ(commits, c.n) << label;
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
// The session's thread count.

/// Pool parts that ran on a worker while `run` executed: each one records a
/// par.task span under an installed collector (the caller's own parts do
/// not).
std::size_t WorkerTasks(const std::function<void()>& run) {
  obs::TraceCollector tc;
  obs::ScopedTraceCollector install(tc);
  run();
  std::size_t n = 0;
  for (const obs::TraceEvent& ev : tc.events_since(0)) {
    if (std::string(ev.name) == "par.task") ++n;
  }
  return n;
}

TEST(SessionThreads, TwoContextsKeepTheirOwnThreadCounts) {
  const std::vector<graph::Edge> raw = graph::Clique(40);
  em::Context wide = test::MakeContext(1 << 12, 32);
  em::Context narrow = test::MakeContext(1 << 12, 32);
  wide.set_threads(4);
  EXPECT_EQ(wide.threads(), 4u);
  EXPECT_EQ(narrow.threads(), 1u);  // the default
  EXPECT_TRUE(core::PivotChunksRunOrdered(wide));
  EXPECT_FALSE(core::PivotChunksRunOrdered(narrow));
  const graph::EmGraph wg = graph::BuildEmGraph(wide, raw);
  const graph::EmGraph ng = graph::BuildEmGraph(narrow, raw);
  auto run = [](em::Context& ctx, const graph::EmGraph& g) {
    ctx.cache().Reset();
    core::CollectingSink sink;
    core::FindAlgorithm("mgt")->run(ctx, g, sink);
    ctx.cache().FlushAll();
    return std::make_pair(sink.triangles(), ctx.cache().stats());
  };
  std::pair<std::vector<graph::Triangle>, em::IoStats> w, n;
  // Lemma 2 chunks go to pool workers for the wide context only, even
  // when the two run back to back in one process.
  EXPECT_GT(WorkerTasks([&] { w = run(wide, wg); }), 0u);
  EXPECT_EQ(WorkerTasks([&] { n = run(narrow, ng); }), 0u);
  EXPECT_EQ(wide.threads(), 4u);
  EXPECT_EQ(narrow.threads(), 1u);
  ASSERT_EQ(w.first.size(), 40u * 39u * 38u / 6u);
  EXPECT_EQ(w.first, n.first);
  EXPECT_EQ(w.second.block_reads, n.second.block_reads);
  EXPECT_EQ(w.second.block_writes, n.second.block_writes);
  EXPECT_EQ(w.second.cache_hits, n.second.cache_hits);
}

/// A loaded file-backed graph: its staged store keeps Lemma 2 serial at any
/// thread count, so a query there never fans out.
Result<query::LoadedGraph> LoadFileGraph() {
  em::EmConfig cfg;
  cfg.memory_words = 1 << 11;
  cfg.block_words = 32;
  cfg.storage = em::StorageKind::kFile;
  return query::LoadedGraph::FromEdges(
      cfg, graph::Rmat(9, 1200, 0.45, 0.22, 0.22, 31));
}

TEST(SessionThreads, RunQueryResolvesZeroToTheHardwareConcurrency) {
  auto lg = LoadFileGraph();
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();
  query::Query q;
  q.algo = "mgt";
  q.threads = 0;
  auto r = lg->Run(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(lg->session().threads(), par::HardwareThreads());
  EXPECT_GE(lg->session().threads(), 1u);
}

TEST(SessionThreads, RunQueryClampsAtMaxThreads) {
  auto lg = LoadFileGraph();
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();
  query::Query q;
  q.algo = "mgt";
  auto serial = lg->Run(q);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  q.threads = std::size_t{1} << 40;
  Result<query::QueryResult> huge = Status::Internal("not run");
  EXPECT_EQ(WorkerTasks([&] { huge = lg->Run(q); }), 0u);
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_EQ(lg->session().threads(), par::kMaxThreads);
  EXPECT_EQ(huge->triangles, serial->triangles);
  EXPECT_EQ(huge->io.block_reads, serial->io.block_reads);
  EXPECT_EQ(huge->io.block_writes, serial->io.block_writes);
}

TEST(SessionThreads, EachQuerySetsTheSessionThreadCount) {
  // The count lives on the session, so a query must set it rather than
  // inherit the previous query's.
  em::EmConfig cfg;
  cfg.memory_words = 1 << 12;
  cfg.block_words = 32;
  auto lg = query::LoadedGraph::FromEdges(cfg, graph::Clique(40));
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();
  query::Query q;
  q.kind = query::QueryKind::kEnumerate;
  q.algo = "mgt";
  q.threads = 4;
  Result<query::QueryResult> wide = Status::Internal("not run");
  Result<query::QueryResult> narrow = Status::Internal("not run");
  EXPECT_GT(WorkerTasks([&] { wide = lg->Run(q); }), 0u);
  EXPECT_EQ(lg->session().threads(), 4u);
  q.threads = 1;
  EXPECT_EQ(WorkerTasks([&] { narrow = lg->Run(q); }), 0u);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  EXPECT_GT(wide->threads_used, 1u);
  EXPECT_EQ(narrow->threads_used, 1u);
  EXPECT_EQ(lg->session().threads(), 1u);
  EXPECT_EQ(narrow->list, wide->list);
  EXPECT_EQ(narrow->io.block_reads, wide->io.block_reads);
  EXPECT_EQ(narrow->io.block_writes, wide->io.block_writes);
  EXPECT_EQ(narrow->io.cache_hits, wide->io.cache_hits);
}

// threads_used reports the threads that ran, not the ones asked for.

TEST(SessionThreads, StagedStoreReportsOneThread) {
  // A staged store keeps Lemma 2's serial loop: nothing fans out.
  auto lg = LoadFileGraph();
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();
  query::Query q;
  q.algo = "mgt";
  q.threads = 4;
  Result<query::QueryResult> r = Status::Internal("not run");
  EXPECT_EQ(WorkerTasks([&] { r = lg->Run(q); }), 0u);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(lg->session().threads(), 4u);
  EXPECT_EQ(r->threads_used, 1u);
}

TEST(SessionThreads, ObliviousQueryRunsOnOneThread) {
  // §3 has no parallel phase, even on the memory backend.
  em::EmConfig cfg;
  cfg.memory_words = 1 << 12;
  cfg.block_words = 32;
  auto lg = query::LoadedGraph::FromEdges(
      cfg, graph::Rmat(9, 1200, 0.45, 0.22, 0.22, 31));
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();
  query::Query q;
  q.algo = "ps-cache-oblivious";
  q.threads = 4;
  Result<query::QueryResult> r = Status::Internal("not run");
  EXPECT_EQ(WorkerTasks([&] { r = lg->Run(q); }), 0u);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->threads_used, 1u);
}

TEST(SessionThreads, MemoryMgtReportsTheThreadsThatRan) {
  // rmat10 at M = 4096 gives mgt 16 chunks, so a 4-thread ordered run
  // fans out to all 4. The next query's cold start resets the tally: a §3
  // query at 4 threads after it reports 1.
  em::EmConfig cfg;
  cfg.memory_words = 1 << 12;
  cfg.block_words = 64;
  auto lg = query::LoadedGraph::FromEdges(
      cfg, graph::Rmat(10, 8192, 0.45, 0.22, 0.22, 11));
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();
  query::Query q;
  q.algo = "mgt";
  q.threads = 4;
  Result<query::QueryResult> wide = Status::Internal("not run");
  EXPECT_GT(WorkerTasks([&] { wide = lg->Run(q); }), 0u);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(wide->threads_used, 4u);
  q.algo = "ps-cache-oblivious";
  auto after = lg->Run(q);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->threads_used, 1u);
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
                        std::size_t threads, em::StorageKind storage,
                        std::size_t m = 1 << 11, std::size_t b = 32) {
  em::Context ctx = test::MakeContext(m, b, 0x7001, storage);
  ctx.set_threads(threads);
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

TEST(ParallelInvariance, EngineSortNeverFansOut) {
  // Run formation is serial at every thread count: at M = 2^16 words
  // (32768-record loads) a sort on a 7-thread session hands no part to a
  // pool worker, and reproduces the one-thread array and charge sequence.
  const std::size_t n = std::size_t{1} << 17;
  auto run = [&](std::size_t threads) {
    em::Context ctx = test::MakeContext(1 << 16, 64, 0xE5);
    ctx.set_threads(threads);
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
    ctx.cache().set_counting(false);
    SplitMix64 rng(0xFEED);
    for (std::size_t i = 0; i < n; ++i) a.Set(i, rng.Next() % 5000);
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    std::size_t tasks = WorkerTasks([&] {
      extsort::ExternalMergeSort(ctx, a, std::less<std::uint64_t>{});
    });
    EXPECT_EQ(tasks, 0u) << "threads " << threads;
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
}

TEST(ParallelInvariance, CacheAwareChunksAcrossManyColorTriples) {
  // The matrix graph yields a single color triple. At M = 1024 this graph
  // gets c = 10, so 10 rows of ordered runs over 1,000 triples, and 128-edge
  // chunks cut the pivot buckets into 1,350 chunks. More chunks than triples
  // means some triple commits several, so the runs commit across triples and
  // across chunks of one triple, with each triple's charged bucket-bound
  // reads in between and a row's trailing reads charged after its run.
  const std::vector<graph::Edge> raw =
      graph::Rmat(11, 12000, 0.45, 0.22, 0.22, 97);
  auto run = [&](std::size_t threads) {
    em::Context ctx = test::MakeContext(1 << 10, 32, 0xCA4);
    ctx.set_threads(threads);
    graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
    ctx.cache().Reset();
    ctx.ResetWork();
    core::CollectingSink sink;
    core::EnumerateCacheAware(ctx, g, sink);
    ctx.cache().FlushAll();
    MatrixRun out;
    out.triangles = sink.triangles();
    out.io = ctx.cache().stats();
    out.work = ctx.work();
    return out;
  };
  obs::TraceCollector tc;
  MatrixRun base;
  {
    obs::ScopedTraceCollector install(tc);
    base = run(1);
  }
  ASSERT_FALSE(base.triangles.empty());
  std::uint64_t colors = 0, chunk_loads = 0;
  for (const obs::TraceEvent& ev : tc.events_since(0)) {
    const std::string name = ev.name;
    if (name == "pivot.chunk_load") ++chunk_loads;
    if (name != "ca.coloring") continue;
    for (const auto& [key, value] : ev.args) {
      if (std::string(key) == "colors") colors = value;
    }
  }
  EXPECT_EQ(colors, 10u);
  EXPECT_EQ(chunk_loads, 1350u);
  EXPECT_GT(chunk_loads, colors * colors * colors);
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

TEST(ParallelInvariance, CacheAwareRowsEndingInEmptyColorClasses) {
  // At M = 16 a Lemma 2 chunk holds two edges, so this graph gets over 20
  // colours and many empty colour classes: rows of triples often end in
  // bucket-bound reads after their last Lemma 2 call, and the ordered path
  // must charge them in serial order when the row's run ends.
  const std::vector<graph::Edge> raw =
      graph::Rmat(9, 1200, 0.45, 0.22, 0.22, 31);
  const MatrixRun base = RunMatrixCase("ps-cache-aware", raw, 1,
                                       em::StorageKind::kMemory, 16, 4);
  ASSERT_FALSE(base.triangles.empty());
  for (std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    const MatrixRun got = RunMatrixCase("ps-cache-aware", raw, threads,
                                        em::StorageKind::kMemory, 16, 4);
    const std::string label = "threads " + std::to_string(threads);
    ASSERT_EQ(got.triangles, base.triangles) << label;
    EXPECT_EQ(got.io.block_reads, base.io.block_reads) << label;
    EXPECT_EQ(got.io.block_writes, base.io.block_writes) << label;
    EXPECT_EQ(got.io.cache_hits, base.io.cache_hits) << label;
    EXPECT_EQ(got.work, base.work) << label;
  }
}

TEST(ParallelInvariance, ReplayAtSmallAndNonPowerOfTwoLineSizes) {
  // Each worker's view records at its store's B and the caller replays the
  // log into the store's one cache. The cases above take B = 4, 32 and 64;
  // these take 8-word lines, and 24-word lines, which are not a power of
  // two, so the cache finds a word's line by division.
  const std::vector<graph::Edge> raw =
      graph::Rmat(10, 6000, 0.45, 0.22, 0.22, 41);
  struct Geometry {
    std::size_t m, b;
  };
  for (const char* algo : {"ps-cache-aware", "mgt"}) {
    for (Geometry geo : {Geometry{1 << 9, 8}, Geometry{24 * 32, 24}}) {
      const MatrixRun base = RunMatrixCase(
          algo, raw, 1, em::StorageKind::kMemory, geo.m, geo.b);
      const std::string label =
          std::string(algo) + " B=" + std::to_string(geo.b);
      ASSERT_FALSE(base.triangles.empty()) << label;
      const MatrixRun got = RunMatrixCase(
          algo, raw, 4, em::StorageKind::kMemory, geo.m, geo.b);
      ASSERT_EQ(got.triangles, base.triangles) << label;
      EXPECT_EQ(got.io.block_reads, base.io.block_reads) << label;
      EXPECT_EQ(got.io.block_writes, base.io.block_writes) << label;
      EXPECT_EQ(got.io.cache_hits, base.io.cache_hits) << label;
      EXPECT_EQ(got.work, base.work) << label;
    }
  }
}

TEST(ParallelInvariance, Lemma2EmitLoopFanOutOnDenseCore) {
  // K_150 under M = 2^15: resident pivot chunks of 4096 edges with dense
  // groups, so each chunk task emits many triangles; the ordered run must
  // flush them in byte-identical emission order.
  const std::vector<graph::Edge> raw = graph::Clique(150);
  auto run = [&](std::size_t threads) {
    em::Context ctx = test::MakeContext(1 << 15, 64, 0x150);
    ctx.set_threads(threads);
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

  em::Context ctx = test::MakeContext(1 << 12, 32);
  ctx.set_threads(4);
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
