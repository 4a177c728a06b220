// LRU cache simulator semantics: miss/hit accounting, eviction order,
// write-allocate policy, flush/reset, the scan-cost identity n/B that the
// entire I/O methodology rests on, the two dead-line operations (released
// regions are cleaned in place, spent arrays leave the cache), charge logs
// (a recording at a store's B replays into its cache exactly), and a failed
// write-back (its slot returns to the free list; Discard empties the cache).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "em/array.h"
#include "test_util.h"

namespace trienum {
namespace {

TEST(Cache, ColdScanCostsNOverB) {
  em::Context ctx = test::MakeContext(/*m=*/1024, /*b=*/16);
  const std::size_t n = 4096;
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  ctx.cache().Reset();
  for (std::size_t i = 0; i < n; ++i) (void)a.Get(i);
  EXPECT_EQ(ctx.cache().stats().block_reads, n / 16);
  EXPECT_EQ(ctx.cache().stats().block_writes, 0u);
}

TEST(Cache, SequentialFreshWritesCostOnlyWrites) {
  em::Context ctx = test::MakeContext(1024, 16);
  const std::size_t n = 4096;
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  ctx.cache().Reset();
  for (std::size_t i = 0; i < n; ++i) a.Set(i, i);
  ctx.cache().FlushAll();
  // Block-aligned fresh lines are allocated without fetching.
  EXPECT_EQ(ctx.cache().stats().block_reads, 0u);
  EXPECT_EQ(ctx.cache().stats().block_writes, n / 16);
}

TEST(Cache, UnalignedWriteFetchesTheLine) {
  em::Context ctx = test::MakeContext(1024, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(64);
  ctx.cache().Reset();
  a.Set(5, 42);  // mid-line write: must read-modify-write
  ctx.cache().FlushAll();
  EXPECT_EQ(ctx.cache().stats().block_reads, 1u);
  EXPECT_EQ(ctx.cache().stats().block_writes, 1u);
}

TEST(Cache, WorkingSetWithinMIsFreeAfterWarmup) {
  em::Context ctx = test::MakeContext(1024, 16);
  const std::size_t n = 512;  // fits in M = 1024 words
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  for (std::size_t i = 0; i < n; ++i) (void)a.Get(i);  // warm up
  em::IoStats warm = ctx.cache().stats();
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < n; ++i) (void)a.Get(i);
  }
  EXPECT_EQ(ctx.cache().stats().block_reads, warm.block_reads);
}

TEST(Cache, WorkingSetBeyondMThrashes) {
  em::Context ctx = test::MakeContext(1024, 16);
  const std::size_t n = 4096;  // 4x internal memory
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  ctx.cache().Reset();
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < n; ++i) (void)a.Get(i);
  }
  // A cyclic scan of 4M words under LRU misses every line, every round.
  EXPECT_EQ(ctx.cache().stats().block_reads, 3 * n / 16);
}

TEST(Cache, LruKeepsHotLineResident) {
  em::Context ctx = test::MakeContext(/*m=*/64, /*b=*/16);  // 4 lines
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(1024);
  ctx.cache().Reset();
  // Touch line 0 between every excursion; it must never be evicted.
  for (std::size_t i = 0; i < 32; ++i) {
    (void)a.Get(0);
    (void)a.Get(16 * (i % 3 + 1));
  }
  EXPECT_TRUE(ctx.cache().IsResident(a.AddrOf(0)));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  em::Context ctx = test::MakeContext(/*m=*/32, /*b=*/16);  // 2 lines
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(64);
  ctx.cache().Reset();
  (void)a.Get(0);   // line 0
  (void)a.Get(16);  // line 1
  (void)a.Get(0);   // refresh line 0
  (void)a.Get(32);  // line 2: must evict line 1
  EXPECT_TRUE(ctx.cache().IsResident(a.AddrOf(0)));
  EXPECT_FALSE(ctx.cache().IsResident(a.AddrOf(16)));
  EXPECT_TRUE(ctx.cache().IsResident(a.AddrOf(32)));
}

TEST(Cache, DirtyEvictionCountsAsWrite) {
  em::Context ctx = test::MakeContext(/*m=*/32, /*b=*/16);  // 2 lines
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(64);
  ctx.cache().Reset();
  a.Set(0, 1);      // dirty line 0 (aligned fresh write: no read)
  (void)a.Get(16);  // line 1
  (void)a.Get(32);  // evicts line 0 -> writeback
  EXPECT_EQ(ctx.cache().stats().block_writes, 1u);
}

TEST(Cache, ResetZeroesCountersAndResidency) {
  em::Context ctx = test::MakeContext(1024, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(256);
  for (std::size_t i = 0; i < 256; ++i) a.Set(i, i);
  ctx.cache().Reset();
  EXPECT_EQ(ctx.cache().stats().block_reads, 0u);
  EXPECT_EQ(ctx.cache().stats().block_writes, 0u);
  EXPECT_FALSE(ctx.cache().IsResident(a.AddrOf(0)));
  // Data survives a reset (only accounting state is dropped).
  EXPECT_EQ(a.Get(7), 7u);
}

TEST(Cache, CountingOffIsNoOp) {
  em::Context ctx = test::MakeContext(1024, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(256);
  ctx.cache().Reset();
  ctx.cache().set_counting(false);
  for (std::size_t i = 0; i < 256; ++i) (void)a.Get(i);
  EXPECT_EQ(ctx.cache().stats().total_ios(), 0u);
  ctx.cache().set_counting(true);
}

TEST(Cache, StraddlingRecordTouchesBothLines) {
  em::Context ctx = test::MakeContext(1024, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(64);
  ctx.cache().Reset();
  ctx.cache().TouchRange(a.AddrOf(15), 2, /*write=*/false);  // words 15,16
  EXPECT_EQ(ctx.cache().stats().block_reads, 2u);
}

TEST(Cache, OneLineCacheEvictsOnEveryNewLine) {
  // M = B: the one resident line is both LRU head and tail, and every touch
  // of another line evicts it.
  em::Cache cache(/*memory_words=*/16, /*block_words=*/16);
  ASSERT_EQ(cache.num_lines(), 1u);
  for (int round = 0; round < 5; ++round) {
    cache.Touch(3, /*write=*/true);    // line 0, mid-line: fetched
    cache.Touch(20, /*write=*/false);  // line 1: evicts dirty line 0
  }
  EXPECT_EQ(cache.stats().block_reads, 10u);
  EXPECT_EQ(cache.stats().block_writes, 5u);
  EXPECT_EQ(cache.stats().cache_hits, 0u);
  EXPECT_EQ(cache.resident_lines(), 1u);
  EXPECT_TRUE(cache.IsResident(20));
  EXPECT_FALSE(cache.IsResident(3));
  cache.FlushAll();
  EXPECT_EQ(cache.stats().block_writes, 5u);  // line 1 was clean
}

TEST(Cache, FlushAllWritesEachDirtyLineOnceAndEmptiesTheCache) {
  em::Cache cache(/*memory_words=*/128, /*block_words=*/16);  // 8 lines
  for (em::Addr line = 0; line < 6; ++line) {
    cache.Touch(line * 16 + 1, /*write=*/line % 2 == 0);  // 0, 2, 4 dirty
  }
  cache.Touch(5, /*write=*/true);  // line 0 again: still one dirty line
  const em::IoStats before = cache.stats();
  EXPECT_EQ(before.block_reads, 6u);
  EXPECT_EQ(before.block_writes, 0u);
  cache.FlushAll();
  EXPECT_EQ(cache.stats().block_writes, 3u);
  EXPECT_EQ(cache.stats().block_reads, before.block_reads);
  EXPECT_EQ(cache.resident_lines(), 0u);
  EXPECT_FALSE(cache.IsResident(0));
  cache.FlushAll();
  EXPECT_EQ(cache.stats().block_writes, 3u);  // nothing left to write
  // Every slot is free again: eight fresh lines fit without an eviction.
  for (em::Addr line = 10; line < 18; ++line) cache.Touch(line * 16, true);
  EXPECT_EQ(cache.resident_lines(), 8u);
  EXPECT_EQ(cache.stats().block_writes, 3u);
}

TEST(Cache, DataRoundTripThroughDevice) {
  em::Context ctx = test::MakeContext(128, 16);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(1000);
  for (std::size_t i = 0; i < 1000; ++i) a.Set(i, i * i);
  for (std::size_t i = 0; i < 1000; ++i) ASSERT_EQ(a.Get(i), i * i);
}


// ---------------------------------------------------------------------------
// Dead lines: Release cleans the lines wholly above a region's mark in place
// (Cache::DropDirty); DropLines evicts a spent array's lines without
// write-back (Cache::DropLines).

/// Block writes FlushAll charges from here on.
std::uint64_t FlushWrites(em::Cache& cache) {
  const std::uint64_t before = cache.stats().block_writes;
  cache.FlushAll();
  return cache.stats().block_writes - before;
}

TEST(CacheDeadLines, ReleaseCleansLinesWhollyAboveTheMark) {
  em::Context ctx = test::MakeContext(/*m=*/1024, /*b=*/16);
  // 20 words: the region's mark falls inside line 1.
  em::Array<std::uint64_t> live = ctx.Alloc<std::uint64_t>(20);
  ctx.cache().Reset();
  live.Set(17, 1);  // line 1 straddles the mark
  em::Addr dead_base = 0;
  {
    em::DeviceRegion region = ctx.Region();
    em::Array<std::uint64_t> dead = ctx.Alloc<std::uint64_t>(40);  // 2-4
    for (std::size_t i = 0; i < dead.size(); ++i) dead.Set(i, i);
    dead_base = dead.base();
  }
  // The released lines keep their slots, clean; no read or hit moved.
  EXPECT_EQ(ctx.cache().resident_lines(), 4u);
  EXPECT_TRUE(ctx.cache().IsResident(dead_base));
  EXPECT_TRUE(ctx.cache().IsResident(dead_base + 39));
  EXPECT_EQ(ctx.cache().stats().block_reads, 1u);
  EXPECT_EQ(FlushWrites(ctx.cache()), 1u);  // line 1 only
}

TEST(CacheDeadLines, ReleaseWritesNothingOnTheFileBackend) {
  // 16 lines of M. Each round rewrites 7 live lines, then fills 19 lines of
  // scratch and releases them. The scratch's own later lines evict the live
  // lines and its first 3 lines (still allocated then): 10 writes a round.
  // The released lines are evicted clean and the final flush writes
  // nothing; left dirty, they would cost 48 more writes.
  auto run = [](em::Context ctx) {
    em::Array<std::uint64_t> live = ctx.Alloc<std::uint64_t>(100);
    ctx.cache().Reset();
    const std::uint64_t calls0 = ctx.device().backend().telemetry().write_calls;
    for (int round = 0; round < 3; ++round) {
      for (std::size_t i = 0; i < live.size(); ++i) live.Set(i, i + round);
      em::DeviceRegion region = ctx.Region();
      em::Array<std::uint64_t> dead = ctx.Alloc<std::uint64_t>(300);
      for (std::size_t i = 0; i < dead.size(); ++i) dead.Set(i, i);
    }
    ctx.cache().FlushAll();
    const std::uint64_t calls =
        ctx.device().backend().telemetry().write_calls - calls0;
    return std::pair<em::IoStats, std::uint64_t>(ctx.cache().stats(), calls);
  };
  const auto [mem, mem_calls] = run(test::MakeContext(256, 16));
  const auto [file, file_calls] = run(test::MakeFileContext(256, 16));
  EXPECT_EQ(mem.block_reads, file.block_reads);
  EXPECT_EQ(mem.block_writes, file.block_writes);
  EXPECT_EQ(mem.cache_hits, file.cache_hits);
  EXPECT_EQ(mem.block_writes, 30u);
  EXPECT_EQ(mem_calls, 0u);
  EXPECT_EQ(file_calls, file.block_writes);
}

TEST(CacheDeadLines, DropDirtyChangesOnlyWrites) {
  // Two caches see one touch sequence; one of them also cleans random line
  // ranges, as region releases would. Residency and recency are untouched,
  // so reads and hits agree at every step and the cleaned cache never
  // writes more.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SplitMix64 rng(seed);
    const std::size_t b = std::size_t{1} << (1 + rng.Next() % 5);
    const std::size_t lines = 2 + rng.Next() % 15;
    const std::int64_t space = 48;  // lines the touches fall in
    em::Cache plain(lines * b, b);
    em::Cache cleaned(lines * b, b);
    for (int step = 0; step < 5000; ++step) {
      const std::uint64_t r = rng.Next();
      if (r % 8 == 0) {
        const auto lo = static_cast<std::int64_t>(rng.Next() % space);
        cleaned.DropDirty(lo, lo + static_cast<std::int64_t>(rng.Next() % 12));
        continue;
      }
      const em::Addr addr = rng.Next() % (space * b);
      const std::size_t elem = 1 + (r >> 8) % 2;
      const std::size_t words = elem * (1 + rng.Next() % (2 * b));
      const bool write = ((r >> 16) & 1) != 0;
      for (em::Cache* c : {&plain, &cleaned}) {
        if ((r >> 24) % 3 == 0) {
          c->ScanRange(addr, words, elem, write);
        } else {
          c->TouchRange(addr, words, write);
        }
      }
      ASSERT_EQ(cleaned.stats().block_reads, plain.stats().block_reads)
          << "seed " << seed << " step " << step;
      ASSERT_EQ(cleaned.stats().cache_hits, plain.stats().cache_hits)
          << "seed " << seed << " step " << step;
      ASSERT_LE(cleaned.stats().block_writes, plain.stats().block_writes)
          << "seed " << seed << " step " << step;
    }
    ASSERT_EQ(cleaned.resident_lines(), plain.resident_lines());
    plain.FlushAll();
    cleaned.FlushAll();
    EXPECT_EQ(cleaned.stats().block_reads, plain.stats().block_reads);
    EXPECT_LT(cleaned.stats().block_writes, plain.stats().block_writes)
        << "seed " << seed;
  }
}

TEST(CacheDeadLines, DropLinesEvictsWithoutWriteBack) {
  for (em::StorageKind kind : {em::StorageKind::kMemory,
                               em::StorageKind::kFile}) {
    SCOPED_TRACE(kind == em::StorageKind::kFile ? "file" : "memory");
    em::Context ctx = test::MakeContext(/*m=*/128, /*b=*/16, 0x7001, kind);
    em::Array<std::uint64_t> spent = ctx.Alloc<std::uint64_t>(40);  // 0-2
    em::Array<std::uint64_t> next = ctx.Alloc<std::uint64_t>(32);   // 3-4
    ctx.cache().Reset();
    const std::uint64_t calls0 = ctx.device().backend().telemetry().write_calls;
    for (std::size_t i = 0; i < spent.size(); ++i) spent.Set(i, i);
    for (std::size_t i = 0; i < next.size(); ++i) next.Set(i, i);
    ASSERT_EQ(ctx.cache().resident_lines(), 5u);
    ctx.DropLines(spent.base(), spent.size());
    // Lines 0 and 1 lie wholly inside the array; line 2 also holds its
    // padding and stays. The neighbouring array is untouched.
    EXPECT_FALSE(ctx.cache().IsResident(spent.AddrOf(0)));
    EXPECT_FALSE(ctx.cache().IsResident(spent.AddrOf(16)));
    EXPECT_TRUE(ctx.cache().IsResident(spent.AddrOf(32)));
    EXPECT_TRUE(ctx.cache().IsResident(next.AddrOf(0)));
    EXPECT_TRUE(ctx.cache().IsResident(next.AddrOf(31)));
    EXPECT_EQ(ctx.cache().resident_lines(), 3u);
    EXPECT_EQ(ctx.cache().stats().block_reads, 0u);
    EXPECT_EQ(FlushWrites(ctx.cache()), 3u);  // line 2 and the neighbour's
    // A staged buffer is abandoned: the dropped lines never reach the file.
    const std::uint64_t calls =
        ctx.device().backend().telemetry().write_calls - calls0;
    EXPECT_EQ(calls, kind == em::StorageKind::kFile ? 3u : 0u);
  }
}

TEST(CacheDeadLines, EvictionKeepsLruOrderAfterDropLines) {
  // Dropping lines from the middle or from both ends of the LRU list leaves
  // the survivors in order: the freed slots fill first, then evictions take
  // the oldest survivor.
  struct Drop {
    std::int64_t begin, end;
  };
  const std::vector<std::vector<Drop>> cases = {
      {{1, 3}},           // the middle two lines
      {{0, 1}, {3, 4}},   // the LRU tail and the MRU head
  };
  for (const std::vector<Drop>& drops : cases) {
    em::Cache cache(/*memory_words=*/64, /*block_words=*/16);  // 4 lines
    for (em::Addr line = 0; line < 4; ++line) cache.Touch(line * 16, false);
    std::vector<em::Addr> survivors;
    for (em::Addr line = 0; line < 4; ++line) survivors.push_back(line);
    for (const Drop& d : drops) {
      cache.DropLines(d.begin, d.end);
      survivors.erase(
          std::remove_if(survivors.begin(), survivors.end(),
                         [&](em::Addr l) {
                           return static_cast<std::int64_t>(l) >= d.begin &&
                                  static_cast<std::int64_t>(l) < d.end;
                         }),
          survivors.end());
    }
    ASSERT_EQ(survivors.size(), 2u);
    EXPECT_EQ(cache.resident_lines(), 2u);
    cache.Touch(4 * 16, false);
    cache.Touch(5 * 16, false);  // the two freed slots
    EXPECT_TRUE(cache.IsResident(survivors[0] * 16));
    EXPECT_TRUE(cache.IsResident(survivors[1] * 16));
    cache.Touch(6 * 16, false);  // evicts the older survivor
    EXPECT_FALSE(cache.IsResident(survivors[0] * 16));
    EXPECT_TRUE(cache.IsResident(survivors[1] * 16));
    cache.Touch(7 * 16, false);  // then the younger one
    EXPECT_FALSE(cache.IsResident(survivors[1] * 16));
    for (em::Addr line = 4; line < 8; ++line) {
      EXPECT_TRUE(cache.IsResident(line * 16)) << "line " << line;
    }
    EXPECT_EQ(cache.stats().block_reads, 8u);
    EXPECT_EQ(cache.stats().block_writes, 0u);
  }
}

TEST(CacheDeadLines, RewriteAfterReleaseReachesTheBackend) {
  // A released line stays resident and clean; a later write to its words
  // dirties it again, so the new data is written back and charged.
  for (em::StorageKind kind : {em::StorageKind::kMemory,
                               em::StorageKind::kFile}) {
    SCOPED_TRACE(kind == em::StorageKind::kFile ? "file" : "memory");
    em::Context ctx = test::MakeContext(/*m=*/256, /*b=*/16, 0x7001, kind);
    ctx.cache().Reset();
    em::Addr dead_base = 0;
    {
      em::DeviceRegion region = ctx.Region();
      em::Array<std::uint64_t> dead = ctx.Alloc<std::uint64_t>(32);
      for (std::size_t i = 0; i < dead.size(); ++i) dead.Set(i, i);
      dead_base = dead.base();
    }
    em::Array<std::uint64_t> reused = ctx.Alloc<std::uint64_t>(32);
    ASSERT_EQ(reused.base(), dead_base);
    const std::uint64_t calls0 =
        ctx.device().backend().telemetry().write_calls;
    for (std::size_t i = 0; i < reused.size(); ++i) reused.Set(i, 1000 + i);
    EXPECT_EQ(ctx.cache().stats().block_reads, 0u);  // still resident
    EXPECT_EQ(FlushWrites(ctx.cache()), 2u);
    const std::uint64_t calls =
        ctx.device().backend().telemetry().write_calls - calls0;
    EXPECT_EQ(calls, kind == em::StorageKind::kFile ? 2u : 0u);
    ctx.cache().set_counting(false);
    for (std::size_t i = 0; i < reused.size(); ++i) {
      EXPECT_EQ(reused.Get(i), 1000 + i) << i;
    }
    ctx.cache().set_counting(true);
  }
}

TEST(CacheDeadLines, FreedSlotsAreReusedBeforeEviction) {
  em::Context ctx = test::MakeContext(/*m=*/64, /*b=*/16);  // 4 lines
  em::Array<std::uint64_t> spent = ctx.Alloc<std::uint64_t>(32);
  em::Array<std::uint64_t> kept = ctx.Alloc<std::uint64_t>(32);
  em::Array<std::uint64_t> fresh = ctx.Alloc<std::uint64_t>(32);
  ctx.cache().Reset();
  for (std::size_t i = 0; i < 32; ++i) spent.Set(i, i);
  for (std::size_t i = 0; i < 32; ++i) kept.Set(i, i);
  ctx.DropLines(spent.base(), spent.size());
  for (std::size_t i = 0; i < 32; ++i) fresh.Set(i, i);
  // The fresh lines took the two freed slots: nothing was evicted.
  EXPECT_EQ(ctx.cache().stats().block_writes, 0u);
  EXPECT_TRUE(ctx.cache().IsResident(kept.AddrOf(0)));
  EXPECT_TRUE(ctx.cache().IsResident(kept.AddrOf(16)));
  EXPECT_EQ(ctx.cache().resident_lines(), 4u);
  EXPECT_EQ(FlushWrites(ctx.cache()), 4u);
}

TEST(CacheDeadLines, MarkAndArrayOnLineBoundaries) {
  // At B = 8 the region's mark (word 24) starts a line instead of splitting
  // one, and a 40-word array is 5 whole lines: the line that starts at the
  // mark is cleaned, and DropLines takes every line of the array.
  em::Context ctx = test::MakeContext(/*m=*/256, /*b=*/8);
  em::Array<std::uint64_t> live = ctx.Alloc<std::uint64_t>(24);  // 0-2
  ctx.cache().Reset();
  live.Set(17, 1);  // line 2, just below the mark
  {
    em::DeviceRegion region = ctx.Region();
    em::Array<std::uint64_t> dead = ctx.Alloc<std::uint64_t>(32);  // 3-6
    ASSERT_EQ(dead.base(), 24u);
    for (std::size_t i = 0; i < dead.size(); ++i) dead.Set(i, i);
  }
  EXPECT_EQ(ctx.cache().resident_lines(), 5u);
  EXPECT_EQ(FlushWrites(ctx.cache()), 1u);  // line 2 only

  em::Array<std::uint64_t> spent = ctx.Alloc<std::uint64_t>(40);  // 3-7
  for (std::size_t i = 0; i < spent.size(); ++i) spent.Set(i, i);
  ASSERT_EQ(ctx.cache().resident_lines(), 5u);
  ctx.DropLines(spent.base(), spent.size());
  EXPECT_EQ(ctx.cache().resident_lines(), 0u);
  EXPECT_EQ(FlushWrites(ctx.cache()), 0u);
}

TEST(CacheDeadLines, RecordingCacheRejectsBoth) {
  em::ChargeLog log;
  EXPECT_DEATH(
      {
        em::Cache c(64, 16);
        c.Record(&log);
        c.DropDirty(0, 4);
      },
      "recording");
  EXPECT_DEATH(
      {
        em::Cache c(64, 16);
        c.Record(&log);
        c.DropLines(0, 4);
      },
      "recording");
}

// Charge logs: a recording cache logs its charges at its own line size, and
// Replay into a cache of that line size charges exactly what the calls
// themselves would have. The ordered Lemma 2 path (core/pivot_enum.h) rests
// on this.

TEST(ChargeLog, ReplayChargesExactlyTheRecordedTouches) {
  // One call sequence goes to a cache directly and, in segments, through a
  // one-line recording cache whose logs replay into a twin. Three calls in
  // four start on the line the previous one ended on, so many fold into the
  // open charge. Odd seeds take line sizes that are not powers of two.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SplitMix64 rng(seed);
    const std::size_t b = seed % 2 == 0 ? std::size_t{1} << (rng.Next() % 6)
                                        : 3 * (1 + rng.Next() % 8);
    const std::size_t lines = 1 + rng.Next() % 16;
    const em::Addr space = 48 * b;  // words the far calls start in
    em::Cache direct(lines * b, b);
    em::Cache replayed(lines * b, b);
    em::Cache recorder(b, b);
    em::Addr last = 0;  // the word the previous call ended on
    std::size_t calls = 0, charges = 0;
    for (int segment = 0; segment < 40; ++segment) {
      em::ChargeLog log;
      recorder.Record(&log);
      for (int step = 0; step < 100; ++step, ++calls) {
        const std::uint64_t r = rng.Next();
        const bool near = (r & 3) != 0;
        const em::Addr addr =
            near ? last / b * b + rng.Next() % b : rng.Next() % space;
        const std::size_t elem = 1 + (r >> 8) % 2;
        const std::size_t words = elem * (1 + rng.Next() % (near ? 2 : 2 * b));
        const bool write = ((r >> 16) & 1) != 0;
        for (em::Cache* c : {&direct, &recorder}) {
          if ((r >> 24) % 3 == 0) {
            c->ScanRange(addr, words, elem, write);
          } else {
            c->TouchRange(addr, words, write);
          }
        }
        last = addr + words - 1;
      }
      recorder.Record(nullptr);
      charges += log.size();
      replayed.Replay(log);
      ASSERT_EQ(replayed.stats().block_reads, direct.stats().block_reads)
          << "seed " << seed << " segment " << segment;
      ASSERT_EQ(replayed.stats().block_writes, direct.stats().block_writes)
          << "seed " << seed << " segment " << segment;
      ASSERT_EQ(replayed.stats().cache_hits, direct.stats().cache_hits)
          << "seed " << seed << " segment " << segment;
      ASSERT_EQ(replayed.resident_lines(), direct.resident_lines())
          << "seed " << seed << " segment " << segment;
    }
    EXPECT_LT(charges, calls / 2) << "seed " << seed << " B=" << b;
    // The folded writes' dirty bits came through too.
    direct.FlushAll();
    replayed.FlushAll();
    EXPECT_EQ(replayed.stats().block_writes, direct.stats().block_writes)
        << "seed " << seed;
  }
}

TEST(ChargeLog, TouchesOfOneLineFoldIntoOneCharge) {
  em::Cache recorder(/*memory_words=*/16, /*block_words=*/16);
  em::ChargeLog log;
  auto issue = [](em::Cache& c) {
    c.TouchRange(3, 2, /*write=*/false);            // line 0
    c.Touch(5, /*write=*/true);                     // line 0 again
    c.ScanRange(8, 8, 2, /*write=*/false);          // 4 records on line 0
    c.ScanRange(32, 32, 2, /*write=*/false);        // lines 2-3
    c.Touch(63, /*write=*/false);                   // line 3 again
  };
  recorder.Record(&log);
  issue(recorder);
  recorder.Record(nullptr);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].addr, 3u);
  EXPECT_EQ(log[0].words, 2u);
  EXPECT_EQ(log[0].elem_words, 0u);  // a TouchRange
  EXPECT_FALSE(log[0].write);
  EXPECT_EQ(log[0].repeat_hits, 5u);  // the Touch and the 4 records
  EXPECT_TRUE(log[0].repeat_write);
  EXPECT_EQ(log[1].addr, 32u);
  EXPECT_EQ(log[1].words, 32u);
  EXPECT_EQ(log[1].elem_words, 2u);  // a ScanRange
  EXPECT_EQ(log[1].repeat_hits, 1u);
  EXPECT_FALSE(log[1].repeat_write);

  em::Cache direct(/*memory_words=*/64, /*block_words=*/16);
  em::Cache replayed(/*memory_words=*/64, /*block_words=*/16);
  issue(direct);
  replayed.Replay(log);
  for (em::Cache* c : {&direct, &replayed}) {
    EXPECT_EQ(c->stats().block_reads, 3u);  // lines 0, 2 and 3
    EXPECT_EQ(c->stats().cache_hits, 20u);
    EXPECT_EQ(FlushWrites(*c), 1u);  // line 0, dirtied by a folded touch
  }
}

TEST(ChargeLog, NothingIsRecordedOrReplayedWhileCountingIsOff) {
  auto issue = [](em::Cache& c) {
    c.TouchRange(0, 64, /*write=*/true);          // 4 aligned line writes
    c.ScanRange(64, 64, 1, /*write=*/false);      // 4 line reads
  };
  em::Cache recorder(/*memory_words=*/16, /*block_words=*/16);
  em::ChargeLog log;
  recorder.set_counting(false);
  recorder.Record(&log);
  issue(recorder);
  recorder.Record(nullptr);
  EXPECT_TRUE(log.empty());

  recorder.set_counting(true);
  recorder.Record(&log);
  issue(recorder);
  recorder.Record(nullptr);
  ASSERT_EQ(log.size(), 2u);

  em::Cache target(/*memory_words=*/128, /*block_words=*/16);
  target.set_counting(false);
  target.Replay(log);
  EXPECT_EQ(target.resident_lines(), 0u);
  EXPECT_EQ(target.stats().total_ios(), 0u);
  EXPECT_EQ(target.stats().cache_hits, 0u);
  target.set_counting(true);
  target.Replay(log);
  EXPECT_EQ(target.resident_lines(), 8u);
  EXPECT_EQ(target.stats().block_reads, 4u);
  EXPECT_EQ(target.stats().cache_hits, 60u);
  EXPECT_EQ(FlushWrites(target), 4u);
}

TEST(RecordingView, RecordsAtTheStoresLineSize) {
  // A view's log replays into its store's one cache exactly: the same
  // IoStats as the same reads issued on a twin store. B = 24 is not a power
  // of two.
  for (std::size_t b : {std::size_t{8}, std::size_t{24}, std::size_t{64}}) {
    SCOPED_TRACE("B=" + std::to_string(b));
    const std::size_t n = 40 * b + 5;
    em::Context ctx = test::MakeContext(/*m=*/16 * b, b);
    em::Context twin = test::MakeContext(/*m=*/16 * b, b);
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
    em::Array<std::uint64_t> t = twin.Alloc<std::uint64_t>(n);
    for (std::size_t i = 0; i < n; ++i) {
      a.Set(i, 3 * i + 1);
      t.Set(i, 3 * i + 1);
    }
    ctx.cache().Reset();
    twin.cache().Reset();
    // Strided Gets, a Scanner over the last two thirds, then Gets back down.
    auto reads = [n](const em::Array<std::uint64_t>& arr) {
      std::uint64_t sum = 0;
      for (std::size_t i = 0; i < n; i += 7) sum += arr.Get(i);
      em::Scanner<std::uint64_t> scan(arr, n / 3, n);
      while (scan.HasNext()) sum += scan.Next();
      for (std::size_t i = n; i > 0; i -= std::min<std::size_t>(i, 5)) {
        sum += arr.Get(i - 1);
      }
      return sum;
    };

    std::unique_ptr<em::GraphStore> view = a.store()->RecordingView();
    EXPECT_EQ(view->cache().block_words(), b);
    EXPECT_EQ(view->cache().num_lines(), 1u);
    em::ChargeLog log;
    view->cache().Record(&log);
    const std::uint64_t got = reads(em::Array<std::uint64_t>(view.get(),
                                                             a.base(), n));
    view->cache().Record(nullptr);
    EXPECT_EQ(got, reads(t));  // the view read the store's words
    EXPECT_EQ(ctx.cache().stats().total_ios(), 0u);  // nothing charged yet
    EXPECT_EQ(ctx.cache().resident_lines(), 0u);

    ctx.cache().Replay(log);
    EXPECT_GT(twin.cache().stats().block_reads, 0u);
    EXPECT_EQ(ctx.cache().stats().block_reads,
              twin.cache().stats().block_reads);
    EXPECT_EQ(ctx.cache().stats().block_writes,
              twin.cache().stats().block_writes);
    EXPECT_EQ(ctx.cache().stats().cache_hits, twin.cache().stats().cache_hits);
    EXPECT_EQ(ctx.cache().resident_lines(), twin.cache().resident_lines());

    // A view takes its store's counting switch: an uncounted store's view
    // logs nothing.
    ctx.cache().set_counting(false);
    std::unique_ptr<em::GraphStore> quiet = a.store()->RecordingView();
    em::ChargeLog none;
    quiet->cache().Record(&none);
    EXPECT_EQ(reads(em::Array<std::uint64_t>(quiet.get(), a.base(), n)), got);
    quiet->cache().Record(nullptr);
    EXPECT_TRUE(none.empty());
  }
}

/// A memory store whose reads or writes can be switched to fail, to latch a
/// fault in a staged cache.
class FailingBackend final : public em::StorageBackend {
 public:
  Status EnsureSize(std::size_t words) override {
    if (words > words_.size()) words_.resize(words, 0);
    return Status::OK();
  }
  std::size_t size_words() const override { return words_.size(); }
  bool memory_resident() const override { return false; }
  Status ReadWords(em::Addr addr, std::size_t words, em::Word* out) override {
    if (fail_reads) return Status::IoError("injected read failure");
    std::copy_n(words_.begin() + addr, words, out);
    return Status::OK();
  }
  Status WriteWords(em::Addr addr, std::size_t words,
                    const em::Word* in) override {
    if (fail_writes) return Status::IoError("injected write failure");
    std::copy_n(in, words, words_.begin() + addr);
    return Status::OK();
  }
  const char* name() const override { return "failing"; }

  bool fail_reads = false;
  bool fail_writes = false;

 private:
  std::vector<em::Word> words_;
};

TEST(CacheDeadLines, LatchedFaultMakesBothNoOps) {
  FailingBackend backend;
  ASSERT_TRUE(backend.EnsureSize(256).ok());
  em::Cache cache(/*memory_words=*/128, /*block_words=*/16, &backend);
  const std::vector<em::Word> line(16, 7);
  cache.WriteRange(0, 16, line.data());   // line 0, dirty
  cache.WriteRange(16, 16, line.data());  // line 1, dirty
  backend.fail_reads = true;
  std::vector<em::Word> out(16);
  EXPECT_THROW(cache.ReadRange(64, 16, out.data()), IoFault);
  ASSERT_FALSE(cache.fault().ok());
  const std::size_t resident = cache.resident_lines();
  cache.DropLines(0, 1);
  cache.DropDirty(0, 2);
  EXPECT_EQ(cache.resident_lines(), resident);
  EXPECT_TRUE(cache.IsResident(0));
  // Lines 0 and 1 are still dirty, so the flush meets the latched fault.
  EXPECT_THROW(cache.FlushAll(), IoFault);
  cache.Discard();
}

TEST(CacheFaults, FailedWriteBackReturnsItsSlotToTheFreeList) {
  // A one-line cache whose only line fails its write-back on eviction. The
  // slot goes back on the free list before the fault propagates, so the
  // next line (a Writer flushing while the fault unwinds) still finds one.
  FailingBackend backend;
  ASSERT_TRUE(backend.EnsureSize(64).ok());
  em::Cache cache(/*memory_words=*/16, /*block_words=*/16, &backend);
  ASSERT_EQ(cache.num_lines(), 1u);
  const std::vector<em::Word> line(16, 7);
  cache.WriteRange(0, 16, line.data());  // line 0, dirty
  backend.fail_writes = true;
  std::vector<em::Word> out(16);
  EXPECT_THROW(cache.ReadRange(16, 16, out.data()), IoFault);
  ASSERT_FALSE(cache.fault().ok());
  EXPECT_EQ(cache.resident_lines(), 0u);
  EXPECT_FALSE(cache.IsResident(0));
  EXPECT_FALSE(cache.IsResident(16));
  // A full-line write takes the returned slot: no eviction, no fetch.
  cache.WriteRange(32, 16, line.data());
  EXPECT_EQ(cache.resident_lines(), 1u);
  EXPECT_TRUE(cache.IsResident(32));
  // The flush meets the latched fault; Discard drops the line unwritten.
  EXPECT_THROW(cache.FlushAll(), IoFault);
  cache.Discard();
  backend.fail_writes = false;
  ASSERT_TRUE(backend.ReadWords(32, 16, out.data()).ok());
  EXPECT_EQ(out, std::vector<em::Word>(16, 0));
}

TEST(CacheFaults, DiscardAfterAFailedWriteBackDropsTheDirtyLines) {
  // An eviction whose write-back fails returns its slot to the free list,
  // so the cache keeps every slot. Discard then empties it: every slot is
  // usable again, and the dirty lines it drops never reach the backend.
  FailingBackend backend;
  ASSERT_TRUE(backend.EnsureSize(256).ok());
  em::Cache cache(/*memory_words=*/32, /*block_words=*/16, &backend);
  ASSERT_EQ(cache.num_lines(), 2u);
  const std::vector<em::Word> line(16, 7);
  cache.WriteRange(0, 16, line.data());   // line 0, dirty
  cache.WriteRange(16, 16, line.data());  // line 1, dirty
  backend.fail_writes = true;
  std::vector<em::Word> out(16);
  EXPECT_THROW(cache.ReadRange(32, 16, out.data()), IoFault);
  ASSERT_FALSE(cache.fault().ok());
  EXPECT_EQ(cache.resident_lines(), 1u);  // line 1; line 0's slot is free
  EXPECT_FALSE(cache.IsResident(0));

  cache.Discard();
  backend.fail_writes = false;
  EXPECT_TRUE(cache.fault().ok());
  EXPECT_EQ(cache.resident_lines(), 0u);
  EXPECT_EQ(cache.stats().total_ios(), 0u);
  // Both slots take fresh lines without an eviction.
  const std::vector<em::Word> fresh(16, 9);
  cache.WriteRange(64, 16, fresh.data());
  cache.WriteRange(80, 16, fresh.data());
  EXPECT_EQ(cache.resident_lines(), 2u);
  EXPECT_EQ(cache.stats().block_writes, 0u);
  cache.FlushAll();
  EXPECT_EQ(cache.stats().block_writes, 2u);
  for (em::Addr a : {em::Addr{64}, em::Addr{80}}) {
    ASSERT_TRUE(backend.ReadWords(a, 16, out.data()).ok());
    EXPECT_EQ(out, fresh) << "line at " << a;
  }
  // The dropped dirty line 1 was never written back.
  ASSERT_TRUE(backend.ReadWords(16, 16, out.data()).ok());
  EXPECT_EQ(out, std::vector<em::Word>(16, 0));
}

}  // namespace
}  // namespace trienum
