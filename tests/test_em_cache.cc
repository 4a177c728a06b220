// LRU cache simulator semantics: miss/hit accounting, eviction order,
// write-allocate policy, flush/reset, the scan-cost identity n/B that the
// entire I/O methodology rests on, the two dead-line operations (released
// regions are cleaned in place, spent arrays leave the cache), and a failed
// write-back (its slot returns to the free list; Discard empties the cache).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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

TEST(CacheDeadLines, ProbeDropsAtItsOwnLineSize) {
  em::Context ctx = test::MakeContext(/*m=*/256, /*b=*/16);
  ctx.AttachProbe(/*memory_words=*/256, /*block_words=*/8);
  em::Cache& probe = *ctx.probe();
  // The mark (word 24) splits a primary line but starts a probe line.
  em::Array<std::uint64_t> live = ctx.Alloc<std::uint64_t>(24);
  ctx.cache().Reset();
  probe.Reset();
  live.Set(17, 1);
  {
    em::DeviceRegion region = ctx.Region();
    ctx.TouchRange(26, 1, /*write=*/true);  // a dead word past the array
    em::Array<std::uint64_t> dead = ctx.Alloc<std::uint64_t>(32);
    for (std::size_t i = 0; i < dead.size(); ++i) dead.Set(i, i);
  }
  // Primary line 1 [16, 32) straddles the mark and stays dirty; probe line
  // 3 [24, 32) lies wholly above it and is cleaned, probe line 2 keeps the
  // live word.
  EXPECT_EQ(FlushWrites(ctx.cache()), 1u);
  EXPECT_EQ(FlushWrites(probe), 1u);

  // DropLines: the lines wholly inside the array's 40 words [32, 72), at
  // each cache's line size.
  em::Array<std::uint64_t> spent = ctx.Alloc<std::uint64_t>(40);
  for (std::size_t i = 0; i < spent.size(); ++i) spent.Set(i, i);
  ctx.DropLines(spent.base(), spent.size());
  EXPECT_EQ(ctx.cache().resident_lines(), 1u);  // the padded tail line
  EXPECT_EQ(probe.resident_lines(), 0u);        // 5 whole probe lines
  EXPECT_EQ(FlushWrites(ctx.cache()), 1u);
  EXPECT_EQ(FlushWrites(probe), 0u);
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
