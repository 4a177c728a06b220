// The block-buffered hot path's contract (em/array.h):
//
//  1. Scanner/Writer charge IoStats *bit-for-bit identical* to the same
//     pass made of per-record Array::Get/Set calls — reads, writes AND hits
//     — whenever the streams' working set fits in internal memory (one line
//     per active stream). The per-record reference runs on a twin context.
//  2. Scan ops and ExternalMergeSort, which are built on Scanner/Writer,
//     reproduce pinned IoStats, on both storage backends for the sort.
//  3. The line->slot map behaves identically in its dense and sparse
//     regimes, so file-backed devices far beyond the dense limit account
//     (and stage) exactly like small ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "em/array.h"
#include "em/cache.h"
#include "em/storage.h"
#include "extsort/ext_merge_sort.h"
#include "extsort/scan_ops.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

bool SameStats(const em::IoStats& a, const em::IoStats& b) {
  return a.block_reads == b.block_reads && a.block_writes == b.block_writes &&
         a.cache_hits == b.cache_hits;
}

std::string StatsStr(const em::IoStats& s) {
  return "(r=" + std::to_string(s.block_reads) +
         " w=" + std::to_string(s.block_writes) +
         " h=" + std::to_string(s.cache_hits) + ")";
}

// ---------------------------------------------------------------------------
// 1. Stream-primitive exactness: run the same workload through the streams
// and as per-record Get/Set calls, and require identical values and
// identical IoStats.

/// Three record shapes: one word packed, multi-word packed, and padded (the
/// tail word carries deterministic zero padding).
struct Rec3 {
  std::uint64_t a = 0, b = 0, c = 0;
  bool operator==(const Rec3& o) const { return a == o.a && b == o.b && c == o.c; }
};
struct PaddedRec {
  std::uint32_t x = 0, y = 0, z = 0;  // 12 bytes -> 2 words with padding
  bool operator==(const PaddedRec& o) const {
    return x == o.x && y == o.y && z == o.z;
  }
};

template <typename T>
void MixDigest(const T& v, std::uint64_t* digest) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  for (unsigned char c : bytes) *digest = *digest * 1099511628211ULL + c;
}

/// Writes `a`, copies it into `b` with a Peek-before-Next consumer (the
/// merge-join access pattern), then scans `b` once more into a digest.
template <typename T, typename MakeT>
std::uint64_t StreamRoundTrip(em::Array<T> a, em::Array<T> b, std::size_t n,
                              MakeT make) {
  {
    em::Writer<T> w(a);
    for (std::size_t i = 0; i < n; ++i) w.Push(make(i));
    w.Flush();
  }
  {
    em::Scanner<T> in(a);
    em::Writer<T> w(b);
    while (in.HasNext()) {
      T peeked = in.Peek();
      T got = in.Next();
      EXPECT_TRUE(peeked == got);
      w.Push(got);
    }
    w.Flush();
  }
  std::uint64_t digest = 0;
  em::Scanner<T> in(b);
  while (in.HasNext()) MixDigest(in.Next(), &digest);
  return digest;
}

/// The same round trip as per-record Get/Set calls: a Peek and a Next are
/// each one Get, a Push is one Set.
template <typename T, typename MakeT>
std::uint64_t PerRecordRoundTrip(em::Array<T> a, em::Array<T> b, std::size_t n,
                                 MakeT make) {
  for (std::size_t i = 0; i < n; ++i) a.Set(i, make(i));
  for (std::size_t i = 0; i < n; ++i) {
    T peeked = a.Get(i);
    T got = a.Get(i);
    EXPECT_TRUE(peeked == got);
    b.Set(i, got);
  }
  std::uint64_t digest = 0;
  for (std::size_t i = 0; i < n; ++i) MixDigest(b.Get(i), &digest);
  return digest;
}

template <typename T, typename MakeT>
void ExpectStreamParity(std::size_t n, std::size_t m_words, std::size_t b_words,
                        MakeT make) {
  for (em::StorageKind storage :
       {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    em::IoStats stats[2];
    std::uint64_t digest[2];
    for (int per_record = 0; per_record < 2; ++per_record) {
      em::Context ctx = test::MakeContext(m_words, b_words, 0x5EED, storage);
      em::Array<T> a = ctx.Alloc<T>(n);
      em::Array<T> b = ctx.Alloc<T>(n);
      ctx.cache().Reset();
      digest[per_record] = per_record != 0
                               ? PerRecordRoundTrip<T>(a, b, n, make)
                               : StreamRoundTrip<T>(a, b, n, make);
      ctx.cache().FlushAll();
      stats[per_record] = ctx.cache().stats();
    }
    EXPECT_EQ(digest[0], digest[1]) << "values diverged";
    EXPECT_TRUE(SameStats(stats[0], stats[1]))
        << "n=" << n << " M=" << m_words << " B=" << b_words
        << " streams=" << StatsStr(stats[0])
        << " per_record=" << StatsStr(stats[1]);
  }
}

TEST(HotPathStreams, ScanWriePeekParityOneWordRecords) {
  auto make = [](std::size_t i) { return std::uint64_t{i} * 0x9E3779B97F4A7C15ULL; };
  for (std::size_t n : {0ULL, 1ULL, 7ULL, 64ULL, 1000ULL, 4096ULL}) {
    ExpectStreamParity<std::uint64_t>(n, 1 << 10, 16, make);
  }
}

TEST(HotPathStreams, ParityMultiWordRecords) {
  auto make = [](std::size_t i) {
    return Rec3{i, i * 3 + 1, ~std::uint64_t{i}};
  };
  ExpectStreamParity<Rec3>(999, 1 << 10, 16, make);
}

TEST(HotPathStreams, ParityPaddedRecords) {
  auto make = [](std::size_t i) {
    return PaddedRec{static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(i * 7),
                     static_cast<std::uint32_t>(~i)};
  };
  ExpectStreamParity<PaddedRec>(777, 1 << 10, 16, make);
}

TEST(HotPathStreams, ParityWhenRecordsCrossLineBoundaries) {
  // 3-word records over B=16: records straddle lines every few records.
  auto make = [](std::size_t i) { return Rec3{i, i + 1, i + 2}; };
  for (std::size_t b : {8ULL, 16ULL, 31ULL}) {  // including non-power-of-two B
    ExpectStreamParity<Rec3>(500, 32 * b, b, make);
  }
}

// ---------------------------------------------------------------------------
// 2. Stream-built operations reproduce pinned IoStats: exactly what the same
// operations charge as per-record Get/Set passes.

TEST(HotPathStreams, ScanOpsChargePinnedIoStats) {
  // Filter (aliasing, writes trail reads), Transform, UniqueConsecutive and
  // CountIf. M is sized so the aliasing filter's read-ahead/write-behind gap
  // stays resident.
  em::Context ctx = test::MakeContext(1 << 13, 16);
  const std::size_t n = 3000;
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  em::Array<std::uint64_t> b = ctx.Alloc<std::uint64_t>(n);
  ctx.cache().Reset();
  std::vector<std::uint64_t> want(n);
  {
    em::Writer<std::uint64_t> w(a);
    for (std::size_t i = 0; i < n; ++i) {
      want[i] = (i * 37) % 501;
      w.Push(want[i]);
    }
    w.Flush();
  }
  extsort::Transform(a, b, [](std::uint64_t v) { return v / 3; });
  std::size_t kept =
      extsort::Filter(b, b, [](std::uint64_t v) { return v % 2 == 0; });
  std::size_t uniq = extsort::UniqueConsecutive(
      b.Slice(0, kept), [](std::uint64_t x, std::uint64_t y) { return x == y; });
  std::size_t odd = extsort::CountIf(
      b.Slice(0, uniq), [](std::uint64_t v) { return v % 2 == 1; });
  ctx.cache().FlushAll();
  const em::IoStats stats = ctx.cache().stats();

  for (std::uint64_t& v : want) v /= 3;
  want.erase(std::remove_if(want.begin(), want.end(),
                            [](std::uint64_t v) { return v % 2 != 0; }),
             want.end());
  EXPECT_EQ(kept, want.size());
  want.erase(std::unique(want.begin(), want.end()), want.end());
  EXPECT_EQ(uniq, want.size());
  ctx.cache().set_counting(false);
  std::vector<std::uint64_t> got(uniq);
  b.ReadTo(0, uniq, got.data());
  EXPECT_EQ(got, want);
  EXPECT_EQ(odd, 0u);

  EXPECT_EQ(stats.block_reads, 0u) << StatsStr(stats);
  EXPECT_EQ(stats.block_writes, 376u) << StatsStr(stats);
  EXPECT_EQ(stats.cache_hits, 17660u) << StatsStr(stats);
}

TEST(HotPathStreams, MergeSortChargesPinnedIoStatsOnBothBackends) {
  // Bounded-fan-in multiway merge: every stream owns one resident line.
  for (em::StorageKind storage :
       {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    SCOPED_TRACE(storage == em::StorageKind::kFile ? "file" : "memory");
    em::Context ctx = test::MakeContext(1 << 10, 16, 0xABCD, storage);
    const std::size_t n = 5000;
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
    ctx.cache().Reset();
    SplitMix64 rng(99);
    std::vector<std::uint64_t> want(n);
    {
      em::Writer<std::uint64_t> w(a);
      for (std::size_t i = 0; i < n; ++i) {
        want[i] = rng.Next() % 100000;
        w.Push(want[i]);
      }
      w.Flush();
    }
    extsort::ExternalMergeSort(ctx, a,
                               [](std::uint64_t x, std::uint64_t y) { return x < y; });
    std::vector<std::uint64_t> sorted(n);
    ctx.cache().set_counting(false);
    a.ReadTo(0, n, sorted.data());
    ctx.cache().set_counting(true);
    ctx.cache().FlushAll();
    const em::IoStats stats = ctx.cache().stats();
    std::sort(want.begin(), want.end());
    EXPECT_EQ(sorted, want);
    EXPECT_EQ(stats.block_reads, 937u) << StatsStr(stats);
    EXPECT_EQ(stats.block_writes, 1252u) << StatsStr(stats);
    EXPECT_EQ(stats.cache_hits, 23437u) << StatsStr(stats);
  }
}

TEST(HotPathStreams, CopyChargesOneTransferPerLineOnBothBackends) {
  // extsort::Copy of multi-word records far larger than M: every source
  // line is read once and every (block-aligned) destination line is
  // allocated without a fetch and written back once.
  const std::size_t n = 2500;
  const std::size_t lines = (n * 3 + 15) / 16;
  std::vector<em::IoStats> stats;
  for (em::StorageKind kind : {em::StorageKind::kMemory,
                               em::StorageKind::kFile}) {
    SCOPED_TRACE(kind == em::StorageKind::kFile ? "file" : "memory");
    em::Context ctx = test::MakeContext(1 << 10, 16, 0x7001, kind);
    em::Array<Rec3> a = ctx.Alloc<Rec3>(n);
    for (std::size_t i = 0; i < n; ++i) a.Set(i, Rec3{i, i ^ 7, i * 11});
    em::Array<Rec3> b = ctx.Alloc<Rec3>(n);
    ctx.cache().Reset();
    extsort::Copy(a, b);
    ctx.cache().FlushAll();
    EXPECT_EQ(ctx.cache().stats().block_reads, lines);
    EXPECT_EQ(ctx.cache().stats().block_writes, lines);
    stats.push_back(ctx.cache().stats());
    ctx.cache().set_counting(false);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(a.Get(i) == b.Get(i)) << i;
    }
  }
  EXPECT_TRUE(SameStats(stats[0], stats[1]))
      << StatsStr(stats[0]) << " vs " << StatsStr(stats[1]);
}

TEST(HotPathDifferential, StandardCasesProduceIdenticalTriangles) {
  // Cheap correctness sweep over the whole menagerie against the host
  // reference.
  for (const test::GraphCase& gc : test::StandardGraphCases()) {
    std::vector<Triangle> want = test::ReferenceNormalized(gc.edges);
    for (const char* algo : {"ps-cache-aware", "ps-cache-oblivious", "mgt"}) {
      SCOPED_TRACE(gc.name + std::string(" / ") + algo);
      std::vector<Triangle> got = test::RunCollect(algo, gc.edges);
      EXPECT_EQ(want, got);
    }
  }
}

// ---------------------------------------------------------------------------
// 3. LineMap dense/sparse regimes.

TEST(LineMapRegimes, SparseRegimeCountsExactlyLikeDense) {
  // The same (relative) touch sequence must produce identical IoStats
  // whether the lines sit below the dense limit or far above it.
  const std::size_t b = 16;
  const std::size_t dense_limit = 64;  // tiny, to force the sparse regime
  SplitMix64 rng(0x11AA);
  std::vector<std::pair<em::Addr, bool>> ops;
  for (int i = 0; i < 5000; ++i) {
    ops.emplace_back(rng.Next() % (b * 256), rng.Next() % 2 == 0);
  }
  em::IoStats stats[2];
  int idx = 0;
  for (em::Addr offset : {em::Addr{0}, em::Addr{b * dense_limit * 1000}}) {
    em::Cache cache(b * 8, b, nullptr, dense_limit);
    for (auto [addr, write] : ops) cache.Touch(addr + offset, write);
    cache.FlushAll();
    stats[idx++] = cache.stats();
  }
  EXPECT_TRUE(SameStats(stats[0], stats[1]))
      << "dense=" << StatsStr(stats[0]) << " sparse=" << StatsStr(stats[1]);
}

TEST(LineMapRegimes, FileBackendWorksBeyondDenseLimit) {
  // A staged device addressed past the store's dense line-map limit: data
  // stays correct and host memory for the map is bounded by residency, not
  // by the device size. At B = 1 the limit's 2^22 lines are 32 MiB of
  // address range, which the sparse file makes cheap.
  em::EmConfig cfg;
  cfg.memory_words = 1 << 8;
  cfg.block_words = 1;
  cfg.storage = em::StorageKind::kFile;
  em::Context ctx(cfg);
  // Burn address space past the dense limit, then allocate out there.
  ctx.device().Allocate(em::Cache::kDenseLineLimit, 1);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(4096);
  ASSERT_GE(a.base() / cfg.block_words, em::Cache::kDenseLineLimit);
  {
    em::Writer<std::uint64_t> w(a);
    for (std::size_t i = 0; i < 4096; ++i) w.Push(i * 3 + 1);
    w.Flush();
  }
  em::Scanner<std::uint64_t> in(a);
  std::size_t i = 0;
  while (in.HasNext()) {
    ASSERT_EQ(in.Next(), i * 3 + 1) << i;
    ++i;
  }
  ctx.cache().FlushAll();
  // One sequential write pass + one read pass at block granularity.
  const std::size_t lines = 4096 / cfg.block_words;
  EXPECT_EQ(ctx.cache().stats().block_writes, lines);
  EXPECT_EQ(ctx.cache().stats().block_reads, lines);
}

TEST(LineMapRegimes, MapMatchesAHashMapAcrossTheDenseLimit) {
  // Random sets, erasures (slot -1) and clears on lines below a small dense
  // limit, around it, and far past it: each lookup agrees with a hash map,
  // and an absent line reads -1 in either regime.
  const std::size_t limit = 256;
  em::LineMap map(limit);
  std::unordered_map<std::int64_t, std::int32_t> ref;
  SplitMix64 rng(0x11AB);
  auto any_line = [&]() -> std::int64_t {
    switch (rng.Next() % 3) {
      case 0:
        return static_cast<std::int64_t>(rng.Next() % limit);
      case 1:
        return static_cast<std::int64_t>(limit - 8 + rng.Next() % 16);
      default:
        return (std::int64_t{1} << 40) + static_cast<std::int64_t>(
                                             rng.Next() % 512);
    }
  };
  auto expect = [&](std::int64_t line) {
    auto it = ref.find(line);
    return it == ref.end() ? std::int32_t{-1} : it->second;
  };
  for (int op = 0; op < 20000; ++op) {
    const std::int64_t line = any_line();
    const std::uint64_t kind = rng.Next() % 100;
    if (kind < 60) {
      const auto slot = static_cast<std::int32_t>(rng.Next() % 1000);
      map.Set(line, slot);
      ref[line] = slot;
    } else if (kind < 99) {
      map.Set(line, -1);
      ref.erase(line);
    } else {
      map.Clear();
      ref.clear();
    }
    ASSERT_EQ(map.Get(line), expect(line)) << "op " << op << " line " << line;
    const std::int64_t probe = any_line();
    ASSERT_EQ(map.Get(probe), expect(probe)) << "op " << op << " line " << probe;
  }
}

TEST(LineMapRegimes, FileBackendArrayStraddlesTheDenseLimit) {
  // Half of the array's lines sit below the store's dense limit and half at
  // or above it, so one stream crosses from the dense vector, grown to its
  // cap, into the hash map. At B = 1 the boundary is 32 MiB into a sparse
  // file.
  em::EmConfig cfg;
  cfg.memory_words = 1 << 8;
  cfg.block_words = 1;
  cfg.storage = em::StorageKind::kFile;
  em::Context ctx(cfg);
  const std::size_t n = 4096;
  const em::Addr start = em::Cache::kDenseLineLimit - n / 2;
  ASSERT_LE(ctx.device().Mark(), start);
  ctx.device().Allocate(start - ctx.device().Mark(), 1);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  ASSERT_EQ(a.base(), start);
  {
    em::Writer<std::uint64_t> w(a);
    for (std::size_t i = 0; i < n; ++i) w.Push(i * 7 + 5);
    w.Flush();
  }
  em::Scanner<std::uint64_t> in(a);
  std::size_t i = 0;
  while (in.HasNext()) {
    ASSERT_EQ(in.Next(), i * 7 + 5) << i;
    ++i;
  }
  ASSERT_EQ(i, n);
  ctx.cache().FlushAll();
  // One sequential write pass + one read pass, a transfer per line.
  EXPECT_EQ(ctx.cache().stats().block_writes, n);
  EXPECT_EQ(ctx.cache().stats().block_reads, n);
}

TEST(LineMapRegimes, ScanChargesMatchElementwiseAtHugeAddresses) {
  // ScanRange vs per-record TouchRange on twin caches, randomized over
  // record sizes and spans, in the sparse regime.
  const std::size_t b = 16;
  SplitMix64 rng(0x77);
  em::Cache coalesced(b * 8, b, nullptr, /*dense_limit=*/16);
  em::Cache elementwise(b * 8, b, nullptr, /*dense_limit=*/16);
  const em::Addr base = em::Addr{1} << 40;
  for (int round = 0; round < 2000; ++round) {
    std::size_t elem_words = 1 + rng.Next() % 5;
    std::size_t count = 1 + rng.Next() % 40;
    em::Addr addr = base + (rng.Next() % (1 << 14));
    bool write = rng.Next() % 2 == 0;
    coalesced.ScanRange(addr, count * elem_words, elem_words, write);
    for (std::size_t i = 0; i < count; ++i) {
      elementwise.TouchRange(addr + i * elem_words, elem_words, write);
    }
    ASSERT_TRUE(SameStats(coalesced.stats(), elementwise.stats()))
        << "round " << round << " coalesced=" << StatsStr(coalesced.stats())
        << " elementwise=" << StatsStr(elementwise.stats());
  }
}

}  // namespace
}  // namespace trienum
