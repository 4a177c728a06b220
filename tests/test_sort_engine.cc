// Adversarial differential suite for the layered sort engine.
//
// Layer by layer: SortRun (radix / fallback) against
// std::stable_sort, the LoserTree against a stable k-way merge reference,
// and the whole ExternalMergeSort against a reference implementation built
// the pre-engine way (comparison-sorted runs + a (value, stream) heap) that
// issues the identical I/O sequence — on duplicates-heavy, presorted,
// reverse-sorted, all-equal and random inputs of two sizes, over both storage
// backends and non-power-of-two B, asserting identical output AND identical
// IoStats.
//
// The engine-wide determinism contract pinned here: every sort path is
// stable, so ExternalMergeSort and FunnelSort both reproduce the
// std::stable_sort order exactly (and therefore each other).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "extsort/ext_merge_sort.h"
#include "extsort/funnel_sort.h"
#include "extsort/io_bounds.h"
#include "extsort/loser_tree.h"
#include "extsort/run_formation.h"
#include "extsort/sort_key.h"
#include "test_util.h"

namespace trienum {
namespace {

using extsort::LoserTree;
using extsort::SortKeyTraits;
using extsort::SortRun;

// ---------------------------------------------------------------------------
// Record types exercising every trait path.

/// Complete key, payload field: stability is observable through `tag`.
struct KeyedPayload {
  std::uint32_t k = 0;
  std::uint32_t tag = 0;
  friend bool operator==(const KeyedPayload& a, const KeyedPayload& b) {
    return a.k == b.k && a.tag == b.tag;
  }
};
struct KeyedPayloadLess {
  static constexpr bool kKeyComplete = true;
  static std::uint64_t Key(const KeyedPayload& r) { return r.k; }
  bool operator()(const KeyedPayload& a, const KeyedPayload& b) const {
    return a.k < b.k;
  }
};

/// 96-bit order truncated to a 64-bit prefix key (kKeyComplete == false).
struct Tri96 {
  std::uint32_t a = 0, b = 0, c = 0, pad = 0;
  friend bool operator==(const Tri96& x, const Tri96& y) {
    return x.a == y.a && x.b == y.b && x.c == y.c;
  }
};
struct Tri96Less {
  static constexpr bool kKeyComplete = false;
  static std::uint64_t Key(const Tri96& r) { return extsort::PackKey(r.a, r.b); }
  bool operator()(const Tri96& x, const Tri96& y) const {
    return std::tie(x.a, x.b, x.c) < std::tie(y.a, y.b, y.c);
  }
};

/// 24-byte record (the library's widest: wedge/incidence records) — sits
/// exactly on the direct-scatter boundary.
struct Mid24 {
  std::uint64_t key = 0;
  std::uint64_t x = 0, y = 0;
  friend bool operator==(const Mid24& a, const Mid24& b) {
    return a.key == b.key && a.x == b.x && a.y == b.y;
  }
};
struct Mid24Less {
  static constexpr bool kKeyComplete = true;
  static std::uint64_t Key(const Mid24& r) { return r.key; }
  bool operator()(const Mid24& a, const Mid24& b) const {
    return a.key < b.key;
  }
};

/// 32-byte record under a keyless comparator: wider than any keyed record
/// SortRun accepts, so it sorts through std::stable_sort.
struct WideRec {
  std::uint64_t key = 0;
  std::uint64_t x = 0, y = 0, z = 0;
  friend bool operator==(const WideRec& a, const WideRec& b) {
    return a.key == b.key && a.x == b.x && a.y == b.y && a.z == b.z;
  }
};
struct WideKeylessLess {
  bool operator()(const WideRec& a, const WideRec& b) const {
    return a.key < b.key;
  }
};

static_assert(SortKeyTraits<KeyedPayloadLess, KeyedPayload>::kHasKey);
static_assert(SortKeyTraits<KeyedPayloadLess, KeyedPayload>::kComplete);
static_assert(SortKeyTraits<Tri96Less, Tri96>::kHasKey);
static_assert(!SortKeyTraits<Tri96Less, Tri96>::kComplete);
// std::less over unsigned integers radixes via the identity key.
static_assert(SortKeyTraits<std::less<std::uint64_t>, std::uint64_t>::kHasKey);
static_assert(SortKeyTraits<std::less<std::uint32_t>, std::uint32_t>::kHasKey);
// A bare lambda-style comparator has no key: comparison-sort fallback.
struct PlainLess {
  bool operator()(std::uint64_t a, std::uint64_t b) const { return a > b; }
};
static_assert(!SortKeyTraits<PlainLess, std::uint64_t>::kHasKey);
static_assert(!SortKeyTraits<WideKeylessLess, WideRec>::kHasKey);

// ---------------------------------------------------------------------------
// Input patterns.

enum class Pattern { kRandom, kSorted, kReversed, kAllEqual, kDupHeavy };
const Pattern kAllPatterns[] = {Pattern::kRandom, Pattern::kSorted,
                                Pattern::kReversed, Pattern::kAllEqual,
                                Pattern::kDupHeavy};

const char* PatternName(Pattern p) {
  switch (p) {
    case Pattern::kRandom: return "random";
    case Pattern::kSorted: return "sorted";
    case Pattern::kReversed: return "reversed";
    case Pattern::kAllEqual: return "allequal";
    case Pattern::kDupHeavy: return "dupheavy";
  }
  return "?";
}

std::uint64_t PatternValue(Pattern p, std::size_t i, std::size_t n,
                           SplitMix64& rng) {
  switch (p) {
    case Pattern::kRandom: return rng.Next();
    case Pattern::kSorted: return i;
    case Pattern::kReversed: return n - i;
    case Pattern::kAllEqual: return 42;
    case Pattern::kDupHeavy: return rng.Next() % 7;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// 1. Host layer: SortRun == std::stable_sort on every trait path.

template <typename T, typename Less, typename Make>
void HostDifferential(Less less, Make make) {
  for (Pattern p : kAllPatterns) {
    // Sizes straddling the insertion-sort threshold and the radix path, up
    // to a 65,536-record load.
    for (std::size_t n :
         {0ul, 1ul, 2ul, 31ul, 47ul, 48ul, 257ul, 5000ul, 65536ul}) {
      SplitMix64 rng(0xC0FFEE ^ n);
      std::vector<T> input(n);
      for (std::size_t i = 0; i < n; ++i) input[i] = make(p, i, n, rng);
      std::vector<T> expect = input;
      std::stable_sort(expect.begin(), expect.end(), less);
      std::vector<T> got = input;
      SortRun(got.data(), got.size(), less);
      ASSERT_EQ(got, expect) << PatternName(p) << " n=" << n;
    }
  }
}

TEST(SortRun, MatchesStableSortOnU64IdentityKey) {
  HostDifferential<std::uint64_t>(
      std::less<std::uint64_t>{},
      [](Pattern p, std::size_t i, std::size_t n, SplitMix64& rng) {
        return PatternValue(p, i, n, rng);
      });
}

TEST(SortRun, MatchesStableSortOnEdgesLex) {
  HostDifferential<graph::Edge>(
      graph::LexLess{},
      [](Pattern p, std::size_t i, std::size_t n, SplitMix64& rng) {
        std::uint64_t v = PatternValue(p, i, n, rng);
        return graph::Edge{static_cast<graph::VertexId>(v % 97),
                           static_cast<graph::VertexId>((v >> 8) % 97)};
      });
}

TEST(SortRun, StableOnCompleteKeyWithPayload) {
  HostDifferential<KeyedPayload>(
      KeyedPayloadLess{},
      [](Pattern p, std::size_t i, std::size_t n, SplitMix64& rng) {
        return KeyedPayload{
            static_cast<std::uint32_t>(PatternValue(p, i, n, rng) % 13),
            static_cast<std::uint32_t>(i)};  // tag records the input order
      });
}

TEST(SortRun, PrefixKeyFinishesTieRunsWithComparator) {
  HostDifferential<Tri96>(
      Tri96Less{}, [](Pattern p, std::size_t i, std::size_t n, SplitMix64& rng) {
        std::uint64_t v = PatternValue(p, i, n, rng);
        return Tri96{static_cast<std::uint32_t>(v % 5),
                     static_cast<std::uint32_t>((v >> 3) % 5),
                     static_cast<std::uint32_t>((v >> 6) % 5), 0};
      });
}

TEST(SortRun, BoundaryWidthRecordsScatterDirectly) {
  static_assert(sizeof(Mid24) == 24, "must sit on the direct-scatter boundary");
  HostDifferential<Mid24>(
      Mid24Less{}, [](Pattern p, std::size_t i, std::size_t n, SplitMix64& rng) {
        std::uint64_t v = PatternValue(p, i, n, rng);
        return Mid24{v % 11, i, ~i};
      });
}

TEST(SortRun, WideKeylessRecordsFallBackStable) {
  static_assert(sizeof(WideRec) > extsort::internal::kDirectScatterMaxBytes,
                "must be wider than any keyed record SortRun accepts");
  HostDifferential<WideRec>(
      WideKeylessLess{},
      [](Pattern p, std::size_t i, std::size_t n, SplitMix64& rng) {
        std::uint64_t v = PatternValue(p, i, n, rng);
        return WideRec{v % 11, i, ~i, i * 3};
      });
}

TEST(SortRun, KeylessComparatorFallsBackStable) {
  HostDifferential<std::uint64_t>(
      PlainLess{}, [](Pattern p, std::size_t i, std::size_t n, SplitMix64& rng) {
        return PatternValue(p, i, n, rng);
      });
}

// ---------------------------------------------------------------------------
// 2. Merge layer: LoserTree == stable k-way merge reference.

TEST(LoserTree, MatchesStableKWayMerge) {
  for (std::size_t k : {1ul, 2ul, 3ul, 5ul, 8ul, 9ul, 31ul}) {
    for (Pattern p : kAllPatterns) {
      SplitMix64 rng(k * 1000003 + static_cast<std::size_t>(p));
      // Sorted source runs of uneven lengths (some empty).
      std::vector<std::vector<std::uint64_t>> runs(k);
      for (std::size_t s = 0; s < k; ++s) {
        std::size_t len = (s % 3 == 2) ? 0 : rng.Below(200);
        runs[s].resize(len);
        for (std::size_t i = 0; i < len; ++i) {
          runs[s][i] = PatternValue(p, i, len, rng);
        }
        std::sort(runs[s].begin(), runs[s].end());
      }

      // Reference: repeatedly take the (value, source) minimum — the stable
      // merge order.
      std::vector<std::pair<std::uint64_t, std::size_t>> expect;
      {
        std::vector<std::size_t> pos(k, 0);
        while (true) {
          std::size_t best = k;
          for (std::size_t s = 0; s < k; ++s) {
            if (pos[s] >= runs[s].size()) continue;
            if (best == k || runs[s][pos[s]] < runs[best][pos[best]]) best = s;
          }
          if (best == k) break;
          expect.emplace_back(runs[best][pos[best]], best);
          ++pos[best];
        }
      }

      LoserTree<std::uint64_t, std::less<std::uint64_t>> tree(k, {});
      std::vector<std::size_t> pos(k, 0);
      for (std::size_t s = 0; s < k; ++s) {
        if (!runs[s].empty()) tree.SetInitial(s, runs[s][pos[s]++]);
      }
      tree.Init();
      std::vector<std::pair<std::uint64_t, std::size_t>> got;
      while (tree.HasWinner()) {
        std::size_t s = tree.WinnerSource();
        got.emplace_back(tree.WinnerValue(), s);
        if (pos[s] < runs[s].size()) {
          tree.ReplaceWinner(runs[s][pos[s]++]);
        } else {
          tree.ExhaustWinner();
        }
      }
      ASSERT_EQ(got, expect) << "k=" << k << " " << PatternName(p);
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Engine vs pre-engine reference: identical output AND identical IoStats.

/// The PR 3 implementation shape — comparison-sorted runs, (value, stream)
/// heap merge — with stable tie-breaking so its output order is the spec the
/// engine must reproduce. Every device access (ReadTo/WriteFrom, Scanner /
/// Writer construction and consumption order, scratch leases) mirrors
/// ExternalMergeSort call for call, so its IoStats are the engine's
/// invariance baseline.
template <typename T, typename Less>
void ReferenceMergeSort(em::Context& ctx, em::Array<T> data, Less less) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  const std::size_t words_per = em::Array<T>::kWordsPer;
  auto region = ctx.Region();

  const std::size_t run_items =
      std::max<std::size_t>(1, (ctx.memory_words() / 2) / words_per);
  em::Array<T> ping = ctx.Alloc<T>(n);
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  {
    em::ScratchLease lease = ctx.LeaseScratch(run_items * words_per);
    std::vector<T> buf(std::min(run_items, n));
    for (std::size_t lo = 0; lo < n; lo += run_items) {
      std::size_t hi = std::min(n, lo + run_items);
      data.ReadTo(lo, hi, buf.data());
      std::stable_sort(buf.begin(), buf.begin() + (hi - lo), less);
      ctx.AddWork((hi - lo) * 4);
      ping.WriteFrom(lo, hi, buf.data());
      runs.emplace_back(lo, hi);
    }
  }

  const std::size_t fan =
      std::max<std::size_t>(2, ctx.memory_words() / (2 * ctx.block_words()));
  em::Array<T> pong = runs.size() > 1 ? ctx.Alloc<T>(n) : em::Array<T>();
  em::Array<T> src = ping;
  while (runs.size() > 1) {
    std::vector<std::pair<std::size_t, std::size_t>> next_runs;
    em::Writer<T> out(pong);
    for (std::size_t g = 0; g < runs.size(); g += fan) {
      std::size_t g_end = std::min(runs.size(), g + fan);
      std::size_t out_lo = out.count();

      em::ScratchLease lease = ctx.LeaseScratch((g_end - g) * (words_per + 2));
      std::vector<em::Scanner<T>> streams;
      streams.reserve(g_end - g);
      for (std::size_t r = g; r < g_end; ++r) {
        streams.emplace_back(src, runs[r].first, runs[r].second);
      }
      // Max-heap inverted to a min-heap on (value, stream): the stable order.
      auto heap_less = [&less](const std::pair<T, std::size_t>& a,
                               const std::pair<T, std::size_t>& b) {
        if (less(b.first, a.first)) return true;
        if (less(a.first, b.first)) return false;
        return b.second < a.second;
      };
      std::vector<std::pair<T, std::size_t>> heap;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        if (streams[s].HasNext()) heap.emplace_back(streams[s].Next(), s);
      }
      std::make_heap(heap.begin(), heap.end(), heap_less);
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), heap_less);
        auto [v, s] = heap.back();
        heap.pop_back();
        out.Push(v);
        ctx.AddWork(4);
        if (streams[s].HasNext()) {
          heap.emplace_back(streams[s].Next(), s);
          std::push_heap(heap.begin(), heap.end(), heap_less);
        }
      }
      next_runs.emplace_back(out_lo, out.count());
    }
    out.Flush();
    runs.swap(next_runs);
    std::swap(src, pong);
  }
  if (src.base() != data.base()) extsort::Copy(src, data);
}

bool SameIo(const em::IoStats& a, const em::IoStats& b) {
  return a.block_reads == b.block_reads && a.block_writes == b.block_writes &&
         a.cache_hits == b.cache_hits;
}

std::string IoStr(const em::IoStats& s) {
  return "r=" + std::to_string(s.block_reads) +
         " w=" + std::to_string(s.block_writes) +
         " h=" + std::to_string(s.cache_hits);
}

struct EngineParam {
  std::size_t n;
  Pattern pattern;
  std::size_t m_words;
  std::size_t b_words;  // includes a non-power-of-two B
  em::StorageKind storage;
};

class SortEngineDifferentialTest
    : public ::testing::TestWithParam<EngineParam> {};

TEST_P(SortEngineDifferentialTest, EngineMatchesReferenceOutputAndIo) {
  const EngineParam& p = GetParam();
  std::vector<std::uint64_t> input(p.n);
  SplitMix64 rng(0x5EED ^ p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    input[i] = PatternValue(p.pattern, i, p.n, rng);
  }

  auto run = [&](auto sort_fn, std::vector<std::uint64_t>* out,
                 em::IoStats* io) {
    em::Context ctx = test::MakeContext(p.m_words, p.b_words, 0x7001, p.storage);
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(p.n);
    ctx.cache().set_counting(false);
    a.WriteFrom(0, p.n, input.data());
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    sort_fn(ctx, a);
    ctx.cache().FlushAll();
    *io = ctx.cache().stats();
    out->resize(p.n);
    ctx.cache().set_counting(false);
    a.ReadTo(0, p.n, out->data());
  };

  std::vector<std::uint64_t> got, expect;
  em::IoStats got_io, expect_io;
  run([](em::Context& ctx, em::Array<std::uint64_t> a) {
        extsort::ExternalMergeSort(ctx, a, std::less<std::uint64_t>{});
      },
      &got, &got_io);
  run([](em::Context& ctx, em::Array<std::uint64_t> a) {
        ReferenceMergeSort(ctx, a, std::less<std::uint64_t>{});
      },
      &expect, &expect_io);

  EXPECT_EQ(got, expect);
  EXPECT_TRUE(SameIo(got_io, expect_io))
      << "engine=" << IoStr(got_io) << " reference=" << IoStr(expect_io);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
}

std::vector<EngineParam> EngineParams() {
  std::vector<EngineParam> out;
  struct Cfg {
    std::size_t m, b;
  };
  // M=256 forces many merge passes; B=48 is the non-power-of-two line size.
  const Cfg cfgs[] = {{1 << 10, 16}, {1 << 10, 48}, {256, 16}};
  // 5000 items merge in one group at M=1024. 21001 (odd, a ragged last run)
  // needs several fan-in groups in its first pass at every Cfg: two passes at
  // M=1024 and three at M=256.
  for (std::size_t n : {std::size_t{5000}, std::size_t{21001}}) {
    for (Pattern p : kAllPatterns) {
      for (const Cfg& c : cfgs) {
        for (em::StorageKind st :
             {em::StorageKind::kMemory, em::StorageKind::kFile}) {
          out.push_back(EngineParam{n, p, c.m, c.b, st});
        }
      }
    }
  }
  return out;
}

std::string EngineName(const ::testing::TestParamInfo<EngineParam>& info) {
  const EngineParam& p = info.param;
  std::string out = PatternName(p.pattern);
  out += "_n";
  out += std::to_string(p.n);
  out += "_M";
  out += std::to_string(p.m_words);
  out += "_B";
  out += std::to_string(p.b_words);
  out += p.storage == em::StorageKind::kMemory ? "_mem" : "_file";
  return out;
}

INSTANTIATE_TEST_SUITE_P(Adversarial, SortEngineDifferentialTest,
                         ::testing::ValuesIn(EngineParams()), EngineName);

// ---------------------------------------------------------------------------
// 4. Whole-engine stability: both sorts reproduce std::stable_sort exactly
// (and therefore each other) on payload-carrying records.

TEST(SortEngine, BothSortsAreStableAndAgree) {
  const std::size_t n = 3000;
  std::vector<KeyedPayload> input(n);
  SplitMix64 rng(77);
  for (std::size_t i = 0; i < n; ++i) {
    input[i] = KeyedPayload{static_cast<std::uint32_t>(rng.Below(9)),
                            static_cast<std::uint32_t>(i)};
  }
  std::vector<KeyedPayload> expect = input;
  std::stable_sort(expect.begin(), expect.end(), KeyedPayloadLess{});

  auto run = [&](auto sort_fn) {
    em::Context ctx = test::MakeContext(1 << 10, 16);
    em::Array<KeyedPayload> a = ctx.Alloc<KeyedPayload>(n);
    a.WriteFrom(0, n, input.data());
    sort_fn(ctx, a);
    std::vector<KeyedPayload> out(n);
    a.ReadTo(0, n, out.data());
    return out;
  };
  std::vector<KeyedPayload> ems = run([](em::Context& ctx, em::Array<KeyedPayload> a) {
    extsort::ExternalMergeSort(ctx, a, KeyedPayloadLess{});
  });
  std::vector<KeyedPayload> fun = run([](em::Context& ctx, em::Array<KeyedPayload> a) {
    extsort::FunnelSort(ctx, a, KeyedPayloadLess{});
  });
  EXPECT_EQ(ems, expect);
  EXPECT_EQ(fun, expect);
}

// ---------------------------------------------------------------------------
// 5. Keyed struct sorts through the engine: prefix-key records end-to-end on
// both backends, bit-for-bit.

TEST(SortEngine, PrefixKeyRecordsAcrossBackends) {
  const std::size_t n = 4000;
  std::vector<graph::ColoredEdge> input(n);
  SplitMix64 rng(31337);
  for (std::size_t i = 0; i < n; ++i) {
    input[i] = graph::ColoredEdge{
        static_cast<graph::VertexId>(rng.Below(50)),
        static_cast<graph::VertexId>(rng.Below(50)),
        static_cast<std::uint32_t>(rng.Below(4)),
        static_cast<std::uint32_t>(rng.Below(4))};
  }
  std::vector<graph::ColoredEdge> expect = input;
  std::stable_sort(expect.begin(), expect.end(), graph::ColorClassLess{});

  for (em::StorageKind st : {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    em::Context ctx = test::MakeContext(1 << 10, 16, 0x7001, st);
    em::Array<graph::ColoredEdge> a = ctx.Alloc<graph::ColoredEdge>(n);
    a.WriteFrom(0, n, input.data());
    extsort::ExternalMergeSort(ctx, a, graph::ColorClassLess{});
    std::vector<graph::ColoredEdge> out(n);
    a.ReadTo(0, n, out.data());
    EXPECT_TRUE(std::equal(out.begin(), out.end(), expect.begin(),
                           [](const graph::ColoredEdge& x,
                              const graph::ColoredEdge& y) { return x == y; }))
        << (st == em::StorageKind::kMemory ? "memory" : "file");
  }
}

// ---------------------------------------------------------------------------
// 6. The relocated I/O bound still prices the engine.

TEST(SortEngine, IoBoundHeaderPricesTheEngine) {
  const std::size_t n = 1 << 14, m = 1 << 10, b = 16;
  em::Context ctx = test::MakeContext(m, b);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  SplitMix64 rng(5);
  ctx.cache().set_counting(false);
  for (std::size_t i = 0; i < n; ++i) a.Set(i, rng.Next());
  ctx.cache().set_counting(true);
  ctx.cache().Reset();
  extsort::ExternalMergeSort(ctx, a, std::less<std::uint64_t>{});
  ctx.cache().FlushAll();
  double bound = extsort::SortIoBound(n, 1, m, b);
  EXPECT_LE(static_cast<double>(ctx.cache().stats().total_ios()), 3.0 * bound);
}

// ---------------------------------------------------------------------------
// 7. The keyless external sort ignores the session's thread count: run
// formation is serial, so output AND IoStats match at every count.

TEST(SortEngine, KeylessExternalSortIgnoresTheSessionThreadCount) {
  // M = 2^16 words: 65536-record loads, each one std::stable_sort.
  const std::size_t n = 1 << 17, m = 1 << 16, b = 64;
  auto run = [&](std::size_t threads) {
    em::Context ctx = test::MakeContext(m, b);
    ctx.set_threads(threads);
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
    SplitMix64 rng(0xFACE);
    ctx.cache().set_counting(false);
    for (std::size_t i = 0; i < n; ++i) a.Set(i, rng.Next() % 13);
    ctx.cache().set_counting(true);
    ctx.cache().Reset();
    extsort::ExternalMergeSort(ctx, a, PlainLess{});
    ctx.cache().FlushAll();
    std::vector<std::uint64_t> out(n);
    ctx.cache().set_counting(false);
    a.ReadTo(0, n, out.data());
    return std::make_pair(out, ctx.cache().stats());
  };
  const auto [base_out, base_io] = run(1);
  ASSERT_TRUE(std::is_sorted(base_out.begin(), base_out.end(), PlainLess{}));
  for (std::size_t threads : {std::size_t{2}, std::size_t{7}}) {
    const auto [out, io] = run(threads);
    ASSERT_EQ(out, base_out) << "threads " << threads;
    EXPECT_EQ(io.block_reads, base_io.block_reads) << "threads " << threads;
    EXPECT_EQ(io.block_writes, base_io.block_writes) << "threads " << threads;
    EXPECT_EQ(io.cache_hits, base_io.cache_hits) << "threads " << threads;
  }
}

}  // namespace
}  // namespace trienum
