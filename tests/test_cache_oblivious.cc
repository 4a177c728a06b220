// The §3 cache-oblivious algorithm: obliviousness (identical emission for
// every hierarchy configuration), the recursion shape its co.recurse span
// reports, the depth cap's Dementiev base, the streaming join that solves
// the other base cases, and the I/O advantage over MGT at small M.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "common/rng.h"
#include "core/cache_oblivious.h"
#include "core/mgt.h"
#include "obs/trace.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

std::vector<Triangle> RunOblivious(const std::vector<Edge>& raw,
                                   std::uint64_t seed = 0x7001,
                                   std::size_t m = 1 << 12,
                                   std::size_t b = 16) {
  em::Context ctx = test::MakeContext(m, b);
  ctx.set_seed(seed);
  EmGraph g = BuildEmGraph(ctx, raw);
  core::CollectingSink sink;
  core::EnumerateCacheOblivious(ctx, g, sink);
  auto out = sink.triangles();
  std::sort(out.begin(), out.end());
  return out;
}

/// One run of the recursion on a cold cache.
struct CoRun {
  std::vector<Triangle> tris;
  em::IoStats io;
  std::uint64_t work = 0;
};

/// Runs the recursion on `raw` under `seed` on a cold cache of M = `m`,
/// B = `b` words, capped at `max_depth` (< 0: the algorithm's own cap).
/// With a collector, a sampler over this context's counters gives the
/// co.recurse span its inclusive I/O delta.
CoRun RunCoRecurse(const std::vector<Edge>& raw, std::size_t m, std::size_t b,
                   std::uint64_t seed, obs::TraceCollector* tc,
                   int max_depth = -1) {
  em::Context ctx = test::MakeContext(m, b);
  ctx.set_seed(seed);
  EmGraph g = BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  ctx.ResetWork();
  CoRun r;
  core::CollectingSink sink;
  auto run = [&] {
    if (max_depth < 0) {
      core::EnumerateCacheOblivious(ctx, g, sink);
    } else {
      core::internal::EnumerateCacheObliviousToDepth(ctx, g, sink, max_depth);
    }
  };
  if (tc != nullptr) {
    tc->set_sampler([&ctx] {
      obs::CounterSample s;
      s.block_reads = ctx.cache().stats().block_reads;
      s.block_writes = ctx.cache().stats().block_writes;
      s.cache_hits = ctx.cache().stats().cache_hits;
      s.work = ctx.work();
      return s;
    });
    obs::ScopedTraceCollector install(*tc);
    run();
    tc->clear_sampler();
  } else {
    run();
  }
  ctx.cache().FlushAll();
  r.io = ctx.cache().stats();
  r.work = ctx.work();
  r.tris = sink.triangles();
  return r;
}

/// Tracing must not move a single charge or emission.
void ExpectSameRun(const CoRun& traced, const CoRun& untraced) {
  EXPECT_EQ(traced.tris, untraced.tris);  // emission order included
  EXPECT_EQ(traced.io.block_reads, untraced.io.block_reads);
  EXPECT_EQ(traced.io.block_writes, untraced.io.block_writes);
  EXPECT_EQ(traced.io.cache_hits, untraced.io.cache_hits);
  EXPECT_EQ(traced.work, untraced.work);
}

/// The co.recurse span among `evs`, or null.
const obs::TraceEvent* CoRecurseSpan(const std::vector<obs::TraceEvent>& evs) {
  auto span = std::find_if(evs.begin(), evs.end(), [](const auto& ev) {
    return std::string(ev.name) == "co.recurse";
  });
  return span == evs.end() ? nullptr : &*span;
}

std::map<std::string, std::uint64_t> ArgsOf(const obs::TraceEvent& ev) {
  std::map<std::string, std::uint64_t> args;
  for (const auto& [k, v] : ev.args) args[k] = v;
  return args;
}

/// A traced run at M = 2^12, B = 16: its sorted triangles and the args of
/// its co.recurse span.
struct ShapedRun {
  std::vector<Triangle> tris;
  std::map<std::string, std::uint64_t> args;
};

ShapedRun RunShaped(const std::vector<Edge>& raw, std::uint64_t seed,
                    int max_depth = -1) {
  obs::TraceCollector tc;
  ShapedRun r;
  r.tris = RunCoRecurse(raw, 1 << 12, 16, seed, &tc, max_depth).tris;
  std::sort(r.tris.begin(), r.tris.end());
  const std::vector<obs::TraceEvent> evs = tc.events_since(0);
  const obs::TraceEvent* span = CoRecurseSpan(evs);
  EXPECT_NE(span, nullptr);
  if (span != nullptr) r.args = ArgsOf(*span);
  return r;
}

/// K_k joined to n independent vertices k, ..., k + n - 1: C(k,3) +
/// C(k,2)·n triangles. A clique vertex has degree k - 1 + n, short of E/8 at
/// the root once n is well above k, but it reaches E/8 in a node where the
/// clique's colour classes are small and the independent set's large, so
/// Lemma 1 fires below the root.
std::vector<Edge> CliqueJoined(VertexId k, VertexId n) {
  std::vector<Edge> raw = Clique(k);
  for (VertexId x = 0; x < k; ++x) {
    for (VertexId y = k; y < k + n; ++y) raw.push_back(Edge{x, y});
  }
  return raw;
}

TEST(CacheOblivious, EmissionIndependentOfMAndB) {
  // Obliviousness: with a fixed seed, the emitted multiset (indeed the whole
  // computation) cannot depend on M or B. Above the base, so the recursion
  // runs at every M and B.
  auto raw = Gnm(300, 6000, 21);
  ASSERT_GT(raw.size(), core::kTinyBase);
  auto first = RunOblivious(raw, 99, 1 << 12, 16);
  for (auto [m, b] : std::vector<std::pair<std::size_t, std::size_t>>{
           {256, 8}, {1 << 10, 32}, {1 << 15, 64}}) {
    EXPECT_EQ(RunOblivious(raw, 99, m, b), first) << "M=" << m << " B=" << b;
  }
  EXPECT_EQ(first, test::ReferenceNormalized(raw));
}

TEST(CacheOblivious, SeedsVaryRecursionNotAnswer) {
  // 5,600 edges: more than one kTinyBase leaf, and enough for a second level,
  // where the child sizes (unlike depth 1's, always 4E in all) depend on
  // the bits.
  auto raw = Gnm(160, 5600, 13);
  auto expected = test::ReferenceNormalized(raw);
  std::vector<std::uint64_t> child_edge_counts;
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const ShapedRun run = RunShaped(raw, seed);
    EXPECT_EQ(run.tris, expected);
    EXPECT_GT(run.args.at("subproblems"), 1u);
    EXPECT_GE(run.args.at("max_depth_reached"), 2u);
    child_edge_counts.push_back(run.args.at("total_child_edges"));
  }
  // Different random refinements lead to different recursion trees.
  EXPECT_FALSE(child_edge_counts[0] == child_edge_counts[1] &&
               child_edge_counts[1] == child_edge_counts[2]);
}

TEST(CacheOblivious, ReportShapeMatchesTheory) {
  auto raw = Gnm(600, 6000, 5);
  ASSERT_GT(raw.size(), core::kTinyBase);
  const ShapedRun run = RunShaped(raw, 7);
  EXPECT_EQ(run.tris, test::ReferenceNormalized(raw));
  // max depth = ceil(log4 E) for E=6000 -> 7.
  EXPECT_EQ(run.args.at("max_depth"), 7u);
  EXPECT_LE(run.args.at("max_depth_reached"), 7u);
  EXPECT_GT(run.args.at("subproblems"), 8u);
  // Total child-edge mass across all levels is O(E^{3/2}) (sum 2^i E).
  double e = 6000;
  EXPECT_LE(static_cast<double>(run.args.at("total_child_edges")),
            6.0 * std::pow(e, 1.5));
}

TEST(CacheOblivious, DepthZeroIsPureDementiev) {
  // Above the base, so the capped root takes the Dementiev branch, not the
  // streaming join.
  auto raw = Gnm(300, 6000, 29);
  ASSERT_GT(raw.size(), core::kTinyBase);
  const ShapedRun run = RunShaped(raw, 0x7001, /*max_depth=*/0);
  EXPECT_EQ(run.tris, test::ReferenceNormalized(raw));
  EXPECT_EQ(run.args.at("base_cases"), 1u);
  EXPECT_EQ(run.args.at("subproblems"), 1u);
}

TEST(CacheOblivious, CliqueWithLocalHighDegreeBelowTheRoot) {
  // A clique vertex has degree about sqrt(2E), short of E/8 in a balanced
  // node of more than about 85 edges, so Lemma 1 fires only in nodes where
  // two colour classes are much smaller than the third. Above the
  // kTinyBase-edge base a plain clique never gets there (K_100 to K_200 at
  // 30 seeds each made no call even above a 1,024-edge base). Joining K_12
  // to 1,200 independent vertices makes the clique's classes the small
  // ones: its vertices have degree 1,211, short of E/8 = 1,808 at the root,
  // but reach a node's E/8 below it. The step fires repeatedly there, and
  // exactly-once must survive.
  const std::vector<Edge> raw = CliqueJoined(12, 1200);
  ASSERT_GT(raw.size(), core::kTinyBase);
  const ShapedRun run = RunShaped(raw, 0x7001);
  EXPECT_GE(run.args.at("high_degree_calls"), 2u);
  EXPECT_GE(run.args.at("max_depth_reached"), 3u);
  EXPECT_TRUE(test::NoDuplicates(run.tris));
  EXPECT_EQ(run.tris.size(), 79420u);  // C(12,3) + C(12,2) * 1,200
}

TEST(CacheOblivious, GrowsLikeE15WhileMgtGrowsLikeE2) {
  // The paper's separation is asymptotic: ours scales as E^{3/2}, MGT as
  // E^2. Growing E by 4x at fixed M must grow MGT's I/O by ~16x but ours by
  // only ~8x; the measured growth exponents must be separated. E starts at
  // 2^13, which the kTinyBase-edge base still splits: the recursion reaches
  // depth 2 at 2^13 and depth 3 at 2^15.
  const std::size_t m = 1 << 9, b = 16;
  auto measure = [&](std::size_t e, bool oblivious) {
    em::Context ctx = test::MakeContext(m, b);
    EmGraph g = BuildEmGraph(ctx, Gnm(e / 2, e, 3));
    ctx.cache().Reset();
    core::CountingSink sink;
    if (oblivious) {
      core::EnumerateCacheOblivious(ctx, g, sink);
    } else {
      core::EnumerateMgt(ctx, g, sink);
    }
    ctx.cache().FlushAll();
    return static_cast<double>(ctx.cache().stats().total_ios());
  };
  const std::size_t e_small = 1 << 13, e_big = 1 << 15;
  double ours_growth = measure(e_big, true) / measure(e_small, true);
  double mgt_growth = measure(e_big, false) / measure(e_small, false);
  double factor = std::log2(static_cast<double>(e_big) / e_small);  // 2
  double ours_exp = std::log2(ours_growth) / factor;
  double mgt_exp = std::log2(mgt_growth) / factor;
  EXPECT_LT(ours_exp, mgt_exp - 0.25)
      << "ours " << ours_exp << " vs MGT " << mgt_exp;
  EXPECT_LT(ours_exp, 1.85);
  EXPECT_GT(mgt_exp, 1.6);
}

TEST(CacheOblivious, IoDropsWithLargerMemoryWithoutRecompiling) {
  // One fixed computation (fixed seed) measured under growing caches: the
  // whole point of cache-obliviousness.
  auto raw = Gnm(1 << 12, 1 << 14, 3);
  auto measure = [&](std::size_t m) {
    em::Context ctx = test::MakeContext(m, 16);
    ctx.set_seed(31);
    EmGraph g = BuildEmGraph(ctx, raw);
    ctx.cache().Reset();
    core::CountingSink sink;
    core::EnumerateCacheOblivious(ctx, g, sink);
    ctx.cache().FlushAll();
    return static_cast<double>(ctx.cache().stats().total_ios());
  };
  double io1 = measure(1 << 9);
  double io2 = measure(1 << 11);
  double io3 = measure(1 << 13);
  EXPECT_GT(io1, io2);
  EXPECT_GT(io2, io3);
}

TEST(CacheOblivious, ShrunkNodesPartitionAtPinnedIoStats) {
  // A node that the high-degree step leaves with fewer than kTinyBase edges
  // (2 nodes here) still writes its children through Writers, each flushed
  // just before the child recurses, and every leaf streams through the
  // base-case join. No R-MAT input made Lemma 1 fire above the 4,096-edge
  // base (scales 10 to 14, a = 0.45 to 0.7), so a clique joined to an
  // independent set makes it fire. Pinned exactly (reads, writes and hits),
  // so any change to the partition's or the base case's charges shows.
  const std::vector<Edge> raw = CliqueJoined(10, 800);
  ASSERT_GT(raw.size(), core::kTinyBase);
  const CoRun untraced = RunCoRecurse(raw, 1 << 10, 16, 2014, nullptr);
  obs::TraceCollector tc;
  const CoRun traced = RunCoRecurse(raw, 1 << 10, 16, 2014, &tc);
  ExpectSameRun(traced, untraced);
  EXPECT_EQ(untraced.tris.size(), 36120u);  // C(10,3) + C(10,2) * 800
  const std::vector<obs::TraceEvent> evs = tc.events_since(0);
  const obs::TraceEvent* span = CoRecurseSpan(evs);
  ASSERT_NE(span, nullptr);
  EXPECT_GE(ArgsOf(*span)["high_degree_calls"], 2u);
  EXPECT_EQ(untraced.io.block_reads, 87598u);
  EXPECT_EQ(untraced.io.block_writes, 54389u);
  EXPECT_EQ(untraced.io.cache_hits, 5666353u);
}

TEST(CacheOblivious, TracedRunTalliesRecursionRolesOnItsSpan) {
  // A clique joined to an independent set makes Lemma 1 fire below the
  // root, so all four roles run.
  const std::vector<Edge> raw = CliqueJoined(12, 600);
  ASSERT_GT(raw.size(), core::kTinyBase);
  const CoRun untraced = RunCoRecurse(raw, 1 << 12, 16, 7, nullptr);
  obs::TraceCollector tc;
  const CoRun traced = RunCoRecurse(raw, 1 << 12, 16, 7, &tc);
  ExpectSameRun(traced, untraced);

  const std::vector<obs::TraceEvent> evs = tc.events_since(0);
  const obs::TraceEvent* span = CoRecurseSpan(evs);
  ASSERT_NE(span, nullptr);
  ASSERT_TRUE(span->has_delta);
  std::map<std::string, std::uint64_t> args = ArgsOf(*span);
  for (const char* key :
       {"high_degree_ns", "high_degree_nodes", "lemma1_ns", "lemma1_nodes",
        "partition_ns", "partition_nodes", "base_ns", "base_nodes",
        "subproblems", "base_cases", "high_degree_calls", "total_child_edges",
        "max_depth_reached", "join_rounds", "join_spills"}) {
    EXPECT_EQ(args.count(key), 1u) << key;
  }
  EXPECT_EQ(args["base_nodes"], args["base_cases"]);
  EXPECT_GT(args["join_rounds"], 0u);
  EXPECT_GT(args["partition_nodes"], 0u);
  EXPECT_GE(args["high_degree_nodes"], args["partition_nodes"]);
  EXPECT_GT(args["lemma1_nodes"], 0u);
  EXPECT_LE(args["lemma1_nodes"], args["high_degree_calls"]);
  EXPECT_LE(args["high_degree_ns"] + args["lemma1_ns"] +
                args["partition_ns"] + args["base_ns"],
            span->dur_ns);

  // One row per depth reached: the nodes sum to the subproblems, the root
  // row holds the whole input, and the exclusive reads and writes sum to
  // the I/O charged inside the span.
  const int max_depth_reached = static_cast<int>(args["max_depth_reached"]);
  std::uint64_t nodes = 0, reads = 0, writes = 0;
  for (int d = 0; d <= max_depth_reached; ++d) {
    const std::string level = "level" + std::to_string(d);
    for (const char* field : {"_nodes", "_edges", "_reads", "_writes"}) {
      EXPECT_EQ(args.count(level + field), 1u) << level << field;
    }
    EXPECT_GT(args[level + "_nodes"], 0u) << level;
    nodes += args[level + "_nodes"];
    reads += args[level + "_reads"];
    writes += args[level + "_writes"];
  }
  EXPECT_EQ(args.count("level" + std::to_string(max_depth_reached + 1) +
                       "_nodes"),
            0u);
  EXPECT_EQ(args["level0_nodes"], 1u);
  EXPECT_EQ(args["level0_edges"], args["edges"]);
  EXPECT_EQ(nodes, args["subproblems"]);
  EXPECT_GT(reads + writes, 0u);
  EXPECT_EQ(reads, span->inclusive.block_reads);
  EXPECT_EQ(writes, span->inclusive.block_writes);
}

TEST(CacheOblivious, NodesAboveMemoryReadTheirInputTwice) {
  // The co-rmat12 point's M = 4,096 and B = 64 words, on R-MAT scale 13.
  // Nodes at depths 0 and 1 span far more than M and split, so none of a
  // node's input is still cached when a pass over it starts: every pass
  // misses once per line. A node reads its input in the verify scan, which
  // also counts the children, and in the routing scan; pass 1 of the
  // high-degree step rides on the transform or routing scan that wrote the
  // array. Separate pass-1 and child-counting scans would make the root read
  // 4 passes (4,096). At scale 12 one depth-1 node is a leaf of 8,192
  // words, which the join's rounds read more than twice.
  const auto raw = Rmat(13, 32768, 0.45, 0.22, 0.22, 2014);
  const std::size_t m = 4096, b = 64;
  const CoRun untraced = RunCoRecurse(raw, m, b, 2014, nullptr);
  obs::TraceCollector tc;
  const CoRun traced = RunCoRecurse(raw, m, b, 2014, &tc);
  ExpectSameRun(traced, untraced);

  const std::vector<obs::TraceEvent> evs = tc.events_since(0);
  const obs::TraceEvent* span = CoRecurseSpan(evs);
  ASSERT_NE(span, nullptr);
  std::map<std::string, std::uint64_t> args = ArgsOf(*span);
  ASSERT_EQ(args["record_words"], 2u);
  auto lines = [&](std::uint64_t edges) {
    return (edges * args["record_words"] + b - 1) / b;
  };
  ASSERT_EQ(lines(args["level0_edges"]), 1024u);
  EXPECT_EQ(args["level0_reads"], 2048u);
  // A depth-1 array may straddle one line more than its edges fill.
  EXPECT_LE(args["level1_reads"],
            2 * (lines(args["level1_edges"]) + args["level1_nodes"]));
}

TEST(CacheOblivious, EmissionOrderPinned) {
  // The base case emits by R12 chunk, then u, w and v. Pinned as a hash of
  // the ordered list, so a change to the recursion or the join that keeps
  // the triangle set but moves the order shows.
  const auto raw = Rmat(10, 8192, 0.45, 0.22, 0.22, 2014);
  ASSERT_GT(raw.size(), core::kTinyBase);
  const CoRun run = RunCoRecurse(raw, 1 << 10, 16, 2014, nullptr);
  ASSERT_EQ(run.tris.size(), 10511u);
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over (a, b, c) in order
  for (const Triangle& t : run.tris) {
    for (VertexId x : {t.a, t.b, t.c}) {
      h = (h ^ x) * 0x100000001b3ull;
    }
  }
  EXPECT_EQ(h, 16942551150030837539u);
}

// ---------------------------------------------------------------------------
// The base case's streaming join against a brute-force triple loop, on
// hand-built lex-sorted nodes, including the chunk and run-buffer overflows
// that the recursion rarely reaches.

using Colour = std::array<std::uint32_t, 3>;

/// The node of `edges` under the vertex colouring `colour`: each edge (with
/// u < v) coloured by its endpoints, lex-sorted.
std::vector<ColoredEdge> NodeOf(
    std::vector<std::pair<VertexId, VertexId>> edges,
    const std::map<VertexId, std::uint32_t>& colour) {
  std::vector<ColoredEdge> node;
  for (auto [u, v] : edges) {
    if (u > v) std::swap(u, v);
    node.push_back(ColoredEdge{u, v, colour.at(u), colour.at(v)});
  }
  std::sort(node.begin(), node.end(), LexLess{});
  return node;
}

/// Every triple of records (u,v) in R01, (u,w) in R02 and (v,w) in R12 with
/// v < w, in (u, v, w) order.
std::vector<Triangle> BruteForceJoin(const std::vector<ColoredEdge>& node,
                                     Colour col) {
  auto in = [&](const ColoredEdge& e, int i, int j) {
    return e.cu == col[i] && e.cv == col[j];
  };
  std::vector<Triangle> out;
  for (const ColoredEdge& a : node) {
    if (!in(a, 0, 1)) continue;
    for (const ColoredEdge& b : node) {
      if (b.u != a.u || b.v <= a.v || !in(b, 0, 2)) continue;
      for (const ColoredEdge& c : node) {
        if (c.u == a.v && c.v == b.v && in(c, 1, 2)) {
          out.push_back(Triangle{a.u, a.v, b.v});
        }
      }
    }
  }
  return out;
}

/// StreamJoin on `node` written to a cold device of M = `m`, B = `b` words.
struct JoinRun {
  std::vector<Triangle> tris;  // emission order
  em::IoStats io;
  std::uint64_t work = 0;
  core::internal::JoinCounts counts;
};

JoinRun RunJoin(const std::vector<ColoredEdge>& node, Colour col,
                std::size_t m = 1 << 12, std::size_t b = 16) {
  em::Context ctx = test::MakeContext(m, b);
  em::Array<ColoredEdge> a = ctx.Alloc<ColoredEdge>(node.size());
  a.WriteFrom(0, node.size(), node.data());
  ctx.cache().FlushAll();
  ctx.cache().Reset();
  core::CollectingSink sink;
  JoinRun r;
  r.counts = core::internal::StreamJoin(ctx, a, col, sink);
  EXPECT_EQ(ctx.scratch_in_use(), 0u);
  r.tris = sink.triangles();
  r.io = ctx.cache().stats();
  r.work = ctx.work();
  return r;
}

/// The join finds exactly the brute force's triangles, each once.
void ExpectJoinMatches(const std::vector<ColoredEdge>& node, Colour col) {
  std::vector<Triangle> got = RunJoin(node, col).tris;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForceJoin(node, col));
  EXPECT_TRUE(test::NoDuplicates(got));
}

/// Vertices 0..n-1, vertex x coloured palette[x % palette.size()] after a
/// seeded shuffle of the ids; each pair an edge with probability p.
std::vector<ColoredEdge> RandomNode(VertexId n, double p,
                                    const std::vector<std::uint32_t>& palette,
                                    std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<VertexId> ids(n);
  for (VertexId x = 0; x < n; ++x) ids[x] = x;
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.Next() % i]);
  }
  std::map<VertexId, std::uint32_t> colour;
  for (VertexId x = 0; x < n; ++x) colour[ids[x]] = palette[x % palette.size()];
  std::vector<std::pair<VertexId, VertexId>> edges;
  const auto cut = static_cast<std::uint64_t>(p * 1e6);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) {
      if (rng.Next() % 1000000 < cut) edges.emplace_back(u, v);
    }
  }
  return NodeOf(edges, colour);
}

/// The number of records of `node` in slot relation (i, j) under `col`.
std::size_t Relation(const std::vector<ColoredEdge>& node, Colour col, int i,
                     int j) {
  return static_cast<std::size_t>(
      std::count_if(node.begin(), node.end(), [&](const ColoredEdge& e) {
        return e.cu == col[i] && e.cv == col[j];
      }));
}

/// The longest u-run's R01 records.
std::size_t LongestR01Run(const std::vector<ColoredEdge>& node, Colour col) {
  std::map<VertexId, std::size_t> run;
  std::size_t longest = 0;
  for (const ColoredEdge& e : node) {
    if (e.cu == col[0] && e.cv == col[1]) {
      longest = std::max(longest, ++run[e.u]);
    }
  }
  return longest;
}

TEST(StreamJoin, LeasesExactly136Words) {
  EXPECT_EQ(core::internal::kBaseLeaseWords, 136u);
  const std::vector<ColoredEdge> node = RandomNode(60, 0.9, {1, 2, 3}, 1);
  ASSERT_GT(Relation(node, {1, 2, 3}, 1, 2), core::internal::kJoinKeys);
  // M = 136 runs; a node too big for such a cache still finds every
  // triangle.
  std::vector<Triangle> got = RunJoin(node, {1, 2, 3}, 136, 4).tris;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForceJoin(node, {1, 2, 3}));
  em::Context ctx = test::MakeContext(128, 8);
  em::Array<ColoredEdge> a = ctx.Alloc<ColoredEdge>(node.size());
  a.WriteFrom(0, node.size(), node.data());
  core::CountingSink sink;
  EXPECT_THROW(core::internal::StreamJoin(ctx, a, {1, 2, 3}, sink), Status);
}

TEST(StreamJoin, R12LargerThanAChunk) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::vector<ColoredEdge> node =
        RandomNode(100, 0.6, {1, 2, 3}, seed);
    ASSERT_GT(Relation(node, {1, 2, 3}, 1, 2),
              2 * core::internal::kJoinKeys);
    ExpectJoinMatches(node, {1, 2, 3});
    // The vertex colours are a permutation: every slot order is a problem.
    ExpectJoinMatches(node, {3, 1, 2});
    ExpectJoinMatches(node, {2, 3, 1});
  }
}

TEST(StreamJoin, RunLongerThanItsBuffer) {
  // Vertex 0 has 70 R01 edges and 30 R02 edges, more R01 endpoints than its
  // buffer holds; but each chunk's v-range holds fewer than kJoinRunEnds of
  // them, so the run does not spill (HubRunSpillsInsideOneChunk does).
  std::map<VertexId, std::uint32_t> colour{{0, 1}};
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId x = 1; x <= 100; ++x) {
    colour[x] = x % 10 < 7 ? 2 : 3;
    edges.emplace_back(0, x);
  }
  SplitMix64 rng(9);
  for (VertexId v = 1; v <= 100; ++v) {
    for (VertexId w = v + 1; w <= 100; ++w) {
      if (rng.Next() % 4 == 0) edges.emplace_back(v, w);
    }
  }
  const std::vector<ColoredEdge> node = NodeOf(edges, colour);
  ASSERT_GT(LongestR01Run(node, {1, 2, 3}), 2 * core::internal::kJoinRunEnds);
  ExpectJoinMatches(node, {1, 2, 3});
}

TEST(StreamJoin, OneColourForAllThreePositions) {
  // The root's (1,1,1) problem on K_40 and on a sparser graph: every edge is
  // in all three relations, so R12 spans several chunks. Vertex 0's run (39
  // edges) is longer than its buffer, but no chunk's v-range holds more
  // than kJoinRunEnds of its endpoints, so it does not spill.
  const std::vector<ColoredEdge> clique = RandomNode(40, 1.0, {1}, 4);
  ASSERT_EQ(clique.size(), 780u);
  ASSERT_GT(LongestR01Run(clique, {1, 1, 1}), core::internal::kJoinRunEnds);
  ExpectJoinMatches(clique, {1, 1, 1});
  EXPECT_EQ(RunJoin(clique, {1, 1, 1}).tris.size(), 9880u);  // C(40,3)
  ExpectJoinMatches(RandomNode(80, 0.2, {1}, 5), {1, 1, 1});
}

TEST(StreamJoin, TwoPositionsShareAColour) {
  for (std::uint64_t seed : {6ull, 7ull}) {
    const std::vector<ColoredEdge> node = RandomNode(70, 0.4, {4, 5}, seed);
    ExpectJoinMatches(node, {4, 5, 5});  // col[1] == col[2]
    ExpectJoinMatches(node, {4, 4, 5});  // col[0] == col[1]
    ExpectJoinMatches(node, {5, 4, 5});  // col[0] == col[2]
  }
}

TEST(StreamJoin, AnEmptyRelationFindsNothing) {
  // Colours 1 and 2 only: under (1,2,3) neither R02 nor R12 has a record.
  const std::vector<ColoredEdge> node = RandomNode(50, 0.5, {1, 2}, 8);
  ASSERT_GT(Relation(node, {1, 2, 3}, 0, 1), 0u);
  EXPECT_TRUE(RunJoin(node, {1, 2, 3}).tris.empty());
  // Under (3,1,2) only R12 has records.
  ASSERT_GT(Relation(node, {3, 1, 2}, 1, 2), 0u);
  EXPECT_TRUE(RunJoin(node, {3, 1, 2}).tris.empty());
  EXPECT_TRUE(RunJoin({}, {1, 1, 1}).tris.empty());
}

TEST(StreamJoin, EveryPassHitsWhenTheNodeFitsInM) {
  // K_40 under (1,1,1) takes 7 gather-and-join rounds, yet its 1,560 words
  // fit in M = 4,096: each line is read once.
  const std::vector<ColoredEdge> clique = RandomNode(40, 1.0, {1}, 4);
  const JoinRun run = RunJoin(clique, {1, 1, 1});
  EXPECT_EQ(run.counts.rounds, 7u);
  EXPECT_EQ(run.io.block_reads, (clique.size() * 2 + 15) / 16);
  EXPECT_EQ(run.io.block_writes, 0u);
  EXPECT_GT(run.work, 2 * clique.size());
}

TEST(StreamJoin, LargestLeafAtTheSmallestM) {
  // A node of kTinyBase records, the largest the recursion streams, under
  // the root's (1,1,1) problem at M = 136, B = 4: vertex 0 joined to
  // 1..320 and random edges among them. Every record is in R12, which
  // spans 35 chunks, one gather-and-join round each.
  std::map<VertexId, std::uint32_t> colour;
  std::set<std::pair<VertexId, VertexId>> edges;
  for (VertexId x = 0; x <= 320; ++x) colour[x] = 1;
  for (VertexId x = 1; x <= 320; ++x) edges.emplace(0, x);
  SplitMix64 rng(12);
  while (edges.size() < core::kTinyBase) {
    const auto v = static_cast<VertexId>(1 + rng.Next() % 320);
    const auto w = static_cast<VertexId>(1 + rng.Next() % 320);
    if (v != w) edges.emplace(std::min(v, w), std::max(v, w));
  }
  const std::vector<ColoredEdge> node =
      NodeOf({edges.begin(), edges.end()}, colour);
  ASSERT_EQ(node.size(), 4096u);
  const JoinRun run = RunJoin(node, {1, 1, 1}, 136, 4);
  EXPECT_EQ(run.counts.rounds, 35u);  // ceil(4,096 / 120)
  std::vector<Triangle> got = run.tris;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, BruteForceJoin(node, {1, 1, 1}));
  EXPECT_TRUE(test::NoDuplicates(got));
  EXPECT_FALSE(got.empty());
}

TEST(StreamJoin, HubRunSpillsInsideOneChunk) {
  // Hub 0 (colour 1) is joined to v = 1..100 (colour 2) and w = 101..200
  // (colour 3), with R12 edges (v, 100 + v): one chunk of 100 keys whose
  // v-range [1, 100] holds all 100 of the hub's R01 endpoints. Its run
  // keeps 32 of them, then spills three times, and each spill finds the
  // triangles (0, v, 100 + v) of its batch. At M = 136, B = 4 too.
  std::map<VertexId, std::uint32_t> colour{{0, 1}};
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId v = 1; v <= 100; ++v) {
    colour[v] = 2;
    colour[100 + v] = 3;
    edges.emplace_back(0, v);
    edges.emplace_back(0, 100 + v);
    edges.emplace_back(v, 100 + v);
  }
  const std::vector<ColoredEdge> node = NodeOf(edges, colour);
  ASSERT_LE(Relation(node, {1, 2, 3}, 1, 2), core::internal::kJoinKeys);
  for (std::size_t m : {std::size_t{1} << 12, std::size_t{136}}) {
    SCOPED_TRACE("M=" + std::to_string(m));
    const JoinRun run = RunJoin(node, {1, 2, 3}, m, 4);
    EXPECT_EQ(run.counts.rounds, 1u);
    EXPECT_EQ(run.counts.spills, 3u);
    std::vector<Triangle> got = run.tris;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteForceJoin(node, {1, 2, 3}));
    EXPECT_EQ(got.size(), 100u);
    EXPECT_TRUE(test::NoDuplicates(got));
  }
}

TEST(StreamJoin, CliqueWorkWithinTheRoundBound) {
  // K_k under (1,1,1): every record is in all three relations, so R12 takes
  // r = ceil(C(k,2) / 120) rounds. Each round streams at most the node once
  // and probes only the wedges (u; v, w) whose v lies in its chunk's range;
  // a v at a chunk boundary lies in two. So the join's work stays within
  // (r + 1) * len + 2 * C(k,3); probing every kept endpoint in every round
  // would cost 51,580, 467,481 and 2,576,661 here. K_90 (4,005 edges) is
  // about the largest clique a kTinyBase leaf holds.
  for (VertexId k : {40u, 64u, 90u}) {
    SCOPED_TRACE("K_" + std::to_string(k));
    const std::vector<ColoredEdge> clique = RandomNode(k, 1.0, {1}, 4);
    const std::uint64_t len = clique.size();
    const std::uint64_t rounds =
        (len + core::internal::kJoinKeys - 1) / core::internal::kJoinKeys;
    const std::uint64_t triples =
        std::uint64_t{k} * (k - 1) * (k - 2) / 6;
    const JoinRun run = RunJoin(clique, {1, 1, 1});
    EXPECT_EQ(run.counts.rounds, rounds);
    EXPECT_LE(run.work, (rounds + 1) * len + 2 * triples);
    EXPECT_EQ(run.tris.size(), triples);
    EXPECT_TRUE(test::NoDuplicates(run.tris));
  }
}

TEST(StreamJoin, UnsortedNodeAborts) {
  std::vector<ColoredEdge> node = RandomNode(30, 0.5, {1}, 10);
  std::swap(node[3], node[4]);
  EXPECT_DEATH((void)RunJoin(node, {1, 1, 1}), "lex-sorted");
}

// ---------------------------------------------------------------------------
// The high-degree finder's lane sweep against the scalar 31-slot loop it
// replaced, kept here verbatim (on host values) as the reference.

using EdgeStream = std::vector<std::pair<VertexId, VertexId>>;

std::vector<VertexId> ScalarHigh(const EdgeStream& edges,
                                 std::size_t threshold) {
  std::vector<VertexId> high;
  constexpr std::size_t kCounters = 31;
  constexpr std::uint64_t kFree = ~std::uint64_t{0};
  std::array<std::uint64_t, kCounters> key;
  std::array<std::uint32_t, kCounters> cnt{};
  key.fill(kFree);
  std::uint32_t free_mask = (1u << kCounters) - 1;
  auto offer = [&](VertexId v) {
    const std::uint64_t vv = v;
    int match = -1;
    for (int k = 0; k < static_cast<int>(kCounters); ++k) {
      match = key[k] == vv ? k : match;
    }
    if (match >= 0) {
      ++cnt[match];
    } else if (free_mask != 0) {
      int empty = __builtin_ctz(free_mask);  // lowest free slot first
      key[empty] = vv;
      cnt[empty] = 1;
      free_mask &= ~(1u << empty);
    } else {
      for (std::size_t k = 0; k < kCounters; ++k) {
        if (--cnt[k] == 0) {
          key[k] = kFree;
          free_mask |= 1u << k;
        }
      }
    }
  };
  for (const auto& [u, v] : edges) {
    offer(u);
    offer(v);
  }
  std::array<VertexId, kCounters> cand_key{};
  std::array<std::size_t, kCounters> cand_exact{};
  std::size_t nc = 0;
  for (std::size_t k = 0; k < kCounters; ++k) {
    if (cnt[k] != 0) cand_key[nc++] = static_cast<VertexId>(key[k]);
  }
  for (const auto& [u, v] : edges) {
    for (std::size_t k = 0; k < nc; ++k) {
      cand_exact[k] += (cand_key[k] == u) + (cand_key[k] == v);
    }
  }
  for (std::size_t k = 0; k < nc; ++k) {
    if (cand_exact[k] >= threshold) high.push_back(cand_key[k]);
  }
  return high;
}

std::vector<VertexId> LaneHigh(const EdgeStream& edges,
                               std::size_t threshold) {
  core::internal::HighDegreeFinder finder;
  for (const auto& [u, v] : edges) finder.Count(u, v);
  EXPECT_EQ(finder.counted(), edges.size());
  finder.BeginVerify();
  for (const auto& [u, v] : edges) finder.Verify(u, v);
  std::vector<VertexId> high;
  finder.High(threshold, high);
  return high;
}

/// Checks the step's own threshold and threshold 1, which lists every
/// surviving candidate and so pins the whole slot order.
void ExpectSameAsScalar(const EdgeStream& edges) {
  const std::size_t threshold = std::max<std::size_t>(1, edges.size() / 8);
  EXPECT_EQ(LaneHigh(edges, threshold), ScalarHigh(edges, threshold));
  EXPECT_EQ(LaneHigh(edges, 1), ScalarHigh(edges, 1));
}

/// A shuffled stream of `len` edges: each (hub, degree) pair gets `degree`
/// edges to fresh leaves, and disjoint leaf-leaf edges fill the rest.
EdgeStream WithHubs(std::size_t len,
                    const std::vector<std::pair<VertexId, std::size_t>>& hubs,
                    std::uint64_t seed) {
  EdgeStream edges;
  VertexId leaf = 1000;
  for (const auto& [hub, degree] : hubs) {
    for (std::size_t i = 0; i < degree; ++i) edges.emplace_back(hub, leaf++);
  }
  while (edges.size() < len) {
    edges.emplace_back(leaf, leaf + 1);
    leaf += 2;
  }
  SplitMix64 rng(seed);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.Next() % i]);
  }
  return edges;
}

TEST(HighDegreeFinder, AllDistinctEndpointsDecrementEvery32ndMiss) {
  EdgeStream edges;
  for (VertexId i = 0; i < 500; ++i) edges.emplace_back(2 * i + 1, 2 * i + 2);
  ExpectSameAsScalar(edges);
  EXPECT_TRUE(LaneHigh(edges, edges.size() / 8).empty());
}

TEST(HighDegreeFinder, HubAtThresholdKeptAndOneBelowDropped) {
  const std::size_t len = 800;
  const EdgeStream edges =
      WithHubs(len, {{7, len / 8}, {9, len / 8 - 1}}, 11);
  ExpectSameAsScalar(edges);
  EXPECT_EQ(LaneHigh(edges, len / 8), std::vector<VertexId>{7});
}

TEST(HighDegreeFinder, SixteenHubsAtThreshold) {
  // K_16 has 120 edges and every degree is 15 = 120/8: all 16 qualify.
  EdgeStream edges;
  for (VertexId a = 0; a < 16; ++a) {
    for (VertexId b = a + 1; b < 16; ++b) edges.emplace_back(a, b);
  }
  SplitMix64 rng(5);
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.Next() % i]);
  }
  ExpectSameAsScalar(edges);
  EXPECT_EQ(LaneHigh(edges, edges.size() / 8).size(), 16u);
}

TEST(HighDegreeFinder, VertexZeroNeverMatchesUnoccupiedLanes) {
  EdgeStream edges = {{7, 0}, {0, 3}, {5, 0}};
  for (VertexId i = 0; i < 100; ++i) edges.emplace_back(0, 10 + i);
  ExpectSameAsScalar(edges);
  EXPECT_EQ(LaneHigh(EdgeStream{{7, 0}}, 1), (std::vector<VertexId>{7, 0}));
}

TEST(HighDegreeFinder, IdsNearTopOfRange) {
  const VertexId top = 0xffffffffu;
  EdgeStream edges = WithHubs(400, {{top, 60}, {top - 1, 49}}, 3);
  for (auto& [u, v] : edges) {
    if (u != top && u != top - 1) u = top - 2 - u;
    v = top - 2 - v;
  }
  ExpectSameAsScalar(edges);
  EXPECT_EQ(LaneHigh(edges, 50), std::vector<VertexId>{top});
}

TEST(HighDegreeFinder, LengthJustAboveTinyBase) {
  const std::size_t len = core::kTinyBase + 1;
  const EdgeStream edges = WithHubs(len, {{3, len / 8}, {4, 2}}, 17);
  ExpectSameAsScalar(edges);
  EXPECT_EQ(LaneHigh(edges, len / 8), std::vector<VertexId>{3});
}

TEST(HighDegreeFinder, SkewedRandomStreams) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const auto raw = Rmat(9, 300 * seed, 0.6, 0.15, 0.15, seed);
    EdgeStream edges;
    for (const Edge& e : raw) edges.emplace_back(e.u, e.v);
    ExpectSameAsScalar(edges);
  }
}

}  // namespace
}  // namespace trienum
