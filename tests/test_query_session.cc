// The session-reuse contract, end to end: a query answered by a reused
// QuerySession over a LoadedGraph must be bit-identical — same triangles in
// the same emission order, same IoStats (reads, writes AND hits), same
// internal-work counter — to the same query answered by a fresh em::Context
// built for that one run. Exercised across the full algorithm x backend x
// threads x cache-geometry matrix, plus consistency checks for the per-vertex
// and per-edge query kinds.
#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "em/context.h"
#include "graph/generators.h"
#include "graph/normalize.h"
#include "query/query.h"
#include "test_util.h"

namespace trienum {
namespace {

constexpr std::size_t kMemWords = 2048;
constexpr std::size_t kBlockWords = 32;
constexpr std::uint64_t kMasterSeed = 0x7001;

em::EmConfig TestConfig(em::StorageKind storage,
                        std::size_t memory_words = kMemWords,
                        std::size_t block_words = kBlockWords) {
  em::EmConfig cfg;
  cfg.memory_words = memory_words;
  cfg.block_words = block_words;
  cfg.seed = kMasterSeed;
  cfg.storage = storage;
  return cfg;
}

std::vector<graph::Edge> FixtureEdges() {
  return graph::Rmat(8, 1200, 0.45, 0.22, 0.22, 17);
}

/// The baseline: a fresh context made for exactly one query (the historical
/// single-run flow: construct, normalize uncounted, run cold).
query::QueryResult FreshRun(const em::EmConfig& cfg,
                            const std::vector<graph::Edge>& raw,
                            const query::Query& q) {
  em::Context ctx(cfg);
  ctx.cache().set_counting(false);
  graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
  ctx.cache().set_counting(true);
  Result<query::QueryResult> r = query::RunQuery(ctx, g, q);
  EXPECT_TRUE(r.ok());
  return *r;
}

void ExpectBitIdentical(const query::QueryResult& reused,
                        const query::QueryResult& fresh,
                        const std::string& label) {
  EXPECT_EQ(reused.triangles, fresh.triangles) << label;
  EXPECT_EQ(reused.list, fresh.list) << label << " (emission order)";
  EXPECT_EQ(reused.io.block_reads, fresh.io.block_reads) << label;
  EXPECT_EQ(reused.io.block_writes, fresh.io.block_writes) << label;
  EXPECT_EQ(reused.io.cache_hits, fresh.io.cache_hits) << label;
  EXPECT_EQ(reused.work, fresh.work) << label;
  EXPECT_EQ(reused.seed_used, fresh.seed_used) << label;
  EXPECT_EQ(reused.device_peak_words, fresh.device_peak_words) << label;
}

/// One matrix cell: three queries (enumerate, seeded count, enumerate again)
/// through one reused session, each compared against a fresh context.
void RunCell(const std::string& algo, em::StorageKind storage,
             std::size_t threads, std::size_t memory_words,
             std::size_t block_words) {
  const std::vector<graph::Edge> raw = FixtureEdges();
  const em::EmConfig cfg = TestConfig(storage, memory_words, block_words);
  query::LoadedGraph lg = *query::LoadedGraph::FromEdges(cfg, raw);

  std::vector<query::Query> queries(3);
  queries[0].kind = query::QueryKind::kEnumerate;
  queries[1].kind = query::QueryKind::kCount;
  queries[1].seed = 0xFEED;  // per-query override of the master seed
  queries[2].kind = query::QueryKind::kEnumerate;
  for (query::Query& q : queries) {
    q.algo = algo;
    q.threads = threads;
  }

  const std::string cell =
      algo + (storage == em::StorageKind::kFile ? "/file" : "/memory") + "/t" +
      std::to_string(threads) + "/M" + std::to_string(memory_words) + "/B" +
      std::to_string(block_words);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Result<query::QueryResult> reused = lg.Run(queries[i]);
    ASSERT_TRUE(reused.ok()) << cell;
    query::QueryResult fresh = FreshRun(cfg, raw, queries[i]);
    ExpectBitIdentical(*reused, fresh,
                       cell + " query " + std::to_string(i + 1));
  }
  EXPECT_EQ(lg.store().device().Mark(), lg.frozen_mark())
      << cell << ": a query leaked device allocations";
}

struct Cell {
  std::string algo;
  em::StorageKind storage;
  std::size_t threads;
  std::size_t memory_words;
  std::size_t block_words;
};

class QuerySessionMatrix : public ::testing::TestWithParam<Cell> {};

TEST_P(QuerySessionMatrix, ReusedSessionMatchesFreshContext) {
  const Cell& c = GetParam();
  RunCell(c.algo, c.storage, c.threads, c.memory_words, c.block_words);
}

std::vector<Cell> AllCells() {
  // The fixture geometry, and a cache eight times larger with 64-word lines,
  // on which the engines run far shallower plans (ps-cache-aware does a
  // seventh of the block I/Os): the contract must hold for both plans.
  struct Geometry {
    std::size_t memory_words, block_words;
  };
  const Geometry geometries[] = {{kMemWords, kBlockWords}, {16384, 64}};
  std::vector<Cell> cells;
  for (const core::AlgorithmInfo& a : core::AllAlgorithms()) {
    for (em::StorageKind storage :
         {em::StorageKind::kMemory, em::StorageKind::kFile}) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        for (const Geometry& g : geometries) {
          cells.push_back(
              Cell{a.name, storage, threads, g.memory_words, g.block_words});
        }
      }
    }
  }
  return cells;
}

std::string CellName(const ::testing::TestParamInfo<Cell>& info) {
  const Cell& c = info.param;
  std::string name = c.algo;
  std::replace(name.begin(), name.end(), '-', '_');
  name += c.storage == em::StorageKind::kFile ? "_file" : "_memory";
  name += "_t" + std::to_string(c.threads);
  name += "_M" + std::to_string(c.memory_words);
  name += "_B" + std::to_string(c.block_words);
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsBackendsThreadsGeometries,
                         QuerySessionMatrix,
                         ::testing::ValuesIn(AllCells()), CellName);

// ---------------------------------------------------------------------------
// Per-vertex / per-edge query kinds.

TEST(QueryKinds, PerVertexCountsAgreeWithEnumeratedTriangles) {
  const std::vector<graph::Edge> raw = FixtureEdges();
  query::LoadedGraph lg =
      *query::LoadedGraph::FromEdges(TestConfig(em::StorageKind::kMemory), raw);

  query::Query enumerate;
  enumerate.kind = query::QueryKind::kEnumerate;
  query::Query per_vertex;
  per_vertex.kind = query::QueryKind::kPerVertex;

  query::QueryResult tris = *lg.Run(enumerate);
  query::QueryResult pv = *lg.Run(per_vertex);
  ASSERT_GT(tris.triangles, 0u) << "degenerate fixture: no triangles";

  // Same engine, same I/O: the sink is the only difference.
  EXPECT_EQ(pv.triangles, tris.triangles);
  EXPECT_EQ(pv.io.block_reads, tris.io.block_reads);
  EXPECT_EQ(pv.io.block_writes, tris.io.block_writes);

  ASSERT_EQ(pv.per_vertex.size(), lg.graph().num_vertices);
  std::vector<std::uint64_t> expected(lg.graph().num_vertices, 0);
  for (const graph::Triangle& t : tris.list) {
    ++expected[t.a];
    ++expected[t.b];
    ++expected[t.c];
  }
  EXPECT_EQ(pv.per_vertex, expected);
  EXPECT_EQ(std::accumulate(pv.per_vertex.begin(), pv.per_vertex.end(),
                            std::uint64_t{0}),
            3 * pv.triangles);
}

TEST(QueryKinds, PerEdgeSupportAgreesWithEnumeratedTriangles) {
  const std::vector<graph::Edge> raw = FixtureEdges();
  query::LoadedGraph lg =
      *query::LoadedGraph::FromEdges(TestConfig(em::StorageKind::kMemory), raw);

  query::QueryResult tris = *lg.Run([] {
    query::Query q;
    q.kind = query::QueryKind::kEnumerate;
    return q;
  }());
  query::QueryResult pe = *lg.Run([] {
    query::Query q;
    q.kind = query::QueryKind::kPerEdge;
    return q;
  }());
  ASSERT_GT(tris.triangles, 0u);
  EXPECT_EQ(pe.triangles, tris.triangles);

  // Lex-sorted, counts match a host recount, and the total support is 3 per
  // triangle.
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < pe.per_edge.size(); ++i) {
    total += pe.per_edge[i].count;
    if (i > 0) {
      const graph::Edge& p = pe.per_edge[i - 1].e;
      const graph::Edge& e = pe.per_edge[i].e;
      EXPECT_TRUE(p.u < e.u || (p.u == e.u && p.v < e.v)) << "not lex-sorted";
    }
  }
  EXPECT_EQ(total, 3 * pe.triangles);
  for (const graph::Triangle& t : tris.list) {
    auto support_of = [&](graph::VertexId u, graph::VertexId v) {
      for (const query::EdgeSupport& s : pe.per_edge) {
        if (s.e.u == u && s.e.v == v) return s.count;
      }
      return std::uint64_t{0};
    };
    EXPECT_GT(support_of(t.a, t.b), 0u);
    EXPECT_GT(support_of(t.a, t.c), 0u);
    EXPECT_GT(support_of(t.b, t.c), 0u);
  }
}

TEST(QueryKinds, EnumerateLimitCapsListButNotCountOrIo) {
  const std::vector<graph::Edge> raw = FixtureEdges();
  query::LoadedGraph lg =
      *query::LoadedGraph::FromEdges(TestConfig(em::StorageKind::kMemory), raw);

  query::Query full;
  full.kind = query::QueryKind::kEnumerate;
  query::Query capped = full;
  capped.limit = 5;

  query::QueryResult rf = *lg.Run(full);
  query::QueryResult rc = *lg.Run(capped);
  ASSERT_GT(rf.triangles, 5u);
  EXPECT_EQ(rc.list.size(), 5u);
  EXPECT_EQ(rc.triangles, rf.triangles);  // the sink saw every emission
  EXPECT_EQ(rc.io.block_reads, rf.io.block_reads);
  EXPECT_EQ(rc.io.block_writes, rf.io.block_writes);
  EXPECT_TRUE(std::equal(rc.list.begin(), rc.list.end(), rf.list.begin()));
}

TEST(QueryErrors, UnknownAlgorithmIsNotFoundNotAbort) {
  query::LoadedGraph lg = *query::LoadedGraph::FromEdges(
      TestConfig(em::StorageKind::kMemory), graph::Clique(4));
  query::Query q;
  q.algo = "definitely-not-an-algorithm";
  Result<query::QueryResult> r = lg.Run(q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // The failed dispatch must not have broken the session for later queries.
  q.algo = "mgt";
  EXPECT_TRUE(lg.Run(q).ok());
}

TEST(QueryErrors, ScratchOverBudgetFailsOnlyThatQuery) {
  // ps-cache-oblivious's base case leases 136 words, more than M=128, deep
  // inside the plan (after allocations and dirty lines). That query fails
  // with InvalidArgument; the session survives, and the next query matches
  // a fresh context bit for bit.
  const std::vector<graph::Edge> raw = FixtureEdges();
  for (em::StorageKind storage :
       {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    em::EmConfig cfg = TestConfig(storage);
    cfg.memory_words = 128;
    cfg.block_words = 8;
    query::LoadedGraph lg = *query::LoadedGraph::FromEdges(cfg, raw);
    query::Query bad;
    bad.algo = "ps-cache-oblivious";
    Result<query::QueryResult> r = lg.Run(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
    EXPECT_EQ(lg.session().scratch_in_use(), 0u);
    EXPECT_EQ(lg.store().device().Mark(), lg.frozen_mark());

    query::Query good;
    good.kind = query::QueryKind::kEnumerate;
    good.algo = "ps-cache-aware";
    Result<query::QueryResult> after = lg.Run(good);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectBitIdentical(*after, FreshRun(cfg, raw, good),
                       storage == em::StorageKind::kFile ? "file" : "memory");
  }
}

TEST(QueryErrors, FailedQueryLeavesAnEmptyColdCache) {
  // Discard drops the failed plan's lines without write-back: after each
  // failure the cache holds nothing, its counters are zero and no fault is
  // latched, however often the failure repeats.
  const std::vector<graph::Edge> raw = FixtureEdges();
  for (em::StorageKind storage :
       {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    SCOPED_TRACE(storage == em::StorageKind::kFile ? "file" : "memory");
    em::EmConfig cfg = TestConfig(storage);
    cfg.memory_words = 128;
    cfg.block_words = 8;
    query::LoadedGraph lg = *query::LoadedGraph::FromEdges(cfg, raw);
    query::Query bad;
    bad.algo = "ps-cache-oblivious";  // leases more than M (see above)
    for (int attempt = 0; attempt < 3; ++attempt) {
      Result<query::QueryResult> r = lg.Run(bad);
      ASSERT_FALSE(r.ok()) << "attempt " << attempt;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      const em::Cache& cache = lg.store().cache();
      EXPECT_EQ(cache.resident_lines(), 0u) << "attempt " << attempt;
      EXPECT_EQ(cache.stats().total_ios(), 0u) << "attempt " << attempt;
      EXPECT_EQ(cache.stats().cache_hits, 0u) << "attempt " << attempt;
      EXPECT_TRUE(cache.fault().ok()) << "attempt " << attempt;
      EXPECT_EQ(lg.store().device().Mark(), lg.frozen_mark());
    }
  }
}

TEST(QueryErrors, GeometryNoCacheCanHoldFailsTheLoadBeforeAllocating) {
  // M/B above em::Cache::kMaxLines can never work (the slots are int32
  // linked), whatever the host: InvalidArgument naming M and B, before any
  // allocation is tried. B = 0 and B > M fail the same way.
  em::EmConfig cfg = TestConfig(em::StorageKind::kMemory);
  cfg.memory_words = 1000000000000;  // 1e12 words in B=32 lines: 3.1e10
  Result<query::LoadedGraph> lg =
      query::LoadedGraph::FromEdges(cfg, graph::Clique(4));
  ASSERT_FALSE(lg.ok());
  EXPECT_EQ(lg.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(lg.status().message().find("M=1000000000000 words, B=32 words"),
            std::string::npos)
      << lg.status().ToString();

  cfg.memory_words = em::Cache::kMaxLines * cfg.block_words + cfg.block_words;
  EXPECT_EQ(query::LoadedGraph::FromEdges(cfg, graph::Clique(4)).status().code(),
            StatusCode::kInvalidArgument)
      << "one line past the limit";
  cfg.memory_words = 64;
  cfg.block_words = 0;
  EXPECT_EQ(query::LoadedGraph::FromEdges(cfg, graph::Clique(4)).status().code(),
            StatusCode::kInvalidArgument);
  cfg.block_words = 128;
  EXPECT_EQ(query::LoadedGraph::FromEdges(cfg, graph::Clique(4)).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace trienum
