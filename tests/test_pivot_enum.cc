// Lemma 2 engine: triangles with pivot edge in E' subset E. Verifies the
// pivot-partition semantics (triangles found iff their pivot is in E'), the
// chunking invariance, the Hu-Tao-Chung full baseline, and the I/O model.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/mgt.h"
#include "core/pivot_enum.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

TEST(PivotEnum, PivotSubsetSelectsExactlyItsTriangles) {
  em::Context ctx = test::MakeContext();
  EmGraph g = BuildEmGraph(ctx, Gnm(50, 350, 19));
  auto all = core::ListTrianglesHost(DownloadEdges(g));

  // Split the edge list into halves; each triangle's pivot {b, c} lies in
  // exactly one half, so the two runs must partition the triangle set.
  std::size_t half = g.num_edges() / 2;
  em::Array<Edge> lo = g.edges.Slice(0, half);
  em::Array<Edge> hi = g.edges.Slice(half, g.num_edges() - half);

  core::CollectingSink s1, s2;
  core::PivotEnumerate<Edge>(ctx, g.edges, g.edges, lo, s1);
  core::PivotEnumerate<Edge>(ctx, g.edges, g.edges, hi, s2);

  std::vector<Triangle> merged = s1.triangles();
  merged.insert(merged.end(), s2.triangles().begin(), s2.triangles().end());
  std::sort(merged.begin(), merged.end());
  EXPECT_TRUE(test::NoDuplicates(merged));
  EXPECT_EQ(merged, all);
}

TEST(PivotEnum, ChunkSizeDoesNotChangeTheAnswer) {
  // The resident chunk is M/8 records: 32, 128 and 512 of the ~500 edges.
  for (std::size_t m : {std::size_t{256}, std::size_t{1024}, std::size_t{4096}}) {
    em::Context ctx = test::MakeContext(m, 16);
    EmGraph g = BuildEmGraph(ctx, Gnm(60, 500, 23));
    auto all = core::ListTrianglesHost(DownloadEdges(g));
    core::CollectingSink sink;
    core::PivotEnumerate<Edge>(ctx, g.edges, g.edges, g.edges, sink);
    auto got = sink.triangles();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, all) << "M = " << m;
  }
}

TEST(PivotEnum, DisjointConeStreams) {
  // Tripartite graph: cone edges (A-B) and (A-C) live in disjoint arrays,
  // pivot edges (B-C) in a third — the exact structure of the cache-aware
  // algorithm's step 3.
  em::Context ctx = test::MakeContext();
  EmGraph g = BuildEmGraph(ctx, CompleteTripartite(4, 5, 6));
  auto all = core::ListTrianglesHost(DownloadEdges(g));
  ASSERT_EQ(all.size(), 4u * 5 * 6);

  // Partition the normalized edges by "which pair of parts" using degrees:
  // within the normalized graph the parts are still independent sets, so
  // classify endpoints via the original tripartite structure re-derived from
  // the edge pattern. Simplest robust route: collect all edges and classify
  // by adjacency to part-representatives is overkill here — instead run the
  // split through the pivot engine by filtering on explicit membership.
  std::vector<Edge> edges = DownloadEdges(g);
  // Recover parts: vertices adjacent to everything in two other groups; use
  // a 2-coloring-free approach: part id via triangle participation is
  // unnecessary — use the reference triangles to label parts.
  // Part of a vertex = its position pattern; derive from one triangle.
  // For this test we only need *some* consistent 3-way split of edges such
  // that each triangle has one edge in each class. Use: class of edge {u,v}
  // = (color(u) + color(v)) where color = part index.
  std::vector<int> part(g.num_vertices, -1);
  // Vertices of the same part are never adjacent: greedy 3-coloring works on
  // complete tripartite graphs by BFS from any triangle.
  const Triangle& t0 = all.front();
  part[t0.a] = 0;
  part[t0.b] = 1;
  part[t0.c] = 2;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Edge& e : edges) {
      if (part[e.u] >= 0 && part[e.v] < 0) {
        // Assign v the part not used by any of u's neighbours... for a
        // complete tripartite graph, u's part plus any one labeled common
        // neighbour pin it down; simple approach: defer until a labeled
        // triangle covers it.
      }
    }
    for (const Triangle& t : all) {
      int known = (part[t.a] >= 0) + (part[t.b] >= 0) + (part[t.c] >= 0);
      if (known == 2) {
        int used = 0;
        VertexId miss = 0;
        if (part[t.a] < 0) {
          miss = t.a;
          used = part[t.b] + part[t.c];
        } else if (part[t.b] < 0) {
          miss = t.b;
          used = part[t.a] + part[t.c];
        } else {
          miss = t.c;
          used = part[t.a] + part[t.b];
        }
        part[miss] = 3 - used;
        changed = true;
      }
    }
  }
  std::vector<Edge> ab, bc, ac;
  for (const Edge& e : edges) {
    int pu = part[e.u], pv = part[e.v];
    ASSERT_GE(pu, 0);
    ASSERT_GE(pv, 0);
    int key = pu + pv;  // 0+1=1, 1+2=3, 0+2=2
    if (key == 1) ab.push_back(e);
    if (key == 3) bc.push_back(e);
    if (key == 2) ac.push_back(e);
  }
  auto upload = [&](const std::vector<Edge>& v) {
    em::Array<Edge> arr = ctx.Alloc<Edge>(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) arr.Set(i, v[i]);
    return arr;
  };
  // Cone vertex is always the smallest id; its two edges lie in the two
  // classes touching it, the pivot in the third. Enumerate per (cone-part)
  // choice by running all three rotations and unioning.
  em::Array<Edge> eab = upload(ab), ebc = upload(bc), eac = upload(ac);
  core::CollectingSink sink;
  core::PivotEnumerate<Edge>(ctx, eab, eac, ebc, sink);  // cone in part 0/1 mix
  core::PivotEnumerate<Edge>(ctx, eab, ebc, eac, sink);
  core::PivotEnumerate<Edge>(ctx, eac, ebc, eab, sink);
  auto got = sink.triangles();
  std::sort(got.begin(), got.end());
  EXPECT_TRUE(test::NoDuplicates(got));
  EXPECT_EQ(got, all);
}

TEST(Mgt, MatchesReferenceOnDenseGraph) {
  em::Context ctx = test::MakeContext(512, 8);
  EmGraph g = BuildEmGraph(ctx, Gnm(40, 700, 3));
  core::CollectingSink sink;
  core::EnumerateMgt(ctx, g, sink);
  auto got = sink.triangles();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, core::ListTrianglesHost(DownloadEdges(g)));
}

TEST(Mgt, IoTracksESquaredOverMB) {
  // Doubling M should roughly halve MGT's I/Os (the paper's E^2/(MB)).
  const std::size_t e = 1 << 13;
  auto run = [&](std::size_t m) {
    em::Context ctx = test::MakeContext(m, 16);
    EmGraph g = BuildEmGraph(ctx, Gnm(1 << 11, e, 5));
    ctx.cache().Reset();
    core::CountingSink sink;
    core::EnumerateMgt(ctx, g, sink);
    ctx.cache().FlushAll();
    return static_cast<double>(ctx.cache().stats().total_ios());
  };
  double io_small = run(1 << 9);
  double io_big = run(1 << 11);
  double ratio = io_small / io_big;
  EXPECT_GT(ratio, 2.0) << "quadrupling M must cut MGT I/O by ~4x";
  EXPECT_LT(ratio, 8.0);
}

TEST(Mgt, MeasuredWithinModelBound) {
  const std::size_t m = 1 << 10, b = 16;
  em::Context ctx = test::MakeContext(m, b);
  EmGraph g = BuildEmGraph(ctx, Gnm(1 << 11, 1 << 13, 5));
  ctx.cache().Reset();
  core::CountingSink sink;
  core::EnumerateMgt(ctx, g, sink);
  ctx.cache().FlushAll();
  double measured = static_cast<double>(ctx.cache().stats().total_ios());
  EXPECT_LE(measured, 3.0 * core::MgtIoBound(g.num_edges(), m, b));
}

}  // namespace
}  // namespace trienum
