#include "core/dementiev.h"

#include <cmath>
#include <tuple>

#include "core/vertex_enum.h"
#include "em/array.h"
#include "extsort/ext_merge_sort.h"
#include "extsort/io_bounds.h"
#include "extsort/sort_key.h"
#include "obs/trace.h"

namespace trienum::core {

namespace {

using graph::Edge;
using graph::VertexId;

/// Per-vertex degree record local to the input edge set.
struct LocalDeg {
  VertexId v = 0;
  std::uint32_t deg = 0;
};

/// Edge annotated with both endpoint degrees.
struct WedgeDegEdge {
  VertexId u = 0, v = 0;
  std::uint32_t du = 0, dv = 0;
};

/// Degree-oriented edge: s is the endpoint with the smaller (deg, id) key.
struct WedgeOriented {
  VertexId s = 0, t = 0;
};

/// Wedge query: does edge {a, b} (a < b by id) exist? s is the cone vertex.
struct WedgeQuery {
  VertexId a = 0, b = 0, s = 0;
};

// Keyed orders for the engine (see extsort/sort_key.h): each comparator
// compares exactly the two ids its key packs, so all three keys are
// complete; payload fields ride on the engine's stability.

/// (v, u): the second degree-attach pass groups edges by larger endpoint.
struct ByTargetLess {
  static constexpr bool kKeyComplete = true;
  static std::uint64_t Key(const WedgeDegEdge& e) {
    return extsort::PackKey(e.v, e.u);
  }
  bool operator()(const WedgeDegEdge& a, const WedgeDegEdge& b) const {
    return std::tie(a.v, a.u) < std::tie(b.v, b.u);
  }
};

/// (s, t): wedge generation groups oriented edges by source.
struct BySourceLess {
  static constexpr bool kKeyComplete = true;
  static std::uint64_t Key(const WedgeOriented& e) {
    return extsort::PackKey(e.s, e.t);
  }
  bool operator()(const WedgeOriented& a, const WedgeOriented& b) const {
    return std::tie(a.s, a.t) < std::tie(b.s, b.t);
  }
};

/// (a, b): the join order of the query stream (duplicates-heavy — many
/// wedges probe the same edge).
struct ByQueryEdgeLess {
  static constexpr bool kKeyComplete = true;
  static std::uint64_t Key(const WedgeQuery& q) {
    return extsort::PackKey(q.a, q.b);
  }
  bool operator()(const WedgeQuery& a, const WedgeQuery& b) const {
    return std::tie(a.a, a.b) < std::tie(b.a, b.b);
  }
};

}  // namespace

void EnumerateDementiev(em::QuerySession& ctx, const graph::EmGraph& g,
                        TriangleSink& sink) {
  obs::Span span("dementiev.wedge_join");
  span.AddArg("edges", g.num_edges());
  const em::Array<Edge> edges = g.edges;
  const std::size_t m = edges.size();
  if (m < 3) return;
  auto region = ctx.Region();

  // --- Local degrees ---------------------------------------------------------
  em::Array<VertexId> ends = ctx.Alloc<VertexId>(2 * m);
  {
    em::Scanner<Edge> es(edges);
    em::Writer<VertexId> ew(ends);
    while (es.HasNext()) {
      Edge e = es.Next();
      ew.Push(e.u);
      ew.Push(e.v);
    }
  }
  extsort::ExternalMergeSort(ctx, ends, extsort::ValueLess<VertexId>{});
  em::Array<LocalDeg> degs = ctx.Alloc<LocalDeg>(2 * m);
  em::Writer<LocalDeg> dw(degs);
  {
    em::Scanner<VertexId> es(ends);
    VertexId cur = es.Next();
    std::uint32_t cnt = 1;
    while (es.HasNext()) {
      VertexId x = es.Next();
      if (x == cur) {
        ++cnt;
      } else {
        dw.Push(LocalDeg{cur, cnt});
        cur = x;
        cnt = 1;
      }
    }
    dw.Push(LocalDeg{cur, cnt});
  }
  em::Array<LocalDeg> dv = dw.Written();

  // --- Attach degrees (merge on u, then on v) --------------------------------
  em::Array<WedgeDegEdge> de = ctx.Alloc<WedgeDegEdge>(m);
  {
    em::Scanner<Edge> es(edges);
    em::Writer<WedgeDegEdge> dew(de);
    em::Scanner<LocalDeg> ds(dv);
    LocalDeg cur = ds.Next();
    while (es.HasNext()) {
      Edge e = es.Next();
      while (cur.v < e.u && ds.HasNext()) cur = ds.Next();
      TRIENUM_CHECK(cur.v == e.u);
      dew.Push(WedgeDegEdge{e.u, e.v, cur.deg, 0});
    }
  }
  extsort::ExternalMergeSort(ctx, de, ByTargetLess{});
  {
    em::Scanner<WedgeDegEdge> des(de);
    em::Writer<WedgeDegEdge> dew(de);  // in place: writes trail reads
    em::Scanner<LocalDeg> ds(dv);
    LocalDeg cur = ds.Next();
    while (des.HasNext()) {
      WedgeDegEdge e = des.Next();
      while (cur.v < e.v && ds.HasNext()) cur = ds.Next();
      TRIENUM_CHECK(cur.v == e.v);
      e.dv = cur.deg;
      dew.Push(e);
    }
  }

  // --- Orient by (degree, id) and group by source ----------------------------
  em::Array<WedgeOriented> ow = ctx.Alloc<WedgeOriented>(m);
  {
    em::Scanner<WedgeDegEdge> des(de);
    em::Writer<WedgeOriented> oww(ow);
    while (des.HasNext()) {
      WedgeDegEdge e = des.Next();
      if (std::tie(e.du, e.u) < std::tie(e.dv, e.v)) {
        oww.Push(WedgeOriented{e.u, e.v});
      } else {
        oww.Push(WedgeOriented{e.v, e.u});
      }
    }
  }
  extsort::ExternalMergeSort(ctx, ow, BySourceLess{});

  // --- Count wedges, then generate them --------------------------------------
  std::uint64_t num_wedges = 0;
  {
    std::size_t i = 0;
    while (i < m) {
      VertexId s = ow.Get(i).s;
      std::size_t j = i;
      while (j < m && ow.Get(j).s == s) ++j;
      const std::uint64_t out = j - i;
      num_wedges += out * (out - 1) / 2;
      i = j;
    }
  }
  if (num_wedges == 0) return;

  em::Array<WedgeQuery> queries = ctx.Alloc<WedgeQuery>(num_wedges);
  em::Writer<WedgeQuery> qw(queries);
  {
    std::size_t i = 0;
    while (i < m) {
      VertexId s = ow.Get(i).s;
      std::size_t j = i;
      while (j < m && ow.Get(j).s == s) ++j;
      for (std::size_t p = i; p < j; ++p) {
        const VertexId tp = ow.Get(p).t;
        // The quadratic wedge pass re-scans the group suffix per p; the
        // Scanner turns those re-reads into host-buffer hits.
        em::Scanner<WedgeOriented> gsuf(ow, p + 1, j);
        while (gsuf.HasNext()) {
          const VertexId tq = gsuf.Next().t;
          ctx.AddWork(1);
          qw.Push(tp < tq ? WedgeQuery{tp, tq, s} : WedgeQuery{tq, tp, s});
        }
      }
      i = j;
    }
  }
  qw.Flush();  // the sort below reads `queries` while qw is still alive

  // --- Sort queries and merge-join against the edge list ---------------------
  extsort::ExternalMergeSort(ctx, queries, ByQueryEdgeLess{});
  em::Scanner<WedgeQuery> qs(queries);
  em::Scanner<Edge> es(edges);
  while (es.HasNext() && qs.HasNext()) {
    Edge e = es.Next();
    while (qs.HasNext()) {
      WedgeQuery q = qs.Peek();
      if (std::tie(q.a, q.b) < std::tie(e.u, e.v)) {
        qs.Next();
        continue;
      }
      break;
    }
    while (qs.HasNext()) {
      WedgeQuery q = qs.Peek();
      if (q.a != e.u || q.b != e.v) break;
      qs.Next();
      const graph::Triangle tri = OrderTriple(q.s, q.a, q.b);
      ctx.AddWork(1);
      sink.Emit(tri.a, tri.b, tri.c);
    }
  }
}

double DementievIoBound(std::size_t num_edges, std::size_t m, std::size_t b) {
  // sort(E^{3/2}) on 2-word wedge records, plus lower-order sorts of E.
  double e = static_cast<double>(num_edges);
  double wedges = std::pow(e, 1.5);
  return extsort::SortIoBound(static_cast<std::size_t>(wedges), 2, m, b) +
         4.0 * extsort::SortIoBound(num_edges, 3, m, b);
}

}  // namespace trienum::core
