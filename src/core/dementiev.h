// Dementiev's external-memory triangle listing (PhD thesis, 2006),
// reconstructed as a degree-ordered wedge join: orient every edge from its
// lower-(degree, id) endpoint to the higher one, generate all out-wedges
// (s; t1, t2), and merge-join the wedge queries {t1, t2} against the edge
// list. Out-degrees under this orientation are O(sqrt(E)), so at most
// O(E^{3/2}) wedges are generated and the whole algorithm runs in
// O(sort(E^{3/2})) I/Os — the bound the paper cites for [9].
//
// The routine is templated on the sort policy because it doubles as the
// *base case* of the cache-oblivious recursion (paper §3.1: "triangles are
// enumerated with the deterministic algorithm by Dementiev, which relies on
// sort and scan operations, and can be trivially made oblivious using any
// oblivious sorting algorithm"), where it runs with FunnelSort and a
// (c0,c1,c2)-properness filter.
#ifndef TRIENUM_CORE_DEMENTIEV_H_
#define TRIENUM_CORE_DEMENTIEV_H_

#include <tuple>

#include "core/sink.h"
#include "core/vertex_enum.h"
#include "em/array.h"
#include "extsort/scan_ops.h"
#include "extsort/sort_key.h"
#include "extsort/sorter.h"
#include "graph/normalize.h"
#include "graph/types.h"

namespace trienum::core {
namespace internal {

/// Per-vertex degree record local to the input edge set.
struct LocalDeg {
  graph::VertexId v = 0;
  std::uint32_t deg = 0;
};

/// Edge annotated with both endpoint degrees (and colors, zero if unused).
struct WedgeDegEdge {
  graph::VertexId u = 0, v = 0;
  std::uint32_t du = 0, dv = 0;
  std::uint32_t cu = 0, cv = 0;
};

/// Degree-oriented edge: s is the endpoint with the smaller (deg, id) key.
struct WedgeOriented {
  graph::VertexId s = 0, t = 0;
  std::uint32_t cs = 0, ct = 0;
};

/// Wedge query: does edge {a, b} (a < b by id) exist? s is the cone vertex.
struct WedgeQuery {
  graph::VertexId a = 0, b = 0, s = 0;
  std::uint32_t ca = 0, cb = 0, cs = 0;
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

}  // namespace internal

/// \brief Wedge-join triangle enumeration over a lex-sorted edge array.
///
/// `filter(tri, c0, c1, c2)` receives each candidate triangle (vertices
/// ordered, colors positional) and decides whether to emit — the oblivious
/// recursion passes the (c0,c1,c2)-properness predicate, the standalone
/// baseline passes always-true.
template <typename EdgeT, typename Sorter, typename Filter>
void WedgeJoinEnumerate(em::QuerySession& ctx, em::Array<EdgeT> edges, Sorter sorter,
                        Filter filter, TriangleSink& sink) {
  using Access = graph::EdgeAccess<EdgeT>;
  using internal::LocalDeg;
  using internal::WedgeDegEdge;
  using internal::WedgeOriented;
  using internal::WedgeQuery;
  using graph::VertexId;

  const std::size_t m = edges.size();
  if (m < 3) return;
  auto region = ctx.Region();

  // --- Local degrees ---------------------------------------------------------
  em::Array<VertexId> ends = ctx.Alloc<VertexId>(2 * m);
  {
    em::Scanner<EdgeT> es(edges);
    em::Writer<VertexId> ew(ends);
    while (es.HasNext()) {
      EdgeT e = es.Next();
      ew.Push(Access::U(e));
      ew.Push(Access::V(e));
    }
  }
  sorter(ctx, ends, extsort::ValueLess<VertexId>{});
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
    em::Scanner<EdgeT> es(edges);
    em::Writer<WedgeDegEdge> dew(de);
    em::Scanner<LocalDeg> ds(dv);
    LocalDeg cur = ds.Next();
    while (es.HasNext()) {
      EdgeT e = es.Next();
      while (cur.v < Access::U(e) && ds.HasNext()) cur = ds.Next();
      TRIENUM_CHECK(cur.v == Access::U(e));
      dew.Push(WedgeDegEdge{Access::U(e), Access::V(e), cur.deg, 0, Access::CU(e),
                            Access::CV(e)});
    }
  }
  sorter(ctx, de, internal::ByTargetLess{});
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
      bool u_first = std::tie(e.du, e.u) < std::tie(e.dv, e.v);
      if (u_first) {
        oww.Push(WedgeOriented{e.u, e.v, e.cu, e.cv});
      } else {
        oww.Push(WedgeOriented{e.v, e.u, e.cv, e.cu});
      }
    }
  }
  sorter(ctx, ow, internal::BySourceLess{});

  // --- Count wedges, then generate them --------------------------------------
  std::uint64_t num_wedges = 0;
  {
    std::size_t i = 0;
    while (i < m) {
      VertexId s = ow.Get(i).s;
      std::size_t j = i;
      while (j < m && ow.Get(j).s == s) ++j;
      std::uint64_t g = j - i;
      num_wedges += g * (g - 1) / 2;
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
        WedgeOriented ep = ow.Get(p);
        // The quadratic wedge pass re-scans the group suffix per p; the
        // Scanner turns those re-reads into host-buffer hits.
        em::Scanner<WedgeOriented> gsuf(ow, p + 1, j);
        while (gsuf.HasNext()) {
          WedgeOriented eq = gsuf.Next();
          ctx.AddWork(1);
          WedgeQuery rec;
          rec.s = s;
          rec.cs = ep.cs;
          if (ep.t < eq.t) {
            rec = WedgeQuery{ep.t, eq.t, s, ep.ct, eq.ct, ep.cs};
          } else {
            rec = WedgeQuery{eq.t, ep.t, s, eq.ct, ep.ct, ep.cs};
          }
          qw.Push(rec);
        }
      }
      i = j;
    }
  }
  qw.Flush();  // the sorter below reads `queries` while qw is still alive

  // --- Sort queries and merge-join against the edge list ---------------------
  sorter(ctx, queries, internal::ByQueryEdgeLess{});
  {
    em::Scanner<WedgeQuery> qs(queries);
    em::Scanner<EdgeT> es(edges);
    while (es.HasNext() && qs.HasNext()) {
      EdgeT e = es.Next();
      VertexId eu = Access::U(e), ev = Access::V(e);
      while (qs.HasNext()) {
        WedgeQuery q = qs.Peek();
        if (std::tie(q.a, q.b) < std::tie(eu, ev)) {
          qs.Next();
          continue;
        }
        break;
      }
      while (qs.HasNext()) {
        WedgeQuery q = qs.Peek();
        if (q.a != eu || q.b != ev) break;
        qs.Next();
        auto [tri, c0, c1, c2] =
            OrderColoredTriple(q.s, q.cs, q.a, q.ca, q.b, q.cb);
        ctx.AddWork(1);
        if (filter(tri, c0, c1, c2)) sink.Emit(tri.a, tri.b, tri.c);
      }
    }
  }
}

/// Standalone Dementiev baseline over a normalized graph (cache-aware sort,
/// no filter): O(sort(E^{3/2})) I/Os.
void EnumerateDementiev(em::QuerySession& ctx, const graph::EmGraph& g,
                        TriangleSink& sink);

/// Predicted I/O cost sort(E^{3/2}) with the implementation's constants.
double DementievIoBound(std::size_t num_edges, std::size_t m, std::size_t b);

}  // namespace trienum::core

#endif  // TRIENUM_CORE_DEMENTIEV_H_
