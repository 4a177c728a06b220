#include "core/chu_cheng.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/vertex_enum.h"
#include "extsort/scan_ops.h"
#include "extsort/sorter.h"
#include "obs/trace.h"

namespace trienum::core {
namespace {

using graph::Edge;
using graph::VertexId;

/// Fraction of M available to one extended subgraph.
constexpr double kPartFraction = 1.0 / 4.0;

std::uint64_t PackEdge(VertexId a, VertexId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

class PartitionRunner {
 public:
  PartitionRunner(em::QuerySession& ctx, const graph::EmGraph& g, TriangleSink& sink,
                  std::size_t capacity_words)
      : ctx_(ctx), g_(g), sink_(sink), capacity_(capacity_words) {}

  /// Processes the vertex range [lo, hi): enumerates every triangle whose
  /// smallest vertex lies in the range.
  void ProcessRange(VertexId lo, VertexId hi) {
    if (lo >= hi) return;
    obs::Span span("cc.partition");
    span.AddArg("range_lo", lo);
    span.AddArg("range_hi", hi);
    if (TryInMemory(lo, hi)) return;
    if (hi - lo > 1) {
      VertexId mid = lo + (hi - lo) / 2;
      ProcessRange(lo, mid);
      ProcessRange(mid, hi);
      return;
    }
    // A single vertex whose extended subgraph overflows memory: Lemma 1
    // always works; keep only triangles where x is the smallest vertex (the
    // part-assignment rule), which is automatic since Gamma contains only
    // larger... not so after degree ranking — filter explicitly. The sorts
    // inside Lemma 1 ride on the keyed engine via the AwareSorter policy.
    VertexId x = lo;
    EnumerateTrianglesContaining<Edge>(
        ctx_, g_.edges, x, extsort::AwareSorter{},
        [&](VertexId u, VertexId w, std::uint32_t, std::uint32_t,
            std::uint32_t) {
          graph::Triangle t = OrderTriple(x, u, w);
          if (t.a == x) sink_.Emit(t.a, t.b, t.c);
        });
  }

 private:
  /// Attempts the in-memory path; returns false if the extended subgraph
  /// would not fit.
  bool TryInMemory(VertexId lo, VertexId hi) {
    // Cone edges: every (u, v) with u in [lo, hi) — a contiguous run of the
    // lex-sorted edge list, located by scanning forward from a remembered
    // cursor (parts are processed left to right).
    const std::size_t m = g_.num_edges();
    std::size_t begin = cursor_;
    while (begin < m && g_.edges.Get(begin).u < lo) ++begin;
    std::size_t end = begin;

    std::vector<Edge> cone;
    std::unordered_set<VertexId> gamma;
    std::size_t budget_items = capacity_ / 4;  // cone + B_i + hash + adj
    while (end < m) {
      Edge e = g_.edges.Get(end);
      if (e.u >= hi) break;
      if (cone.size() + 1 > budget_items) return false;  // part too big
      cone.push_back(e);
      gamma.insert(e.v);
      ++end;
    }
    if (cone.empty()) {
      cursor_ = end;
      return true;  // no triangles with smallest vertex here
    }

    // Closing edges: both endpoints in Gamma+(V_i). One scan of E; bail out
    // if the extended subgraph exceeds the budget (caller will split).
    em::ScratchLease lease = ctx_.LeaseScratch(capacity_);
    std::unordered_set<std::uint64_t> closing;
    closing.reserve(budget_items);
    for (std::size_t i = 0; i < m; ++i) {
      Edge e = g_.edges.Get(i);
      ctx_.AddWork(1);
      if (gamma.count(e.u) != 0 && gamma.count(e.v) != 0) {
        if (closing.size() + 1 > budget_items) return false;
        closing.insert(PackEdge(e.u, e.v));
      }
    }
    // In-memory listing: for each cone vertex u, check its neighbour pairs.
    std::size_t i = 0;
    while (i < cone.size()) {
      std::size_t j = i;
      while (j < cone.size() && cone[j].u == cone[i].u) ++j;
      for (std::size_t p = i; p < j; ++p) {
        for (std::size_t q = p + 1; q < j; ++q) {
          ctx_.AddWork(1);
          if (closing.count(PackEdge(cone[p].v, cone[q].v)) != 0) {
            sink_.Emit(cone[i].u, cone[p].v, cone[q].v);
          }
        }
      }
      i = j;
    }
    cursor_ = end;
    return true;
  }

  em::QuerySession& ctx_;
  const graph::EmGraph& g_;
  TriangleSink& sink_;
  std::size_t capacity_;
  std::size_t cursor_ = 0;  // edge-list position of the next unprocessed part
};

}  // namespace

void EnumerateChuCheng(em::QuerySession& ctx, const graph::EmGraph& g,
                       TriangleSink& sink) {
  if (g.num_edges() < 3) return;
  const std::size_t capacity = std::max<std::size_t>(
      64, static_cast<std::size_t>(static_cast<double>(ctx.memory_words()) *
                                   kPartFraction));
  PartitionRunner runner(ctx, g, sink, capacity);

  // Greedy partition into consecutive ranges of incident-edge mass <= the
  // budget (degree array scan); ranges that still overflow their *extended*
  // subgraph are split inside ProcessRange. The plan's own span holds the
  // degree reads; each range's cc.partition span nests inside it.
  obs::Span plan("cc.plan");
  const std::size_t budget_items = capacity / 4;
  VertexId lo = 0;
  std::uint64_t mass = 0;
  for (VertexId v = 0; v < g.num_vertices; ++v) {
    std::uint64_t d = g.degrees.Get(v);
    if (v > lo && mass + d > budget_items) {
      runner.ProcessRange(lo, v);
      lo = v;
      mass = 0;
    }
    mass += d;
  }
  runner.ProcessRange(lo, g.num_vertices);
}

}  // namespace trienum::core
