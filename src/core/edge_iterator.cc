#include "core/edge_iterator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "em/array.h"
#include "extsort/scan_ops.h"
#include "obs/trace.h"
#include "simd/intersect.h"

namespace trienum::core {

void EnumerateEdgeIterator(em::QuerySession& ctx, const graph::EmGraph& g,
                           TriangleSink& sink) {
  using graph::VertexId;
  const std::size_t m = g.num_edges();
  const VertexId nv = g.num_vertices;
  if (m < 3) return;
  auto region = ctx.Region();

  // CSR: the lex-sorted edge list *is* the concatenated forward-neighbour
  // array; offsets come from one counting scan plus a prefix sum.
  em::Array<std::uint64_t> offsets = ctx.Alloc<std::uint64_t>(nv + 1);
  em::Array<VertexId> nbr;
  {
    obs::Span span("ei.csr_build");
    span.AddArg("edges", m);
    em::Array<std::uint32_t> outdeg = ctx.Alloc<std::uint32_t>(nv);
    {
      em::Writer<std::uint32_t> zero(outdeg);
      for (VertexId v = 0; v < nv; ++v) zero.Push(0);
    }
    extsort::ForEach(g.edges, [&](const graph::Edge& e) {
      outdeg.Set(e.u, outdeg.Get(e.u) + 1);
    });
    std::uint64_t run = 0;
    for (VertexId v = 0; v < nv; ++v) {
      offsets.Set(v, run);
      run += outdeg.Get(v);
    }
    offsets.Set(nv, run);
    nbr = ctx.Alloc<VertexId>(m);
    extsort::Transform(g.edges, nbr, [](const graph::Edge& e) { return e.v; });
  }

  // For each edge (u, v): intersect N+(u) beyond v with N+(v). Both runs
  // are staged host-side with scan-exact reads and handed to the merge
  // kernel, whose ascending match output is exactly the old interleaved
  // two-pointer loop's emit order. Work stays the merge's iteration count,
  // consumed_a + consumed_b - matches, which the consumed-at-exhaustion
  // counts give exactly (tests/test_intersect_kernels.cc).
  obs::Span span("ei.intersect");
  span.AddArg("edges", m);
  std::vector<VertexId> run_a, run_b, matches;
  for (VertexId u = 0; u < nv; ++u) {
    std::uint64_t lo = offsets.Get(u), hi = offsets.Get(u + 1);
    for (std::uint64_t idx = lo; idx < hi; ++idx) {
      VertexId v = nbr.Get(idx);
      std::uint64_t i = idx + 1;               // suffix of N+(u): values > v
      std::uint64_t j = offsets.Get(v);        // random access per edge
      std::uint64_t j_end = offsets.Get(v + 1);
      const std::size_t la = static_cast<std::size_t>(hi - i);
      const std::size_t lb = static_cast<std::size_t>(j_end - j);
      if (la == 0 || lb == 0) continue;
      if (run_a.size() < la) run_a.resize(la);
      if (run_b.size() < lb) run_b.resize(lb);
      nbr.ReadScanInto(i, hi, run_a.data());
      nbr.ReadScanInto(j, j_end, run_b.data());
      const std::size_t cap = std::min(la, lb);
      if (matches.size() < cap) matches.resize(cap);
      const simd::IntersectStats st = simd::IntersectSorted(
          run_a.data(), la, run_b.data(), lb, matches.data());
      ctx.AddWork(st.consumed_a + st.consumed_b - st.matches);
      for (std::size_t k = 0; k < st.matches; ++k) sink.Emit(u, v, matches[k]);
    }
  }
}

double EdgeIteratorIoBound(std::size_t num_edges, std::size_t b) {
  double e = static_cast<double>(num_edges);
  // One random access per edge plus streaming through O(sqrt(E))-length
  // adjacency lists per edge.
  return 2.0 * e + 4.0 * std::pow(e, 1.5) / static_cast<double>(b);
}

}  // namespace trienum::core
