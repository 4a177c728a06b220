#include "core/cache_aware.h"

#include <cmath>
#include <vector>

#include "core/coloring.h"
#include "core/derandomize.h"
#include "core/pivot_enum.h"
#include "core/vertex_enum.h"
#include "extsort/ext_merge_sort.h"
#include "extsort/scan_ops.h"
#include "hashing/kwise.h"
#include "obs/trace.h"

namespace trienum::core {
namespace {

/// §2's body; `deterministic` picks §4's coloring over the random one.
void Enumerate(em::QuerySession& ctx, const graph::EmGraph& g,
               TriangleSink& sink, bool deterministic) {
  using graph::ColoredEdge;
  using graph::Edge;
  using graph::VertexId;

  const std::size_t m0 = g.num_edges();
  if (m0 < 3) return;
  auto region = ctx.Region();

  // ---- Step 1: triangles with a high-degree vertex (Lemma 1 each) ----------
  // Its working copy of the edge set shrinks as high-degree vertices are
  // pulled out.
  em::Array<Edge> work = ctx.Alloc<Edge>(m0);
  std::size_t wlen = m0;
  {
    obs::Span span("ca.high_degree");
    extsort::Copy(g.edges, work);
    const double threshold = std::sqrt(static_cast<double>(m0) *
                                       static_cast<double>(ctx.memory_words()));
    // Ids are in non-decreasing degree order, so V_h is a suffix.
    VertexId h0 = g.num_vertices;
    for (VertexId i = 0; i < g.num_vertices; ++i) {
      if (static_cast<double>(g.degrees.Get(i)) > threshold) {
        h0 = i;
        break;
      }
    }
    for (VertexId x = g.num_vertices; x-- > h0;) {
      em::Array<Edge> cur = work.Slice(0, wlen);
      EnumerateTrianglesContaining<Edge>(
          ctx, cur, x, extsort::AwareSorter{},
          [&](VertexId u, VertexId w, std::uint32_t, std::uint32_t,
              std::uint32_t) {
            graph::Triangle t = OrderTriple(x, u, w);
            sink.Emit(t.a, t.b, t.c);
          });
      wlen = extsort::Filter(cur, work, [x](const Edge& e) {
        return e.u != x && e.v != x;
      });
    }
  }
  if (wlen == 0) return;
  em::Array<Edge> low = work.Slice(0, wlen);

  // ---- Step 2: coloring and bucketing ---------------------------------------
  const std::uint32_t c = internal::ColorCount(ctx, wlen, deterministic);

  ColorFn color;
  if (deterministic) {
    DeterministicColoring det = BuildDeterministicColoring(ctx, low, c);
    color = [det](VertexId v) { return det.Color(v); };
  } else {
    hashing::FourWiseHash h(ctx.seed());
    std::uint32_t cc = c;
    color = [h, cc](VertexId v) { return h.Color(v, cc); };
  }

  // Colors attached once (stored with the edge, then stripped after the
  // bucket sort so step 3 streams one-word edges as the paper assumes).
  // The transform stays fused (read, color, push per record): its Scanner
  // reads interleave with Writer flushes, and that interleaving is part of
  // the pinned LRU charge sequence — batching reads ahead of the writes
  // would perturb IoStats under capacity pressure. Parallelism enters this
  // algorithm only through the Lemma 2 chunks of step 3, an ordered run
  // that is invariant in the thread count (see pivot_enum.h); the
  // ExternalMergeSort below is serial at every thread count.
  const std::size_t num_keys = static_cast<std::size_t>(c) * c;
  em::Array<std::uint64_t> offsets;
  em::Array<Edge> buckets;
  {
    obs::Span span("ca.coloring");
    span.AddArg("colors", c);
    em::Array<ColoredEdge> colored = ctx.Alloc<ColoredEdge>(wlen);
    extsort::Transform(low, colored, [&](const Edge& e) {
      return ColoredEdge{e.u, e.v, color(e.u), color(e.v)};
    });
    extsort::ExternalMergeSort(ctx, colored, graph::ColorClassLess{});

    // Bucket offsets live on the device (c^2 + 1 words, built with one
    // counting scan and a prefix sum), so no internal-memory assumption
    // beyond the paper's is needed and their accesses are I/O-accounted.
    offsets = ctx.Alloc<std::uint64_t>(num_keys + 1);
    buckets = ctx.Alloc<Edge>(wlen);
    for (std::size_t k = 0; k <= num_keys; ++k) offsets.Set(k, 0);
    {
      em::Scanner<ColoredEdge> in(colored);
      em::Writer<Edge> out(buckets);
      while (in.HasNext()) {
        ColoredEdge e = in.Next();
        std::size_t key = static_cast<std::size_t>(e.cu) * c + e.cv;
        offsets.Set(key + 1, offsets.Get(key + 1) + 1);
        out.Push(Edge{e.u, e.v});
      }
      out.Flush();  // step 3 reads `buckets` below
    }
    {
      std::uint64_t run = 0;
      for (std::size_t k = 0; k <= num_keys; ++k) {
        run += offsets.Get(k);
        offsets.Set(k, run);
      }
    }
  }

  // ---- Step 3: Lemma 2 per color triple -------------------------------------
  // Row t1 of the triple loop in its serial order: bound(key) reads one bucket
  // bound, lemma2(cone_a, cone_b, pivot) is one Lemma 2 call.
  auto for_each_triple_in_row = [&](std::uint32_t t1, auto bound,
                                    auto lemma2) {
    auto bucket = [&](std::uint32_t a, std::uint32_t b) {
      const std::size_t key = static_cast<std::size_t>(a) * c + b;
      const std::size_t lo = bound(key);
      return buckets.Slice(lo, bound(key + 1) - lo);
    };
    for (std::uint32_t t2 = 0; t2 < c; ++t2) {
      em::Array<Edge> cone_a = bucket(t1, t2);
      if (cone_a.empty()) continue;
      for (std::uint32_t t3 = 0; t3 < c; ++t3) {
        em::Array<Edge> pivot = bucket(t2, t3);
        if (pivot.empty()) continue;
        em::Array<Edge> cone_b = t2 == t3 ? cone_a : bucket(t1, t3);
        if (cone_b.empty()) continue;
        lemma2(cone_a, cone_b, pivot);
      }
    }
  };
  obs::Span span("ca.color_triples");
  span.AddArg("colors", c);
  auto charged_bound = [&](std::size_t key) {
    return static_cast<std::size_t>(offsets.Get(key));
  };
  if (!PivotChunksRunOrdered(ctx)) {
    for (std::uint32_t t1 = 0; t1 < c; ++t1) {
      for_each_triple_in_row(t1, charged_bound, [&](em::Array<Edge> cone_a,
                                                    em::Array<Edge> cone_b,
                                                    em::Array<Edge> pivot) {
        PivotEnumerate<Edge>(ctx, cone_a, cone_b, pivot, sink);
      });
    }
    return;
  }
  // Each row's chunks go through one ordered run, so the plan holds at most
  // c^2 calls, not c^3. The plan reads the bounds through the direct view,
  // uncharged; each call then re-reads its own bounds, charged, at its serial
  // position in the commit order, and the bounds read after a row's last call
  // are charged when its run ends.
  const std::uint64_t* bounds = offsets.MemRef();
  std::vector<PivotCall<Edge>> calls;
  std::vector<std::size_t> keys;  // bounds read since the last call
  auto charge = [&](const std::vector<std::size_t>& ks) {
    for (std::size_t k : ks) charged_bound(k);
  };
  for (std::uint32_t t1 = 0; t1 < c; ++t1) {
    for_each_triple_in_row(
        t1,
        [&](std::size_t key) {
          keys.push_back(key);
          return static_cast<std::size_t>(bounds[key]);
        },
        [&](em::Array<Edge> cone_a, em::Array<Edge> cone_b,
            em::Array<Edge> pivot) {
          calls.push_back(PivotCall<Edge>{
              cone_a, cone_b, pivot, [&charge, ks = keys] { charge(ks); }});
          keys.clear();
        });
    if (!calls.empty()) PivotEnumerateOrdered<Edge>(ctx, calls, sink);
    calls.clear();
    charge(keys);
    keys.clear();
  }
}

}  // namespace

namespace internal {

std::uint32_t ColorCount(const em::QuerySession& ctx, std::size_t low_edges,
                         bool deterministic) {
  std::uint32_t c = 1;
  if (deterministic) {
    // §4 fixes one colour bit per derandomization round, so its c is a power
    // of two and each doubling costs a round: it keeps classes of M edges.
    while (static_cast<std::uint64_t>(c) * c * ctx.memory_words() < low_edges) {
      c <<= 1;
    }
    return c;
  }
  const std::uint64_t chunk = ChunkItems<graph::Edge>(ctx);
  while (static_cast<std::uint64_t>(c) * c * chunk < low_edges) ++c;
  return c;
}

}  // namespace internal

void EnumerateCacheAware(em::QuerySession& ctx, const graph::EmGraph& g,
                         TriangleSink& sink) {
  Enumerate(ctx, g, sink, /*deterministic=*/false);
}

void EnumerateDeterministic(em::QuerySession& ctx, const graph::EmGraph& g,
                            TriangleSink& sink) {
  Enumerate(ctx, g, sink, /*deterministic=*/true);
}

double PaghSilvestriIoBound(std::size_t num_edges, std::size_t m, std::size_t b) {
  double e = static_cast<double>(num_edges);
  return std::pow(e, 1.5) /
         (std::sqrt(static_cast<double>(m)) * static_cast<double>(b));
}

}  // namespace trienum::core
