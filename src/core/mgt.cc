#include "core/mgt.h"

#include <cmath>

#include "obs/trace.h"

namespace trienum::core {

void EnumerateMgt(em::QuerySession& ctx, const graph::EmGraph& g,
                  TriangleSink& sink) {
  obs::Span span("mgt.pivot_enum");
  span.AddArg("edges", g.num_edges());
  // Lemma 2 with the pivot set equal to the whole edge set: every triangle
  // has its (unique) pivot edge somewhere in E, so all are enumerated. The
  // adjacency intersections (resident pivot runs vs Gamma_3) run on the
  // src/simd/ two-regime kernels inside PivotEnumerate, and at threads > 1
  // its chunks run as one ordered run on the pool.
  PivotEnumerate<graph::Edge>(ctx, g.edges, g.edges, g.edges, sink);
}

double MgtIoBound(std::size_t num_edges, std::size_t m, std::size_t b) {
  double e = static_cast<double>(num_edges);
  double chunk = std::max(
      1.0, static_cast<double>(m) * kChunkFraction);
  double chunks = std::ceil(e / chunk);
  // Each chunk costs one scan of E (cone stream) plus reading the chunk.
  return chunks * (e / static_cast<double>(b) + chunk / static_cast<double>(b)) +
         1.0;
}

}  // namespace trienum::core
