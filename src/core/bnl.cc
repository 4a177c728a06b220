#include "core/bnl.h"

#include <algorithm>
#include <cmath>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "em/array.h"
#include "obs/trace.h"

namespace trienum::core {
namespace {

/// Resident edge chunk: alpha*M edges.
constexpr double kChunkFraction = 1.0 / 8.0;
/// In-memory path buffer: this fraction of M, two words per path.
constexpr double kCandidateFraction = 1.0 / 8.0;

struct PathCand {
  graph::VertexId v1, v2, v3;
};

// Verifies buffered paths (v1, v2, v3) against the edge relation: sort by
// (v1, v3) and merge-scan E once; matches close triangles.
void FlushCandidates(em::QuerySession& ctx, const graph::EmGraph& g,
                     std::vector<PathCand>& cand, TriangleSink& sink) {
  if (cand.empty()) return;
  std::sort(cand.begin(), cand.end(), [](const PathCand& a, const PathCand& b) {
    return std::tie(a.v1, a.v3, a.v2) < std::tie(b.v1, b.v3, b.v2);
  });
  ctx.AddWork(cand.size() * 2);
  std::size_t ci = 0;
  em::Scanner<graph::Edge> es(g.edges);
  while (es.HasNext() && ci < cand.size()) {
    graph::Edge e = es.Next();
    while (ci < cand.size() &&
           std::tie(cand[ci].v1, cand[ci].v3) < std::tie(e.u, e.v)) {
      ++ci;
    }
    while (ci < cand.size() && cand[ci].v1 == e.u && cand[ci].v3 == e.v) {
      sink.Emit(cand[ci].v1, cand[ci].v2, cand[ci].v3);
      ++ci;
    }
  }
  cand.clear();
}

}  // namespace

void EnumerateBnl(em::QuerySession& ctx, const graph::EmGraph& g,
                  TriangleSink& sink) {
  using graph::VertexId;
  const std::size_t m = g.num_edges();
  if (m < 3) return;

  std::size_t chunk_items = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(ctx.memory_words()) *
                                  kChunkFraction));
  std::size_t cand_cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(ctx.memory_words()) *
                                  kCandidateFraction / 2));

  for (std::size_t c0 = 0; c0 < m; c0 += chunk_items) {
    std::size_t c1 = std::min(m, c0 + chunk_items);
    obs::Span span("bnl.chunk_join");
    span.AddArg("chunk_items", c1 - c0);
    em::ScratchLease lease =
        ctx.LeaseScratch((c1 - c0) * 3 + cand_cap * 2);

    // Resident outer chunk, indexed by its larger endpoint v2.
    std::vector<graph::Edge> chunk(c1 - c0);
    g.edges.ReadTo(c0, c1, chunk.data());
    std::unordered_map<VertexId, std::vector<VertexId>> by_second;
    by_second.reserve(chunk.size());
    for (const graph::Edge& e : chunk) by_second[e.v].push_back(e.u);

    std::vector<PathCand> cand;
    cand.reserve(cand_cap);

    // Inner scan: join (v1, v2) with (v2, v3) on v2.
    em::Scanner<graph::Edge> es(g.edges);
    while (es.HasNext()) {
      graph::Edge e = es.Next();
      ctx.AddWork(1);
      auto it = by_second.find(e.u);
      if (it == by_second.end()) continue;
      for (VertexId v1 : it->second) {
        cand.push_back(PathCand{v1, e.u, e.v});
        if (cand.size() >= cand_cap) FlushCandidates(ctx, g, cand, sink);
      }
    }
    FlushCandidates(ctx, g, cand, sink);
  }
}

double BnlIoBound(std::size_t num_edges, std::size_t m, std::size_t b) {
  double e = static_cast<double>(num_edges);
  double mm = static_cast<double>(m);
  double chunk = std::max(1.0, mm * kChunkFraction);
  double cand_cap = std::max(1.0, mm * kCandidateFraction / 2);
  double chunks = std::ceil(e / chunk);
  // Paths generated per chunk are at most chunk * max_v deg(v) <= chunk * E;
  // the worst-case flush count is paths / cand_cap, each costing a scan.
  double paths = chunk * e;
  double flush_scans = std::ceil(paths / cand_cap);
  return chunks * ((1.0 + flush_scans) * e / static_cast<double>(b) +
                   chunk / static_cast<double>(b));
}

}  // namespace trienum::core
