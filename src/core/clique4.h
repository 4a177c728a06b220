// Section 6 extension: enumerating 4-cliques with the paper's color-coding
// technique.
//
// The conclusion notes that the §2 cache-aware algorithm "can be extended to
// the enumeration of a given subgraph with k vertices ... (which includes
// k-cliques) with O(E^{k/2}/(M^{k/2-1} B)) expected I/Os": decompose into
// O((E/M)^{k/2}) subproblems of expected size O(M) by the random coloring
// and solve each in memory. This module implements k = 4:
//
//  1. High-degree vertices (deg > sqrt(EM)) are peeled one at a time: the
//     edges E'_x induced on Gamma_x (computed with the Lemma 1 machinery)
//     form a graph whose *triangles* are exactly x's 4-cliques; they are
//     enumerated with the §2 triangle algorithm and x's edges removed — the
//     k-clique analog of step 1, exactly once overall.
//  2. Low-degree edges are colored with c = sqrt(E/M) colors and bucketed.
//  3. For every ordered color 4-tuple, the union of the six buckets
//     E_{tau_i,tau_j} is loaded into internal memory (expected size O(M))
//     and scanned for 4-cliques honoring the color positions; oversized
//     tuples are recursively split with one fresh 4-wise bit (the §3
//     refinement idea) until they fit. Expected cost O(E^2/(MB)).
#ifndef TRIENUM_CORE_CLIQUE4_H_
#define TRIENUM_CORE_CLIQUE4_H_

#include <array>
#include <cstdint>
#include <vector>

#include "graph/normalize.h"

namespace trienum::core {

/// \brief Receiver of 4-clique emissions (a < b < c < d).
class CliqueSink {
 public:
  virtual ~CliqueSink() = default;
  virtual void Emit4(graph::VertexId a, graph::VertexId b, graph::VertexId c,
                     graph::VertexId d) = 0;
};

class CountingCliqueSink : public CliqueSink {
 public:
  void Emit4(graph::VertexId, graph::VertexId, graph::VertexId,
             graph::VertexId) override {
    ++count_;
  }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

class CollectingCliqueSink : public CliqueSink {
 public:
  void Emit4(graph::VertexId a, graph::VertexId b, graph::VertexId c,
             graph::VertexId d) override {
    cliques_.push_back({a, b, c, d});
  }
  const std::vector<std::array<graph::VertexId, 4>>& cliques() const {
    return cliques_;
  }

 private:
  std::vector<std::array<graph::VertexId, 4>> cliques_;
};

/// Enumerates every 4-clique of the normalized graph exactly once. The
/// coloring and splitting bits are drawn from the session seed.
void EnumerateFourCliques(em::QuerySession& ctx, const graph::EmGraph& g,
                          CliqueSink& sink);

/// Host-memory reference count (verification).
std::uint64_t CountFourCliquesHost(const std::vector<graph::Edge>& edges);

/// The §6 bound E^{k/2}/(M^{k/2-1} B) at k = 4, i.e. E^2/(M B).
double Clique4IoBound(std::size_t num_edges, std::size_t m, std::size_t b);

}  // namespace trienum::core

#endif  // TRIENUM_CORE_CLIQUE4_H_
