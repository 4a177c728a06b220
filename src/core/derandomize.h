// Section 4: derandomizing the cache-aware algorithm.
//
// The coloring xi is built one bit at a time: starting from the constant
// coloring xi_0 = 1, round i picks a two-coloring b_{i-1} and refines
// xi_i(v) = 2*xi_{i-1}(v) - b_{i-1}(v). The greedy choice maintains the
// paper's potential inequality (4):
//
//   4^i * X^nonadj_i / c^2  +  2^i * X^adj_i / c  <=  (1+alpha)^i * E * M
//
// with alpha = 1/log2(c). At i = log2(c) the left side *is* X_xi, giving the
// deterministic guarantee X_xi < e*E*M that Theorem 2 needs. Candidates come
// from a fixed deterministic schedule (hashing/bit_family.h explains why it
// may stand in for the AGHP family); for each candidate
// the potential is evaluated exactly with two scans (class-grouped edges for
// the subclass counts, (class, vertex)-grouped incidences for the adjacent
// pairs), and the first candidate satisfying (4) is accepted — by Markov's
// inequality an expected O(1) candidates are inspected per round.
#ifndef TRIENUM_CORE_DERANDOMIZE_H_
#define TRIENUM_CORE_DERANDOMIZE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "em/array.h"
#include "graph/types.h"
#include "hashing/kwise.h"

namespace trienum::core {

struct DerandOptions {
  /// Draw candidates from the genuine AGHP epsilon-biased family over
  /// GF(2^12) (the paper's Lemma 6 source) instead of the fast 4-wise
  /// schedule. Evaluation is O(log V) field multiplications per vertex, so
  /// this is practical for small inputs only.
  bool use_aghp_family = false;
};

/// \brief The deterministic coloring xi : V -> [0, c) of §4.
class DeterministicColoring {
 public:
  using BitFn = std::function<std::uint32_t(graph::VertexId)>;

  DeterministicColoring() = default;
  DeterministicColoring(std::uint32_t c, std::vector<std::uint64_t> seeds);
  DeterministicColoring(std::uint32_t c, std::vector<BitFn> bits);

  /// Color of vertex v, assembled from the accepted round bit functions.
  std::uint32_t Color(graph::VertexId v) const;

  std::uint32_t num_colors() const { return c_; }
  const std::vector<std::uint64_t>& round_seeds() const { return seeds_; }
  void set_round_seeds(std::vector<std::uint64_t> seeds) {
    seeds_ = std::move(seeds);
  }

  /// Bit function of round r applied to vertex v (for diagnostics/tests).
  std::uint32_t RoundBit(std::size_t r, graph::VertexId v) const;

  /// Final potential value (== X_xi at the last level), for diagnostics.
  double final_potential() const { return final_potential_; }
  void set_final_potential(double p) { final_potential_ = p; }

  /// Number of candidate evaluations performed across all rounds.
  std::uint64_t candidates_tried() const { return candidates_tried_; }
  void set_candidates_tried(std::uint64_t n) { candidates_tried_ = n; }

 private:
  std::uint32_t c_ = 1;
  std::vector<std::uint64_t> seeds_;
  std::vector<BitFn> bits_;
  double final_potential_ = 0;
  std::uint64_t candidates_tried_ = 0;
};

/// Runs the greedy bit-fixing over `edges` (lex-sorted, low-degree part of
/// the graph) for c colors (power of two). O(E log(E/M) / B)-ish I/Os plus
/// one sort per round, as in the paper's Theorem 2 proof; the last round
/// skips its refine and re-sort, since nothing reads them. Traced as one
/// `det.round` span with `rounds` and `candidates` args.
DeterministicColoring BuildDeterministicColoring(em::QuerySession& ctx,
                                                 em::Array<graph::Edge> edges,
                                                 std::uint32_t c,
                                                 const DerandOptions& opts = {});

}  // namespace trienum::core

#endif  // TRIENUM_CORE_DERANDOMIZE_H_
