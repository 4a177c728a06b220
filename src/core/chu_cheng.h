// Chu & Cheng's partition-based triangle listing (TKDD 2012), the remaining
// §1.1 comparator: "Using graph partitioning ideas, Chu and Cheng improved
// the bound to O(E^2/(MB) + t/B) for a class of graphs ... those for which
// each subgraph generated by the partitioning fits in memory."
//
// Vertices are split into consecutive id ranges whose incident-edge mass is
// at most alpha*M. For each part V_i, the extended subgraph — edges leaving
// V_i plus edges among the out-neighbourhood Gamma+(V_i) — is loaded into
// internal memory and the triangles whose *smallest* vertex lies in V_i are
// enumerated there, so each triangle is found in exactly one part. When the
// extended subgraph overflows memory (the paper's "class of graphs"
// assumption failing), the part is split in half; an overflowing singleton
// falls back to Lemma 1, which always works in O(sort(E)).
#ifndef TRIENUM_CORE_CHU_CHENG_H_
#define TRIENUM_CORE_CHU_CHENG_H_

#include "core/sink.h"
#include "graph/normalize.h"

namespace trienum::core {

void EnumerateChuCheng(em::QuerySession& ctx, const graph::EmGraph& g,
                       TriangleSink& sink);

}  // namespace trienum::core

#endif  // TRIENUM_CORE_CHU_CHENG_H_
