// The Hu-Tao-Chung "massive graph triangulation" algorithm (SIGMOD 2013),
// adapted to enumeration as in the paper: Lemma 2 applied with E' = E, for a
// total of O(E/B + E^2/(MB)) I/Os. This is the main prior-art comparator the
// paper improves on by a factor min(sqrt(E/M), sqrt(M)).
//
// The Lemma 2 chunks, which dominate mgt's wall clock, run on the src/par/
// pool when the session's thread count is above 1 on a memory-resident
// store; their charges are replayed in serial order, so the I/O charge
// sequence — and therefore MgtIoBound's accounting — is unaffected at any
// thread count (see pivot_enum.h).
#ifndef TRIENUM_CORE_MGT_H_
#define TRIENUM_CORE_MGT_H_

#include "core/pivot_enum.h"
#include "core/sink.h"
#include "graph/normalize.h"

namespace trienum::core {

/// Enumerates every triangle of the normalized graph `g`, with resident
/// pivot chunks of kChunkFraction (alpha = 1/8) of M.
void EnumerateMgt(em::QuerySession& ctx, const graph::EmGraph& g,
                  TriangleSink& sink);

/// Predicted I/O cost O(E/B + E^2/(MB)) with the implementation's constants
/// (for bound tests and benches).
double MgtIoBound(std::size_t num_edges, std::size_t m, std::size_t b);

}  // namespace trienum::core

#endif  // TRIENUM_CORE_MGT_H_
