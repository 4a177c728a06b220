// Pipelined block-nested-loop ternary join, the naive database baseline of
// §1.1: "it is possible to use two block-nested loop joins (in a pipelined
// fashion) to solve the problem incurring O(E^3/(M^2 B)) I/Os."
//
// Chunks of alpha*M edges (v1, v2) are held resident; one scan of E joins
// them with edges (v2, v3); the resulting partial paths are buffered (never
// materialized to disk — pipelining) and verified against the third relation
// with batched probe scans of E.
#ifndef TRIENUM_CORE_BNL_H_
#define TRIENUM_CORE_BNL_H_

#include "core/sink.h"
#include "graph/normalize.h"

namespace trienum::core {

void EnumerateBnl(em::QuerySession& ctx, const graph::EmGraph& g,
                  TriangleSink& sink);

/// Worst-case prediction O(E^3/(M^2 B)) with implementation constants.
double BnlIoBound(std::size_t num_edges, std::size_t m, std::size_t b);

}  // namespace trienum::core

#endif  // TRIENUM_CORE_BNL_H_
