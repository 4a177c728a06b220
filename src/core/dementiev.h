// Dementiev's external-memory triangle listing (PhD thesis, 2006),
// reconstructed as a degree-ordered wedge join: orient every edge from its
// lower-(degree, id) endpoint to the higher one, generate all out-wedges
// (s; t1, t2), and merge-join the wedge queries {t1, t2} against the edge
// list. Out-degrees under this orientation are O(sqrt(E)), so at most
// O(E^{3/2}) wedges are generated and the whole algorithm runs in
// O(sort(E^{3/2})) I/Os — the bound the paper cites for [9].
#ifndef TRIENUM_CORE_DEMENTIEV_H_
#define TRIENUM_CORE_DEMENTIEV_H_

#include <cstddef>

#include "core/sink.h"
#include "graph/normalize.h"

namespace trienum::core {

/// Standalone Dementiev baseline over a normalized graph, sorting with the
/// cache-aware external merge sort: O(sort(E^{3/2})) I/Os.
void EnumerateDementiev(em::QuerySession& ctx, const graph::EmGraph& g,
                        TriangleSink& sink);

/// Predicted I/O cost sort(E^{3/2}) with the implementation's constants.
double DementievIoBound(std::size_t num_edges, std::size_t m, std::size_t b);

}  // namespace trienum::core

#endif  // TRIENUM_CORE_DEMENTIEV_H_
