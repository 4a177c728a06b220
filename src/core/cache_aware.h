// Section 2: the cache-aware color-coding triangle enumeration algorithm —
// O(E^{3/2} / (sqrt(M) B)) expected I/Os (Theorem 4), and with the §4
// deterministic coloring the worst-case bound of Theorem 2.
//
// Steps (paper §2.1):
//  1. High-degree split: vertices with deg > sqrt(E*M) (fewer than
//     2*sqrt(E/M) of them) are handled one by one with Lemma 1, removing
//     each vertex's edges afterwards so every such triangle is emitted
//     exactly once.
//  2. The remaining low-degree edges are colored with a 4-wise independent
//     xi : V -> {0..c-1}, c = sqrt(E/M) (rounded up to a power of two), and
//     bucketed into the c^2 classes E_{tau1,tau2} by one sort.
//  3. For each ordered triple (tau1,tau2,tau3): Lemma 2 with pivot set
//     E_{tau2,tau3} and cone streams E_{tau1,tau2}, E_{tau1,tau3}.
#ifndef TRIENUM_CORE_CACHE_AWARE_H_
#define TRIENUM_CORE_CACHE_AWARE_H_

#include <cstddef>

#include "core/sink.h"
#include "graph/normalize.h"

namespace trienum::core {

/// Enumerates all triangles of the normalized graph `g`, coloring with a
/// 4-wise independent hash seeded from ctx.seed().
void EnumerateCacheAware(em::QuerySession& ctx, const graph::EmGraph& g,
                         TriangleSink& sink);

/// The same algorithm with the §4 greedy derandomized coloring (Theorem 2):
/// no randomness, the worst-case bound.
void EnumerateDeterministic(em::QuerySession& ctx, const graph::EmGraph& g,
                            TriangleSink& sink);

/// The paper's bound E^{3/2} / (sqrt(M) B) (no constants): the yardstick all
/// EXP-* benches normalize measured I/Os against.
double PaghSilvestriIoBound(std::size_t num_edges, std::size_t m, std::size_t b);

}  // namespace trienum::core

#endif  // TRIENUM_CORE_CACHE_AWARE_H_
