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
//     xi : V -> {0..c-1} and bucketed into the c^2 classes E_{tau1,tau2} by
//     one sort. The paper's c = sqrt(E/M) gives classes of about M edges,
//     but Lemma 2 holds only alpha*M of them at a time, so a class of M
//     edges rescans its cone classes once per chunk. Here c is the least
//     integer with c^2 alpha M >= E: a class is about one chunk, and each
//     cone class is scanned once per colour triple. c stays
//     Theta(sqrt(E/M)), so Theorem 4's bound holds with a smaller constant.
//     §4 keeps the least power of two with c^2 M >= E (internal::ColorCount).
//  3. For each ordered triple (tau1,tau2,tau3): Lemma 2 with pivot set
//     E_{tau2,tau3} and cone streams E_{tau1,tau2}, E_{tau1,tau3}.
#ifndef TRIENUM_CORE_CACHE_AWARE_H_
#define TRIENUM_CORE_CACHE_AWARE_H_

#include <cstddef>
#include <cstdint>

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

namespace internal {

/// Step 2's colour count for `low_edges` low-degree edges: the least c with
/// c^2 * ChunkItems >= low_edges on the random path, and the least power of
/// two with c^2 * M >= low_edges when `deterministic`.
std::uint32_t ColorCount(const em::QuerySession& ctx, std::size_t low_edges,
                         bool deterministic);

}  // namespace internal

/// The paper's bound E^{3/2} / (sqrt(M) B) (no constants): the yardstick all
/// EXP-* benches normalize measured I/Os against.
double PaghSilvestriIoBound(std::size_t num_edges, std::size_t m, std::size_t b);

}  // namespace trienum::core

#endif  // TRIENUM_CORE_CACHE_AWARE_H_
