// Section 3: the cache-oblivious randomized algorithm (Theorem 1) —
// O(E^{3/2} / (sqrt(M) B)) expected I/Os without ever reading M or B.
//
// The generalized (c0,c1,c2)-enumeration problem is solved recursively:
//   1. triangles through "local high degree" vertices (degree >= E/8 within
//      the subproblem; at most 16 of them) are enumerated with Lemma 1
//      (using funnelsort) and those vertices' edges removed. Their
//      Misra-Gries candidates are counted while the subproblem's array is
//      written (by the root's transform or the parent's routing scan), so
//      the node itself makes one verify scan, which also counts the
//      children of step 3;
//   2. one fresh 4-wise-independent random bit refines the coloring,
//      xi'(v) = 2*xi(v) - b(v);
//   3. the 8 child color vectors in {2c0-1,2c0}x{2c1-1,2c1}x{2c2-1,2c2} are
//      solved recursively on the compatible-edge subsets, which one routing
//      scan writes. A node above the base case whose step 1 removes no
//      edge thus reads its input twice; when step 1 removes edges, the
//      filtered array is counted again before the routing scan.
// Recursion ends at depth ceil(log4 E), or once a subproblem has at most
// kTinyBase = 4,096 edges. A base case of at most kTinyBase edges streams the
// node through a join in an O(1) host buffer (internal::StreamJoin); a
// larger one, reached only when the depth cap stops a node first, runs
// Dementiev's sort/scan algorithm (funnelsort flavor). Both filter to proper
// triangles and end by dropping the node's spent input lines. Triangle
// enumeration is the (1,1,1)-problem under the constant coloring. The
// refinement bits come from ctx.seed().
//
// Traced, the recursion is one `co.recurse` span whose args carry its shape
// (subproblems, base_cases, high_degree_calls, total_child_edges,
// max_depth_reached), each role's time and nodes, the base joins' rounds and
// spills (join_rounds, join_spills), and each depth's nodes, edges and
// exclusive block I/Os; the root's transform is its own `co.root` span
// before it.
#ifndef TRIENUM_CORE_CACHE_OBLIVIOUS_H_
#define TRIENUM_CORE_CACHE_OBLIVIOUS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sink.h"
#include "graph/normalize.h"

namespace trienum::core {

/// Largest subproblem the recursion splits no further. Such a node is solved
/// by internal::StreamJoin, which streams it instead of copying it, so the
/// base size does not set the host lease: the join's kBaseLeaseWords = 136
/// words do, and they also set the smallest M the algorithm runs at. A
/// fixed constant, so the algorithm stays oblivious to M and B; the paper's
/// analysis charges constant-size subproblems O(1), so it keeps the bound.
/// A smaller cutoff splits nodes the join would finish in a few rounds, each
/// split paying a high-degree verify scan and an 8-way partition; a larger
/// one gives the join more gather-and-join rounds, one per 120 R12 keys, and
/// a leaf above M rereads its input in each. The join's v-range rule keeps a
/// round's probes to the wedges whose v its chunk holds, so dense leaves no
/// longer cost work that grows with their square (K_64 under (1,1,1):
/// 467,481 work before the rule, 71,815 with it). With the rule, on R-MAT
/// scale 12 (E = 16,384, M = 4,096, B = 64, one core of a 4-vCPU VM, 5 runs
/// each):
///
///   cutoff   wall      block I/Os   work
///   1,024    43-62 ms  39,301       2.59M
///   2,048    41-55 ms  35,293       2.38M
///   4,096    34-38 ms  31,045       1.51M
///   8,192    25-33 ms  33,389       1.42M
///
/// Against 1,024, both 4,096 and 8,192 lower block I/Os in 26 and work in 26
/// of bench/io_sweep's 27 §3 cells (K_32 is one leaf at all four), but
/// 8,192 moves more blocks than 4,096 here and in 5 sweep cells (Gnm at
/// M = 2,048 and 4,096, up to 1.09x): 4,096 moves the fewest.
inline constexpr std::size_t kTinyBase = 4096;

/// Enumerates all triangles of `g`, cache-obliviously.
void EnumerateCacheOblivious(em::QuerySession& ctx, const graph::EmGraph& g,
                             TriangleSink& sink);

namespace internal {

/// The high-degree step's vertex finder, fed host values so a test can drive
/// it. Pass 1 (Count) is a Misra-Gries heavy-hitter pass with 31 counters
/// over the subproblem's 2E endpoints: it keeps every vertex of frequency
/// > 2E/32, so every vertex of degree >= E/8. The recursion makes pass 1
/// while it writes the subproblem's array, record by record in array order,
/// so it costs no scan of its own. Pass 2 (Verify) counts the surviving
/// candidates' degrees exactly, on the subproblem's one verify scan. Both
/// passes are lane sweeps over 32 uint32 lanes (GCC/Clang vector
/// extensions): a match is a compare to a bitmask plus ctz, and an occupancy
/// bitmask marks the live counters (lane 31 never holds one). Counters fill
/// lowest free slot first, so the order of High() is the slot order of the
/// scalar 31-slot loop.
class HighDegreeFinder {
 public:
  /// Pass 1: offers both endpoints of one edge.
  void Count(graph::VertexId u, graph::VertexId v);
  /// The number of Count calls so far.
  std::size_t counted() const { return counted_; }
  /// Ends pass 1; the occupied slots, in slot order, become the candidates.
  void BeginVerify();
  /// Pass 2: adds one edge to its endpoints' exact candidate degrees.
  void Verify(graph::VertexId u, graph::VertexId v);
  /// Appends the candidates of exact degree >= threshold, in slot order.
  void High(std::size_t threshold, std::vector<graph::VertexId>& out) const;

 private:
  using Lanes = std::uint32_t __attribute__((vector_size(16)));
  static constexpr int kGroups = 8;  // 8 x 4 = 32 lanes
  static constexpr std::uint32_t kSlots = 0x7fffffffu;  // 31 counters

  void Offer(graph::VertexId x);
  /// Bit k is set iff lane k of `lanes` equals x.
  static std::uint32_t EqMask(const Lanes (&lanes)[kGroups], std::uint32_t x);

  Lanes key_[kGroups] = {};
  Lanes cnt_[kGroups] = {};
  std::uint32_t occupied_ = 0;  // bit k: lane k holds a live counter
  std::size_t counted_ = 0;
};

/// The base case's host buffer: a chunk of kJoinKeys R12 keys (one word
/// each) and kJoinRunEnds 32-bit R01 endpoints of the current u-run.
inline constexpr std::size_t kJoinKeys = 120;
inline constexpr std::size_t kJoinRunEnds = 32;
inline constexpr std::size_t kBaseLeaseWords = kJoinKeys + kJoinRunEnds / 2;

/// What one StreamJoin call did: its gather-and-join rounds, and its spills,
/// each a rescan of one u-run's tail.
struct JoinCounts {
  std::uint64_t rounds = 0;
  std::uint64_t spills = 0;
};

/// §3's base case: enumerates the proper triangles u < v < w of the
/// col-problem on `node`, whose records must be lex-sorted (u, v) with
/// u < v, as every node of the recursion is. It joins the node's three slot
/// relations R01(u,v), R02(u,w) and R12(v,w), where an edge is in Rij when
/// its endpoint colours are (col[i], col[j]); an edge may sit in several.
/// A gather pass collects the next kJoinKeys R12 keys, already in order,
/// and checks the node's order (one compare per record). A join pass then
/// walks the u-runs that can reach the chunk (u below its last key's v),
/// keeps each run's R01 endpoints and probes (v, w) in the chunk for each
/// R02 edge (u, w), so triangles come out by chunk, then u, w and v. Every
/// key of a chunk has its v in [first_v, last_v], the v of its first and
/// last key, so a run keeps only the endpoints in that range and only an
/// R02 edge with w > first_v probes: each wedge (u; v, w) is probed only in
/// the rounds whose chunk range holds v. An R12 larger than a chunk costs
/// one more gather-and-join round; a run with more than kJoinRunEnds R01
/// endpoints in one chunk's range rescans its own tail once per further
/// batch (a spill). Every pass after the first hits the cache whenever the
/// node fits in M. Leases exactly kBaseLeaseWords words and charges one unit
/// of work per streamed record and per probe. The node's lines stay cached;
/// the recursion drops them.
JoinCounts StreamJoin(em::QuerySession& ctx,
                      em::Array<graph::ColoredEdge> node,
                      std::array<std::uint32_t, 3> col, TriangleSink& sink);

/// EnumerateCacheOblivious with the depth cap `max_depth` in place of
/// ceil(log4 E), so a test can reach the Dementiev base (cap 0 solves the
/// whole graph there).
void EnumerateCacheObliviousToDepth(em::QuerySession& ctx,
                                    const graph::EmGraph& g,
                                    TriangleSink& sink, int max_depth);

}  // namespace internal

}  // namespace trienum::core

#endif  // TRIENUM_CORE_CACHE_OBLIVIOUS_H_
