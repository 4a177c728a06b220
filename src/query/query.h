// The query layer: graph-lifetime loading vs query-lifetime execution.
//
// A LoadedGraph ingests and normalizes an edge list exactly once (uncounted,
// like every single-run driver does) and then freezes: the normalized
// EmGraph and its GraphStore are immutable for the object's lifetime, and
// any number of queries may run over them. RunQuery executes one typed
// Query under the cold-start contract that makes a reused session
// bit-identical — same triangles in the same order, same IoStats, same
// internal-work counter — to a fresh em::Context built for that one query
// (asserted across the full algorithm x backend x threads x cache-geometry
// matrix by tests/test_query_session.cc).
//
// The cold-start contract per query:
//   1. a DeviceRegion opens at the frozen mark (the device top right after
//      normalization), so every query allocates at the same addresses;
//   2. Cache::Reset() — the query starts cold, counters zeroed;
//   3. the work counter, the threads-used tally and the device peak
//      tracker reset;
//   4. the session seed resolves to the query's seed (store's master seed
//      when the query leaves it 0), and the session thread count to the
//      query's (all hardware cores when it is 0);
//   5. the algorithm runs, Cache::FlushAll() charges pending output, and
//      the counters are snapshotted into the QueryResult.
//
// See README.md "Query sessions" for the full lifetime discussion.
#ifndef TRIENUM_QUERY_QUERY_H_
#define TRIENUM_QUERY_QUERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "em/array.h"
#include "em/context.h"
#include "graph/normalize.h"
#include "graph/types.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace trienum::query {

/// What a query asks of the triangle engine. All kinds run the same
/// enumeration algorithm; they differ only in the sink attached to it.
enum class QueryKind {
  kCount,      ///< total triangle count
  kEnumerate,  ///< the triangles themselves (in emission order)
  kPerVertex,  ///< triangle count per (normalized) vertex id
  kPerEdge,    ///< triangle support per (normalized) edge, lex order
};

/// \brief One typed query over a loaded graph.
struct Query {
  QueryKind kind = QueryKind::kCount;
  /// Algorithm name from core::AllAlgorithms() (see `trienum list`).
  std::string algo = "ps-cache-aware";
  /// Seed for the run's randomized components; 0 = the store's master seed.
  std::uint64_t seed = 0;
  /// Cap on the triangles copied into QueryResult::list (kEnumerate only;
  /// 0 = keep all). The sink still sees every emission, so the cap never
  /// changes IoStats.
  std::size_t limit = 0;
  /// Host compute threads for the run (0 = all hardware cores, at most
  /// par::kMaxThreads). Never changes results or IoStats.
  std::size_t threads = 1;
};

/// Triangle support of one normalized edge (u < v).
struct EdgeSupport {
  graph::Edge e;
  std::uint64_t count = 0;
};

/// Aggregated exclusive (self) attribution of one phase-span name over a
/// query: every sampled span with this name, summed. Because self deltas
/// telescope (see obs/trace.h), the per-phase columns sum exactly to the
/// query's totals — block_reads, block_writes, cache_hits, work — with the
/// root "query.run" phase carrying whatever no named phase claimed.
struct PhaseStat {
  std::string name;
  std::uint64_t spans = 0;         ///< sampled spans aggregated under `name`
  std::uint64_t self_wall_ns = 0;  ///< wall time minus sampled children
  obs::CounterSample self;         ///< exclusive counter deltas
};

/// \brief Everything one query produced, measured under its own cold cache.
struct QueryResult {
  std::uint64_t triangles = 0;
  /// kEnumerate: emitted triangles in emission order (capped at limit).
  std::vector<graph::Triangle> list;
  /// kPerVertex: count of triangles containing vertex i, indexed by
  /// normalized id (size = num_vertices).
  std::vector<std::uint64_t> per_vertex;
  /// kPerEdge: edges appearing in at least one triangle with their support,
  /// lexicographically sorted (deterministic regardless of emission order).
  std::vector<EdgeSupport> per_edge;

  em::IoStats io;
  std::uint64_t work = 0;
  std::size_t device_peak_words = 0;
  /// Real backend traffic of this query (zero on the memory backend).
  em::StorageTelemetry telemetry;
  /// Recovery traffic of this query (retries, injected faults, checksum
  /// failures) — uncounted with respect to `io`, which stays bit-identical
  /// to a clean run under any transient fault schedule. All zero unless the
  /// store was built with a fault/checksum configuration.
  em::RecoveryStats recovery;
  double wall_ms = 0;
  std::uint64_t seed_used = 0;
  /// Threads the query's widest parallel region ran on (see
  /// em::QuerySession::threads_used): 1 when nothing fanned out, at most
  /// the resolved Query::threads.
  std::size_t threads_used = 0;
  /// Per-phase attribution table, first-appearance order. Populated only
  /// when a TraceCollector was installed for the run (empty otherwise —
  /// the untraced path stays allocation-free here).
  std::vector<PhaseStat> phases;
  /// This query's window of the always-on seam histograms (registry
  /// snapshot after minus before, zero-count entries dropped). Populated
  /// only when a TraceCollector was installed, like `phases`.
  std::vector<obs::HistogramSnapshot> histogram_deltas;
};

/// \brief Runs one query over a normalized graph inside `session`.
///
/// Enforces the cold-start contract documented at the top of this header;
/// the session's device top must be at the frozen mark (i.e. every earlier
/// query released its region — automatic when all access goes through this
/// function). Fails with NotFound for an unknown algorithm name.
Result<QueryResult> RunQuery(em::QuerySession& session,
                             const graph::EmGraph& g, const Query& q);

/// \brief A graph loaded once, queryable many times.
///
/// Owns the GraphStore, the normalized EmGraph resident on it, and one
/// long-lived QuerySession reused by Run(). Movable (the store sits behind a
/// unique_ptr) so factories can return it by value.
class LoadedGraph {
 public:
  /// Ingests + normalizes `raw` (uncounted, exactly like the single-run
  /// drivers) and freezes the result. Fails with kInvalidArgument for a
  /// geometry no cache can hold (B = 0, B > M, or more than
  /// em::Cache::kMaxLines lines), kCapacityExceeded when the cache does not
  /// fit in host memory, and kIoError when the backend cannot initialize
  /// (bad temp dir) or ingest hits a permanent I/O fault.
  static Result<LoadedGraph> FromEdges(const em::EmConfig& cfg,
                                       const std::vector<graph::Edge>& raw);

  LoadedGraph(LoadedGraph&&) = default;
  LoadedGraph& operator=(LoadedGraph&&) = default;

  /// Runs `q` on the reused session (bit-identical to a fresh context).
  Result<QueryResult> Run(const Query& q);

  em::GraphStore& store() { return *store_; }
  const graph::EmGraph& graph() const { return graph_; }
  /// Device top right after normalization; every query runs in a region
  /// opened here.
  em::Addr frozen_mark() const { return frozen_mark_; }
  /// The reused session (for callers composing their own RunQuery calls).
  em::QuerySession& session() { return *session_; }

 private:
  LoadedGraph() = default;

  std::unique_ptr<em::GraphStore> store_;
  std::unique_ptr<em::QuerySession> session_;
  graph::EmGraph graph_;
  em::Addr frozen_mark_ = 0;
};

}  // namespace trienum::query

#endif  // TRIENUM_QUERY_QUERY_H_
