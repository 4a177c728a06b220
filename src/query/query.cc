#include "query/query.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <new>
#include <string>
#include <utility>

#include "core/algorithms.h"
#include "core/sink.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "par/par_config.h"

namespace trienum::query {

namespace {

/// Clears the collector's sampler on every exit path: the sampler captures
/// the session by reference, so it must never outlive the RunQuery call
/// that installed it.
struct SamplerGuard {
  obs::TraceCollector* tc;
  ~SamplerGuard() {
    if (tc != nullptr) tc->clear_sampler();
  }
};

/// Per-vertex accumulator: every emitted triangle increments its three
/// corners. Order-invariant, so identical for every algorithm.
class PerVertexSink : public core::TriangleSink {
 public:
  explicit PerVertexSink(std::size_t num_vertices) : counts_(num_vertices, 0) {}
  void Emit(graph::VertexId a, graph::VertexId b, graph::VertexId c) override {
    ++counts_[a];
    ++counts_[b];
    ++counts_[c];
    ++total_;
  }
  std::vector<std::uint64_t> TakeCounts() { return std::move(counts_); }
  std::uint64_t total() const { return total_; }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Per-edge accumulator: a triangle (a < b < c) supports its three edges
/// (a,b), (a,c), (b,c). The ordered map makes the output lex-sorted and
/// independent of emission order.
class PerEdgeSink : public core::TriangleSink {
 public:
  void Emit(graph::VertexId a, graph::VertexId b, graph::VertexId c) override {
    ++support_[{a, b}];
    ++support_[{a, c}];
    ++support_[{b, c}];
    ++total_;
  }
  std::vector<EdgeSupport> TakeSupport() const {
    std::vector<EdgeSupport> out;
    out.reserve(support_.size());
    for (const auto& [uv, n] : support_) {
      out.push_back(EdgeSupport{graph::Edge{uv.first, uv.second}, n});
    }
    return out;
  }
  std::uint64_t total() const { return total_; }

 private:
  std::map<std::pair<graph::VertexId, graph::VertexId>, std::uint64_t> support_;
  std::uint64_t total_ = 0;
};

}  // namespace

Result<QueryResult> RunQuery(em::QuerySession& session,
                             const graph::EmGraph& g, const Query& q) {
  const core::AlgorithmInfo* info = core::FindAlgorithm(q.algo);
  if (info == nullptr) {
    return Status::NotFound("unknown algorithm '" + q.algo +
                            "' (see `trienum list`)");
  }

  // Resolve the query's seed and thread count (0 = all hardware cores,
  // clamped at par::kMaxThreads) onto the session. The thread count may not
  // change results or IoStats; the differential suite runs the matrix to
  // prove it.
  session.set_seed(q.seed != 0 ? q.seed : session.config().seed);
  session.set_threads(std::min(
      q.threads != 0 ? q.threads : par::HardwareThreads(), par::kMaxThreads));

  // Cold-start contract: the query's allocations live in a region opened at
  // the current (frozen) top, the cache starts empty with zeroed counters,
  // and the work / peak trackers restart. This is exactly the state a fresh
  // em::Context presents right after an uncounted normalize, which is what
  // makes session reuse bit-identical to fresh runs.
  em::DeviceRegion region = session.Region();
  session.cache().Reset();
  session.ResetWork();
  session.ResetThreadsUsed();
  session.device().ResetPeak();

  core::CountingSink count_sink;
  core::CollectingSink collect_sink;
  PerVertexSink vertex_sink(g.num_vertices);
  PerEdgeSink edge_sink;
  core::TriangleSink* sink = nullptr;
  switch (q.kind) {
    case QueryKind::kCount: sink = &count_sink; break;
    case QueryKind::kEnumerate: sink = &collect_sink; break;
    case QueryKind::kPerVertex: sink = &vertex_sink; break;
    case QueryKind::kPerEdge: sink = &edge_sink; break;
  }
  TRIENUM_CHECK(sink != nullptr);

  const em::StorageBackend& backend = session.device().backend();
  const em::StorageTelemetry tel_before = backend.telemetry();
  const em::RecoveryStats rec_before = backend.recovery();

  // Tracing, when a collector is installed: the sampler lets spans opened
  // on this thread attribute counter deltas to phases. Installed *after*
  // the cold-start reset and cleared before this function returns; the
  // root "query.run" span below opens at zeroed counters and closes before
  // the result snapshot, so its inclusive delta — and therefore the sum of
  // all phases' exclusive deltas — equals the query's totals exactly.
  obs::TraceCollector* tc = obs::CurrentTraceCollector();
  const std::size_t ev_mark = tc != nullptr ? tc->event_count() : 0;
  obs::MetricsRegistry::Snapshot hist_before;
  SamplerGuard sampler_guard{tc};
  if (tc != nullptr) {
    hist_before = obs::MetricsRegistry::Global().Snap();
    tc->set_sampler([&session, &backend]() {
      obs::CounterSample s;
      const em::IoStats io = session.cache().stats();
      s.block_reads = io.block_reads;
      s.block_writes = io.block_writes;
      s.cache_hits = io.cache_hits;
      s.work = session.work();
      const em::StorageTelemetry& t = backend.telemetry();
      s.read_calls = t.read_calls;
      s.write_calls = t.write_calls;
      s.bytes_read = t.bytes_read;
      s.bytes_written = t.bytes_written;
      return s;
    });
  }

  auto t0 = std::chrono::steady_clock::now();
  Status run_status;
  try {
    obs::Span root_span("query.run");
    // The operating point, so a trace reader can turn words into lines.
    root_span.AddArg("memory_words", session.memory_words());
    root_span.AddArg("block_words", session.block_words());
    info->run(session, g, *sink);
    session.cache().FlushAll();
  } catch (const IoFault& fault) {
    run_status = fault.status();
  } catch (const Status& st) {
    // An over-budget ScratchLease: M is below a fixed buffer size of this
    // algorithm. Same recovery as an I/O fault.
    run_status = st;
  }
  // A fault swallowed mid-unwind (a Writer flushing from its destructor)
  // never surfaced as an exception; the cache latch still records it.
  if (run_status.ok() && !session.cache().fault().ok()) {
    run_status = session.cache().fault();
  }
  if (!run_status.ok()) {
    // Crash-consistent failure: the query dies, the session survives. Leases
    // were released by unwinding (RAII); Discard drops the
    // abandoned scratch lines without write-back and clears the latch, and
    // the region destructor pops the device back to the frozen mark — so
    // the next query runs the cold-start contract from a clean slate,
    // bit-identical to a fresh context.
    session.cache().Discard();
    return run_status;
  }
  auto t1 = std::chrono::steady_clock::now();

  QueryResult r;
  r.io = session.cache().stats();
  r.work = session.work();
  r.device_peak_words = session.device().peak_words();
  r.telemetry = backend.telemetry() - tel_before;
  r.recovery = backend.recovery() - rec_before;
  r.wall_ms = std::chrono::duration_cast<
                  std::chrono::duration<double, std::milli>>(t1 - t0)
                  .count();
  r.seed_used = session.seed();
  r.threads_used = session.threads_used();

  if (tc != nullptr) {
    // Phase table: aggregate the run's sampled spans by name, first
    // appearance first. Exclusive deltas telescope, so the table's columns
    // sum to r.io / r.work with "query.run" holding the unattributed rest.
    for (const obs::TraceEvent& ev : tc->events_since(ev_mark)) {
      if (!ev.has_delta) continue;
      PhaseStat* ps = nullptr;
      for (PhaseStat& p : r.phases) {
        if (p.name == ev.name) {
          ps = &p;
          break;
        }
      }
      if (ps == nullptr) {
        r.phases.emplace_back();
        ps = &r.phases.back();
        ps->name = ev.name;
      }
      ++ps->spans;
      ps->self_wall_ns += ev.self_wall_ns;
      ps->self += ev.self;
    }
    // This query's window of the seam histograms. The registry is
    // append-only, so every pre-existing instrument has a before entry;
    // ones born during the run diff against zero.
    const obs::MetricsRegistry::Snapshot hist_after =
        obs::MetricsRegistry::Global().Snap();
    for (const obs::HistogramSnapshot& after : hist_after.histograms) {
      const obs::HistogramSnapshot* before = nullptr;
      for (const obs::HistogramSnapshot& b : hist_before.histograms) {
        if (b.name == after.name) {
          before = &b;
          break;
        }
      }
      obs::HistogramSnapshot delta = before != nullptr ? after - *before : after;
      if (delta.count != 0) r.histogram_deltas.push_back(std::move(delta));
    }
  }

  switch (q.kind) {
    case QueryKind::kCount:
      r.triangles = count_sink.count();
      break;
    case QueryKind::kEnumerate:
      r.triangles = collect_sink.triangles().size();
      r.list = std::move(collect_sink.mutable_triangles());
      if (q.limit != 0 && r.list.size() > q.limit) r.list.resize(q.limit);
      break;
    case QueryKind::kPerVertex:
      r.triangles = vertex_sink.total();
      r.per_vertex = vertex_sink.TakeCounts();
      break;
    case QueryKind::kPerEdge:
      r.triangles = edge_sink.total();
      r.per_edge = edge_sink.TakeSupport();
      break;
  }
  return r;
}

Result<LoadedGraph> LoadedGraph::FromEdges(const em::EmConfig& cfg,
                                           const std::vector<graph::Edge>& raw) {
  // Reject a geometry no cache can hold before anything is allocated.
  const std::string geometry = "M=" + std::to_string(cfg.memory_words) +
                               " words, B=" + std::to_string(cfg.block_words) +
                               " words";
  if (cfg.block_words == 0 || cfg.block_words > cfg.memory_words) {
    return Status::InvalidArgument(geometry + ": need 0 < B <= M");
  }
  if (cfg.memory_words / cfg.block_words > em::Cache::kMaxLines) {
    return Status::InvalidArgument(
        geometry + ": M/B = " +
        std::to_string(cfg.memory_words / cfg.block_words) +
        " cache lines, more than the cache can index (" +
        std::to_string(em::Cache::kMaxLines) + ")");
  }
  LoadedGraph lg;
  try {
    lg.store_ = std::make_unique<em::GraphStore>(cfg);
  } catch (const std::bad_alloc&) {
    return Status::CapacityExceeded(geometry +
                                    ": the cache does not fit in host memory");
  }
  TRIENUM_RETURN_NOT_OK(lg.store_->device().backend().init_status());
  lg.session_ = std::make_unique<em::QuerySession>(*lg.store_);
  // Ingest + normalize uncounted, exactly like the single-run drivers: the
  // input is assumed to already live on disk, so building the canonical
  // layout is not part of any query's measured I/O. A permanent I/O fault
  // here is unrecoverable — there is no frozen graph to fall back to — so
  // the whole load fails.
  lg.store_->cache().set_counting(false);
  try {
    // Wall-only span (no sampler installed yet): load/normalize time still
    // shows on the trace timeline, but is never attributed to any query.
    obs::Span span("graph.load");
    span.AddArg("raw_edges", raw.size());
    lg.graph_ = graph::BuildEmGraph(*lg.session_, raw);
  } catch (const IoFault& fault) {
    return fault.status();
  } catch (const Status& st) {
    return st;  // M below normalization's scratch lease
  }
  lg.store_->cache().set_counting(true);
  if (!lg.store_->cache().fault().ok()) return lg.store_->cache().fault();
  lg.frozen_mark_ = lg.store_->device().Mark();
  return lg;
}

Result<QueryResult> LoadedGraph::Run(const Query& q) {
  // Region discipline must have returned the device to the frozen mark;
  // anything else means a previous query leaked allocations and the
  // address-identity guarantee is gone.
  TRIENUM_CHECK_MSG(store_->device().Mark() == frozen_mark_,
                    "device top drifted from the frozen mark between queries");
  return RunQuery(*session_, graph_, q);
}

}  // namespace trienum::query
