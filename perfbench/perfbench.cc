// The repo benchmark's measuring process: one workload, one process.
//
// A run takes two processes. `--prepare 1` generates the workload's R-MAT
// graph from the seed, writes it to an edge file, and stores the digest of
// the host reference triangles (gate.h) next to it. The measuring process
// then sends `enumerate` queries back to back through LoadedGraph::Run until
// the time budget is spent, with blocks of timed set-ups (edge-file read
// plus LoadedGraph::FromEdges) spread over the same window, and checks every
// query against the stored digest. Generation and the reference stay out of
// the measuring process, so its peak RSS is the system's own. Query i's seed
// is derived from the workload seed and i, so a run is reproducible from the
// seed.
//
// With --trace 1 every query index runs twice, untraced then traced under an
// installed obs::TraceCollector; the pair must charge identical I/O and
// work, and the traced run's per-phase I/O must sum to its total. The
// benchmark observes the program only through its public calls, QueryResult
// and the obs registry; its own spans (bench.read, bench.load, bench.query,
// bench.check) wrap those calls in the Chrome trace it writes.
//
// Output: one JSON document of raw per-setup and per-query records on
// stdout, which perfbench/run.py turns into metrics. Progress goes to stderr.
//
//   trienum_perfbench --workload rmat16-mem --seed 2014 --work-dir DIR
//                     --prepare 1
//   trienum_perfbench --workload rmat16-mem --seed 2014 --work-dir DIR
//                     --seconds 30 --trace 0 [--trace-file FILE]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/cache_aware.h"
#include "core/reference.h"
#include "em/defs.h"
#include "gate.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/normalize.h"
#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"
#include "simd/kernel_policy.h"

namespace trienum::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  int scale;
  std::size_t edges;
  std::size_t memory_words;
  std::size_t block_words;
  em::StorageKind storage;
  const char* algo;
  std::size_t max_threads;  // threads = min(nproc, max_threads)
  const char* edge_file_ext;  // ".txt" text, ".bin" binary
};

// The reference workloads. Names are stable: results and issues refer to
// them. R-MAT uses the CLI's default probabilities.
constexpr Workload kWorkloads[] = {
    {"rmat16-mem", 16, 600000, 65536, 64, em::StorageKind::kMemory,
     "ps-cache-aware", 4, ".txt"},
    {"rmat16-file", 16, 600000, 65536, 64, em::StorageKind::kFile,
     "ps-cache-aware", 1, ".bin"},
    {"co-rmat12", 12, 16384, 4096, 64, em::StorageKind::kMemory,
     "ps-cache-oblivious", 1, ".txt"},
};
constexpr double kRmatA = 0.45, kRmatB = 0.22, kRmatC = 0.22;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool prepare = false;
  std::string work_dir;
  std::string trace_file;
  int min_queries = 5;
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "trienum_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Die("missing value for " + key);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && o.seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Die("--trace must be 0 or 1");
      o.trace = value == "1";
    } else if (key == "--prepare") {
      if (value != "0" && value != "1") Die("--prepare must be 0 or 1");
      o.prepare = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--trace-file") {
      o.trace_file = value;
    } else if (key == "--min-queries") {
      o.min_queries = std::atoi(value.c_str());
    } else {
      Die("unknown argument " + key);
    }
  }
  if (o.workload.empty() || !have_seed || o.work_dir.empty() ||
      (!o.prepare && !have_seconds)) {
    Die("usage: --workload NAME --seed N --work-dir DIR "
        "(--prepare 1 | --seconds S --trace 0|1 [--trace-file FILE] "
        "[--min-queries N])");
  }
  if (o.min_queries < 1) Die("--min-queries must be positive");
  return o;
}

/// Query i's seed: a function of the workload seed and i only, never 0
/// (0 would select the store's master seed).
std::uint64_t QuerySeed(std::uint64_t seed, std::uint64_t i) {
  return SplitMix64(seed ^ SplitMix64(i + 1).Next()).Next() | 1;
}

/// Peak resident set of this process so far. Read from VmHWM rather than
/// getrusage: Linux seeds ru_maxrss at exec with the RSS of the process that
/// called exec (here a Python parent), which would hide a small workload.
double MaxRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  Die("no VmHWM line in /proc/self/status");
}

std::uint64_t NsSince(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

struct SetupRecord {
  std::uint64_t read_ns = 0;
  std::uint64_t load_ns = 0;
};

/// Reads the edge file and loads it (one timed set-up). Dies on failure:
/// without a graph there is nothing to measure.
query::LoadedGraph Setup(const std::string& path, const em::EmConfig& cfg,
                         SetupRecord* rec) {
  std::vector<graph::Edge> raw;
  {
    obs::Span read_span("bench.read");
    const Clock::time_point t0 = Clock::now();
    Result<std::vector<graph::Edge>> r = graph::ReadEdgeListAuto(path);
    rec->read_ns = NsSince(t0);
    if (!r.ok()) Die("reading " + path + ": " + r.status().ToString());
    raw = *std::move(r);
  }
  obs::Span load_span("bench.load");
  const Clock::time_point t0 = Clock::now();
  Result<query::LoadedGraph> lg = query::LoadedGraph::FromEdges(cfg, raw);
  rec->load_ns = NsSince(t0);
  if (!lg.ok()) Die("loading " + path + ": " + lg.status().ToString());
  return *std::move(lg);
}

struct QueryRecord {
  std::uint64_t index = 0;
  std::uint64_t seed = 0;
  bool traced = false;
  int block = 0;  // index of the set-up block this query follows
  Verdict verdict;
  std::uint64_t wall_ns = 0;
  std::uint64_t simd_invocations = 0;
  std::uint64_t par_tasks = 0;
  std::uint64_t par_busy_ns = 0;
  std::optional<query::QueryResult> result;  // empty when the query failed
};

std::uint64_t SumPhaseIos(const query::QueryResult& r) {
  std::uint64_t ios = 0;
  for (const query::PhaseStat& p : r.phases) {
    ios += p.self.block_reads + p.self.block_writes;
  }
  return ios;
}

/// Runs query `i` once and checks it. Under a collector the query and its
/// check get their own spans, and the par.task events recorded during the
/// query are rolled up into the record.
QueryRecord RunOne(query::LoadedGraph& lg, const Workload& w,
                   std::size_t threads, std::uint64_t seed, std::uint64_t i,
                   const TriangleDigest& reference,
                   obs::TraceCollector* tc) {
  QueryRecord rec;
  rec.index = i;
  rec.seed = QuerySeed(seed, i);
  rec.traced = tc != nullptr;
  query::Query q;
  q.kind = query::QueryKind::kEnumerate;
  q.algo = w.algo;
  q.seed = rec.seed;
  q.threads = threads;

  const simd::KernelVariant variant = simd::ActiveVariant();
  const std::uint64_t simd_before = simd::Invocations(variant);
  const std::size_t mark = tc != nullptr ? tc->event_count() : 0;
  std::optional<Result<query::QueryResult>> r;
  {
    obs::Span span("bench.query");
    span.AddArg("index", i);
    const Clock::time_point t0 = Clock::now();
    r.emplace(lg.Run(q));
    rec.wall_ns = NsSince(t0);
  }
  rec.simd_invocations = simd::Invocations(variant) - simd_before;
  if (tc != nullptr) {
    for (const obs::TraceEvent& ev : tc->events_since(mark)) {
      if (std::string_view(ev.name) != "par.task") continue;
      ++rec.par_tasks;
      rec.par_busy_ns += ev.dur_ns;
    }
  }
  {
    obs::Span span("bench.check");
    rec.verdict = Check(*r, reference);
  }
  if (r->ok()) {
    rec.result = **std::move(r);
    rec.result->list.clear();
    rec.result->list.shrink_to_fit();
    if (rec.verdict.ok && tc != nullptr &&
        SumPhaseIos(*rec.result) != rec.result->io.total_ios()) {
      rec.verdict = {false, "phase I/Os do not sum to the query's block_ios"};
    }
  }
  return rec;
}

/// The traced run of an index must charge exactly what its untraced run
/// charged: tracing is bit-invisible to I/O and work.
void CheckTraceInvariance(const QueryRecord& untraced, QueryRecord* traced) {
  if (!untraced.result || !traced->result || !traced->verdict.ok) return;
  const query::QueryResult& a = *untraced.result;
  const query::QueryResult& b = *traced->result;
  if (a.io.block_reads != b.io.block_reads ||
      a.io.block_writes != b.io.block_writes ||
      a.io.cache_hits != b.io.cache_hits || a.work != b.work) {
    traced->verdict = {false, "traced run charged different I/O or work"};
  }
}

std::uint64_t HistogramSum(const query::QueryResult& r, const char* name) {
  for (const obs::HistogramSnapshot& h : r.histogram_deltas) {
    if (h.name == name) return h.sum;
  }
  return 0;
}

void WriteQuery(obs::JsonWriter& w, const QueryRecord& rec) {
  w.BeginObject();
  w.KV("index", rec.index);
  w.KV("seed", rec.seed);
  w.KV("traced", rec.traced);
  w.KV("block", rec.block);
  w.KV("ok", rec.verdict.ok);
  w.KV("error", rec.verdict.error);
  w.KV("wall_ns", rec.wall_ns);
  w.KV("simd_invocations", rec.simd_invocations);
  w.KV("par_tasks", rec.par_tasks);
  w.KV("par_busy_ns", rec.par_busy_ns);
  if (rec.result) {
    const query::QueryResult& r = *rec.result;
    w.KV("triangles", r.triangles);
    w.KV("block_reads", r.io.block_reads);
    w.KV("block_writes", r.io.block_writes);
    w.KV("cache_hits", r.io.cache_hits);
    w.KV("work", r.work);
    w.KV("device_peak_words", static_cast<std::uint64_t>(r.device_peak_words));
    w.KV("read_calls", r.telemetry.read_calls);
    w.KV("write_calls", r.telemetry.write_calls);
    w.KV("bytes_read", r.telemetry.bytes_read);
    w.KV("bytes_written", r.telemetry.bytes_written);
    w.KV("retries", r.recovery.retries);
    w.KV("syscall_ns",
         HistogramSum(r, obs::metric_names::kFileReadNs) +
             HistogramSum(r, obs::metric_names::kFileWriteNs));
    w.Key("phases").BeginArray();
    for (const query::PhaseStat& p : r.phases) {
      w.BeginObject();
      w.KV("name", p.name);
      w.KV("spans", p.spans);
      w.KV("self_wall_ns", p.self_wall_ns);
      w.KV("block_reads", p.self.block_reads);
      w.KV("block_writes", p.self.block_writes);
      w.KV("work", p.self.work);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
}

/// Writes the seed's R-MAT graph to `path` and the digest of its host
/// reference triangles to `path`.ref. The reference runs over the normalized
/// edges, because queries report normalized vertex ids.
int Prepare(const Workload& w, const Options& opt, const std::string& path,
            const em::EmConfig& cfg) {
  const std::vector<graph::Edge> edges =
      graph::Rmat(w.scale, w.edges, kRmatA, kRmatB, kRmatC, opt.seed);
  const Status st = std::string(w.edge_file_ext) == ".bin"
                        ? graph::WriteEdgeListBinary(path, edges)
                        : graph::WriteEdgeListText(path, edges);
  if (!st.ok()) Die("writing " + path + ": " + st.ToString());
  SetupRecord unused;
  const query::LoadedGraph lg = Setup(path, cfg, &unused);
  const TriangleDigest ref =
      Digest(core::ListTrianglesHost(graph::DownloadEdges(lg.graph())));
  std::ofstream os(path + ".ref");
  os << ref.count << " " << ref.hash << "\n";
  if (!os) Die("writing " + path + ".ref");
  return 0;
}

TriangleDigest ReadReference(const std::string& path) {
  std::ifstream is(path + ".ref");
  TriangleDigest ref;
  if (!(is >> ref.count >> ref.hash)) {
    Die("no reference digest at " + path + ".ref (run --prepare 1 first)");
  }
  return ref;
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (opt.workload == w.name) wp = &w;
  }
  if (wp == nullptr) Die("unknown workload '" + opt.workload + "'");
  const Workload& w = *wp;
  const std::size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t threads = std::min(nproc, w.max_threads);

  const std::string path = opt.work_dir + "/" + w.name + "-" +
                           std::to_string(opt.seed) + w.edge_file_ext;
  em::EmConfig cfg;
  cfg.memory_words = w.memory_words;
  cfg.block_words = w.block_words;
  cfg.storage = w.storage;
  cfg.temp_dir = opt.work_dir;
  if (opt.prepare) return Prepare(w, opt, path, cfg);
  const TriangleDigest reference = ReadReference(path);

  // Set-up repetitions (read plus load from scratch, replacing the served
  // graph) run in kSetupBlocks blocks spread over the measured window, so
  // the set-up median samples the same stretch of machine time as the query
  // median. A block repeats until it has at least two repetitions and
  // kBlockSetupTime of set-up. Blocks rather than single repetitions between
  // queries, because the first query on a freshly loaded graph runs on cold
  // pages (about 10% slower on rmat16-mem): only one query per block pays it.
  constexpr int kSetupBlocks = 4;
  constexpr auto kBlockSetupTime = std::chrono::milliseconds(250);
  std::optional<obs::TraceCollector> collector;
  if (opt.trace) collector.emplace();
  std::vector<SetupRecord> setups;
  std::optional<query::LoadedGraph> lg;
  auto setup_block = [&] {
    const Clock::time_point t0 = Clock::now();
    for (int n = 0; n < 2 || Clock::now() - t0 < kBlockSetupTime; ++n) {
      lg.reset();
      lg.emplace(Setup(path, cfg, &setups.emplace_back()));
    }
  };
  const double rss_before_mb = MaxRssMb();
  {
    // A traced pass runs its first set-up under the collector, so the trace
    // holds bench.read / bench.load with graph.load nested inside.
    std::optional<obs::ScopedTraceCollector> scoped;
    if (collector) scoped.emplace(*collector);
    setup_block();
  }
  const double rss_after_setup_mb = MaxRssMb();

  std::vector<QueryRecord> queries;
  const Clock::time_point start = Clock::now();
  const auto budget = std::chrono::duration<double>(opt.seconds);
  int blocks = 1;
  for (std::uint64_t i = 0;
       i < static_cast<std::uint64_t>(opt.min_queries) ||
       Clock::now() - start < budget;
       ++i) {
    if (blocks < kSetupBlocks &&
        Clock::now() - start >= budget * blocks / kSetupBlocks) {
      setup_block();
      ++blocks;
    }
    queries.push_back(RunOne(*lg, w, threads, opt.seed, i, reference, nullptr));
    queries.back().block = blocks - 1;
    if (opt.trace) {
      obs::ScopedTraceCollector scoped(*collector);
      QueryRecord traced =
          RunOne(*lg, w, threads, opt.seed, i, reference, &*collector);
      CheckTraceInvariance(queries.back(), &traced);
      queries.push_back(std::move(traced));
    }
  }
  for (; blocks < kSetupBlocks; ++blocks) setup_block();
  const double measured_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::fprintf(stderr, "[perfbench] %s seed=%llu: %zu queries, %zu set-ups in %.1f s\n",
               w.name, static_cast<unsigned long long>(opt.seed), queries.size(),
               setups.size(), measured_s);

  if (collector && !opt.trace_file.empty()) {
    std::ofstream os(opt.trace_file);
    collector->WriteChromeJson(os);
    if (!os) Die("writing trace " + opt.trace_file);
  }

  const graph::EmGraph& g = lg->graph();
  const obs::BuildInfo& b = obs::GetBuildInfo();
  obs::JsonWriter out(std::cout);
  out.BeginObject();
  out.Key("provenance").BeginObject();
  out.KV("workload", w.name);
  out.KV("seed", opt.seed);
  out.KV("seconds", opt.seconds);
  out.KV("trace", opt.trace);
  out.KV("algorithm", w.algo);
  out.KV("backend", lg->store().device().backend().name());
  out.KV("edge_file", std::string(w.edge_file_ext) == ".bin" ? "binary" : "text");
  out.KV("rmat_scale", w.scale);
  out.KV("rmat_edges", static_cast<std::uint64_t>(w.edges));
  out.KV("edges", static_cast<std::uint64_t>(g.num_edges()));
  out.KV("vertices", static_cast<std::uint64_t>(g.num_vertices));
  out.KV("memory_words", static_cast<std::uint64_t>(w.memory_words));
  out.KV("block_words", static_cast<std::uint64_t>(w.block_words));
  out.KV("threads", static_cast<std::uint64_t>(threads));
  out.KV("min_queries", static_cast<std::int64_t>(opt.min_queries));
  out.KV("nproc", static_cast<std::uint64_t>(nproc));
  out.KV("kernels_active", simd::KernelVariantName(simd::ActiveVariant()));
  out.KV("compiler", b.compiler);
  out.KV("build_type", b.build_type);
  out.KV("flags", b.flags);
  out.KV("native", b.native);
  out.EndObject();
  out.KV("io_bound",
         core::PaghSilvestriIoBound(g.num_edges(), w.memory_words,
                                    w.block_words));
  out.KV("reference_triangles", reference.count);
  out.KV("rss_before_setup_mb", rss_before_mb);
  out.KV("rss_after_setup_mb", rss_after_setup_mb);
  out.KV("peak_rss_mb", MaxRssMb());
  out.KV("measured_s", measured_s);
  out.Key("setups").BeginArray();
  for (const SetupRecord& s : setups) {
    out.BeginObject();
    out.KV("read_ns", s.read_ns);
    out.KV("load_ns", s.load_ns);
    out.EndObject();
  }
  out.EndArray();
  out.Key("queries").BeginArray();
  for (const QueryRecord& q : queries) WriteQuery(out, q);
  out.EndArray();
  out.EndObject();
  std::cout << "\n";
  return 0;
}

}  // namespace
}  // namespace trienum::perfbench

int main(int argc, char** argv) { return trienum::perfbench::Main(argc, argv); }
