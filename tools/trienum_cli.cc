// trienum: command-line driver over the algorithm registry.
//
// Runs any registered enumeration engine (or the host-memory `reference`
// ground truth) on a generated or file-loaded graph under a chosen (M, B)
// hierarchy, logging every phase and reporting the measured block I/Os next
// to the theorem-predicted O(E^1.5/(sqrt(M)B)) bound.
//
//   $ trienum list
//   $ trienum count --algo=ps-cache-aware --graph=rmat:scale=10,m=8192
//   $ trienum count --algo=reference --graph=path/to/edges.txt
//   $ trienum enumerate --algo=ps-deterministic --graph=clique:k=8 --limit=10
//
// Graph specs are either a path to a whitespace-separated edge list (SNAP
// convention) or `<generator>:key=value,...`; run `trienum help` for the
// full generator table.
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/cache_aware.h"
#include "core/lower_bound.h"
#include "core/reference.h"
#include "core/sink.h"
#include "em/context.h"
#include "faults/recovery.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "graph/normalize.h"
#include "obs/build_info.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/query.h"

namespace {

using namespace trienum;

constexpr char kUsage[] =
    "usage: trienum <command> [options]\n"
    "\n"
    "commands:\n"
    "  list                      show every registered algorithm\n"
    "  count                     run an algorithm, report the triangle count\n"
    "  enumerate                 like count, but also print the triangles\n"
    "  query                     load the graph once, answer a script of\n"
    "                            queries (--script=<file>), one report each\n"
    "  version                   build provenance: compiler, flags, build\n"
    "                            type, -march=native or portable\n"
    "  help                      show this message with the generator table\n"
    "\n"
    "query scripts (one query per line; '#' starts a comment):\n"
    "  <count|enumerate|per-vertex|per-edge> [--algo=] [--seed=] [--limit=]\n"
    "                                        [--threads=]\n"
    "\n"
    "options (count / enumerate / query):\n"
    "  --algo=<name>             algorithm name from `trienum list`, or\n"
    "                            `reference` for the host ground truth\n"
    "  --graph=<spec>            generator spec or edge-list file path\n"
    "  --memory=<M>              internal memory in words   (default 4096;\n"
    "                            M/B at most 2^31-1 cache lines)\n"
    "  --block=<B>               block size in words        (default 64)\n"
    "  --seed=<S>                master seed                (default 2014)\n"
    "  --limit=<N>               max triangles to print     (enumerate only)\n"
    "  --backend=<memory|file>   storage backend            (default memory)\n"
    "                            memory: RAM-resident, I/Os simulated only\n"
    "                            file:   temp-file store, resident memory\n"
    "                                    O(M); real pread/pwrite per block\n"
    "  --temp-dir=<path>         dir for the file backend's (unlinked) temp\n"
    "                            file (default $TMPDIR, then /tmp)\n"
    "  --threads=<N>             host compute threads (default 1; 0 = all\n"
    "                            hardware cores). Parallelism never changes\n"
    "                            the result or the counted block I/Os; the\n"
    "                            report's `threads` is how many ran (1 when\n"
    "                            nothing fanned out)\n"
    "  --faults=<spec>           deterministic fault-injection schedule, e.g.\n"
    "                            'read:eio:every=7;write:short:every=9'\n"
    "                            (clauses op:kind[:k=v,...]; op in read|write|\n"
    "                            grow, kind in eio|eintr|short|flip|enospc;\n"
    "                            see README 'Fault injection & recovery').\n"
    "                            Transient faults are retried; triangles and\n"
    "                            counted block I/Os stay bit-identical to a\n"
    "                            clean run. A flip clause needs\n"
    "                            --verify-checksums (nothing else detects it)\n"
    "  --io-retries=<N>          retry budget per I/O operation (default 4)\n"
    "  --io-retry-backoff-ms=<T> base backoff between retries, doubling per\n"
    "                            attempt (default 0: retry immediately)\n"
    "  --verify-checksums[=0|1]  keep per-line checksums on write and verify\n"
    "                            them on fetch, detecting torn/corrupt blocks\n"
    "  --trace=<file>            write a Chrome trace-event JSON timeline\n"
    "                            (chrome://tracing, Perfetto): phase spans\n"
    "                            with per-phase I/O deltas, worker threads as\n"
    "                            their own tracks. Tracing never changes\n"
    "                            triangles, emission order, or block I/Os\n"
    "  --metrics-json=<file>     write the full structured report as JSON:\n"
    "                            build info, per-query measurements, phase\n"
    "                            attribution, and I/O latency histograms\n"
    "  --report=<text|json>      stdout report format for count/enumerate\n"
    "                            (default text)\n"
    "\n"
    "graph generators (`<name>:k1=v1,k2=v2,...`):\n"
    "  gnm:n=1024,m=4096,seed=1          Erdos-Renyi G(n, m); n >= 2,\n"
    "                                    m <= n(n-1)/2\n"
    "  clique:k=32                       complete graph K_k\n"
    "  clique-path:k=12,path=50          K_k plus a path periphery\n"
    "  clique-union:k=8,s=12             k disjoint cliques of size s\n"
    "  tripartite:a=8,b=8,c=8            complete tripartite K_{a,b,c}\n"
    "  rmat:scale=10,m=8192,pa=0.45,pb=0.22,pc=0.22,seed=1\n"
    "                                    R-MAT with skewed degrees;\n"
    "                                    1 <= scale <= 30, pa+pb+pc <= 1\n"
    "  planted:n=1024,m=2048,t=64,seed=1 random edges + t planted triangles;\n"
    "                                    gnm's limits on n and m, 3t <= n\n"
    "  ba:n=1024,attach=4,seed=1         Barabasi-Albert preferential attach;\n"
    "                                    1 <= attach < n\n"
    "  ws:n=1024,k=4,beta=0.1,seed=1     Watts-Strogatz small world; k >= 1,\n"
    "                                    n > 2k, 0 <= beta <= 1\n"
    "  bipartite:l=512,r=512,m=2048,seed=1\n"
    "                                    random bipartite (triangle-free);\n"
    "                                    m <= l*r\n"
    "  star:n=1024 | path:n=1024 | cycle:n=1024\n"
    "                                    triangle-free controls\n";

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "trienum: %s\n", msg.c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Option parsing: --key=value only, collected into a flat list.

struct Options {
  std::string algo = "ps-cache-aware";
  std::string graph = "rmat:scale=10,m=8192";
  std::size_t memory_words = 4096;
  std::size_t block_words = 64;
  std::uint64_t seed = 2014;
  std::size_t limit = 20;
  em::StorageKind backend = em::StorageKind::kMemory;
  std::string temp_dir;
  std::size_t threads = 1;
  std::string faults;
  int io_retries = 4;
  int io_retry_backoff_ms = 0;
  bool verify_checksums = false;
  std::string script;       // `trienum query` only
  std::string trace_file;   // --trace=<file>: Chrome trace-event JSON
  std::string metrics_json; // --metrics-json=<file>: structured report
  bool report_json = false; // --report=json (count / enumerate only)
};

std::uint64_t ParseU64(const std::string& key, const std::string& value) {
  // strtoull accepts (and wraps) a leading '-'; reject it explicitly.
  if (value.empty() || value[0] == '-' || value[0] == '+') {
    Die("expected a non-negative integer for " + key + ", got '" + value + "'");
  }
  errno = 0;
  char* end = nullptr;
  std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
    Die("expected a non-negative integer for " + key + ", got '" + value + "'");
  }
  return v;
}

double ParseF64(const std::string& key, const std::string& value) {
  char* end = nullptr;
  double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0') {
    Die("expected a number for " + key + ", got '" + value + "'");
  }
  return v;
}

Options ParseOptions(int argc, char** argv, bool query_mode = false) {
  Options opt;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      Die("unexpected argument '" + arg + "' (run `trienum help` for usage)");
    }
    std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      if (arg == "--verify-checksums") {  // the one boolean flag: bare form ok
        opt.verify_checksums = true;
        continue;
      }
      Die("options take the form --key=value: " + arg +
          " (run `trienum help` for the option table)");
    }
    std::string key = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    if (key == "algo") {
      opt.algo = value;
    } else if (key == "graph") {
      opt.graph = value;
    } else if (key == "memory") {
      opt.memory_words = ParseU64(key, value);
    } else if (key == "block") {
      opt.block_words = ParseU64(key, value);
    } else if (key == "seed") {
      opt.seed = ParseU64(key, value);
    } else if (key == "limit") {
      opt.limit = ParseU64(key, value);
    } else if (key == "backend") {
      if (value == "memory") {
        opt.backend = em::StorageKind::kMemory;
      } else if (value == "file") {
        opt.backend = em::StorageKind::kFile;
      } else {
        Die("--backend must be 'memory' or 'file', got '" + value + "'");
      }
    } else if (key == "temp-dir") {
      opt.temp_dir = value;
    } else if (key == "threads") {
      opt.threads = ParseU64(key, value);
    } else if (key == "faults") {
      opt.faults = value;
    } else if (key == "io-retries") {
      opt.io_retries = static_cast<int>(ParseU64(key, value));
    } else if (key == "io-retry-backoff-ms") {
      opt.io_retry_backoff_ms = static_cast<int>(ParseU64(key, value));
    } else if (key == "verify-checksums") {
      if (value == "1") {
        opt.verify_checksums = true;
      } else if (value == "0") {
        opt.verify_checksums = false;
      } else {
        Die("--verify-checksums takes 0 or 1, got '" + value + "'");
      }
    } else if (key == "trace") {
      opt.trace_file = value;
    } else if (key == "metrics-json") {
      opt.metrics_json = value;
    } else if (key == "report") {
      if (value == "json") {
        opt.report_json = true;
      } else if (value == "text") {
        opt.report_json = false;
      } else {
        Die("--report takes 'text' or 'json', got '" + value + "'");
      }
    } else if (query_mode && key == "script") {
      opt.script = value;
    } else {
      Die("unknown option --" + key +
          " (run `trienum help` for the option table)");
    }
  }
  if (opt.memory_words == 0 || opt.block_words == 0) {
    Die("--memory and --block must be positive");
  }
  if (opt.block_words > opt.memory_words) {
    Die("--block must not exceed --memory (need at least one cache line)");
  }
  if (query_mode && opt.report_json) {
    Die("--report=json applies to count/enumerate only; `trienum query` "
        "keeps the text stream (use --metrics-json for machine output)");
  }
  if (!opt.temp_dir.empty()) {
    // Validate here so an obviously bad path dies with a usage error up
    // front; paths that pass but still fail mkstemp (e.g. read-only
    // directories) surface later as a clean IoError from FromEdges.
    std::error_code ec;
    if (!std::filesystem::is_directory(opt.temp_dir, ec)) {
      Die("--temp-dir '" + opt.temp_dir + "' is not an existing directory");
    }
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Graph specs: `<generator>:k=v,...` or an edge-list file path.

struct SpecParams {
  std::vector<std::pair<std::string, std::string>> kv;

  std::uint64_t U64(const std::string& key, std::uint64_t def) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return ParseU64(key, v);
    }
    return def;
  }
  double F64(const std::string& key, double def) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return ParseF64(key, v);
    }
    return def;
  }
};

SpecParams ParseSpecParams(const std::string& name, const std::string& body,
                           const std::vector<std::string>& allowed) {
  SpecParams p;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    std::string item = body.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      Die("generator parameters take the form key=value: '" + item + "'");
    }
    std::string key = item.substr(0, eq);
    bool known = false;
    for (const std::string& a : allowed) known = known || a == key;
    if (!known) Die("generator '" + name + "' has no parameter '" + key + "'");
    p.kv.emplace_back(key, item.substr(eq + 1));
  }
  return p;
}

/// G(n, m)'s preconditions; `planted` draws its base edges from G(n, m).
/// Like every generator check in MakeGraph, a bad spec dies with a usage
/// error instead of tripping the generator's internal TRIENUM_CHECK abort.
void ValidateGnm(const std::string& name, std::uint64_t n, std::uint64_t m) {
  if (n < 2) Die(name + " needs n >= 2, got n=" + std::to_string(n));
  const std::uint64_t max_edges = n * (n - 1) / 2;
  if (m > max_edges) {
    Die(name + " with n=" + std::to_string(n) + " has at most n(n-1)/2 = " +
        std::to_string(max_edges) + " edges, got m=" + std::to_string(m));
  }
}

std::vector<graph::Edge> MakeGraph(const Options& opt) {
  using graph::VertexId;
  const std::string& spec = opt.graph;
  std::size_t colon = spec.find(':');
  std::string name = colon == std::string::npos ? spec : spec.substr(0, colon);
  std::string body = colon == std::string::npos ? "" : spec.substr(colon + 1);

  auto vid = [](std::uint64_t v) {
    if (v > std::numeric_limits<VertexId>::max()) {
      Die("vertex-count parameter " + std::to_string(v) +
          " exceeds the 32-bit vertex-id range");
    }
    return static_cast<VertexId>(v);
  };

  if (name == "gnm") {
    SpecParams p = ParseSpecParams(name, body, {"n", "m", "seed"});
    const VertexId n = vid(p.U64("n", 1024));
    const std::uint64_t m = p.U64("m", 4096);
    ValidateGnm(name, n, m);
    return graph::Gnm(n, m, p.U64("seed", opt.seed));
  }
  if (name == "clique") {
    SpecParams p = ParseSpecParams(name, body, {"k"});
    return graph::Clique(vid(p.U64("k", 32)));
  }
  if (name == "clique-path") {
    SpecParams p = ParseSpecParams(name, body, {"k", "path"});
    return graph::CliquePlusPath(vid(p.U64("k", 12)), vid(p.U64("path", 50)));
  }
  if (name == "clique-union") {
    SpecParams p = ParseSpecParams(name, body, {"k", "s"});
    return graph::CliqueUnion(vid(p.U64("k", 8)), vid(p.U64("s", 12)));
  }
  if (name == "tripartite") {
    SpecParams p = ParseSpecParams(name, body, {"a", "b", "c"});
    return graph::CompleteTripartite(vid(p.U64("a", 8)), vid(p.U64("b", 8)),
                                     vid(p.U64("c", 8)));
  }
  if (name == "rmat") {
    SpecParams p = ParseSpecParams(name, body, {"scale", "m", "pa", "pb", "pc", "seed"});
    // Validate here so bad specs die with a usage error instead of tripping
    // the generator's internal TRIENUM_CHECK abort.
    std::uint64_t scale = p.U64("scale", 10);
    if (scale < 1 || scale > 30) {
      Die("rmat scale must be in [1, 30], got " + std::to_string(scale));
    }
    double pa = p.F64("pa", 0.45), pb = p.F64("pb", 0.22), pc = p.F64("pc", 0.22);
    if (!(pa >= 0 && pb >= 0 && pc >= 0 && pa + pb + pc <= 1.0)) {
      Die("rmat probabilities must be non-negative with pa+pb+pc <= 1");
    }
    return graph::Rmat(static_cast<int>(scale), p.U64("m", 8192), pa, pb, pc,
                       p.U64("seed", opt.seed));
  }
  if (name == "planted") {
    SpecParams p = ParseSpecParams(name, body, {"n", "m", "t", "seed"});
    const VertexId n = vid(p.U64("n", 1024));
    const std::uint64_t m = p.U64("m", 2048), t = p.U64("t", 64);
    ValidateGnm(name, n, m);
    if (t > n / 3) {
      Die("planted needs 3t <= n (its triangles are vertex-disjoint), got t=" +
          std::to_string(t) + " with n=" + std::to_string(n));
    }
    return graph::PlantedTriangles(n, m, t, p.U64("seed", opt.seed));
  }
  if (name == "ba") {
    SpecParams p = ParseSpecParams(name, body, {"n", "attach", "seed"});
    const VertexId n = vid(p.U64("n", 1024)), attach = vid(p.U64("attach", 4));
    if (attach < 1 || attach >= n) {
      Die("ba needs 1 <= attach < n, got attach=" + std::to_string(attach) +
          " with n=" + std::to_string(n));
    }
    return graph::BarabasiAlbert(n, attach, p.U64("seed", opt.seed));
  }
  if (name == "ws") {
    SpecParams p = ParseSpecParams(name, body, {"n", "k", "beta", "seed"});
    const VertexId n = vid(p.U64("n", 1024)), k = vid(p.U64("k", 4));
    const double beta = p.F64("beta", 0.1);
    if (k < 1 || n <= 2 * std::uint64_t{k}) {
      Die("ws needs k >= 1 and n > 2k, got k=" + std::to_string(k) +
          " with n=" + std::to_string(n));
    }
    if (!(beta >= 0 && beta <= 1)) Die("ws beta must be in [0, 1]");
    return graph::WattsStrogatz(n, k, beta, p.U64("seed", opt.seed));
  }
  if (name == "bipartite") {
    SpecParams p = ParseSpecParams(name, body, {"l", "r", "m", "seed"});
    const VertexId l = vid(p.U64("l", 512)), r = vid(p.U64("r", 512));
    const std::uint64_t m = p.U64("m", 2048);
    if (m > std::uint64_t{l} * r) {
      Die("bipartite has at most l*r = " +
          std::to_string(std::uint64_t{l} * r) + " edges, got m=" +
          std::to_string(m));
    }
    return graph::BipartiteRandom(l, r, m, p.U64("seed", opt.seed));
  }
  if (name == "star") {
    SpecParams p = ParseSpecParams(name, body, {"n"});
    return graph::Star(vid(p.U64("n", 1024)));
  }
  if (name == "path") {
    SpecParams p = ParseSpecParams(name, body, {"n"});
    return graph::PathGraph(vid(p.U64("n", 1024)));
  }
  if (name == "cycle") {
    SpecParams p = ParseSpecParams(name, body, {"n"});
    return graph::CycleGraph(vid(p.U64("n", 1024)));
  }

  // Not a known generator: treat the whole spec as an edge-list file path.
  Result<std::vector<graph::Edge>> r = graph::ReadEdgeListAuto(spec);
  if (!r.ok()) {
    Die("cannot load graph '" + spec + "': " + r.status().ToString() +
        " (not a generator name either; see `trienum help`)");
  }
  return *r;
}

/// MakeGraph, with a spec too large to allocate (an edge-list reserve past
/// vector::max_size, or more memory than the host has) turned into a usage
/// error that names the spec.
std::vector<graph::Edge> BuildGraph(const Options& opt) {
  try {
    return MakeGraph(opt);
  } catch (const std::length_error&) {
    Die("graph '" + opt.graph + "' has too many edges to build");
  } catch (const std::bad_alloc&) {
    Die("graph '" + opt.graph + "' does not fit in host memory");
  }
}

// ---------------------------------------------------------------------------
// Commands.

int CmdList() {
  std::printf("%-20s %-6s %-6s %s\n", "name", "aware", "rand", "description");
  for (const core::AlgorithmInfo& a : core::AllAlgorithms()) {
    std::printf("%-20s %-6s %-6s %s\n", a.name.c_str(),
                a.cache_aware ? "yes" : "no", a.randomized ? "yes" : "no",
                a.description.c_str());
  }
  std::printf("%-20s %-6s %-6s %s\n", "reference", "-", "no",
              "host-memory ground truth (no I/O accounting)");
  return 0;
}

void PrintTriangles(const std::vector<graph::Triangle>& tris, std::size_t limit) {
  for (std::size_t i = 0; i < tris.size() && i < limit; ++i) {
    std::printf("triangle %u %u %u\n", tris[i].a, tris[i].b, tris[i].c);
  }
  if (tris.size() > limit) {
    std::printf("... (%zu more)\n", tris.size() - limit);
  }
}

em::EmConfig MakeEmConfig(const Options& opt) {
  em::EmConfig cfg;
  cfg.memory_words = opt.memory_words;
  cfg.block_words = opt.block_words;
  cfg.seed = opt.seed;
  cfg.storage = opt.backend;
  cfg.temp_dir = opt.temp_dir;
  cfg.fault_spec = opt.faults;
  cfg.io_retries = opt.io_retries;
  cfg.io_retry_backoff_ms = opt.io_retry_backoff_ms;
  cfg.verify_checksums = opt.verify_checksums;
  Status st = faults::ApplyFaultConfig(cfg);
  if (!st.ok()) Die(st.ToString());
  return cfg;
}

/// The per-run measurement block shared by count / enumerate / query:
/// everything a single query produced, in the established `key = value`
/// report format.
void PrintMeasurements(const query::QueryResult& r, std::size_t num_edges,
                       std::size_t memory_words, std::size_t block_words) {
  double bound =
      core::PaghSilvestriIoBound(num_edges, memory_words, block_words);
  double lower = core::IoLowerBound(r.triangles, memory_words, block_words);
  std::printf("threads = %zu\n", r.threads_used);
  std::printf("seed = %llu\n", static_cast<unsigned long long>(r.seed_used));
  std::printf("triangles = %llu\n",
              static_cast<unsigned long long>(r.triangles));
  std::printf("block_reads = %llu\n",
              static_cast<unsigned long long>(r.io.block_reads));
  std::printf("block_writes = %llu\n",
              static_cast<unsigned long long>(r.io.block_writes));
  std::printf("block_ios = %llu\n",
              static_cast<unsigned long long>(r.io.total_ios()));
  std::printf("wall_ms = %.2f\n", r.wall_ms);
  std::printf("real_read_calls = %llu\n",
              static_cast<unsigned long long>(r.telemetry.read_calls));
  std::printf("real_write_calls = %llu\n",
              static_cast<unsigned long long>(r.telemetry.write_calls));
  std::printf("real_bytes_read = %llu\n",
              static_cast<unsigned long long>(r.telemetry.bytes_read));
  std::printf("real_bytes_written = %llu\n",
              static_cast<unsigned long long>(r.telemetry.bytes_written));
  std::printf("device_peak_words = %zu\n", r.device_peak_words);
  std::printf("internal_work = %llu\n",
              static_cast<unsigned long long>(r.work));
  std::printf("predicted_bound = %.0f\n", bound);
  std::printf("measured_over_bound = %.2f\n",
              bound > 0 ? static_cast<double>(r.io.total_ios()) / bound : 0.0);
  std::printf("lower_bound = %.0f\n", lower);
  std::printf("recovery_retries = %llu\n",
              static_cast<unsigned long long>(r.recovery.retries));
  std::printf("recovery_faults_injected = %llu\n",
              static_cast<unsigned long long>(r.recovery.faults_injected));
  std::printf("recovery_checksum_failures = %llu\n",
              static_cast<unsigned long long>(r.recovery.checksum_failures));
  // Per-phase attribution (traced runs only): exclusive deltas, so the
  // block_reads/block_writes/work columns sum to the totals above.
  for (const query::PhaseStat& p : r.phases) {
    std::printf(
        "phase %s spans=%llu wall_ms=%.2f block_reads=%llu block_writes=%llu "
        "work=%llu\n",
        p.name.c_str(), static_cast<unsigned long long>(p.spans),
        static_cast<double>(p.self_wall_ns) / 1e6,
        static_cast<unsigned long long>(p.self.block_reads),
        static_cast<unsigned long long>(p.self.block_writes),
        static_cast<unsigned long long>(p.self.work));
  }
}

// ---------------------------------------------------------------------------
// JSON surfacing: --report=json, --metrics-json, `trienum version`.

void WriteBuildInfoJson(obs::JsonWriter& w) {
  const obs::BuildInfo& b = obs::GetBuildInfo();
  w.Key("build_info").BeginObject();
  w.KV("compiler", b.compiler);
  w.KV("flags", b.flags);
  w.KV("build_type", b.build_type);
  w.KV("native", b.native);
  w.KV("cplusplus", static_cast<std::int64_t>(b.cplusplus));
  w.EndObject();
}

/// The measurement block of one query as JSON keys on the currently open
/// object — the same facts PrintMeasurements reports as `key = value`.
void WriteResultJson(obs::JsonWriter& w, const query::QueryResult& r,
                     std::size_t num_edges, std::size_t memory_words,
                     std::size_t block_words) {
  const double bound =
      core::PaghSilvestriIoBound(num_edges, memory_words, block_words);
  const double lower = core::IoLowerBound(r.triangles, memory_words, block_words);
  w.KV("threads", static_cast<std::uint64_t>(r.threads_used));
  w.KV("seed", r.seed_used);
  w.KV("triangles", r.triangles);
  w.Key("io").BeginObject();
  w.KV("block_reads", r.io.block_reads);
  w.KV("block_writes", r.io.block_writes);
  w.KV("block_ios", r.io.total_ios());
  w.KV("cache_hits", r.io.cache_hits);
  w.EndObject();
  w.KV("wall_ms", r.wall_ms);
  w.Key("storage").BeginObject();
  w.KV("read_calls", r.telemetry.read_calls);
  w.KV("write_calls", r.telemetry.write_calls);
  w.KV("bytes_read", r.telemetry.bytes_read);
  w.KV("bytes_written", r.telemetry.bytes_written);
  w.EndObject();
  w.KV("device_peak_words", static_cast<std::uint64_t>(r.device_peak_words));
  w.KV("internal_work", r.work);
  w.KV("predicted_bound", bound);
  w.KV("measured_over_bound",
       bound > 0 ? static_cast<double>(r.io.total_ios()) / bound : 0.0);
  w.KV("lower_bound", lower);
  w.Key("recovery").BeginObject();
  w.KV("retries", r.recovery.retries);
  w.KV("faults_injected", r.recovery.faults_injected);
  w.KV("checksum_failures", r.recovery.checksum_failures);
  w.EndObject();
  w.Key("phases").BeginArray();
  for (const query::PhaseStat& p : r.phases) {
    w.BeginObject();
    w.KV("name", p.name);
    w.KV("spans", p.spans);
    w.KV("self_wall_ns", p.self_wall_ns);
    w.KV("block_reads", p.self.block_reads);
    w.KV("block_writes", p.self.block_writes);
    w.KV("cache_hits", p.self.cache_hits);
    w.KV("work", p.self.work);
    w.KV("read_calls", p.self.read_calls);
    w.KV("write_calls", p.self.write_calls);
    w.KV("bytes_read", p.self.bytes_read);
    w.KV("bytes_written", p.self.bytes_written);
    w.EndObject();
  }
  w.EndArray();
  w.Key("histograms").BeginArray();
  for (const obs::HistogramSnapshot& h : r.histogram_deltas) {
    w.BeginObject();
    w.KV("name", h.name);
    w.KV("count", h.count);
    w.KV("sum", h.sum);
    w.KV("max", h.max);
    w.Key("buckets").BeginArray();
    for (int i = 0; i < obs::kHistogramBuckets; ++i) {
      if (h.buckets[static_cast<std::size_t>(i)] == 0) continue;
      w.BeginObject();
      w.KV("lo", obs::HistogramBucketLo(i));
      w.KV("hi", obs::HistogramBucketHi(i));
      w.KV("count", h.buckets[static_cast<std::size_t>(i)]);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
}

/// The graph-lifetime facts shared by every query of a run, as JSON keys on
/// the currently open object.
void WriteGraphHeaderJson(obs::JsonWriter& w, const Options& opt,
                          const graph::EmGraph& g, const char* backend_name) {
  w.KV("graph", opt.graph);
  w.KV("backend", backend_name);
  w.KV("edges", static_cast<std::uint64_t>(g.num_edges()));
  w.KV("vertices", g.num_vertices);
  w.KV("memory_words", static_cast<std::uint64_t>(opt.memory_words));
  w.KV("block_words", static_cast<std::uint64_t>(opt.block_words));
}

struct MetricsEntry {
  std::string kind;
  std::string algo;
  const query::QueryResult* r;
};

/// --metrics-json: the full structured report (build info, graph header,
/// one entry per query) written to `path`.
void WriteMetricsFile(const std::string& path, const Options& opt,
                      const graph::EmGraph& g, const char* backend_name,
                      const std::vector<MetricsEntry>& entries) {
  std::ofstream os(path);
  if (!os) Die("cannot open --metrics-json file '" + path + "'");
  obs::JsonWriter w(os);
  w.BeginObject();
  WriteBuildInfoJson(w);
  WriteGraphHeaderJson(w, opt, g, backend_name);
  w.Key("queries").BeginArray();
  for (const MetricsEntry& e : entries) {
    w.BeginObject();
    w.KV("kind", e.kind);
    w.KV("algorithm", e.algo);
    WriteResultJson(w, *e.r, g.num_edges(), opt.memory_words, opt.block_words);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  os << "\n";
  if (!os) Die("failed writing --metrics-json file '" + path + "'");
  std::fprintf(stderr, "[metrics] wrote %s\n", path.c_str());
}

/// --trace: the collector's Chrome trace-event timeline written to `path`.
void WriteTraceFile(const std::string& path, const obs::TraceCollector& tc) {
  std::ofstream os(path);
  if (!os) Die("cannot open --trace file '" + path + "'");
  tc.WriteChromeJson(os);
  if (!os) Die("failed writing --trace file '" + path + "'");
  std::fprintf(stderr, "[trace] wrote %s\n", path.c_str());
}

int CmdVersion(bool json) {
  const obs::BuildInfo& b = obs::GetBuildInfo();
  if (json) {
    obs::JsonWriter w(std::cout);
    w.BeginObject();
    WriteBuildInfoJson(w);
    w.EndObject();
    std::cout << "\n";
    return 0;
  }
  std::printf("compiler = %s\n", b.compiler.c_str());
  std::printf("build_type = %s\n", b.build_type.c_str());
  std::printf("flags = %s\n", b.flags.c_str());
  std::printf("native = %d\n", b.native ? 1 : 0);
  std::printf("cplusplus = %ld\n", b.cplusplus);
  return 0;
}

/// The query's payload lines (before the measurement block): triangles for
/// enumerate, nonzero per-vertex / per-edge counts otherwise, all capped at
/// `limit` with a "... (N more)" tail.
void PrintPayload(const query::Query& q, const query::QueryResult& r,
                  std::size_t limit) {
  switch (q.kind) {
    case query::QueryKind::kCount:
      break;
    case query::QueryKind::kEnumerate: {
      for (std::size_t i = 0; i < r.list.size() && i < limit; ++i) {
        std::printf("triangle %u %u %u\n", r.list[i].a, r.list[i].b,
                    r.list[i].c);
      }
      if (r.triangles > limit) {
        std::printf("... (%llu more)\n",
                    static_cast<unsigned long long>(r.triangles - limit));
      }
      break;
    }
    case query::QueryKind::kPerVertex: {
      std::size_t shown = 0, nonzero = 0;
      for (std::size_t v = 0; v < r.per_vertex.size(); ++v) {
        if (r.per_vertex[v] == 0) continue;
        ++nonzero;
        if (shown < limit) {
          std::printf("vertex %zu %llu\n", v,
                      static_cast<unsigned long long>(r.per_vertex[v]));
          ++shown;
        }
      }
      if (nonzero > shown) {
        std::printf("... (%zu more)\n", nonzero - shown);
      }
      break;
    }
    case query::QueryKind::kPerEdge: {
      for (std::size_t i = 0; i < r.per_edge.size() && i < limit; ++i) {
        std::printf("edge-support %u %u %llu\n", r.per_edge[i].e.u,
                    r.per_edge[i].e.v,
                    static_cast<unsigned long long>(r.per_edge[i].count));
      }
      if (r.per_edge.size() > limit) {
        std::printf("... (%zu more)\n", r.per_edge.size() - limit);
      }
      break;
    }
  }
}

int CmdRun(const Options& opt, bool enumerate) {
  const bool is_reference = opt.algo == "reference";
  if (!is_reference && core::FindAlgorithm(opt.algo) == nullptr) {
    Die("unknown algorithm '" + opt.algo + "' (see `trienum list`)");
  }
  if (is_reference && (!opt.trace_file.empty() || !opt.metrics_json.empty())) {
    Die("--trace/--metrics-json need an EM algorithm run; --algo=reference "
        "is host-memory only");
  }

  std::fprintf(stderr, "[graph] building '%s'\n", opt.graph.c_str());
  std::vector<graph::Edge> raw = BuildGraph(opt);
  std::fprintf(stderr, "[graph] %zu raw edges\n", raw.size());

  if (is_reference) {
    std::fprintf(stderr, "[run] host reference (compact-forward)\n");
    if (enumerate) {
      std::vector<graph::Triangle> tris = core::ListTrianglesHost(raw);
      if (opt.report_json) {
        obs::JsonWriter w(std::cout);
        w.BeginObject();
        w.KV("command", "enumerate");
        w.KV("algorithm", "reference");
        w.KV("triangles", static_cast<std::uint64_t>(tris.size()));
        w.Key("list").BeginArray();
        for (std::size_t i = 0; i < tris.size() && i < opt.limit; ++i) {
          w.BeginArray();
          w.Value(tris[i].a).Value(tris[i].b).Value(tris[i].c);
          w.EndArray();
        }
        w.EndArray();
        w.EndObject();
        std::cout << "\n";
      } else {
        PrintTriangles(tris, opt.limit);
        std::printf("triangles = %zu\n", tris.size());
      }
    } else {
      const std::uint64_t n = core::CountTrianglesHost(raw);
      if (opt.report_json) {
        obs::JsonWriter w(std::cout);
        w.BeginObject();
        w.KV("command", "count");
        w.KV("algorithm", "reference");
        w.KV("triangles", n);
        w.EndObject();
        std::cout << "\n";
      } else {
        std::printf("triangles = %llu\n", static_cast<unsigned long long>(n));
      }
    }
    return 0;
  }

  // Tracing / metrics: one collector for the whole run, installed before
  // the load so `graph.load` lands on the timeline. Phase attribution and
  // histogram windows in QueryResult key off an installed collector, so
  // --metrics-json alone installs one too (and simply never writes the
  // timeline file).
  obs::TraceCollector collector;
  std::optional<obs::ScopedTraceCollector> install;
  if (!opt.trace_file.empty() || !opt.metrics_json.empty()) {
    install.emplace(collector);
  }

  std::fprintf(stderr,
               "[normalize] degree-rank relabel + lexicographic sort (uncounted)\n");
  Result<query::LoadedGraph> loaded =
      query::LoadedGraph::FromEdges(MakeEmConfig(opt), raw);
  if (!loaded.ok()) Die(loaded.status().ToString());
  query::LoadedGraph lg = *std::move(loaded);
  const graph::EmGraph& g = lg.graph();
  std::fprintf(stderr, "[storage] %s backend\n",
               lg.store().device().backend().name());
  std::fprintf(stderr, "[normalize] E=%zu edges over V=%u vertices\n",
               g.num_edges(), g.num_vertices);

  query::Query q;
  q.kind = enumerate ? query::QueryKind::kEnumerate : query::QueryKind::kCount;
  q.algo = opt.algo;
  q.threads = opt.threads;
  std::fprintf(stderr, "[run] %s with M=%zu words, B=%zu words (cold cache)\n",
               opt.algo.c_str(), opt.memory_words, opt.block_words);
  Result<query::QueryResult> rr = lg.Run(q);
  if (!rr.ok()) Die(rr.status().ToString());
  const query::QueryResult& r = *rr;
  std::fprintf(stderr, "[run] done in %.1f ms\n", r.wall_ms);

  const char* backend_name = lg.store().device().backend().name();
  const char* kind_name = enumerate ? "enumerate" : "count";
  if (!opt.trace_file.empty()) WriteTraceFile(opt.trace_file, collector);
  if (!opt.metrics_json.empty()) {
    WriteMetricsFile(opt.metrics_json, opt, g, backend_name,
                     {MetricsEntry{kind_name, opt.algo, &r}});
  }

  if (opt.report_json) {
    obs::JsonWriter w(std::cout);
    w.BeginObject();
    w.KV("command", kind_name);
    w.KV("algorithm", opt.algo);
    WriteGraphHeaderJson(w, opt, g, backend_name);
    WriteResultJson(w, r, g.num_edges(), opt.memory_words, opt.block_words);
    if (enumerate) {
      w.Key("list").BeginArray();
      for (std::size_t i = 0; i < r.list.size() && i < opt.limit; ++i) {
        w.BeginArray();
        w.Value(r.list[i].a).Value(r.list[i].b).Value(r.list[i].c);
        w.EndArray();
      }
      w.EndArray();
    }
    w.EndObject();
    std::cout << "\n";
    return 0;
  }

  PrintPayload(q, r, opt.limit);
  std::printf("algorithm = %s\n", opt.algo.c_str());
  std::printf("graph = %s\n", opt.graph.c_str());
  std::printf("backend = %s\n", backend_name);
  std::printf("edges = %zu\n", g.num_edges());
  std::printf("vertices = %u\n", g.num_vertices);
  std::printf("memory_words = %zu\n", opt.memory_words);
  std::printf("block_words = %zu\n", opt.block_words);
  PrintMeasurements(r, g.num_edges(), opt.memory_words, opt.block_words);
  return 0;
}

// ---------------------------------------------------------------------------
// `trienum query`: load once, answer a script of queries.

query::QueryKind ParseKind(const std::string& tok, std::size_t line_no) {
  if (tok == "count") return query::QueryKind::kCount;
  if (tok == "enumerate") return query::QueryKind::kEnumerate;
  if (tok == "per-vertex") return query::QueryKind::kPerVertex;
  if (tok == "per-edge") return query::QueryKind::kPerEdge;
  Die("script line " + std::to_string(line_no) + ": unknown query kind '" +
      tok + "' (count, enumerate, per-vertex, per-edge)");
}

struct ScriptQuery {
  query::Query q;
  std::size_t limit;  // payload print cap for this query
};

/// Parses one script line: `<kind> [--algo=] [--seed=] [--limit=]
/// [--threads=]`. Defaults come from the command-line options, so a script
/// only states what differs per query.
ScriptQuery ParseScriptLine(const std::string& line, std::size_t line_no,
                            const Options& opt) {
  std::vector<std::string> toks;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
    std::size_t start = pos;
    while (pos < line.size() && !std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
    if (pos > start) toks.push_back(line.substr(start, pos - start));
  }
  TRIENUM_CHECK(!toks.empty());

  ScriptQuery sq;
  sq.q.algo = opt.algo;
  sq.q.threads = opt.threads;
  sq.limit = opt.limit;
  sq.q.kind = ParseKind(toks[0], line_no);
  for (std::size_t i = 1; i < toks.size(); ++i) {
    const std::string& t = toks[i];
    std::size_t eq = t.find('=');
    if (t.rfind("--", 0) != 0 || eq == std::string::npos) {
      Die("script line " + std::to_string(line_no) +
          ": query options take the form --key=value: '" + t + "'");
    }
    std::string key = t.substr(2, eq - 2);
    std::string value = t.substr(eq + 1);
    if (key == "algo") {
      sq.q.algo = value;
    } else if (key == "seed") {
      sq.q.seed = ParseU64(key, value);
    } else if (key == "limit") {
      sq.limit = ParseU64(key, value);
    } else if (key == "threads") {
      sq.q.threads = ParseU64(key, value);
    } else {
      Die("script line " + std::to_string(line_no) + ": unknown option --" +
          key + " (allowed: --algo, --seed, --limit, --threads)");
    }
  }
  if (core::FindAlgorithm(sq.q.algo) == nullptr) {
    Die("script line " + std::to_string(line_no) + ": unknown algorithm '" +
        sq.q.algo + "' (see `trienum list`)");
  }
  return sq;
}

std::vector<ScriptQuery> LoadScript(const std::string& path, const Options& opt) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) Die("cannot open script '" + path + "'");
  std::vector<ScriptQuery> out;
  std::string line;
  std::size_t line_no = 0;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f) != nullptr) {
    ++line_no;
    line.assign(buf);
    std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    bool blank = true;
    for (char c : line) blank = blank && std::isspace(static_cast<unsigned char>(c));
    if (blank) continue;
    out.push_back(ParseScriptLine(line, line_no, opt));
  }
  std::fclose(f);
  if (out.empty()) Die("script '" + path + "' contains no queries");
  return out;
}

int CmdQuery(const Options& opt) {
  if (opt.script.empty()) {
    Die("`trienum query` needs --script=<file> (one query per line)");
  }
  // Parse the whole script up front so a typo on line 40 dies before the
  // (possibly expensive) load, not after 39 answered queries.
  std::vector<ScriptQuery> script = LoadScript(opt.script, opt);

  // One trace per script: the load plus every query on a single timeline,
  // each query nested under its own wall-only "cli.query" span.
  obs::TraceCollector collector;
  std::optional<obs::ScopedTraceCollector> install;
  if (!opt.trace_file.empty() || !opt.metrics_json.empty()) {
    install.emplace(collector);
  }

  std::fprintf(stderr, "[graph] building '%s'\n", opt.graph.c_str());
  std::vector<graph::Edge> raw = BuildGraph(opt);
  std::fprintf(stderr, "[graph] %zu raw edges\n", raw.size());
  Result<query::LoadedGraph> loaded =
      query::LoadedGraph::FromEdges(MakeEmConfig(opt), raw);
  if (!loaded.ok()) Die(loaded.status().ToString());
  query::LoadedGraph lg = *std::move(loaded);
  const graph::EmGraph& g = lg.graph();
  std::fprintf(stderr, "[normalize] E=%zu edges over V=%u vertices (uncounted)\n",
               g.num_edges(), g.num_vertices);

  // Shared header: graph-lifetime facts, printed once.
  std::printf("graph = %s\n", opt.graph.c_str());
  std::printf("backend = %s\n", lg.store().device().backend().name());
  std::printf("edges = %zu\n", g.num_edges());
  std::printf("vertices = %u\n", g.num_vertices);
  std::printf("memory_words = %zu\n", opt.memory_words);
  std::printf("block_words = %zu\n", opt.block_words);
  std::printf("queries = %zu\n", script.size());

  static const char* kKindNames[] = {"count", "enumerate", "per-vertex",
                                     "per-edge"};
  // Results outlive the loop when --metrics-json aggregates them at the end.
  std::vector<query::QueryResult> results;
  if (!opt.metrics_json.empty()) results.reserve(script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    const ScriptQuery& sq = script[i];
    std::fprintf(stderr, "[query %zu] %s via %s\n", i + 1,
                 kKindNames[static_cast<int>(sq.q.kind)], sq.q.algo.c_str());
    Result<query::QueryResult> rr = [&] {
      // Wall-only outer span (the sampler installs inside RunQuery, after
      // this opens): groups one query's phase spans on the timeline.
      obs::Span span("cli.query");
      span.AddArg("index", i + 1);
      return lg.Run(sq.q);
    }();
    if (!rr.ok()) Die(rr.status().ToString());
    const query::QueryResult& r = *rr;
    std::printf("\nquery = %zu\n", i + 1);
    std::printf("kind = %s\n", kKindNames[static_cast<int>(sq.q.kind)]);
    std::printf("algorithm = %s\n", sq.q.algo.c_str());
    PrintPayload(sq.q, r, sq.limit);
    PrintMeasurements(r, g.num_edges(), opt.memory_words, opt.block_words);
    if (!opt.metrics_json.empty()) results.push_back(*std::move(rr));
  }

  if (!opt.trace_file.empty()) WriteTraceFile(opt.trace_file, collector);
  if (!opt.metrics_json.empty()) {
    std::vector<MetricsEntry> entries;
    entries.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      entries.push_back(MetricsEntry{kKindNames[static_cast<int>(script[i].q.kind)],
                                     script[i].q.algo, &results[i]});
    }
    WriteMetricsFile(opt.metrics_json, opt, g,
                     lg.store().device().backend().name(), entries);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (cmd == "list") {
    if (argc > 2) Die("`trienum list` takes no options");
    return CmdList();
  }
  if (cmd == "version") {
    bool json = false;
    if (argc == 3 && std::string(argv[2]) == "--report=json") {
      json = true;
    } else if (argc > 2) {
      Die("`trienum version` takes at most --report=json");
    }
    return CmdVersion(json);
  }
  if (cmd == "count") return CmdRun(ParseOptions(argc, argv), /*enumerate=*/false);
  if (cmd == "enumerate") return CmdRun(ParseOptions(argc, argv), /*enumerate=*/true);
  if (cmd == "query") {
    return CmdQuery(ParseOptions(argc, argv, /*query_mode=*/true));
  }
  Die("unknown command '" + cmd + "' (try `trienum help`)");
}
