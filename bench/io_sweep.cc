// The counter sweep behind README's Reproduction tables: every registered
// algorithm on a fixed grid of (graph, M, B) cells, one JSON row per cell
// and algorithm with its exact triangles, block reads and writes, and work,
// next to the paper's E^{3/2}/(sqrt(M)B) bound and Theorem 3's epoch lower
// bound for the cell's triangle count.
//
//   $ ./build/bench/io_sweep > io_sweep.json
//   $ python3 bench/check_wall_regression.py io_sweep.json bench/baselines/io_sweep.json
//   $ python3 bench/sweep_tables.py bench/baselines/io_sweep.json
//
// The rows carry counters only, no wall time, so two runs write the same
// bytes and the checker compares every counter exactly. Each row is one
// query (query::LoadedGraph::Run) under its own trace collector. Exits 1 if
// a cell's triangles differ from the host reference, its block I/Os fall
// below the lower bound, or query.run's self row holds a block I/O that no
// named phase claims. A plain program, not a google-benchmark binary: it
// takes no arguments and run_benches.sh does not run it.
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/cache_aware.h"
#include "core/lower_bound.h"
#include "core/reference.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "query/query.h"

namespace trienum::bench {
namespace {

constexpr std::uint64_t kGraphSeed = 1;
/// The master seed of every cell's store (2827).
constexpr std::uint64_t kRunSeed = 0xB0B;

template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// A graph with its spec in the syntax of `trienum --graph=`, which builds
/// the same edges: `trienum count --algo=<name> --graph=<spec> --memory=<M>
/// --block=<B> --seed=2827` (kRunSeed) reproduces a row's triangles, reads
/// and writes.
struct Input {
  std::string spec;
  std::vector<graph::Edge> edges;
};

/// Gnm and R-MAT on n = E/4 vertices: average degree 8 at every E.
Input GnmInput(std::size_t e) {
  const auto n = static_cast<graph::VertexId>(e / 4);
  return {Cat("gnm:n=", n, ",m=", e, ",seed=", kGraphSeed),
          graph::Gnm(n, e, kGraphSeed)};
}

Input RmatInput(int scale) {
  const std::size_t e = std::size_t{4} << scale;
  return {Cat("rmat:scale=", scale, ",m=", e, ",seed=", kGraphSeed),
          graph::Rmat(scale, e, 0.45, 0.22, 0.22, kGraphSeed)};
}

struct Cell {
  Input input;
  std::size_t m = 0;
  std::size_t b = 0;
};

/// The grid, axis by axis; a cell that lies on two axes is listed on both
/// and runs once. The M and B axes keep E >= 4M (the graph does not fit in
/// memory) and M >= B^2 (the tall cache).
std::vector<Cell> Grid() {
  std::vector<Cell> cells;
  // E = 2^12 .. 2^16 at M = 1024, B = 16, so E/M runs from 4 to 64.
  for (int lg = 12; lg <= 16; ++lg) {
    cells.push_back({GnmInput(std::size_t{1} << lg), 1024, 16});
  }
  for (int lg = 12; lg <= 16; ++lg) {
    cells.push_back({RmatInput(lg - 2), 1024, 16});
  }
  // M = 256 .. 4096 at E = 2^14, B = 16.
  for (std::size_t m = 256; m <= 4096; m *= 2) {
    cells.push_back({GnmInput(1 << 14), m, 16});
  }
  // B = 8 .. 64 at E = 2^14, M = 4096.
  for (std::size_t b = 8; b <= 64; b *= 2) {
    cells.push_back({GnmInput(1 << 14), 4096, b});
  }
  // Graph classes at E ~ 2^14, M = 1024, B = 16: Gnm and R-MAT are on the
  // E axis; then the 5NF join shape, planted triangles, many medium hubs, a
  // dense core with a sparse periphery, preferential attachment and a small
  // world.
  const std::vector<Input> classes = {
      {"tripartite:a=74,b=74,c=74", graph::CompleteTripartite(74, 74, 74)},
      {Cat("planted:n=4096,m=13384,t=1000,seed=", kGraphSeed),
       graph::PlantedTriangles(4096, 13384, 1000, kGraphSeed)},
      {"clique-union:k=26,s=36", graph::CliqueUnion(26, 36)},
      {"clique-path:k=180,path=256", graph::CliquePlusPath(180, 256)},
      {Cat("ba:n=4096,attach=4,seed=", kGraphSeed),
       graph::BarabasiAlbert(4096, 4, kGraphSeed)},
      {Cat("ws:n=4096,k=4,beta=0.1,seed=", kGraphSeed),
       graph::WattsStrogatz(4096, 4, 0.1, kGraphSeed)},
  };
  for (const Input& input : classes) cells.push_back({input, 1024, 16});
  // Theorem 3's witness family, t = Theta(E^{3/2}), at M = 512, B = 16.
  for (graph::VertexId k : {32, 48, 64, 96}) {
    cells.push_back({{Cat("clique:k=", k), graph::Clique(k)}, 512, 16});
  }
  return cells;
}

/// Block I/Os in query.run's self row: what no named phase claimed.
std::uint64_t UnclaimedIos(const query::QueryResult& r) {
  for (const query::PhaseStat& p : r.phases) {
    if (p.name == "query.run") return p.self.block_reads + p.self.block_writes;
  }
  return r.io.total_ios();  // no phase table: nothing was claimed
}

int Sweep() {
  int failures = 0;
  std::set<std::string> done;
  std::cout << "{\"benchmarks\": [";
  const char* sep = "\n";
  for (const Cell& cell : Grid()) {
    const std::string key = Cat(cell.input.spec, "/M=", cell.m, "/B=", cell.b);
    if (!done.insert(key).second) continue;
    const std::uint64_t want = core::CountTrianglesHost(cell.input.edges);
    const double lower = core::IoLowerBoundEpoch(want, cell.m, cell.b);
    em::EmConfig cfg;
    cfg.memory_words = cell.m;
    cfg.block_words = cell.b;
    cfg.seed = kRunSeed;
    Result<query::LoadedGraph> lg =
        query::LoadedGraph::FromEdges(cfg, cell.input.edges);
    if (!lg.ok()) {
      std::cerr << key << ": " << lg.status().ToString() << "\n";
      ++failures;
      continue;
    }
    const std::size_t num_edges = lg->graph().num_edges();
    for (const core::AlgorithmInfo& algo : core::AllAlgorithms()) {
      const std::string name = Cat(key, "/", algo.name);
      obs::TraceCollector tc;
      obs::ScopedTraceCollector install(tc);
      query::Query q;
      q.algo = algo.name;
      const Result<query::QueryResult> run = lg->Run(q);
      if (!run.ok()) {
        std::cerr << name << ": " << run.status().ToString() << "\n";
        ++failures;
        continue;
      }
      const query::QueryResult& r = *run;
      const std::uint64_t ios = r.io.total_ios();
      std::cout << sep;
      sep = ",\n";
      obs::JsonWriter w(std::cout);
      w.BeginObject()
          .KV("name", name)
          .KV("algorithm", algo.name)
          .KV("graph", cell.input.spec)
          .KV("E", static_cast<std::uint64_t>(num_edges))
          .KV("M", static_cast<std::uint64_t>(cell.m))
          .KV("B", static_cast<std::uint64_t>(cell.b))
          .KV("triangles", r.triangles)
          .KV("reads", r.io.block_reads)
          .KV("writes", r.io.block_writes)
          .KV("ios", ios)
          .KV("work", r.work)
          .KV("ps_bound", core::PaghSilvestriIoBound(num_edges, cell.m, cell.b))
          .KV("lower_bound", lower)
          .EndObject();
      if (r.triangles != want) {
        std::cerr << name << ": " << r.triangles << " triangles, the host "
                  << "reference counts " << want << "\n";
        ++failures;
      }
      if (static_cast<double>(ios) < lower) {
        std::cerr << name << ": " << ios << " block I/Os, below the lower "
                  << "bound " << lower << "\n";
        ++failures;
      }
      if (const std::uint64_t unclaimed = UnclaimedIos(r); unclaimed != 0) {
        std::cerr << name << ": query.run's self row holds " << unclaimed
                  << " of " << ios << " block I/Os\n";
        ++failures;
      }
    }
  }
  std::cout << "\n]}\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace trienum::bench

int main() { return trienum::bench::Sweep(); }
