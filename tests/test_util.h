// Shared helpers for the test suite: context factories, algorithm runners,
// and triangle-set comparison utilities.
#ifndef TRIENUM_TESTS_TEST_UTIL_H_
#define TRIENUM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/reference.h"
#include "core/sink.h"
#include "em/context.h"
#include "graph/generators.h"
#include "graph/normalize.h"

namespace trienum::test {

inline em::Context MakeContext(std::size_t m_words = 1 << 12,
                               std::size_t b_words = 16,
                               std::uint64_t seed = 0x7001,
                               em::StorageKind storage = em::StorageKind::kMemory) {
  em::EmConfig cfg;
  cfg.memory_words = m_words;
  cfg.block_words = b_words;
  cfg.seed = seed;
  cfg.storage = storage;
  return em::Context(cfg);
}

/// Context whose device lives in a temp file (out-of-core storage backend).
inline em::Context MakeFileContext(std::size_t m_words = 1 << 12,
                                   std::size_t b_words = 16,
                                   std::uint64_t seed = 0x7001) {
  return MakeContext(m_words, b_words, seed, em::StorageKind::kFile);
}

/// Runs the named algorithm on raw host edges; returns the collected
/// triangles (in normalized-id space), sorted.
inline std::vector<graph::Triangle> RunCollect(const std::string& algo_name,
                                               const std::vector<graph::Edge>& raw,
                                               std::size_t m_words = 1 << 12,
                                               std::size_t b_words = 16,
                                               std::uint64_t seed = 0x7001) {
  em::Context ctx = MakeContext(m_words, b_words, seed);
  graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
  core::CollectingSink sink;
  const core::AlgorithmInfo* algo = core::FindAlgorithm(algo_name);
  if (algo == nullptr) ADD_FAILURE() << "unknown algorithm " << algo_name;
  algo->run(ctx, g, sink);
  std::vector<graph::Triangle> out = sink.triangles();
  std::sort(out.begin(), out.end());
  return out;
}

/// Ground truth in normalized-id space: normalize through an (uncounted)
/// context, download, and run the host reference.
inline std::vector<graph::Triangle> ReferenceNormalized(
    const std::vector<graph::Edge>& raw) {
  em::Context ctx = MakeContext();
  graph::EmGraph g = graph::BuildEmGraph(ctx, raw);
  return core::ListTrianglesHost(graph::DownloadEdges(g));
}

/// True if `tris` contains no duplicate entries (exactly-once check).
inline bool NoDuplicates(std::vector<graph::Triangle> tris) {
  std::sort(tris.begin(), tris.end());
  return std::adjacent_find(tris.begin(), tris.end()) == tris.end();
}

/// The graph an all-algorithm matrix gives its ps-cache-oblivious cells:
/// §3 splits only nodes of more than core::kTinyBase (4,096) edges, so a
/// smaller fixture would run it as one leaf; this one has 8,192.
inline std::vector<graph::Edge> ObliviousRecursionEdges() {
  return graph::Rmat(10, 8192, 0.45, 0.22, 0.22, 17);
}

/// A named raw-edge workload for parameterized suites.
struct GraphCase {
  std::string name;
  std::vector<graph::Edge> edges;
};

/// The standard menagerie used across suites: covers empty/trivial inputs,
/// triangle-free controls, dense cores, skewed degrees, random graphs, and
/// the tripartite join shape.
inline std::vector<GraphCase> StandardGraphCases() {
  using namespace trienum::graph;
  std::vector<GraphCase> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"single_edge", {Edge{0, 1}}});
  cases.push_back({"one_triangle", {Edge{0, 1}, Edge{1, 2}, Edge{0, 2}}});
  cases.push_back({"two_triangles_shared_edge",
                   {Edge{0, 1}, Edge{1, 2}, Edge{0, 2}, Edge{1, 3}, Edge{2, 3}}});
  cases.push_back({"path16", PathGraph(16)});
  cases.push_back({"star32", Star(32)});
  cases.push_back({"cycle3", CycleGraph(3)});
  cases.push_back({"bipartite", BipartiteRandom(12, 12, 60, 11)});
  cases.push_back({"k4", Clique(4)});
  cases.push_back({"k16", Clique(16)});
  cases.push_back({"clique_plus_path", CliquePlusPath(12, 40)});
  cases.push_back({"clique_union", CliqueUnion(5, 7)});
  cases.push_back({"tripartite", CompleteTripartite(6, 5, 4)});
  cases.push_back({"gnm_sparse", Gnm(200, 400, 42)});
  cases.push_back({"gnm_dense", Gnm(60, 900, 43)});
  cases.push_back({"rmat", Rmat(9, 800, 0.45, 0.2, 0.2, 44)});
  cases.push_back({"planted", PlantedTriangles(120, 200, 20, 45)});
  return cases;
}

}  // namespace trienum::test

#endif  // TRIENUM_TESTS_TEST_UTIL_H_
