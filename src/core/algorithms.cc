#include "core/algorithms.h"

#include "core/bnl.h"
#include "core/cache_aware.h"
#include "core/cache_oblivious.h"
#include "core/chu_cheng.h"
#include "core/dementiev.h"
#include "core/edge_iterator.h"
#include "core/mgt.h"

namespace trienum::core {

const std::vector<AlgorithmInfo>& AllAlgorithms() {
  static const std::vector<AlgorithmInfo>* algorithms = [] {
    auto* v = new std::vector<AlgorithmInfo>();
    v->push_back(AlgorithmInfo{
        "ps-cache-aware",
        "Pagh-Silvestri Section 2: randomized color coding, "
        "O(E^1.5/(sqrt(M)B)) expected I/Os",
        /*cache_aware=*/true, /*randomized=*/true,
        [](em::QuerySession& ctx, const graph::EmGraph& g, TriangleSink& sink) {
          EnumerateCacheAware(ctx, g, sink);
        }});
    v->push_back(AlgorithmInfo{
        "ps-cache-oblivious",
        "Pagh-Silvestri Section 3: recursive color refinement, "
        "cache-oblivious, O(E^1.5/(sqrt(M)B)) expected I/Os",
        /*cache_aware=*/false, /*randomized=*/true,
        [](em::QuerySession& ctx, const graph::EmGraph& g, TriangleSink& sink) {
          EnumerateCacheOblivious(ctx, g, sink);
        }});
    v->push_back(AlgorithmInfo{
        "ps-deterministic",
        "Pagh-Silvestri Section 4: greedy derandomized coloring, "
        "deterministic O(E^1.5/(sqrt(M)B)) I/Os",
        /*cache_aware=*/true, /*randomized=*/false,
        [](em::QuerySession& ctx, const graph::EmGraph& g, TriangleSink& sink) {
          EnumerateDeterministic(ctx, g, sink);
        }});
    v->push_back(AlgorithmInfo{
        "mgt",
        "Hu-Tao-Chung (SIGMOD'13): O(E^2/(MB)) I/Os",
        /*cache_aware=*/true, /*randomized=*/false,
        [](em::QuerySession& ctx, const graph::EmGraph& g, TriangleSink& sink) {
          EnumerateMgt(ctx, g, sink);
        }});
    v->push_back(AlgorithmInfo{
        "dementiev",
        "Dementiev (2006): wedge join, O(sort(E^1.5)) I/Os",
        /*cache_aware=*/true, /*randomized=*/false,
        [](em::QuerySession& ctx, const graph::EmGraph& g, TriangleSink& sink) {
          EnumerateDementiev(ctx, g, sink);
        }});
    v->push_back(AlgorithmInfo{
        "edge-iterator",
        "Menegola-style edge iterator: O(E + E^1.5/B) I/Os",
        /*cache_aware=*/false, /*randomized=*/false,
        [](em::QuerySession& ctx, const graph::EmGraph& g, TriangleSink& sink) {
          EnumerateEdgeIterator(ctx, g, sink);
        }});
    v->push_back(AlgorithmInfo{
        "chu-cheng",
        "Chu-Cheng (TKDD'12): vertex partitioning, O(E^2/(MB) + t/B) "
        "for partition-friendly graphs",
        /*cache_aware=*/true, /*randomized=*/false,
        [](em::QuerySession& ctx, const graph::EmGraph& g, TriangleSink& sink) {
          EnumerateChuCheng(ctx, g, sink);
        }});
    v->push_back(AlgorithmInfo{
        "bnl",
        "Pipelined block-nested-loop ternary join: O(E^3/(M^2 B)) I/Os",
        /*cache_aware=*/true, /*randomized=*/false,
        [](em::QuerySession& ctx, const graph::EmGraph& g, TriangleSink& sink) {
          EnumerateBnl(ctx, g, sink);
        }});
    return v;
  }();
  return *algorithms;
}

const AlgorithmInfo* FindAlgorithm(std::string_view name) {
  for (const AlgorithmInfo& a : AllAlgorithms()) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

}  // namespace trienum::core
