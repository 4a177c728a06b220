// Core graph types. An Edge packs two 32-bit vertex ids into one 64-bit
// word, matching the paper's accounting where an edge occupies one memory
// word. ColoredEdge additionally stores the colors of both endpoints, as the
// cache-oblivious recursion requires ("the color of each vertex is stored
// within the vertex").
#ifndef TRIENUM_GRAPH_TYPES_H_
#define TRIENUM_GRAPH_TYPES_H_

#include <cstdint>
#include <tuple>

#include "extsort/sort_key.h"

namespace trienum::graph {

using VertexId = std::uint32_t;

/// Undirected edge, stored with u < v (after normalization).
struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.u == b.u && a.v == b.v;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    return std::tie(a.u, a.v) < std::tie(b.u, b.v);
  }
};

/// Edge carrying the current colors of both endpoints (paper Section 3).
struct ColoredEdge {
  VertexId u = 0;
  VertexId v = 0;
  std::uint32_t cu = 0;
  std::uint32_t cv = 0;

  friend bool operator==(const ColoredEdge& a, const ColoredEdge& b) {
    return a.u == b.u && a.v == b.v && a.cu == b.cu && a.cv == b.cv;
  }
};

/// A triangle with vertices in increasing id order.
struct Triangle {
  VertexId a = 0;
  VertexId b = 0;
  VertexId c = 0;

  friend bool operator==(const Triangle& x, const Triangle& y) {
    return x.a == y.a && x.b == y.b && x.c == y.c;
  }
  friend bool operator<(const Triangle& x, const Triangle& y) {
    return std::tie(x.a, x.b, x.c) < std::tie(y.a, y.b, y.c);
  }
};

/// Uniform accessors so the algorithm templates work on both edge types.
template <typename E>
struct EdgeAccess;

template <>
struct EdgeAccess<Edge> {
  static VertexId U(const Edge& e) { return e.u; }
  static VertexId V(const Edge& e) { return e.v; }
  static std::uint32_t CU(const Edge&) { return 0; }
  static std::uint32_t CV(const Edge&) { return 0; }
};

template <>
struct EdgeAccess<ColoredEdge> {
  static VertexId U(const ColoredEdge& e) { return e.u; }
  static VertexId V(const ColoredEdge& e) { return e.v; }
  static std::uint32_t CU(const ColoredEdge& e) { return e.cu; }
  static std::uint32_t CV(const ColoredEdge& e) { return e.cv; }
};

/// Lexicographic (u, v) order; the canonical on-disk order of §1.3 ("these
/// tuples are sorted lexicographically"). The comparators below implement
/// the sort engine's Key/kKeyComplete protocol (extsort/sort_key.h) with
/// extsort::PackKey packing the two 32-bit ids.
struct LexLess {
  /// (u, v) is the full order, so the packed key is complete: equal keys
  /// mean comparator-equivalent records.
  static constexpr bool kKeyComplete = true;
  template <typename E>
  static std::uint64_t Key(const E& e) {
    using A = EdgeAccess<E>;
    return extsort::PackKey(A::U(e), A::V(e));
  }
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    using A = EdgeAccess<E>;
    VertexId au = A::U(a), av = A::V(a), bu = A::U(b), bv = A::V(b);
    return au != bu ? au < bu : av < bv;
  }
};

/// Order by larger endpoint, then smaller (used by Lemma 1's second pass).
struct ByMaxLess {
  static constexpr bool kKeyComplete = true;
  template <typename E>
  static std::uint64_t Key(const E& e) {
    using A = EdgeAccess<E>;
    return extsort::PackKey(A::V(e), A::U(e));
  }
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    using A = EdgeAccess<E>;
    VertexId au = A::U(a), av = A::V(a), bu = A::U(b), bv = A::V(b);
    return av != bv ? av < bv : au < bu;
  }
};

/// Color-class order (cu, cv, u, v): groups a colored edge list by class,
/// ids inside a class — the bucket-sort order of §2 step 2, the §4
/// derandomizer's class grouping, and the 4-clique bucketing. The 128-bit
/// order radix-sorts on its leading (cu, cv) key; the engine finishes
/// equal-class runs with the comparator (kKeyComplete == false).
struct ColorClassLess {
  static constexpr bool kKeyComplete = false;
  static std::uint64_t Key(const ColoredEdge& e) {
    return extsort::PackKey(e.cu, e.cv);
  }
  bool operator()(const ColoredEdge& a, const ColoredEdge& b) const {
    return std::tie(a.cu, a.cv, a.u, a.v) < std::tie(b.cu, b.cv, b.u, b.v);
  }
};

}  // namespace trienum::graph

#endif  // TRIENUM_GRAPH_TYPES_H_
