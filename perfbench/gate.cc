#include "gate.h"

#include <algorithm>
#include <array>

#include "common/rng.h"

namespace trienum::perfbench {

TriangleDigest Digest(const std::vector<graph::Triangle>& tris) {
  TriangleDigest d;
  d.count = tris.size();
  for (const graph::Triangle& t : tris) {
    std::array<std::uint64_t, 3> v = {t.a, t.b, t.c};
    std::sort(v.begin(), v.end());
    // Mix64 is a bijection with full avalanche, so the sums of two different
    // sets collide only by chance (about 2^-64).
    d.hash += Mix64(Mix64(Mix64(v[0]) ^ v[1]) ^ v[2]);
  }
  return d;
}

Verdict Check(const Result<query::QueryResult>& r,
              const TriangleDigest& reference) {
  if (!r.ok()) return {false, "status: " + r.status().ToString()};
  const query::QueryResult& q = *r;
  if (q.triangles != q.list.size()) {
    return {false, "reported " + std::to_string(q.triangles) +
                       " triangles but listed " + std::to_string(q.list.size())};
  }
  const TriangleDigest got = Digest(q.list);
  if (!(got == reference)) {
    return {false, "triangle set differs from the host reference (" +
                       std::to_string(got.count) + " vs " +
                       std::to_string(reference.count) + " triangles)"};
  }
  return {true, ""};
}

}  // namespace trienum::perfbench
