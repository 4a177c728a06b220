// Correctness gate of the benchmark: every measured query's triangle set is
// compared against a host reference computed once per workload, outside
// timing. The comparison uses an order-insensitive digest (count plus a sum
// of per-triangle hashes), so emission order never matters but a dropped,
// duplicated or altered triangle always does.
#ifndef TRIENUM_PERFBENCH_GATE_H_
#define TRIENUM_PERFBENCH_GATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"
#include "query/query.h"

namespace trienum::perfbench {

struct TriangleDigest {
  std::uint64_t count = 0;
  std::uint64_t hash = 0;  ///< wrapping sum of per-triangle hashes

  friend bool operator==(const TriangleDigest& a, const TriangleDigest& b) {
    return a.count == b.count && a.hash == b.hash;
  }
};

/// Digest of a triangle list. Vertex order inside a triangle and triangle
/// order inside the list are both irrelevant.
TriangleDigest Digest(const std::vector<graph::Triangle>& tris);

/// The gate's verdict on one query. `error` is empty iff `ok`.
struct Verdict {
  bool ok = false;
  std::string error;
};

/// Fails a query whose Status is not OK, whose reported count differs from
/// its list, or whose triangle set differs from `reference`.
Verdict Check(const Result<query::QueryResult>& r,
              const TriangleDigest& reference);

}  // namespace trienum::perfbench

#endif  // TRIENUM_PERFBENCH_GATE_H_
