// Unit test of the benchmark's correctness gate: a corrupted triangle list
// or a failed query must be counted as a failure, a reordered one must not.
// Exits nonzero on the first failed expectation.
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "gate.h"

namespace trienum::perfbench {
namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

Result<query::QueryResult> Answer(std::vector<graph::Triangle> tris) {
  query::QueryResult r;
  r.triangles = tris.size();
  r.list = std::move(tris);
  return r;
}

void Run() {
  const std::vector<graph::Triangle> tris = {
      {0, 1, 2}, {0, 1, 3}, {1, 2, 3}, {4, 5, 6}};
  const TriangleDigest ref = Digest(tris);

  Expect(Check(Answer(tris), ref).ok, "the exact list passes");

  std::vector<graph::Triangle> reordered = {
      {4, 5, 6}, {1, 2, 3}, {0, 1, 3}, {0, 1, 2}};
  Expect(Check(Answer(reordered), ref).ok, "emission order is irrelevant");
  reordered[0] = {6, 4, 5};
  Expect(Digest(reordered) == ref, "vertex order inside a triangle is irrelevant");

  std::vector<graph::Triangle> dropped(tris.begin(), tris.end() - 1);
  Expect(!Check(Answer(dropped), ref).ok, "a dropped triangle fails");

  std::vector<graph::Triangle> altered = tris;
  altered[2].c = 7;
  Expect(!Check(Answer(altered), ref).ok, "an altered triangle fails");

  std::vector<graph::Triangle> swapped = tris;
  swapped.back() = swapped.front();  // same count, one duplicate
  Expect(!Check(Answer(swapped), ref).ok,
         "a duplicate standing in for a lost triangle fails");

  Result<query::QueryResult> miscounted = Answer(tris);
  (*miscounted).triangles += 1;
  Expect(!Check(miscounted, ref).ok, "a count that disagrees with the list fails");

  const Verdict io = Check(Status::IoError("injected"), ref);
  Expect(!io.ok && !io.error.empty(), "a non-OK status fails with a message");

  Expect(Digest({}) == TriangleDigest{}, "the empty list digests to zero");
}

}  // namespace
}  // namespace trienum::perfbench

int main() {
  trienum::perfbench::Run();
  if (trienum::perfbench::failures != 0) return 1;
  std::printf("perfbench_gate_test: all checks passed\n");
  return 0;
}
