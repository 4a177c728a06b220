// Must not compile: SortRun rejects a keyed record wider than
// kDirectScatterMaxBytes with a static_assert in its keyed branch, so such
// a record is a build error rather than a slow path. Built only by the
// SortRun.WideKeyedRecordFailsToCompile test (tests/CMakeLists.txt), which
// passes when the compiler reports that static_assert.
#include <cstddef>
#include <cstdint>
#include <vector>

#include "extsort/run_formation.h"

namespace trienum::compile_fail {

struct Wide32 {
  std::uint64_t key = 0;
  std::uint64_t x = 0, y = 0, z = 0;
};
struct Wide32KeyedLess {
  static constexpr bool kKeyComplete = true;
  static std::uint64_t Key(const Wide32& r) { return r.key; }
  bool operator()(const Wide32& a, const Wide32& b) const {
    return a.key < b.key;
  }
};

void SortWideKeyed(std::vector<Wide32>& recs) {
  extsort::SortRun(recs.data(), recs.size(), Wide32KeyedLess{});
}

}  // namespace trienum::compile_fail
