// The central correctness matrix: every registered algorithm, on every graph
// in the standard menagerie, across several (M, B) configurations, must
// produce exactly the reference triangle set — same set, no duplicates, no
// misses. This is the library's strongest single piece of evidence that all
// seven enumeration algorithms implement the same semantics ("each triangle
// emitted exactly once").
#include <gtest/gtest.h>

#include <tuple>

#include "test_util.h"

namespace trienum {
namespace {

struct MatrixParam {
  std::string algorithm;
  std::size_t graph_index;
  std::size_t m_words;
  std::size_t b_words;
};

std::vector<MatrixParam> BuildMatrix() {
  std::vector<MatrixParam> params;
  const auto cases = test::StandardGraphCases();
  const std::vector<std::pair<std::size_t, std::size_t>> mem_configs = {
      {1 << 12, 16},  // roomy memory
      {512, 8},       // tight memory: many chunks / merge passes
      {136, 4},       // M/(2B) = 17 merge fan-in, capped to fit its lease
  };
  for (const core::AlgorithmInfo& a : core::AllAlgorithms()) {
    for (std::size_t gi = 0; gi < cases.size(); ++gi) {
      for (auto [m, b] : mem_configs) {
        params.push_back(MatrixParam{a.name, gi, m, b});
      }
    }
  }
  return params;
}

class AlgorithmMatrixTest : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(AlgorithmMatrixTest, MatchesReferenceExactly) {
  const MatrixParam& p = GetParam();
  const auto cases = test::StandardGraphCases();
  const test::GraphCase& gc = cases[p.graph_index];

  std::vector<graph::Triangle> expected = test::ReferenceNormalized(gc.edges);
  std::vector<graph::Triangle> got =
      test::RunCollect(p.algorithm, gc.edges, p.m_words, p.b_words);

  EXPECT_TRUE(test::NoDuplicates(got))
      << p.algorithm << " emitted a duplicate triangle on " << gc.name;
  EXPECT_EQ(got, expected) << p.algorithm << " on " << gc.name << " (M="
                           << p.m_words << ", B=" << p.b_words << ")";
}

std::string MatrixName(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto cases = test::StandardGraphCases();
  std::string algo = info.param.algorithm;
  for (char& ch : algo) {
    if (ch == '-') ch = '_';
  }
  return algo + "_" + cases[info.param.graph_index].name + "_M" +
         std::to_string(info.param.m_words) + "_B" +
         std::to_string(info.param.b_words);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithmsAllGraphs, AlgorithmMatrixTest,
                         ::testing::ValuesIn(BuildMatrix()), MatrixName);

}  // namespace
}  // namespace trienum
