// Sinks (emission semantics) and graph file I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/sink.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

TEST(Sinks, CountingAndChecksumAgree) {
  core::CountingSink count;
  core::ChecksumSink sum;
  core::TeeSink tee(&count, &sum);
  tee.Emit(1, 2, 3);
  tee.Emit(2, 5, 9);
  EXPECT_EQ(count.count(), 2u);
  EXPECT_EQ(sum.count(), 2u);
}

TEST(Sinks, ChecksumIsOrderInvariant) {
  core::ChecksumSink a, b;
  a.Emit(1, 2, 3);
  a.Emit(4, 5, 6);
  b.Emit(4, 5, 6);
  b.Emit(1, 2, 3);
  EXPECT_EQ(a.checksum(), b.checksum());
}

TEST(Sinks, ChecksumDistinguishesDifferentSets) {
  core::ChecksumSink a, b;
  a.Emit(1, 2, 3);
  b.Emit(1, 2, 4);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(Sinks, ChecksumRejectsUnsortedTriples) {
  core::ChecksumSink s;
  EXPECT_DEATH(s.Emit(3, 2, 1), "CHECK");
}

TEST(Sinks, CallbackForwardsInOrder) {
  std::vector<Triangle> seen;
  core::CallbackSink cb([&seen](VertexId a, VertexId b, VertexId c) {
    seen.push_back(Triangle{a, b, c});
  });
  cb.Emit(1, 2, 3);
  cb.Emit(0, 7, 9);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], (Triangle{0, 7, 9}));
}

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs the tests of this fixture as
    // concurrent processes, and TearDown removes the whole directory.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("trienum_io_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, TextRoundTrip) {
  auto edges = Gnm(50, 120, 3);
  ASSERT_TRUE(WriteEdgeListText(Path("g.txt"), edges).ok());
  auto back = ReadEdgeListText(Path("g.txt"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, edges);
}

TEST_F(GraphIoTest, BinaryRoundTrip) {
  auto edges = Gnm(50, 120, 4);
  ASSERT_TRUE(WriteEdgeListBinary(Path("g.bin"), edges).ok());
  auto back = ReadEdgeListBinary(Path("g.bin"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, edges);

  // Malformed files: the header count must match the file length exactly,
  // and a mismatch is an InvalidArgument, never an allocation abort.
  std::ifstream in(Path("g.bin"), std::ios::binary);
  const std::string valid((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  ASSERT_EQ(valid.size(), 8 + edges.size() * sizeof(Edge));
  std::string larger_count = valid;
  larger_count[0] = static_cast<char>(larger_count[0] + 1);
  const std::pair<const char*, std::string> bad_files[] = {
      {"short_header.bin", valid.substr(0, 5)},
      {"garbage13.bin",
       std::string("\x93\x1f\xc4\x07\xee\x5a\x81\xf0\x3d\x6b\x29\xd8\x44", 13)},
      {"count_past_payload.bin", larger_count},
      {"partial_edge.bin", valid + std::string(3, '\0')},
  };
  for (const auto& [name, bytes] : bad_files) {
    std::ofstream(Path(name), std::ios::binary) << bytes;
    auto bad = ReadEdgeListBinary(Path(name));
    ASSERT_FALSE(bad.ok()) << name;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST_F(GraphIoTest, AutoReadDispatchesOnTheExtension) {
  // .bin and .bedges are binary, anything else text; converting a file is
  // one ReadEdgeListAuto plus the writer for the other format.
  auto edges = Gnm(60, 150, 6);
  ASSERT_TRUE(WriteEdgeListText(Path("g.txt"), edges).ok());
  ASSERT_TRUE(WriteEdgeListBinary(Path("g.bin"), edges).ok());
  ASSERT_TRUE(WriteEdgeListBinary(Path("g.bedges"), edges).ok());
  for (const char* name : {"g.txt", "g.bin", "g.bedges"}) {
    auto back = ReadEdgeListAuto(Path(name));
    ASSERT_TRUE(back.ok()) << name << ": " << back.status().ToString();
    EXPECT_EQ(*back, edges) << name;
  }
  // A binary file behind a text name does not parse as text.
  std::filesystem::copy_file(Path("g.bin"), Path("g.edges"));
  EXPECT_FALSE(ReadEdgeListAuto(Path("g.edges")).ok());

  auto text = ReadEdgeListAuto(Path("g.txt"));
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(WriteEdgeListBinary(Path("converted.bin"), *text).ok());
  auto converted = ReadEdgeListAuto(Path("converted.bin"));
  ASSERT_TRUE(converted.ok());
  EXPECT_EQ(*converted, edges);
}

TEST_F(GraphIoTest, TextCommentsAndBlanksSkipped) {
  {
    std::FILE* f = std::fopen(Path("c.txt").c_str(), "w");
    std::fputs("# comment\n\n% another\n3 4\n5 6\n", f);
    std::fclose(f);
  }
  auto back = ReadEdgeListText(Path("c.txt"));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0], (Edge{3, 4}));
}

TEST_F(GraphIoTest, ParseErrorsAreStatuses) {
  {
    std::FILE* f = std::fopen(Path("bad.txt").c_str(), "w");
    std::fputs("1 2\nnot numbers\n", f);
    std::fclose(f);
  }
  auto bad = ReadEdgeListText(Path("bad.txt"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  auto missing = ReadEdgeListText(Path("does_not_exist.txt"));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, OversizedIdsRejected) {
  {
    std::FILE* f = std::fopen(Path("big.txt").c_str(), "w");
    std::fputs("1 99999999999\n", f);
    std::fclose(f);
  }
  auto bad = ReadEdgeListText(Path("big.txt"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
}

TEST_F(GraphIoTest, NegativeIdsRejected) {
  // istream >> uint64_t wraps a leading '-' modulo 2^64: the first file
  // would load as {1, 2}, {2, 3}, {1, 3}, one triangle.
  struct Case {
    const char* name;
    const char* text;
    const char* where;  // file:line the status must name
  };
  for (const Case& c : {Case{"wrap.txt", "-18446744073709551615 2\n2 3\n1 3\n",
                             "wrap.txt:1"},
                        Case{"minus.txt", "2 3\n-1 2\n", "minus.txt:2"},
                        Case{"second.txt", "1 -2\n", "second.txt:1"},
                        // No blank before the '-': read as {1, 2} until the
                        // sign was checked where each id starts.
                        Case{"glued.txt", "1-18446744073709551614\n2 3\n1 3\n",
                             "glued.txt:1"}}) {
    {
      std::FILE* f = std::fopen(Path(c.name).c_str(), "w");
      std::fputs(c.text, f);
      std::fclose(f);
    }
    auto bad = ReadEdgeListText(Path(c.name));
    ASSERT_FALSE(bad.ok()) << c.name;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << c.name;
    EXPECT_NE(bad.status().message().find(c.where), std::string::npos)
        << bad.status().ToString();
  }
}

TEST_F(GraphIoTest, MinusPastTheTwoIdsIsNotAnId) {
  // Only the first two tokens are ids: a signed third column (a weight) or
  // a '-' in a trailing comment leaves the line's edge as it was.
  {
    std::FILE* f = std::fopen(Path("w.txt").c_str(), "w");
    std::fputs("1 2 -0.5\n4 5 # was -4 5\n", f);
    std::fclose(f);
  }
  auto back = ReadEdgeListText(Path("w.txt"));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, (std::vector<Edge>{{1, 2}, {4, 5}}));
}

TEST(Status, BasicsAndResult) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "OK");
  Status err = Status::InvalidArgument("bad");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.ToString(), "InvalidArgument: bad");

  Result<int> good = 7;
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad = Status::NotFound("x");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace trienum
