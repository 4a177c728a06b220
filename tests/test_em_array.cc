// Typed array views, multi-word records, slices, scanners, writers and
// copies.
#include <gtest/gtest.h>

#include "em/array.h"
#include "extsort/scan_ops.h"
#include "graph/types.h"
#include "test_util.h"

namespace trienum {
namespace {

struct ThreeWordRec {
  std::uint64_t a;
  std::uint64_t b;
  std::uint64_t c;
};

TEST(Array, WordsPerRecord) {
  EXPECT_EQ(em::Array<std::uint64_t>::kWordsPer, 1u);
  EXPECT_EQ(em::Array<graph::Edge>::kWordsPer, 1u);          // paper: 1 word/edge
  EXPECT_EQ(em::Array<graph::ColoredEdge>::kWordsPer, 2u);
  EXPECT_EQ(em::Array<ThreeWordRec>::kWordsPer, 3u);
  EXPECT_EQ(em::Array<std::uint32_t>::kWordsPer, 1u);
}

TEST(Array, MultiWordRoundTrip) {
  em::Context ctx = test::MakeContext();
  em::Array<ThreeWordRec> a = ctx.Alloc<ThreeWordRec>(100);
  for (std::size_t i = 0; i < 100; ++i) {
    a.Set(i, ThreeWordRec{i, i * 2, i * 3});
  }
  for (std::size_t i = 0; i < 100; ++i) {
    ThreeWordRec r = a.Get(i);
    ASSERT_EQ(r.a, i);
    ASSERT_EQ(r.b, i * 2);
    ASSERT_EQ(r.c, i * 3);
  }
}

TEST(Array, SliceSharesStorage) {
  em::Context ctx = test::MakeContext();
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(100);
  for (std::size_t i = 0; i < 100; ++i) a.Set(i, i);
  em::Array<std::uint64_t> s = a.Slice(10, 20);
  EXPECT_EQ(s.size(), 20u);
  EXPECT_EQ(s.Get(0), 10u);
  s.Set(0, 999);
  EXPECT_EQ(a.Get(10), 999u);
}

TEST(Array, BulkReadWriteMatchesElementwise) {
  em::Context ctx = test::MakeContext();
  em::Array<graph::Edge> a = ctx.Alloc<graph::Edge>(64);
  std::vector<graph::Edge> host(64);
  for (std::size_t i = 0; i < 64; ++i) {
    host[i] = graph::Edge{static_cast<graph::VertexId>(i),
                          static_cast<graph::VertexId>(i + 1)};
  }
  a.WriteFrom(0, 64, host.data());
  std::vector<graph::Edge> back(64);
  a.ReadTo(0, 64, back.data());
  EXPECT_EQ(host, back);
}

TEST(Scanner, IteratesInOrder) {
  em::Context ctx = test::MakeContext();
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(10);
  for (std::size_t i = 0; i < 10; ++i) a.Set(i, i * 7);
  em::Scanner<std::uint64_t> s(a);
  std::uint64_t expected = 0;
  while (s.HasNext()) {
    EXPECT_EQ(s.Peek(), expected * 7);
    EXPECT_EQ(s.Next(), expected * 7);
    ++expected;
  }
  EXPECT_EQ(expected, 10u);
}

TEST(Scanner, SubrangeConstructor) {
  em::Context ctx = test::MakeContext();
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(10);
  for (std::size_t i = 0; i < 10; ++i) a.Set(i, i);
  em::Scanner<std::uint64_t> s(a, 3, 7);
  EXPECT_EQ(s.remaining(), 4u);
  EXPECT_EQ(s.Next(), 3u);
  s.Skip();
  EXPECT_EQ(s.Next(), 5u);
}

TEST(Writer, TracksCountAndWrittenView) {
  em::Context ctx = test::MakeContext();
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(10);
  em::Writer<std::uint64_t> w(a);
  w.Push(11);
  w.Push(22);
  EXPECT_EQ(w.count(), 2u);
  em::Array<std::uint64_t> v = w.Written();
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.Get(1), 22u);
}

TEST(Array, CopyFillsTheFrontOfALargerArray) {
  // extsort::Copy writes src.size() records to the front of dst and leaves
  // the rest alone; a destination shorter than the source aborts.
  for (em::StorageKind kind : {em::StorageKind::kMemory,
                               em::StorageKind::kFile}) {
    SCOPED_TRACE(kind == em::StorageKind::kFile ? "file" : "memory");
    em::Context ctx = test::MakeContext(1 << 12, 16, 0x7001, kind);
    em::Array<ThreeWordRec> src = ctx.Alloc<ThreeWordRec>(40);
    for (std::size_t i = 0; i < src.size(); ++i) {
      src.Set(i, ThreeWordRec{i, i + 100, ~i});
    }
    em::Array<ThreeWordRec> dst = ctx.Alloc<ThreeWordRec>(48);
    for (std::size_t i = 0; i < dst.size(); ++i) {
      dst.Set(i, ThreeWordRec{7, 7, 7});
    }
    extsort::Copy(src, dst);
    for (std::size_t i = 0; i < dst.size(); ++i) {
      const ThreeWordRec r = dst.Get(i);
      if (i < src.size()) {
        EXPECT_EQ(r.a, i);
        EXPECT_EQ(r.b, i + 100);
        EXPECT_EQ(r.c, ~i);
      } else {
        EXPECT_EQ(r.a, 7u) << "record " << i << " past the copy";
        EXPECT_EQ(r.c, 7u) << "record " << i << " past the copy";
      }
    }
  }
  em::Context ctx = test::MakeContext();
  em::Array<std::uint64_t> src = ctx.Alloc<std::uint64_t>(8);
  em::Array<std::uint64_t> short_dst = ctx.Alloc<std::uint64_t>(7);
  EXPECT_DEATH(extsort::Copy(src, short_dst), "CHECK");
}

TEST(Array, OutOfBoundsAborts) {
  em::Context ctx = test::MakeContext();
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(4);
  EXPECT_DEATH((void)a.Get(4), "CHECK");
  EXPECT_DEATH(a.Set(5, 1), "CHECK");
  EXPECT_DEATH((void)a.Slice(2, 3), "CHECK");
}

}  // namespace
}  // namespace trienum
