// Differential matrix locking the file-backed storage backend to the
// in-memory simulator: every registered algorithm, run on both backends over
// a spread of generator specs, must produce the identical triangle set AND
// identical IoStats. The simulator is the spec — any divergence in
// block_reads, block_writes or cache_hits is a bug in the staged data path.
//
// Also covers the data-integrity invariants the backends must share (zero
// initialization, uncounted bypass windows, bulk DMA of padded records) and
// the out-of-core acceptance criterion: a device footprint >= 100x M.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "em/array.h"
#include "em/storage.h"
#include "test_util.h"

namespace trienum {
namespace {

using namespace trienum::graph;

struct BackendRun {
  std::vector<Triangle> triangles;
  em::IoStats io;
};

BackendRun RunOn(em::StorageKind kind, const std::string& algo_name,
                 const std::vector<Edge>& raw, std::size_t m, std::size_t b,
                 std::uint64_t seed) {
  em::Context ctx = test::MakeContext(m, b, seed, kind);
  EmGraph g = BuildEmGraph(ctx, raw);
  ctx.cache().Reset();
  core::CollectingSink sink;
  core::FindAlgorithm(algo_name)->run(ctx, g, sink);
  ctx.cache().FlushAll();
  BackendRun out;
  out.triangles = sink.triangles();
  std::sort(out.triangles.begin(), out.triangles.end());
  out.io = ctx.cache().stats();
  return out;
}

/// The generator specs of the differential matrix: a random graph, a skewed
/// R-MAT, a dense core with periphery, and a planted-triangle instance —
/// plus a triangle-free control.
std::vector<test::GraphCase> DifferentialCases() {
  std::vector<test::GraphCase> cases;
  cases.push_back({"gnm", Gnm(512, 2048, 7)});
  cases.push_back({"rmat", Rmat(9, 1500, 0.45, 0.22, 0.22, 13)});
  cases.push_back({"clique_plus_path", CliquePlusPath(14, 60)});
  cases.push_back({"planted", PlantedTriangles(300, 600, 40, 99)});
  cases.push_back({"bipartite_control", BipartiteRandom(40, 40, 300, 5)});
  return cases;
}

TEST(StorageBackends, FullAlgorithmMatrixIsObservationallyIdentical) {
  const std::size_t m = 1 << 10, b = 16;
  for (const test::GraphCase& gc : DifferentialCases()) {
    for (const core::AlgorithmInfo& a : core::AllAlgorithms()) {
      SCOPED_TRACE(gc.name + " / " + a.name);
      BackendRun mem = RunOn(em::StorageKind::kMemory, a.name, gc.edges, m, b,
                             /*seed=*/0xD1FF);
      BackendRun file = RunOn(em::StorageKind::kFile, a.name, gc.edges, m, b,
                              /*seed=*/0xD1FF);
      EXPECT_EQ(mem.triangles, file.triangles);
      EXPECT_EQ(mem.io.block_reads, file.io.block_reads);
      EXPECT_EQ(mem.io.block_writes, file.io.block_writes);
      EXPECT_EQ(mem.io.cache_hits, file.io.cache_hits);
    }
  }
}

TEST(StorageBackends, MatrixAcrossHierarchyShapes) {
  // Same differential, sweeping (M, B) so line granularity and cache
  // pressure both vary; one algorithm per family keeps runtime sane.
  const std::vector<Edge> raw = Gnm(400, 1600, 21);
  for (auto [m, b] : std::vector<std::pair<std::size_t, std::size_t>>{
           {256, 8}, {1 << 10, 16}, {1 << 12, 64}}) {
    for (const char* name : {"ps-cache-aware", "ps-cache-oblivious", "mgt"}) {
      SCOPED_TRACE(std::string(name) + " M=" + std::to_string(m) +
                   " B=" + std::to_string(b));
      BackendRun mem =
          RunOn(em::StorageKind::kMemory, name, raw, m, b, /*seed=*/0xABCD);
      BackendRun file =
          RunOn(em::StorageKind::kFile, name, raw, m, b, /*seed=*/0xABCD);
      EXPECT_EQ(mem.triangles, file.triangles);
      EXPECT_EQ(mem.io.block_reads, file.io.block_reads);
      EXPECT_EQ(mem.io.block_writes, file.io.block_writes);
      EXPECT_EQ(mem.io.cache_hits, file.io.cache_hits);
    }
  }
}

TEST(StorageBackends, FileBackendSurvivesDeviceFootprint100xM) {
  // Out-of-core acceptance: device footprint >= 100x the internal memory.
  // Only O(M) words may be resident; everything else round-trips the file.
  const std::size_t m = 1 << 10, b = 16;
  em::Context ctx = test::MakeFileContext(m, b);
  const std::size_t n = 100 * m + 1;
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(n);
  ASSERT_GE(ctx.device().peak_words(), 100 * m);
  for (std::size_t i = 0; i < n; ++i) a.Set(i, i * 2654435761ULL);
  for (std::size_t i = 0; i < n; i += 997) {
    ASSERT_EQ(a.Get(i), i * 2654435761ULL) << i;
  }
  // The cache really evicted to disk: real traffic must exceed M words.
  const em::StorageTelemetry& tel = ctx.device().backend().telemetry();
  EXPECT_GT(tel.bytes_written, m * sizeof(em::Word));
}

TEST(StorageBackends, NeverWrittenWordsReadAsZeroOnBothBackends) {
  for (em::StorageKind kind : {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    em::Context ctx = test::MakeContext(256, 16, 0x7001, kind);
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(4096);
    for (std::size_t i = 0; i < 4096; i += 313) EXPECT_EQ(a.Get(i), 0u);
  }
}

TEST(StorageBackends, UncountedWindowsPreserveDataAndStats) {
  // Mixed counted/uncounted access, as the normalization pipeline does it:
  // uncounted writes must be durable on both backends (write-through on the
  // file backend) and must leave the counted-region stats identical.
  auto drive = [](em::StorageKind kind) {
    em::Context ctx = test::MakeContext(/*m=*/128, /*b=*/8, 0x7001, kind);
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(2048);
    ctx.cache().set_counting(false);
    for (std::size_t i = 0; i < 2048; ++i) a.Set(i, i + 1);
    ctx.cache().set_counting(true);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < 2048; ++i) sum += a.Get(i);
    ctx.cache().set_counting(false);
    for (std::size_t i = 0; i < 2048; i += 2) a.Set(i, 0);  // uncounted patch
    ctx.cache().set_counting(true);
    for (std::size_t i = 0; i < 2048; ++i) sum += 3 * a.Get(i);
    ctx.cache().FlushAll();
    return std::pair<std::uint64_t, em::IoStats>(sum, ctx.cache().stats());
  };
  auto [sum_mem, io_mem] = drive(em::StorageKind::kMemory);
  auto [sum_file, io_file] = drive(em::StorageKind::kFile);
  EXPECT_EQ(sum_mem, sum_file);
  EXPECT_EQ(io_mem.block_reads, io_file.block_reads);
  EXPECT_EQ(io_mem.block_writes, io_file.block_writes);
  EXPECT_EQ(io_mem.cache_hits, io_file.cache_hits);
}

TEST(StorageBackends, BulkDmaOfPaddedRecordsRoundTrips) {
  // uint32 records are word-padded: the bulk DMA path must pack/unpack
  // identically on every backend.
  for (em::StorageKind kind : {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    em::Context ctx = test::MakeContext(128, 8, 0x7001, kind);
    em::Array<std::uint32_t> a = ctx.Alloc<std::uint32_t>(1000);
    std::vector<std::uint32_t> host(1000);
    for (std::size_t i = 0; i < 1000; ++i) host[i] = static_cast<std::uint32_t>(i * 7 + 1);
    a.WriteFrom(0, 1000, host.data());
    std::vector<std::uint32_t> back(1000, 0);
    a.ReadTo(0, 1000, back.data());
    EXPECT_EQ(host, back);
    // Element access agrees with bulk access.
    EXPECT_EQ(a.Get(999), host[999]);
  }
}

TEST(StorageBackends, FileBackendReportsRealTraffic) {
  em::Context ctx = test::MakeFileContext(/*m=*/128, /*b=*/8);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(4096);
  for (std::size_t i = 0; i < 4096; ++i) a.Set(i, i);
  ctx.cache().FlushAll();
  const em::StorageTelemetry& tel = ctx.device().backend().telemetry();
  EXPECT_EQ(std::string(ctx.device().backend().name()), "file");
  // A 4096-word sequential write through a 16-line cache must move real
  // bytes: all data ends up in the file.
  EXPECT_GE(tel.bytes_written, 4096 * sizeof(em::Word));
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < 4096; ++i) sum += a.Get(i);
  EXPECT_EQ(sum, 4096ull * 4095 / 2);
  EXPECT_GT(tel.bytes_read, 0u);
}

TEST(StorageBackends, MemoryBackendPerformsNoRealTransfers) {
  // The counting-only path must never move data through the backend API —
  // that is what "every I/O is simulated" means.
  em::Context ctx = test::MakeContext(128, 8);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(4096);
  for (std::size_t i = 0; i < 4096; ++i) a.Set(i, i);
  ctx.cache().FlushAll();
  const em::StorageTelemetry& tel = ctx.device().backend().telemetry();
  EXPECT_EQ(tel.bytes_read, 0u);
  EXPECT_EQ(tel.bytes_written, 0u);
}

TEST(StorageBackends, ResetPreservesStagedData) {
  // Reset drops accounting state, never data — dirty staged lines must be
  // flushed to the file, not discarded.
  em::Context ctx = test::MakeFileContext(128, 8);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(512);
  for (std::size_t i = 0; i < 512; ++i) a.Set(i, i ^ 0xABCDULL);
  ctx.cache().Reset();
  EXPECT_EQ(ctx.cache().stats().total_ios(), 0u);
  for (std::size_t i = 0; i < 512; ++i) ASSERT_EQ(a.Get(i), i ^ 0xABCDULL);
}

TEST(StorageBackends, RegionReuseIsCoherentOnFileBackend) {
  // Release + re-Allocate reuses device addresses; stale resident lines from
  // the previous region must not resurrect old data over new writes.
  em::Context ctx = test::MakeFileContext(128, 8);
  em::Addr base0;
  {
    auto region = ctx.Region();
    em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(1024);
    base0 = a.base();
    for (std::size_t i = 0; i < 1024; ++i) a.Set(i, 111);
  }
  {
    auto region = ctx.Region();
    em::Array<std::uint64_t> b = ctx.Alloc<std::uint64_t>(1024);
    ASSERT_EQ(b.base(), base0);  // same addresses, new lifetime
    for (std::size_t i = 0; i < 1024; ++i) b.Set(i, 222);
    for (std::size_t i = 0; i < 1024; i += 101) ASSERT_EQ(b.Get(i), 222u);
  }
}

}  // namespace
}  // namespace trienum
