// Smoke tests for the `trienum` CLI driver: shells out to the built binary
// (path injected by tests/CMakeLists.txt as TRIENUM_CLI_PATH) and checks
// `list` against the registry and `count` against the host reference.
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cctype>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/algorithms.h"
#include "core/reference.h"
#include "graph/generators.h"

namespace trienum {
namespace {

// Runs `TRIENUM_CLI_PATH <args>`, captures stdout, and returns it; fails the
// test if the process does not exit cleanly with `expected_status`.
std::string RunCli(const std::string& args, int expected_status = 0) {
  // Quote the binary path: the build directory may contain spaces.
  std::string cmd = "\"" TRIENUM_CLI_PATH "\" " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return "";
  std::string out;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), n);
  }
  int rc = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(rc)) << cmd;
  EXPECT_EQ(WEXITSTATUS(rc), expected_status) << cmd << "\noutput:\n" << out;
  return out;
}

// Extracts the value of a "key = value" report line.
std::string ReportValue(const std::string& out, const std::string& key) {
  std::string needle = key + " = ";
  std::size_t pos = out.find(needle);
  if (pos == std::string::npos) {
    ADD_FAILURE() << "no '" << needle << "' line in:\n" << out;
    return "";
  }
  std::size_t start = pos + needle.size();
  std::size_t end = out.find('\n', start);
  return out.substr(start, end - start);
}

TEST(CliSmoke, ListPrintsEveryRegisteredAlgorithm) {
  std::string out = RunCli("list");
  for (const core::AlgorithmInfo& a : core::AllAlgorithms()) {
    EXPECT_NE(out.find(a.name), std::string::npos)
        << "missing '" << a.name << "' in:\n" << out;
  }
  EXPECT_NE(out.find("reference"), std::string::npos);
}

TEST(CliSmoke, CountMatchesReferenceOnRmat) {
  const std::string spec = "rmat:scale=8,m=2000,seed=11";
  std::uint64_t expected =
      core::CountTrianglesHost(graph::Rmat(8, 2000, 0.45, 0.22, 0.22, 11));
  ASSERT_GT(expected, 0u) << "degenerate fixture: fixture graph has no triangles";

  std::string em_out = RunCli(
      "count --algo=ps-cache-aware --graph=" + spec +
      " --memory=2048 --block=32 --seed=7");
  EXPECT_EQ(ReportValue(em_out, "triangles"), std::to_string(expected));

  std::string ref_out = RunCli("count --algo=reference --graph=" + spec);
  EXPECT_EQ(ReportValue(ref_out, "triangles"), std::to_string(expected));
}

TEST(CliSmoke, CountReportsIoAndPredictedBound) {
  std::string out = RunCli(
      "count --algo=ps-cache-oblivious --graph=clique:k=24"
      " --memory=1024 --block=16");
  EXPECT_EQ(ReportValue(out, "triangles"), "2024");  // C(24,3)
  EXPECT_GT(std::stoull(ReportValue(out, "block_ios")), 0u);
  EXPECT_GT(std::stod(ReportValue(out, "predicted_bound")), 0.0);
  EXPECT_GT(std::stod(ReportValue(out, "lower_bound")), 0.0);
}

TEST(CliSmoke, EnumeratePrintsTriangles) {
  std::string out = RunCli(
      "enumerate --algo=ps-deterministic --graph=cycle:n=3"
      " --memory=1024 --block=16");
  EXPECT_NE(out.find("triangle 0 1 2"), std::string::npos) << out;
  EXPECT_EQ(ReportValue(out, "triangles"), "1");
}

TEST(CliSmoke, UnknownAlgorithmFails) {
  RunCli("count --algo=definitely-not-an-algo --graph=clique:k=5",
         /*expected_status=*/2);
}

TEST(CliSmoke, FileBackendMatchesMemoryBackend) {
  // End-to-end differential: same run on both storage backends must report
  // the same triangles AND the same simulated block I/Os (the IoStats
  // backend-independence guarantee), while only the file backend moves real
  // bytes.
  const std::string common =
      "count --algo=ps-cache-aware --graph=rmat:scale=8,m=2000,seed=11"
      " --memory=2048 --block=32 --seed=7";
  std::string mem = RunCli(common + " --backend=memory");
  std::string file = RunCli(common + " --backend=file");
  EXPECT_EQ(ReportValue(mem, "backend"), "memory");
  EXPECT_EQ(ReportValue(file, "backend"), "file");
  EXPECT_EQ(ReportValue(mem, "triangles"), ReportValue(file, "triangles"));
  EXPECT_EQ(ReportValue(mem, "block_reads"), ReportValue(file, "block_reads"));
  EXPECT_EQ(ReportValue(mem, "block_writes"), ReportValue(file, "block_writes"));
  EXPECT_EQ(ReportValue(mem, "real_bytes_read"), "0");
  EXPECT_GT(std::stoull(ReportValue(file, "real_bytes_read")), 0u);
}

TEST(CliSmoke, InvalidBackendFails) {
  RunCli("count --algo=ps-cache-aware --graph=clique:k=5 --backend=floppy",
         /*expected_status=*/2);
  RunCli("count --algo=ps-cache-aware --graph=clique:k=5 --backend=mmap",
         /*expected_status=*/2);
}

TEST(CliSmoke, NonexistentTempDirFails) {
  RunCli(
      "count --algo=ps-cache-aware --graph=clique:k=5 --backend=file"
      " --temp-dir=/nonexistent-trienum-dir",
      /*expected_status=*/2);
}

TEST(CliSmoke, ThreadsFlagIsEchoedAndLeavesResultsAndIoUnchanged) {
  // --threads must change wall clock at most: same triangles, same counted
  // block I/Os, same internal work as the serial run (the par subsystem's
  // IoStats-invariance contract, end to end through the CLI).
  const std::string common =
      "count --algo=mgt --graph=rmat:scale=8,m=2000,seed=11"
      " --memory=2048 --block=32 --seed=7";
  std::string serial = RunCli(common + " --threads=1");
  std::string par = RunCli(common + " --threads=7");
  EXPECT_EQ(ReportValue(serial, "threads"), "1");
  EXPECT_EQ(ReportValue(par, "threads"), "7");
  EXPECT_EQ(ReportValue(par, "triangles"), ReportValue(serial, "triangles"));
  EXPECT_EQ(ReportValue(par, "block_reads"), ReportValue(serial, "block_reads"));
  EXPECT_EQ(ReportValue(par, "block_writes"),
            ReportValue(serial, "block_writes"));
  EXPECT_EQ(ReportValue(par, "block_ios"), ReportValue(serial, "block_ios"));
  EXPECT_EQ(ReportValue(par, "internal_work"),
            ReportValue(serial, "internal_work"));
}

TEST(CliSmoke, ThreadsZeroResolvesToHardwareConcurrency) {
  std::string out = RunCli(
      "count --algo=ps-cache-aware --graph=clique:k=8"
      " --memory=1024 --block=16 --threads=0");
  // 0 = all hardware cores: the echoed value is the resolved count, >= 1.
  EXPECT_GE(std::stoull(ReportValue(out, "threads")), 1u);
  EXPECT_EQ(ReportValue(out, "triangles"), "56");  // C(8,3)
}

TEST(CliSmoke, ThreadsDefaultIsOne) {
  std::string out = RunCli(
      "count --algo=ps-cache-aware --graph=clique:k=5 --memory=1024 --block=16");
  EXPECT_EQ(ReportValue(out, "threads"), "1");
}

TEST(CliSmoke, InvalidThreadsFails) {
  RunCli("count --algo=mgt --graph=clique:k=5 --threads=lots",
         /*expected_status=*/2);
}

TEST(CliSmoke, InvalidKernelsFails) {
  // There is one kernel per operation and no flag to pick one: any
  // --kernels value is an unknown option.
  for (const char* value : {"sse9", "scalar", "auto"}) {
    RunCli(std::string("count --algo=mgt --graph=clique:k=5 --kernels=") +
               value,
           /*expected_status=*/2);
  }
}

TEST(CliSmoke, SeedIsEchoedInTheReport) {
  std::string out = RunCli(
      "count --algo=ps-cache-aware --graph=clique:k=6 --memory=1024"
      " --block=16 --seed=424242");
  EXPECT_EQ(ReportValue(out, "seed"), "424242");
  // Default master seed when --seed is absent.
  std::string def = RunCli(
      "count --algo=ps-cache-aware --graph=clique:k=6 --memory=1024 --block=16");
  EXPECT_EQ(ReportValue(def, "seed"), "2014");
}

TEST(CliSmoke, UnknownOptionFailsWithUsageHint) {
  RunCli("count --algo=mgt --graph=clique:k=5 --definitely-bogus=1",
         /*expected_status=*/2);
  // --script is a `trienum query` option; count must still reject it.
  RunCli("count --algo=mgt --graph=clique:k=5 --script=/dev/null",
         /*expected_status=*/2);
  RunCli("count --algo=mgt --graph=clique:k=5 --prefetch=8",
         /*expected_status=*/2);
}

// Writes `content` to a unique temp file whose name ends in `suffix` and
// returns its path; the file is removed when the returned guard dies.
struct TempScript {
  std::string path;
  explicit TempScript(const std::string& content,
                      const std::string& suffix = "") {
    std::string tmpl = "/tmp/trienum-test-script-XXXXXX" + suffix;
    int fd = mkstemps(tmpl.data(), static_cast<int>(suffix.size()));
    EXPECT_GE(fd, 0);
    path = tmpl;
    EXPECT_EQ(write(fd, content.data(), content.size()),
              static_cast<ssize_t>(content.size()));
    close(fd);
  }
  ~TempScript() { unlink(path.c_str()); }
};

TEST(CliSmoke, GarbageBinaryEdgeFileFails) {
  // 13 bytes: an 8-byte header declaring a huge edge count, then 5 bytes
  // that are not even one whole edge. Must be a clean usage error, not an
  // allocation abort.
  TempScript bin(std::string("\xff\xff\xff\xff\xff\xff\xff\x7f" "abcde", 13),
                 ".bin");
  RunCli("count --algo=mgt --graph=" + bin.path, /*expected_status=*/2);
}

TEST(CliSmoke, NegativeIdInTextEdgeFileFails) {
  // The triangle {1, 2, 3} loads; the same lines with the first id written
  // as -18446744073709551615, which wraps to 1, are a usage error.
  TempScript good("1 2\n2 3\n1 3\n", ".txt");
  EXPECT_EQ(ReportValue(RunCli("count --algo=mgt --graph=" + good.path),
                        "triangles"),
            "1");
  TempScript bad("-18446744073709551615 2\n2 3\n1 3\n", ".txt");
  RunCli("count --algo=mgt --graph=" + bad.path, /*expected_status=*/2);
}

// One row per generator spec at, or just past, a generator precondition.
struct GeneratorSpecRow {
  const char* spec;
  bool in_range;
};

constexpr GeneratorSpecRow kGeneratorSpecRows[] = {
    // Each breaks one precondition, or asks for more edges than a vector
    // can hold.
    {"gnm:n=1,m=0", false},
    {"gnm:n=3,m=100", false},
    {"planted:n=10,m=100,t=1", false},
    {"planted:n=3,m=2,t=100", false},
    {"ba:n=5,attach=10", false},
    {"ba:n=100,attach=0", false},
    {"ws:n=10,k=20,beta=0.1", false},
    {"ws:n=100,k=0", false},
    {"ws:n=100,k=2,beta=5", false},
    {"ws:n=100,k=2,beta=-1", false},
    {"bipartite:l=0,r=5,m=3", false},
    {"clique:k=4294967295", false},
    {"tripartite:a=4000000000,b=4000000000,c=1", false},
    // The boundary values themselves.
    {"gnm:n=2,m=1", true},
    {"gnm:n=3,m=3", true},
    {"planted:n=3,m=3,t=1", true},
    {"ba:n=5,attach=4", true},
    {"ws:n=9,k=4,beta=0", true},
    {"ws:n=9,k=4,beta=1", true},
    {"bipartite:l=1,r=5,m=5", true},
};

class GeneratorSpecLimits
    : public ::testing::TestWithParam<GeneratorSpecRow> {};

TEST_P(GeneratorSpecLimits, OutOfRangeFailsCleanlyAndBoundaryRuns) {
  // An out-of-range spec is a usage error with exit 2 and no report from
  // every command that builds a graph, never an abort. A boundary spec
  // runs, and an EM algorithm agrees with the host reference on it.
  const GeneratorSpecRow& row = GetParam();
  const std::string graph = std::string(" --graph=") + row.spec;
  if (row.in_range) {
    const std::string ref = RunCli("count --algo=reference" + graph);
    const std::string em = RunCli("count --algo=mgt" + graph +
                                  " --memory=1024 --block=16");
    EXPECT_EQ(ReportValue(em, "triangles"), ReportValue(ref, "triangles"));
    return;
  }
  TempScript script("count\n");
  for (const std::string& args :
       {"count --algo=reference" + graph, "enumerate --algo=mgt" + graph,
        "query --script=" + script.path + graph}) {
    EXPECT_EQ(RunCli(args, /*expected_status=*/2), "") << args;
  }
}

INSTANTIATE_TEST_SUITE_P(
    CliSmoke, GeneratorSpecLimits, ::testing::ValuesIn(kGeneratorSpecRows),
    [](const ::testing::TestParamInfo<GeneratorSpecRow>& info) {
      std::string name = info.param.spec;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(CliSmoke, MemoryBelowAFixedScratchLeaseFailsCleanly) {
  // Both algorithms lease a fixed-size host buffer larger than M=16; the
  // query must fail with a Status (exit 2), not abort.
  for (const char* algo : {"ps-cache-oblivious", "chu-cheng"}) {
    RunCli(std::string("count --algo=") + algo +
               " --graph=rmat:scale=8,m=2000,seed=11 --memory=16 --block=4",
           /*expected_status=*/2);
  }
}

TEST(CliSmoke, MemoryBeyondTheCacheLineLimitFailsCleanly) {
  // 1e12 words in 64-word lines is more lines than the cache can index: a
  // usage error before any allocation is tried, not a bad_alloc abort.
  EXPECT_EQ(RunCli("count --algo=mgt --graph=clique:k=5 --memory=1000000000000",
                   /*expected_status=*/2),
            "");
}

TEST(CliSmoke, FlipFaultWithoutChecksumsFailsCleanly) {
  // Without --verify-checksums a flipped bit would reach normalization as
  // silent corruption; the spec is a usage error on both backends.
  for (const char* backend : {"memory", "file"}) {
    EXPECT_EQ(RunCli(std::string("count --graph=rmat:scale=8,m=2000") +
                         " --backend=" + backend +
                         " --faults=read:flip:every=1",
                     /*expected_status=*/2),
              "")
        << backend;
  }
}

TEST(CliSmoke, MergeFanInFitsItsLeaseAtSmallMemory) {
  // M=136, B=4: M/(2B) = 17 would pad to a 32-leaf loser tree whose lease
  // exceeds M. The capped fan-in must run and match the reference.
  const std::string spec = "rmat:scale=8,m=2000,seed=11";
  const std::string expected =
      ReportValue(RunCli("count --algo=reference --graph=" + spec), "triangles");
  for (const char* algo : {"dementiev", "ps-deterministic"}) {
    std::string out = RunCli(std::string("count --algo=") + algo +
                             " --graph=" + spec + " --memory=136 --block=4");
    EXPECT_EQ(ReportValue(out, "triangles"), expected) << algo;
  }
}

TEST(CliFaults, TransientScheduleLeavesTheReportBitIdentical) {
  // The recovery contract end to end through the CLI: a seeded transient
  // fault schedule changes only the recovery_* lines — triangles and every
  // counted I/O number match the clean run exactly.
  const std::string common =
      "count --algo=ps-cache-aware --graph=rmat:scale=8,m=2000,seed=11"
      " --memory=2048 --block=32 --seed=7";
  std::string clean = RunCli(common);
  std::string faulted = RunCli(
      common + " \"--faults=read:eio:every=7;write:short:every=9\"");
  for (const char* key : {"triangles", "block_reads", "block_writes",
                          "block_ios", "internal_work"}) {
    EXPECT_EQ(ReportValue(faulted, key), ReportValue(clean, key)) << key;
  }
  EXPECT_EQ(ReportValue(clean, "recovery_retries"), "0");
  EXPECT_GT(std::stoull(ReportValue(faulted, "recovery_retries")), 0u);
  EXPECT_EQ(ReportValue(faulted, "recovery_retries"),
            ReportValue(faulted, "recovery_faults_injected"));
}

TEST(CliFaults, ChecksumsDetectFlipsOnTheFileBackend) {
  const std::string common =
      "count --algo=ps-cache-aware --graph=rmat:scale=8,m=2000,seed=11"
      " --memory=2048 --block=32 --seed=7 --backend=file";
  std::string clean = RunCli(common);
  std::string sums = RunCli(common +
                            " --verify-checksums --faults=read:flip:every=5");
  EXPECT_EQ(ReportValue(sums, "triangles"), ReportValue(clean, "triangles"));
  EXPECT_EQ(ReportValue(sums, "block_ios"), ReportValue(clean, "block_ios"));
  EXPECT_GT(std::stoull(ReportValue(sums, "recovery_checksum_failures")), 0u);
}

TEST(CliFaults, PermanentFaultDiesCleanly) {
  RunCli(
      "count --algo=mgt --graph=clique:k=16 --memory=1024 --block=16"
      " --faults=read:eio:at=10,perm=1",
      /*expected_status=*/2);
}

TEST(CliFaults, BadFaultSpecOrRetryFlagsFail) {
  RunCli("count --graph=clique:k=5 --faults=bogus:eio:every=3",
         /*expected_status=*/2);
  RunCli("count --graph=clique:k=5 --faults=read:eio",  // no trigger
         /*expected_status=*/2);
  RunCli("count --graph=clique:k=5 --io-retries=none", /*expected_status=*/2);
  RunCli("count --graph=clique:k=5 --verify-checksums=maybe",
         /*expected_status=*/2);
}

TEST(CliFaults, MkstempFailureDiesCleanlyInsteadOfAborting) {
  // /proc/sys passes the is_directory pre-check but mkstemp cannot create a
  // file there (even as root), so this exercises the FileBackend's latched
  // init_status path: a clean diagnostic and exit 2, not an abort.
  RunCli(
      "count --algo=ps-cache-aware --graph=clique:k=5 --backend=file"
      " --temp-dir=/proc/sys",
      /*expected_status=*/2);
}

TEST(CliQuery, ScriptAnswersEveryQueryWithPerQueryIo) {
  TempScript script(
      "# comment line\n"
      "count --algo=mgt\n"
      "\n"
      "count --algo=ps-cache-aware --seed=77\n"
      "enumerate --algo=ps-deterministic --limit=2\n");
  std::string out = RunCli("query --graph=clique:k=8 --memory=1024 --block=16"
                           " --script=" + script.path);
  EXPECT_EQ(ReportValue(out, "queries"), "3");
  // Every query reports its own measurement block; all count C(8,3) = 56.
  std::size_t pos = 0;
  int blocks = 0;
  while ((pos = out.find("triangles = ", pos)) != std::string::npos) {
    ++blocks;
    pos += 1;
  }
  EXPECT_EQ(blocks, 3);
  EXPECT_EQ(ReportValue(out, "triangles"), "56");
  EXPECT_NE(out.find("query = 3"), std::string::npos) << out;
  EXPECT_NE(out.find("kind = enumerate"), std::string::npos) << out;
  EXPECT_NE(out.find("triangle 0 1 2"), std::string::npos) << out;
  // Per-query seed echo: the second query overrides the master seed.
  EXPECT_NE(out.find("seed = 77"), std::string::npos) << out;
}

TEST(CliQuery, RepeatedQueryReportsIdenticalIoToItsFirstRun) {
  // The session-reuse invariant through the CLI: the same query run twice in
  // one batch must report bit-identical I/O counters both times.
  TempScript script(
      "count --algo=ps-cache-aware\n"
      "count --algo=mgt\n"
      "count --algo=ps-cache-aware\n");
  std::string out = RunCli(
      "query --graph=rmat:scale=7,m=900,seed=5 --memory=2048 --block=32"
      " --script=" + script.path);
  std::size_t q1 = out.find("query = 1");
  std::size_t q2 = out.find("query = 2");
  std::size_t q3 = out.find("query = 3");
  ASSERT_NE(q1, std::string::npos);
  ASSERT_NE(q3, std::string::npos);
  std::string first = out.substr(q1, q2 - q1);
  std::string third = out.substr(q3);
  for (const char* key : {"triangles", "block_reads", "block_writes",
                          "block_ios", "internal_work", "device_peak_words"}) {
    EXPECT_EQ(ReportValue(first, key), ReportValue(third, key)) << key;
  }
}

TEST(CliQuery, PerVertexAndPerEdgeKindsWork) {
  TempScript script(
      "per-vertex --limit=3\n"
      "per-edge --limit=3\n");
  std::string out = RunCli("query --graph=cycle:n=3 --memory=1024 --block=16"
                           " --script=" + script.path);
  // One triangle: every vertex in it once, every edge supporting it once.
  EXPECT_NE(out.find("vertex 0 1"), std::string::npos) << out;
  EXPECT_NE(out.find("edge-support 0 1 1"), std::string::npos) << out;
  EXPECT_EQ(ReportValue(out, "triangles"), "1");
}

// ---------------------------------------------------------------------------
// Observability surface: version, --report=json, --trace, --metrics-json.

// Minimal structural JSON validation: balanced braces/brackets outside
// strings, and the document starts/ends as one object. The obs unit tests
// and the CI smoke step run real parsers; this keeps the smoke test
// dependency-free.
void ExpectBalancedJsonObject(const std::string& doc) {
  ASSERT_FALSE(doc.empty());
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char ch : doc) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (ch == '\\') escaped = true;
      if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  std::size_t first = doc.find_first_not_of(" \t\r\n");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(doc[first], '{');
}

// Reads a whole file; fails the test if it does not exist.
std::string Slurp(const std::string& path) {
  FILE* f = fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return "";
  std::string out;
  std::array<char, 4096> buf;
  std::size_t n;
  while ((n = fread(buf.data(), 1, buf.size(), f)) > 0) out.append(buf.data(), n);
  fclose(f);
  return out;
}

TEST(CliObs, VersionReportsBuildProvenance) {
  std::string out = RunCli("version");
  EXPECT_FALSE(ReportValue(out, "compiler").empty());
  EXPECT_FALSE(ReportValue(out, "build_type").empty());
  EXPECT_FALSE(ReportValue(out, "native").empty());

  std::string json = RunCli("version --report=json");
  ExpectBalancedJsonObject(json);
  EXPECT_NE(json.find("\"build_info\""), std::string::npos);
  EXPECT_NE(json.find("\"native\""), std::string::npos);
}

TEST(CliObs, ReportJsonCarriesTheSameNumbersAsText) {
  const std::string common =
      "count --algo=mgt --graph=rmat:scale=8,m=2000,seed=11"
      " --memory=2048 --block=32 --seed=7";
  std::string text = RunCli(common);
  std::string json = RunCli(common + " --report=json");
  ExpectBalancedJsonObject(json);
  // The JSON document carries the same triangle count and I/O totals.
  EXPECT_NE(json.find("\"triangles\":" + ReportValue(text, "triangles")),
            std::string::npos) << json;
  EXPECT_NE(json.find("\"block_reads\":" + ReportValue(text, "block_reads")),
            std::string::npos) << json;
  EXPECT_NE(json.find("\"command\":\"count\""), std::string::npos);
}

TEST(CliObs, TraceAndMetricsFilesAreWrittenAndLeaveResultsUnchanged) {
  char dir_tmpl[] = "/tmp/trienum-test-obs-XXXXXX";
  ASSERT_NE(mkdtemp(dir_tmpl), nullptr);
  const std::string dir = dir_tmpl;
  const std::string trace_path = dir + "/t.json";
  const std::string metrics_path = dir + "/m.json";
  const std::string common =
      "count --algo=mgt --backend=file --graph=rmat:scale=8,m=2000,seed=11"
      " --memory=2048 --block=32 --seed=7";

  std::string plain = RunCli(common);
  std::string traced = RunCli(common + " --trace=" + trace_path +
                              " --metrics-json=" + metrics_path);
  // Tracing is bit-invisible to the report.
  for (const char* key : {"triangles", "block_reads", "block_writes",
                          "block_ios", "internal_work"}) {
    EXPECT_EQ(ReportValue(traced, key), ReportValue(plain, key)) << key;
  }
  // The traced report additionally carries the phase table.
  EXPECT_EQ(plain.find("phase "), std::string::npos);
  EXPECT_NE(traced.find("phase pivot.cone_scan"), std::string::npos) << traced;

  std::string trace_doc = Slurp(trace_path);
  ExpectBalancedJsonObject(trace_doc);
  EXPECT_NE(trace_doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_doc.find("\"graph.load\""), std::string::npos);
  EXPECT_NE(trace_doc.find("\"query.run\""), std::string::npos);
  // The query's operating point rides on its root span.
  EXPECT_NE(trace_doc.find("\"memory_words\":2048"), std::string::npos);
  EXPECT_NE(trace_doc.find("\"block_words\":32"), std::string::npos);

  std::string metrics_doc = Slurp(metrics_path);
  ExpectBalancedJsonObject(metrics_doc);
  EXPECT_NE(metrics_doc.find("\"build_info\""), std::string::npos);
  EXPECT_NE(metrics_doc.find("\"phases\""), std::string::npos);
  EXPECT_NE(metrics_doc.find("storage.file.read_syscall_ns"),
            std::string::npos) << "file-backend syscall histogram missing";

  unlink(trace_path.c_str());
  unlink(metrics_path.c_str());
  rmdir(dir.c_str());
}

TEST(CliObs, ReportJsonRejectedInQueryModeAndReferenceRejectsTrace) {
  TempScript script("count --algo=mgt\n");
  RunCli("query --graph=clique:k=5 --script=" + script.path + " --report=json",
         /*expected_status=*/2);
  RunCli("count --algo=reference --graph=clique:k=5 --trace=/tmp/nope.json",
         /*expected_status=*/2);
  RunCli("count --algo=mgt --graph=clique:k=5 --report=yaml",
         /*expected_status=*/2);
}

TEST(CliQuery, MissingScriptFails) {
  RunCli("query --graph=clique:k=5", /*expected_status=*/2);
  RunCli("query --graph=clique:k=5 --script=/nonexistent-trienum-script",
         /*expected_status=*/2);
}

TEST(CliQuery, BadScriptLineFails) {
  TempScript script("frobnicate --algo=mgt\n");
  RunCli("query --graph=clique:k=5 --script=" + script.path,
         /*expected_status=*/2);
  TempScript script2("count --bogus=1\n");
  RunCli("query --graph=clique:k=5 --script=" + script2.path,
         /*expected_status=*/2);
}

}  // namespace
}  // namespace trienum
