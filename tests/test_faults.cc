// The fault-injection and recovery suite.
//
// Unit layers: the spec parser (FaultSpec), the deterministic injector
// (FaultInjection), and the retry/checksum decorator (Recovery). Integration
// (Faults): the hard contract that under any transient fault schedule a
// query's triangles, emission order, and counted IoStats are bit-identical
// to a clean run — across the full algorithm x backend x threads matrix —
// while a permanent fault fails only that query (kIoError) and the session
// survives to answer the next one bit-for-bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/cache_oblivious.h"
#include "em/storage.h"
#include "faults/fault_injection.h"
#include "faults/fault_spec.h"
#include "faults/recovery.h"
#include "graph/generators.h"
#include "query/query.h"

namespace trienum {
namespace {

using faults::FaultClause;
using faults::FaultInjectingBackend;
using faults::FaultKind;
using faults::FaultOp;
using faults::ParseFaultSpec;
using faults::RecoveringBackend;
using faults::RetryPolicy;

// ---------------------------------------------------------------------------
// Spec parser.

TEST(FaultSpec, ParsesMultiClauseSpec) {
  auto r = ParseFaultSpec(
      "read:eio:every=7;write:short:at=3,count=2;grow:enospc:at=1,perm=1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<FaultClause>& c = *r;
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c[0].op, FaultOp::kRead);
  EXPECT_EQ(c[0].kind, FaultKind::kEio);
  EXPECT_EQ(c[0].every, 7u);
  EXPECT_EQ(c[1].op, FaultOp::kWrite);
  EXPECT_EQ(c[1].kind, FaultKind::kShort);
  EXPECT_EQ(c[1].at, 3u);
  EXPECT_EQ(c[1].count, 2u);
  EXPECT_FALSE(c[1].perm);
  EXPECT_EQ(c[2].op, FaultOp::kGrow);
  EXPECT_EQ(c[2].kind, FaultKind::kEnospc);
  EXPECT_TRUE(c[2].perm);
}

TEST(FaultSpec, ParsesProbabilisticClauseAndEmptySpec) {
  auto r = ParseFaultSpec("read:eio:p=0.25");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ((*r)[0].p, 0.25);
  auto empty = ParseFaultSpec("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  for (const char* bad : {
           "bogus:eio:every=3",        // unknown op
           "read:explode:every=3",     // unknown kind
           "read:eio",                 // no trigger
           "read:eio:every=0",         // zero period
           "read:eio:at=0",            // zero ordinal
           "read:eio:p=1.5",           // probability out of range
           "read:eio:p=-0.1",          // probability out of range
           "read:eio:frequency=3",     // unknown param
           "write:flip:every=3",       // flip is read-only
           "read:enospc:every=3",      // enospc is grow-only
           "grow:short:every=3",       // short needs a transfer
           "read:eio:every=x",         // non-numeric
       }) {
    auto r = ParseFaultSpec(bad);
    EXPECT_FALSE(r.ok()) << "accepted: " << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Injector.

constexpr std::size_t kLine = 8;

// A MemoryBackend holding `words` words of the pattern value(i) = i * 3 + 1.
std::unique_ptr<em::StorageBackend> PatternBackend(std::size_t words) {
  auto mem = std::make_unique<em::MemoryBackend>();
  EXPECT_TRUE(mem->EnsureSize(words).ok());
  std::vector<em::Word> buf(words);
  for (std::size_t i = 0; i < words; ++i) buf[i] = i * 3 + 1;
  EXPECT_TRUE(mem->WriteWords(0, words, buf.data()).ok());
  return mem;
}

FaultInjectingBackend MakeInjector(const std::string& spec,
                                   std::uint64_t seed = 42,
                                   std::size_t words = 64) {
  return FaultInjectingBackend(PatternBackend(words), *ParseFaultSpec(spec),
                               seed, kLine);
}

TEST(FaultInjection, EveryNthReadFailsDeterministically) {
  FaultInjectingBackend inj = MakeInjector("read:eio:every=3");
  std::vector<em::Word> out(kLine);
  for (int n = 1; n <= 12; ++n) {
    Status st = inj.ReadWords(0, kLine, out.data());
    EXPECT_EQ(st.ok(), n % 3 != 0) << "read #" << n;
  }
  EXPECT_EQ(inj.faults_injected(), 4u);
  EXPECT_EQ(inj.op_count(FaultOp::kRead), 12u);
}

TEST(FaultInjection, AtFiresOnceAndCountCapsFirings) {
  FaultInjectingBackend at = MakeInjector("read:eio:at=2");
  std::vector<em::Word> out(kLine);
  for (int n = 1; n <= 6; ++n) {
    EXPECT_EQ(at.ReadWords(0, kLine, out.data()).ok(), n != 2) << n;
  }

  FaultInjectingBackend capped = MakeInjector("write:eintr:every=1,count=2");
  std::vector<em::Word> in(kLine, 9);
  EXPECT_FALSE(capped.WriteWords(0, kLine, in.data()).ok());
  EXPECT_FALSE(capped.WriteWords(0, kLine, in.data()).ok());
  for (int n = 3; n <= 8; ++n) {
    EXPECT_TRUE(capped.WriteWords(0, kLine, in.data()).ok()) << n;
  }
  EXPECT_EQ(capped.faults_injected(), 2u);
}

TEST(FaultInjection, PermLatchesForever) {
  FaultInjectingBackend inj = MakeInjector("read:eio:at=3,perm=1");
  std::vector<em::Word> out(kLine);
  EXPECT_TRUE(inj.ReadWords(0, kLine, out.data()).ok());
  EXPECT_TRUE(inj.ReadWords(0, kLine, out.data()).ok());
  for (int n = 3; n <= 10; ++n) {
    EXPECT_FALSE(inj.ReadWords(0, kLine, out.data()).ok()) << n;
  }
}

TEST(FaultInjection, ProbabilisticClauseIsSeedDeterministic) {
  auto sequence = [](std::uint64_t seed) {
    FaultInjectingBackend inj = MakeInjector("read:eio:p=0.5", seed);
    std::vector<em::Word> out(kLine);
    std::vector<bool> oks;
    for (int n = 0; n < 64; ++n) {
      oks.push_back(inj.ReadWords(0, kLine, out.data()).ok());
    }
    return oks;
  };
  std::vector<bool> a = sequence(7), b = sequence(7), c = sequence(8);
  EXPECT_EQ(a, b) << "same seed must fire the same faults";
  EXPECT_NE(a, c) << "different seeds must fire different faults";
  // p=0.5 over 64 ops: both outcomes must actually occur.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST(FaultInjection, FlipCorruptsOnlyVerifiableReadShapes) {
  // A flip must only land on block-aligned whole-line reads — exactly the
  // shape the recovery layer can checksum — so corruption is never injected
  // where it is undetectable by design.
  FaultInjectingBackend inj = MakeInjector("read:flip:every=1");
  auto diff_words = [&](em::Addr addr, std::size_t words) {
    std::vector<em::Word> out(words);
    EXPECT_TRUE(inj.ReadWords(addr, words, out.data()).ok());
    int diffs = 0;
    for (std::size_t i = 0; i < words; ++i) {
      if (out[i] != (addr + i) * 3 + 1) ++diffs;
    }
    return diffs;
  };
  EXPECT_EQ(diff_words(0, kLine), 1) << "aligned full line: one bit flipped";
  EXPECT_EQ(diff_words(kLine, 2 * kLine), 1) << "aligned multi-line: flipped";
  EXPECT_EQ(diff_words(1, kLine), 0) << "unaligned: must pass through clean";
  EXPECT_EQ(diff_words(0, kLine + 1), 0) << "ragged length: clean";
  EXPECT_EQ(diff_words(0, kLine - 2), 0) << "sub-line: clean";
}

TEST(FaultInjection, DisarmedInjectorIsAPurePassThrough) {
  FaultInjectingBackend inj = MakeInjector("read:eio:every=1");
  inj.set_armed(false);
  std::vector<em::Word> out(kLine);
  for (int n = 0; n < 5; ++n) {
    EXPECT_TRUE(inj.ReadWords(0, kLine, out.data()).ok());
  }
  EXPECT_EQ(inj.faults_injected(), 0u);
  EXPECT_EQ(inj.op_count(FaultOp::kRead), 0u)
      << "disarmed ops must not advance clause counters";
  inj.set_armed(true);
  EXPECT_FALSE(inj.ReadWords(0, kLine, out.data()).ok());
}

TEST(FaultInjection, GrowCountsOnlyRealExtensions) {
  FaultInjectingBackend inj(PatternBackend(64),
                            *ParseFaultSpec("grow:enospc:at=2"), 42, kLine);
  // The memory backend rounds capacity up geometrically, so "a real grow"
  // means exceeding whatever it currently holds — probe size_words() rather
  // than assuming exact sizes.
  const std::size_t base = inj.size_words();
  EXPECT_TRUE(inj.EnsureSize(base / 2).ok()) << "within capacity: not a grow";
  EXPECT_TRUE(inj.EnsureSize(base).ok()) << "exact fit: not a grow";
  EXPECT_TRUE(inj.EnsureSize(base + 1).ok()) << "grow #1";
  const std::size_t grown = inj.size_words();
  ASSERT_GT(grown, base);
  Status st = inj.EnsureSize(grown + 1);
  EXPECT_FALSE(st.ok()) << "grow #2 must hit the injected ENOSPC";
  EXPECT_NE(st.message().find("ENOSPC"), std::string::npos) << st.ToString();
  EXPECT_EQ(inj.size_words(), grown) << "the faulted grow must not extend";
}

// ---------------------------------------------------------------------------
// Recovery decorator.

TEST(Recovery, RetriesTransientFaultsToSuccess) {
  RetryPolicy policy;  // 4 retries, no backoff
  RecoveringBackend rec(
      std::make_unique<FaultInjectingBackend>(
          PatternBackend(64), *ParseFaultSpec("read:eio:every=2"), 1, kLine),
      policy, kLine);
  std::vector<em::Word> out(kLine);
  // Read ops alternate clean/faulted; every faulted attempt is retried with
  // the next op ordinal, which is clean — so the caller never sees an error.
  for (int n = 0; n < 10; ++n) {
    ASSERT_TRUE(rec.ReadWords(0, kLine, out.data()).ok()) << n;
    for (std::size_t i = 0; i < kLine; ++i) EXPECT_EQ(out[i], i * 3 + 1);
  }
  EXPECT_GT(rec.recovery().retries, 0u);
  EXPECT_EQ(rec.recovery().retries, rec.recovery().faults_injected);
}

TEST(Recovery, GivesUpAfterTheRetryBudget) {
  RetryPolicy policy;
  policy.max_retries = 3;
  RecoveringBackend rec(
      std::make_unique<FaultInjectingBackend>(
          PatternBackend(64), *ParseFaultSpec("read:eio:every=1"), 1, kLine),
      policy, kLine);
  std::vector<em::Word> out(kLine);
  Status st = rec.ReadWords(0, kLine, out.data());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(rec.recovery().retries, 3u) << "exactly the budget, then give up";
  EXPECT_EQ(rec.recovery().faults_injected, 4u) << "first attempt + retries";
}

TEST(Recovery, ChecksumsCatchSilentBitFlips) {
  RetryPolicy policy;
  policy.verify_checksums = true;
  // The first read is flipped; the checksum recorded by the write exposes
  // it, and the retry (op #2, clean) returns the true contents.
  RecoveringBackend rec(
      std::make_unique<FaultInjectingBackend>(
          PatternBackend(64), *ParseFaultSpec("read:flip:at=1"), 1, kLine),
      policy, kLine);
  std::vector<em::Word> in(kLine);
  std::iota(in.begin(), in.end(), 100);
  ASSERT_TRUE(rec.WriteWords(0, kLine, in.data()).ok());
  std::vector<em::Word> out(kLine);
  ASSERT_TRUE(rec.ReadWords(0, kLine, out.data()).ok());
  EXPECT_EQ(out, in) << "recovered read must return the written contents";
  EXPECT_EQ(rec.recovery().checksum_failures, 1u);
  EXPECT_EQ(rec.recovery().retries, 1u);
}

TEST(Recovery, WithoutChecksumsTheFlipIsSilent) {
  // The control for the test above: same schedule, checksums off — the
  // corrupt read sails through. This asymmetry is exactly what
  // --verify-checksums buys.
  RetryPolicy policy;
  RecoveringBackend rec(
      std::make_unique<FaultInjectingBackend>(
          PatternBackend(64), *ParseFaultSpec("read:flip:at=1"), 1, kLine),
      policy, kLine);
  std::vector<em::Word> in(kLine);
  std::iota(in.begin(), in.end(), 100);
  ASSERT_TRUE(rec.WriteWords(0, kLine, in.data()).ok());
  std::vector<em::Word> out(kLine);
  ASSERT_TRUE(rec.ReadWords(0, kLine, out.data()).ok());
  EXPECT_NE(out, in) << "without checksums the corruption goes undetected";
  EXPECT_EQ(rec.recovery().checksum_failures, 0u);
}

TEST(Recovery, PartialLineWriteKeepsChecksumConsistent) {
  RetryPolicy policy;
  policy.verify_checksums = true;
  RecoveringBackend rec(PatternBackend(64), policy, kLine);
  // Full-line write establishes the checksum, then an unaligned partial
  // write overlapping two lines must refresh both lines' checksums (via the
  // read-back path), so the next verified reads still pass.
  std::vector<em::Word> full(2 * kLine, 7);
  ASSERT_TRUE(rec.WriteWords(0, 2 * kLine, full.data()).ok());
  std::vector<em::Word> partial(kLine, 9);  // words [4, 12): tail of line 0,
  ASSERT_TRUE(rec.WriteWords(4, kLine, partial.data()).ok());  // head of 1
  std::vector<em::Word> out(2 * kLine);
  ASSERT_TRUE(rec.ReadWords(0, 2 * kLine, out.data()).ok());
  for (std::size_t i = 0; i < 2 * kLine; ++i) {
    EXPECT_EQ(out[i], (i >= 4 && i < 4 + kLine) ? 9u : 7u) << i;
  }
  EXPECT_EQ(rec.recovery().checksum_failures, 0u)
      << "stale checksums would have flagged the merged lines";
}

TEST(Recovery, ApplyFaultConfigValidatesAndComposesNames) {
  em::EmConfig cfg;
  cfg.fault_spec = "read:eio:everything=3";
  EXPECT_FALSE(faults::ApplyFaultConfig(cfg).ok());

  cfg.fault_spec = "read:eio:every=3";
  cfg.io_retries = -1;
  EXPECT_FALSE(faults::ApplyFaultConfig(cfg).ok());
  cfg.io_retries = 4;
  ASSERT_TRUE(faults::ApplyFaultConfig(cfg).ok());
  ASSERT_NE(cfg.wrap_backend, nullptr);
  std::unique_ptr<em::StorageBackend> stack =
      cfg.wrap_backend(std::make_unique<em::MemoryBackend>());
  EXPECT_STREQ(stack->name(), "memory+faults+recovery");
  EXPECT_FALSE(stack->memory_resident())
      << "decorated stacks must force staged cache mode";
  EXPECT_NE(faults::FindInjector(*stack), nullptr);

  // Checksums alone wrap with recovery but no injector.
  em::EmConfig sums;
  sums.verify_checksums = true;
  ASSERT_TRUE(faults::ApplyFaultConfig(sums).ok());
  std::unique_ptr<em::StorageBackend> rec_only =
      sums.wrap_backend(std::make_unique<em::MemoryBackend>());
  EXPECT_STREQ(rec_only->name(), "memory+recovery");
  EXPECT_EQ(faults::FindInjector(*rec_only), nullptr);

  // Nothing configured: the hook is cleared, the plain path stays unwrapped.
  em::EmConfig plain;
  ASSERT_TRUE(faults::ApplyFaultConfig(plain).ok());
  EXPECT_EQ(plain.wrap_backend, nullptr);
}

TEST(Recovery, ApplyFaultConfigRejectsFlipWithoutChecksums) {
  // Only checksums can see a flipped bit, so an unchecked flip clause is a
  // usage error, wherever it sits in the spec. The decorators themselves
  // still flip silently (WithoutChecksumsTheFlipIsSilent builds them
  // directly).
  em::EmConfig cfg;
  cfg.fault_spec = "read:eio:every=7;read:flip:every=5";
  Status st = faults::ApplyFaultConfig(cfg);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("checksums"), std::string::npos) << st.ToString();
  EXPECT_EQ(cfg.wrap_backend, nullptr) << "a rejected spec installs nothing";

  cfg.verify_checksums = true;
  ASSERT_TRUE(faults::ApplyFaultConfig(cfg).ok());
  EXPECT_NE(cfg.wrap_backend, nullptr);
}

// ---------------------------------------------------------------------------
// Integration: the bit-identity contract through the query layer.

constexpr std::size_t kMemWords = 1024;
constexpr std::size_t kBlockWords = 16;

std::vector<graph::Edge> FixtureEdges() { return graph::Gnm(96, 400, 0x51); }

em::EmConfig FixtureConfig(em::StorageKind storage) {
  em::EmConfig cfg;
  cfg.memory_words = kMemWords;
  cfg.block_words = kBlockWords;
  cfg.seed = 2014;
  cfg.storage = storage;
  return cfg;
}

// A transient schedule hitting both ops with two fault kinds; periods are
// coprime so no run of consecutive operations can exhaust the retry budget.
constexpr char kTransientSpec[] =
    "read:eio:every=7;write:eio:every=9;read:short:every=11;"
    "write:short:every=13";

TEST(Faults, TransientSchedulesLeaveEveryQueryBitIdentical) {
  // The tentpole contract, across the whole matrix: algorithm x backend x
  // threads. The faulted store answers every query with the
  // same triangles (values AND emission order), the same counted IoStats,
  // and the same internal work as the clean store, with all recovery
  // traffic reported separately. The graph is above §3's base, so its
  // recursion (partition writers, high-degree step, dropped child arrays)
  // runs under the retries too.
  const std::vector<graph::Edge> edges = graph::Gnm(96, 1100, 0x51);
  ASSERT_GT(edges.size(), core::kTinyBase);
  for (em::StorageKind storage :
       {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    SCOPED_TRACE(storage == em::StorageKind::kFile ? "file" : "memory");
    em::EmConfig clean_cfg = FixtureConfig(storage);
    em::EmConfig fault_cfg = FixtureConfig(storage);
    fault_cfg.fault_spec = kTransientSpec;
    ASSERT_TRUE(faults::ApplyFaultConfig(fault_cfg).ok());

    auto clean_lg = query::LoadedGraph::FromEdges(clean_cfg, edges);
    auto fault_lg = query::LoadedGraph::FromEdges(fault_cfg, edges);
    ASSERT_TRUE(clean_lg.ok()) << clean_lg.status().ToString();
    ASSERT_TRUE(fault_lg.ok()) << fault_lg.status().ToString();

    std::uint64_t total_retries = 0;
    for (const core::AlgorithmInfo& algo : core::AllAlgorithms()) {
      for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
        SCOPED_TRACE(algo.name + "/" + std::to_string(threads) + "t");
        query::Query q;
        q.kind = query::QueryKind::kEnumerate;
        q.algo = algo.name;
        q.threads = threads;
        auto clean = clean_lg->Run(q);
        auto faulted = fault_lg->Run(q);
        ASSERT_TRUE(clean.ok()) << clean.status().ToString();
        ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
        EXPECT_EQ(faulted->triangles, clean->triangles);
        EXPECT_EQ(faulted->list, clean->list)
            << "emission order must survive fault recovery";
        EXPECT_EQ(faulted->io.block_reads, clean->io.block_reads);
        EXPECT_EQ(faulted->io.block_writes, clean->io.block_writes);
        EXPECT_EQ(faulted->io.cache_hits, clean->io.cache_hits);
        EXPECT_EQ(faulted->work, clean->work);
        EXPECT_EQ(clean->recovery.retries, 0u);
        EXPECT_EQ(faulted->recovery.retries,
                  faulted->recovery.faults_injected);
        total_retries += faulted->recovery.retries;
      }
    }
    EXPECT_GT(total_retries, 0u)
        << "the schedule never fired: the matrix proved nothing";
  }
}

// Probes an identical clean-scheduled run to learn the injector's read-op
// ordinal after load (L) and after one `q` query (L + Q), so a permanent
// fault can be planted mid-query deterministically.
struct ReadOpProbe {
  std::uint64_t after_load = 0;
  std::uint64_t after_query = 0;
};

ReadOpProbe ProbeReadOps(em::StorageKind storage, const query::Query& q) {
  em::EmConfig cfg = FixtureConfig(storage);
  cfg.fault_spec = "read:eio:at=1000000000";  // installed, never fires
  EXPECT_TRUE(faults::ApplyFaultConfig(cfg).ok());
  auto lg = query::LoadedGraph::FromEdges(cfg, FixtureEdges());
  EXPECT_TRUE(lg.ok());
  faults::FaultInjectingBackend* inj =
      faults::FindInjector(lg->store().device().backend());
  EXPECT_NE(inj, nullptr);
  ReadOpProbe probe;
  probe.after_load = inj->op_count(faults::FaultOp::kRead);
  EXPECT_TRUE(lg->Run(q).ok());
  probe.after_query = inj->op_count(faults::FaultOp::kRead);
  return probe;
}

TEST(Faults, PermanentFaultFailsOnlyTheQueryAndTheSessionSurvives) {
  for (em::StorageKind storage :
       {em::StorageKind::kMemory, em::StorageKind::kFile}) {
    SCOPED_TRACE(storage == em::StorageKind::kFile ? "file" : "memory");
    query::Query q;
    q.kind = query::QueryKind::kEnumerate;
    q.algo = "ps-cache-aware";

    ReadOpProbe probe = ProbeReadOps(storage, q);
    ASSERT_GT(probe.after_query, probe.after_load + 4)
        << "fixture too small to plant a mid-query fault";
    const std::uint64_t mid =
        probe.after_load + (probe.after_query - probe.after_load) / 2;

    // The reference answer, from a fresh clean context.
    auto ref_lg =
        query::LoadedGraph::FromEdges(FixtureConfig(storage), FixtureEdges());
    ASSERT_TRUE(ref_lg.ok());
    auto ref = ref_lg->Run(q);
    ASSERT_TRUE(ref.ok());

    // The victim: identical run, permanent read fault planted mid-query.
    em::EmConfig cfg = FixtureConfig(storage);
    cfg.fault_spec = "read:eio:at=" + std::to_string(mid) + ",perm=1";
    ASSERT_TRUE(faults::ApplyFaultConfig(cfg).ok());
    auto lg = query::LoadedGraph::FromEdges(cfg, FixtureEdges());
    ASSERT_TRUE(lg.ok()) << "the fault must not fire during load";

    auto failed = lg->Run(q);
    ASSERT_FALSE(failed.ok()) << "a permanent fault must fail the query";
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError);

    // Crash consistency: the session survived with no leaked state.
    EXPECT_TRUE(lg->store().cache().fault().ok())
        << "the failed query must have discarded the latched fault";
    EXPECT_EQ(lg->session().scratch_in_use(), 0u);
    EXPECT_EQ(lg->store().device().Mark(), lg->frozen_mark())
        << "the failed query leaked device allocations";

    // Disarm the (latched) injector: the next query must run clean and
    // match the fresh-context reference bit for bit.
    faults::FaultInjectingBackend* inj =
        faults::FindInjector(lg->store().device().backend());
    ASSERT_NE(inj, nullptr);
    inj->set_armed(false);
    auto again = lg->Run(q);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->triangles, ref->triangles);
    EXPECT_EQ(again->list, ref->list);
    EXPECT_EQ(again->io.block_reads, ref->io.block_reads);
    EXPECT_EQ(again->io.block_writes, ref->io.block_writes);
    EXPECT_EQ(again->io.cache_hits, ref->io.cache_hits);
    EXPECT_EQ(again->work, ref->work);
  }
}

TEST(Faults, EnospcOnGrowFailsTheLoadGracefully) {
  em::EmConfig cfg = FixtureConfig(em::StorageKind::kMemory);
  cfg.fault_spec = "grow:enospc:every=1,perm=1";
  ASSERT_TRUE(faults::ApplyFaultConfig(cfg).ok());
  auto lg = query::LoadedGraph::FromEdges(cfg, FixtureEdges());
  ASSERT_FALSE(lg.ok()) << "no storage can grow: the load cannot succeed";
  EXPECT_EQ(lg.status().code(), StatusCode::kIoError);
  EXPECT_NE(lg.status().message().find("ENOSPC"), std::string::npos)
      << lg.status().ToString();
}

TEST(Faults, ChecksummedStoreRecoversFromFlipsBitIdentically) {
  // Silent corruption end to end: every 5th full-line read comes back with
  // a flipped bit, checksums catch each one, and the query layer still
  // reports a bit-identical result with the recovery traffic accounted.
  auto clean_lg = query::LoadedGraph::FromEdges(
      FixtureConfig(em::StorageKind::kFile), FixtureEdges());
  ASSERT_TRUE(clean_lg.ok());

  em::EmConfig cfg = FixtureConfig(em::StorageKind::kFile);
  cfg.fault_spec = "read:flip:every=5";
  cfg.verify_checksums = true;
  ASSERT_TRUE(faults::ApplyFaultConfig(cfg).ok());
  auto lg = query::LoadedGraph::FromEdges(cfg, FixtureEdges());
  ASSERT_TRUE(lg.ok()) << lg.status().ToString();

  query::Query q;
  q.kind = query::QueryKind::kEnumerate;
  q.algo = "ps-cache-aware";
  auto clean = clean_lg->Run(q);
  auto sums = lg->Run(q);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  EXPECT_EQ(sums->triangles, clean->triangles);
  EXPECT_EQ(sums->list, clean->list);
  EXPECT_EQ(sums->io.block_reads, clean->io.block_reads);
  EXPECT_EQ(sums->io.block_writes, clean->io.block_writes);
  EXPECT_GT(sums->recovery.checksum_failures, 0u)
      << "the schedule never flipped a counted read";
  EXPECT_GE(sums->recovery.retries, sums->recovery.checksum_failures);
}

TEST(Faults, RecoveryStatsDeltaIsPerQuery) {
  // QueryResult::recovery is the per-query delta, not the store's lifetime
  // total: two identical queries over one store report identical recovery
  // traffic (determinism makes the schedules align exactly).
  em::EmConfig cfg = FixtureConfig(em::StorageKind::kMemory);
  cfg.fault_spec = kTransientSpec;
  ASSERT_TRUE(faults::ApplyFaultConfig(cfg).ok());
  auto lg = query::LoadedGraph::FromEdges(cfg, FixtureEdges());
  ASSERT_TRUE(lg.ok());
  query::Query q;
  q.algo = "mgt";
  auto a = lg->Run(q);
  auto b = lg->Run(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a->recovery.faults_injected, 0u);
  EXPECT_EQ(a->recovery.retries, b->recovery.retries);
  EXPECT_EQ(a->recovery.faults_injected, b->recovery.faults_injected);
}

// ---------------------------------------------------------------------------
// A permanent write fault on a one-line cache. The failing write-back is an
// eviction, and the Writers of the failing plan flush while the fault
// unwinds: each flush needs a cache line, and a one-line cache has only the
// one whose write-back just failed.

TEST(Faults, WriterFlushingDuringTheUnwindFindsACacheLine) {
  em::EmConfig cfg;
  cfg.memory_words = 16;
  cfg.block_words = 16;
  cfg.storage = em::StorageKind::kFile;
  cfg.fault_spec = "write:eio:at=1,perm=1";
  ASSERT_TRUE(faults::ApplyFaultConfig(cfg).ok());
  em::Context ctx(cfg);
  em::Array<std::uint64_t> a = ctx.Alloc<std::uint64_t>(64);
  em::Array<std::uint64_t> b = ctx.Alloc<std::uint64_t>(64);
  auto plan = [&] {
    em::Writer<std::uint64_t> w(a);
    // 24 records: the first line is flushed and dirty, 8 stay buffered.
    for (std::uint64_t i = 0; i < 24; ++i) w.Push(i);
    // Touching b evicts a's dirty line, and its write-back fails; w's
    // destructor then flushes the buffered records during the unwind.
    b.Set(0, 1);
  };
  EXPECT_THROW(plan(), IoFault);
  EXPECT_EQ(ctx.cache().fault().code(), StatusCode::kIoError);
  EXPECT_TRUE(ctx.cache().IsResident(a.base() + 16))
      << "the unwinding flush found no line";
  ctx.cache().Discard();
  faults::FindInjector(ctx.device().backend())->set_armed(false);
  b.Set(0, 5);
  ctx.cache().FlushAll();
  EXPECT_EQ(b.Get(0), 5u);
}

struct WriteBackFaultCase {
  const char* algo;
  std::size_t block_words;  // M = B: a one-line cache
  std::size_t edges;        // of Gnm(96, edges, 0x51)
};

class WriteBackFault : public ::testing::TestWithParam<WriteBackFaultCase> {};

TEST_P(WriteBackFault, FailsOnlyTheQueryAndTheSessionSurvives) {
  // Plants the permanent fault at each of the query's first 32 block
  // writes. Every one must fail the query with IoError, and the same
  // session must then answer a clean query exactly as a fresh store does.
  const WriteBackFaultCase& c = GetParam();
  em::EmConfig base;
  base.memory_words = c.block_words;
  base.block_words = c.block_words;
  base.seed = 2014;
  base.storage = em::StorageKind::kFile;
  query::Query q;
  q.kind = query::QueryKind::kEnumerate;
  q.algo = c.algo;

  const std::vector<graph::Edge> edges = graph::Gnm(96, c.edges, 0x51);
  auto ref_lg = query::LoadedGraph::FromEdges(base, edges);
  ASSERT_TRUE(ref_lg.ok());
  auto ref = ref_lg->Run(q);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  em::EmConfig probe_cfg = base;
  probe_cfg.fault_spec = "write:eio:at=1000000000";  // installed, never fires
  ASSERT_TRUE(faults::ApplyFaultConfig(probe_cfg).ok());
  auto probe = query::LoadedGraph::FromEdges(probe_cfg, edges);
  ASSERT_TRUE(probe.ok());
  const std::uint64_t after_load =
      faults::FindInjector(probe->store().device().backend())
          ->op_count(faults::FaultOp::kWrite);
  ASSERT_GE(ref->io.block_writes, 32u) << "too few writes to plant a fault";

  for (std::uint64_t k = 1; k <= 32; ++k) {
    SCOPED_TRACE("query write " + std::to_string(k));
    em::EmConfig cfg = base;
    cfg.fault_spec =
        "write:eio:at=" + std::to_string(after_load + k) + ",perm=1";
    ASSERT_TRUE(faults::ApplyFaultConfig(cfg).ok());
    auto lg = query::LoadedGraph::FromEdges(cfg, edges);
    ASSERT_TRUE(lg.ok()) << "the fault must not fire during load";
    auto failed = lg->Run(q);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError);
    EXPECT_EQ(lg->store().device().Mark(), lg->frozen_mark());

    faults::FindInjector(lg->store().device().backend())->set_armed(false);
    auto again = lg->Run(q);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->list, ref->list);
    EXPECT_EQ(again->io.block_reads, ref->io.block_reads);
    EXPECT_EQ(again->io.block_writes, ref->io.block_writes);
    EXPECT_EQ(again->io.cache_hits, ref->io.cache_hits);
    EXPECT_EQ(again->work, ref->work);
  }
}

// §3 leases 136 words of scratch, so it gets a wider line, and a graph
// above its 1,024-edge base: on the fixture's 400 edges, one leaf, the query
// writes only 4 lines.
INSTANTIATE_TEST_SUITE_P(
    OneLineCache, WriteBackFault,
    ::testing::Values(WriteBackFaultCase{"edge-iterator", 16, 400},
                      WriteBackFaultCase{"dementiev", 16, 400},
                      WriteBackFaultCase{"ps-cache-aware", 16, 400},
                      WriteBackFaultCase{"ps-cache-oblivious", 256, 1100}),
    [](const ::testing::TestParamInfo<WriteBackFaultCase>& info) {
      std::string name = info.param.algo;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace trienum
