// Deterministic fault-schedule grammar for the fault-injection backend.
//
// A spec is a ';'-separated list of clauses:
//
//   clause  := op ':' kind [':' param (',' param)*]
//   op      := 'read' | 'write' | 'grow'
//   kind    := 'eio' | 'eintr' | 'short' | 'flip' | 'enospc'
//   param   := 'every=N' | 'at=N' | 'count=K' | 'perm=1' | 'p=F'
//
// Examples:
//
//   read:eio:every=7              every 7th read fails with EIO (transient)
//   write:short:every=5,count=3   3 short writes, then clean
//   read:eio:at=12,perm=1         the 12th read fails, and so does every
//                                 read after it (a permanent fault)
//   grow:enospc:at=1              the first real grow hits ENOSPC
//   read:flip:every=97            every 97th full-line read is returned with
//                                 one bit flipped (silent corruption — only
//                                 checksums catch it)
//   read:eio:p=0.01               each read fails with probability 1%,
//                                 seeded and reproducible
//
// Clause counters advance per matching operation (1-based), so `every=N`
// fires on operations N, 2N, 3N, ...; `at=N` fires exactly on operation N.
// With `perm=1` a clause that has fired once fires on every later matching
// operation. `count=K` caps total firings. The first firing clause in spec
// order wins for an operation.
//
// Kind/op compatibility: eio and eintr apply to all ops; short to read and
// write; flip to read only (and only fires on block-aligned full-line reads,
// where a torn block is meaningful); enospc to grow only. `grow` counts only
// EnsureSize calls that would actually extend the store. A flip is only
// accepted together with checksums (faults::ApplyFaultConfig): nothing else
// can detect it.
#ifndef TRIENUM_FAULTS_FAULT_SPEC_H_
#define TRIENUM_FAULTS_FAULT_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace trienum::faults {

enum class FaultOp { kRead, kWrite, kGrow };
enum class FaultKind { kEio, kEintr, kShort, kFlip, kEnospc };

const char* FaultOpName(FaultOp op);
const char* FaultKindName(FaultKind kind);

/// One parsed clause of a fault spec.
struct FaultClause {
  FaultOp op = FaultOp::kRead;
  FaultKind kind = FaultKind::kEio;
  std::uint64_t every = 0;  ///< fire when op counter % every == 0 (0 = off)
  std::uint64_t at = 0;     ///< fire when op counter == at (0 = off)
  std::uint64_t count = 0;  ///< max firings (0 = unlimited)
  bool perm = false;        ///< once fired, fire on every later matching op
  double p = 0.0;           ///< per-op firing probability (seeded; 0 = off)
};

/// Parses a spec string; empty input yields an empty schedule.
Result<std::vector<FaultClause>> ParseFaultSpec(const std::string& spec);

}  // namespace trienum::faults

#endif  // TRIENUM_FAULTS_FAULT_SPEC_H_
