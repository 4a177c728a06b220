// FaultInjectingBackend: a StorageBackend decorator that fires deterministic,
// seeded fault schedules against the wrapped backend.
//
// The injector sits *below* the recovery layer and *above* the real backend:
//
//   Cache -> RecoveringBackend -> FaultInjectingBackend -> File/MemoryBackend
//
// so injected faults exercise exactly the retry/checksum machinery a real
// misbehaving disk would. Determinism: every decision is a pure function of
// the (seed, clause index, per-op counter) triple, so the same spec over the
// same access sequence fires the same faults — which is what lets tests
// assert bit-identity between a faulted and a clean run.
//
// The injector always reports memory_resident() == false, forcing the cache
// into staged data mode even over a MemoryBackend. That gives every backend
// the same injection surface (all counted traffic is full-line ReadWords/
// WriteWords), and IoStats are staged-vs-direct invariant by construction.
#ifndef TRIENUM_FAULTS_FAULT_INJECTION_H_
#define TRIENUM_FAULTS_FAULT_INJECTION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "em/storage.h"
#include "faults/fault_spec.h"

namespace trienum::faults {

class FaultInjectingBackend final : public em::StorageBackend {
 public:
  FaultInjectingBackend(std::unique_ptr<em::StorageBackend> inner,
                        std::vector<FaultClause> clauses, std::uint64_t seed,
                        std::size_t block_words);

  Status EnsureSize(std::size_t words) override;
  std::size_t size_words() const override { return inner_->size_words(); }
  bool memory_resident() const override { return false; }
  Status ReadWords(em::Addr addr, std::size_t words, em::Word* out) override;
  Status WriteWords(em::Addr addr, std::size_t words,
                    const em::Word* in) override;
  Status init_status() const override { return inner_->init_status(); }
  const em::StorageTelemetry& telemetry() const override {
    return inner_->telemetry();
  }
  em::RecoveryStats recovery() const override;
  std::uint64_t grow_calls() const override { return inner_->grow_calls(); }
  const char* name() const override { return name_.c_str(); }

  /// While disarmed the injector is a pure pass-through: clause counters do
  /// not advance and nothing fires. Tests arm it only around the measured
  /// query so ingest traffic stays clean.
  void set_armed(bool armed) { armed_ = armed; }
  bool armed() const { return armed_; }

  /// Faults fired so far (monotone).
  std::uint64_t faults_injected() const { return faults_injected_; }

  /// 1-based ordinal of the last operation of `op` seen while armed. Test
  /// introspection: lets a harness place an `at=` clause at a known point
  /// (e.g. mid-query) by probing an identical run first.
  std::uint64_t op_count(FaultOp op) const {
    return ops_[static_cast<int>(op)];
  }

  em::StorageBackend& inner() { return *inner_; }

 private:
  /// Returns the firing clause for this op (advancing its counter), or
  /// nullptr. `counter` receives the 1-based op ordinal for flip-bit mixing.
  const FaultClause* NextFault(FaultOp op, std::uint64_t* counter);

  std::unique_ptr<em::StorageBackend> inner_;
  std::vector<FaultClause> clauses_;
  std::vector<std::uint64_t> fired_;  // per-clause firing counts
  std::vector<bool> latched_;         // per-clause perm latch
  std::uint64_t seed_;
  std::size_t block_words_;
  std::string name_;
  bool armed_ = true;
  std::uint64_t ops_[3] = {0, 0, 0};  // per-FaultOp 1-based counters
  std::uint64_t faults_injected_ = 0;
};

}  // namespace trienum::faults

#endif  // TRIENUM_FAULTS_FAULT_INJECTION_H_
