// RecoveringBackend: bounded retry with exponential backoff plus optional
// per-line checksums, as a StorageBackend decorator.
//
// All recovery traffic — repeated attempts, checksum verification re-reads,
// partial-write read-backs — happens *below* the cache, so it never touches
// IoStats: under any transient fault schedule the counted block reads/writes
// are bit-identical to a clean run, and the recovery work is reported
// separately through RecoveryStats.
//
// Checksums are maintained from writes only (one 64-bit FNV-1a per B-word
// line) and verified on block-aligned reads of lines that have been written.
// Recording a checksum from a *read* would let a corrupted first read poison
// the baseline, turning every later clean read into a false failure — so
// reads never update the table. A verification mismatch is treated like a
// transient read fault: count it, re-read, and only give up after the retry
// budget.
#ifndef TRIENUM_FAULTS_RECOVERY_H_
#define TRIENUM_FAULTS_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "em/defs.h"
#include "em/storage.h"
#include "faults/fault_injection.h"

namespace trienum::faults {

/// Retry discipline for transient faults.
struct RetryPolicy {
  int max_retries = 4;      ///< re-attempts after the first failure
  int backoff_ms = 0;       ///< base backoff, doubling per attempt (0 = none)
  bool verify_checksums = false;
};

class RecoveringBackend final : public em::StorageBackend {
 public:
  RecoveringBackend(std::unique_ptr<em::StorageBackend> inner,
                    RetryPolicy policy, std::size_t block_words);

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

  em::StorageBackend& inner() { return *inner_; }

 private:
  /// One bounded-retry attempt loop around `op`; sleeps between attempts
  /// when backoff is configured.
  template <typename Op>
  Status Retry(const Op& op);

  /// Verifies stored checksums over a block-aligned read's result. Returns
  /// false (and counts the failure) on a mismatch.
  bool ChecksumsOk(em::Addr addr, std::size_t words, const em::Word* data);
  /// Updates the checksum table after a successful write.
  void RecordWrite(em::Addr addr, std::size_t words, const em::Word* in);

  std::unique_ptr<em::StorageBackend> inner_;
  RetryPolicy policy_;
  std::size_t block_words_;
  std::string name_;
  std::unordered_map<std::uint64_t, std::uint64_t> line_crc_;
  std::uint64_t retries_ = 0;
  std::uint64_t checksum_failures_ = 0;
};

/// Parses cfg.fault_spec and installs cfg.wrap_backend so MakeStorageBackend
/// builds the decorated stack (injector below, recovery on top). With an
/// empty spec and verify_checksums off, the hook is cleared and the default
/// path stays completely unwrapped. Returns InvalidArgument on a bad spec,
/// and on a `flip` clause while verify_checksums is off (only checksums can
/// detect a flipped bit; tests that want the silent flip build the
/// decorators directly).
Status ApplyFaultConfig(em::EmConfig& cfg);

/// Finds the fault injector inside a decorated backend chain (for tests and
/// tools that arm/disarm it around the measured region); null if absent.
FaultInjectingBackend* FindInjector(em::StorageBackend& backend);

}  // namespace trienum::faults

#endif  // TRIENUM_FAULTS_RECOVERY_H_
