// Basic definitions for the external-memory (EM) model simulator.
//
// The simulator realizes the model of Aggarwal & Vitter used by the paper: an
// internal memory of M words, an external memory (the Device) of unbounded
// size, and transfers in blocks of B consecutive words. The I/O complexity of
// an algorithm is the number of block transfers it performs, which we measure
// as misses/evictions of an LRU cache of M words organized in B-word lines.
#ifndef TRIENUM_EM_DEFS_H_
#define TRIENUM_EM_DEFS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

namespace trienum::em {

/// One machine word of external memory. The paper assumes a vertex or an edge
/// occupies one word; our Edge type (two 32-bit vertex ids) is exactly one.
using Word = std::uint64_t;

/// Word address in the device's flat address space.
using Addr = std::uint64_t;

/// Which storage backend realizes the external memory (see em/storage.h).
enum class StorageKind {
  /// RAM-resident flat vector; every I/O is simulated (the default).
  kMemory,
  /// Unlinked temp file via pread/pwrite; resident memory is O(M) and the
  /// LRU cache performs real block fetches and dirty write-backs.
  kFile,
};

class StorageBackend;  // em/storage.h

/// Parameters of the simulated memory hierarchy.
struct EmConfig {
  /// Internal memory size M, in words.
  std::size_t memory_words = std::size_t{1} << 14;
  /// Block (transfer unit) size B, in words.
  std::size_t block_words = 64;
  /// Master seed for all randomized components run under this context.
  std::uint64_t seed = 0x5117E57121ULL;
  /// Storage backend for the device. IoStats are backend-independent; kFile
  /// additionally bounds resident memory and reports real transfers.
  StorageKind storage = StorageKind::kMemory;
  /// Directory for the FileBackend's temp file; empty = $TMPDIR or /tmp.
  std::string temp_dir;

  // --- Fault injection & recovery (src/faults/) -----------------------------
  // The em layer carries the configuration but never depends on the faults
  // layer: faults::ApplyFaultConfig parses fault_spec and installs
  // wrap_backend, which MakeStorageBackend applies to whatever backend it
  // builds. An empty spec with verify_checksums=false leaves the backend
  // unwrapped (zero overhead on the default path).

  /// Deterministic fault schedule (see faults/fault_spec.h for the grammar);
  /// empty = no injection.
  std::string fault_spec;
  /// Bounded retry budget for transient I/O faults (per operation).
  int io_retries = 4;
  /// Base backoff in milliseconds between retries (doubles per attempt);
  /// 0 = retry immediately (the test/bench default).
  int io_retry_backoff_ms = 0;
  /// Maintain per-line checksums on write and verify them on full-line
  /// fetches, detecting torn or corrupted blocks.
  bool verify_checksums = false;
  /// Decorator hook applied by MakeStorageBackend around the backend it
  /// constructs. Installed by faults::ApplyFaultConfig; null = identity.
  std::function<std::unique_ptr<StorageBackend>(std::unique_ptr<StorageBackend>)>
      wrap_backend;
};

/// Counters of simulated block transfers.
struct IoStats {
  std::uint64_t block_reads = 0;    ///< lines fetched from external memory
  std::uint64_t block_writes = 0;   ///< dirty lines written back
  std::uint64_t cache_hits = 0;     ///< word touches served from internal memory

  std::uint64_t total_ios() const { return block_reads + block_writes; }

  IoStats operator-(const IoStats& o) const {
    return IoStats{block_reads - o.block_reads, block_writes - o.block_writes,
                   cache_hits - o.cache_hits};
  }
};

}  // namespace trienum::em

#endif  // TRIENUM_EM_DEFS_H_
