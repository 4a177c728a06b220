// Pluggable storage backends for the external-memory device.
//
// The paper's I/O model is agnostic to what "external memory" physically is;
// this library offers two realizations behind one interface:
//
//   * MemoryBackend — a flat std::vector<Word>. The store is RAM-resident and
//     exposes a direct pointer view, so word access is a memcpy and every I/O
//     is purely simulated (counted by the LRU cache, never performed). This is
//     the default and is bit-for-bit the original simulator.
//
//   * FileBackend — an unlinked temporary file accessed with pread/pwrite.
//     The LRU cache becomes a real cache: misses fetch a B-word block from
//     disk into a resident line buffer and dirty evictions write blocks back,
//     so total resident memory is O(M) and device footprints far beyond RAM
//     are runnable. Simulated IoStats are backend-independent by construction
//     (the counting logic is shared); the backend additionally reports the
//     *real* transfer telemetry (syscalls and bytes moved).
//
// See README.md "Storage backends" for when each applies.
#ifndef TRIENUM_EM_STORAGE_H_
#define TRIENUM_EM_STORAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "em/defs.h"

namespace trienum::em {

/// Real (not simulated) transfer counters of a storage backend. For the
/// MemoryBackend these stay zero on the direct-view path; for the FileBackend
/// they count actual pread/pwrite syscalls and bytes.
struct StorageTelemetry {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;

  StorageTelemetry operator-(const StorageTelemetry& o) const {
    return StorageTelemetry{bytes_read - o.bytes_read,
                            bytes_written - o.bytes_written,
                            read_calls - o.read_calls,
                            write_calls - o.write_calls};
  }
};

/// Counters of the recovery machinery (src/faults/). All of this is
/// *uncounted* traffic with respect to the paper's I/O accounting: a retry or
/// a checksum verification never changes IoStats, which stay bit-identical to
/// a clean run under any transient fault schedule.
struct RecoveryStats {
  std::uint64_t retries = 0;             ///< I/O attempts repeated after a fault
  std::uint64_t faults_injected = 0;     ///< faults fired by the injector
  std::uint64_t checksum_failures = 0;   ///< torn/corrupt lines detected on fetch

  RecoveryStats operator-(const RecoveryStats& o) const {
    return RecoveryStats{retries - o.retries,
                         faults_injected - o.faults_injected,
                         checksum_failures - o.checksum_failures};
  }
};

/// \brief Abstract word store backing a Device.
///
/// Addresses are word-granular and the store is logically unbounded;
/// EnsureSize grows the backing storage (amortized doubling) and never-written
/// words read as zero, matching the zero-initialized vector of the original
/// simulator.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Grows the store so that addresses [0, words) are valid. Returns
  /// kIoError when the underlying storage cannot grow (e.g. ENOSPC).
  virtual Status EnsureSize(std::size_t words) = 0;

  /// Current capacity in words.
  virtual std::size_t size_words() const = 0;

  /// True when the whole store is RAM-resident and DirectView is usable.
  /// Fixed for the backend's lifetime: it decides (at Context construction)
  /// whether the cache runs counting-only or stages real data.
  virtual bool memory_resident() const = 0;

  /// Direct pointer view of the whole store; only meaningful when
  /// memory_resident() (may still be null before the first allocation).
  /// The pointer is invalidated by EnsureSize.
  virtual Word* DirectView() { return nullptr; }
  virtual const Word* DirectView() const { return nullptr; }

  /// Block-granular transfer path used by the cache's staged data mode (and
  /// by uncounted write-through/read-through accesses). A non-OK Status means
  /// the operation did not complete; callers may retry (the call is
  /// idempotent: a failed attempt may have transferred a prefix, but a
  /// successful re-issue transfers the whole range).
  virtual Status ReadWords(Addr addr, std::size_t words, Word* out) = 0;
  virtual Status WriteWords(Addr addr, std::size_t words, const Word* in) = 0;

  /// Whether construction succeeded. Backends cannot report failure from a
  /// constructor; a backend that failed to initialize (e.g. mkstemp on a bad
  /// temp dir) latches the error here and fails every subsequent operation
  /// with it. Checked once at LoadedGraph/Context creation.
  virtual Status init_status() const { return Status::OK(); }

  /// Real-transfer counters (monotone over the backend's lifetime).
  /// Virtual so decorators (src/faults/) can forward to the wrapped backend.
  virtual const StorageTelemetry& telemetry() const { return telemetry_; }

  /// Recovery counters (retries, injected faults, checksum failures);
  /// aggregated across the decorator stack. Zero for plain backends.
  virtual RecoveryStats recovery() const { return RecoveryStats{}; }

  /// Times the backing storage actually grew (vector resize / ftruncate).
  /// A GraphStore reused across queries must warm up once and then stay
  /// flat: queries allocate inside released regions, so no re-create and no
  /// re-truncate per query (asserted by tests/test_device_properties.cc).
  virtual std::uint64_t grow_calls() const { return grow_calls_; }

  /// Backend identifier ("memory", "file", or a decorated composition such
  /// as "file+faults+recovery"), for reports.
  virtual const char* name() const = 0;

 protected:
  StorageTelemetry telemetry_;
  std::uint64_t grow_calls_ = 0;
};

/// \brief RAM-resident store: the original simulator's flat vector.
class MemoryBackend final : public StorageBackend {
 public:
  Status EnsureSize(std::size_t words) override;
  std::size_t size_words() const override { return storage_.size(); }
  bool memory_resident() const override { return true; }
  Word* DirectView() override { return storage_.data(); }
  const Word* DirectView() const override { return storage_.data(); }
  Status ReadWords(Addr addr, std::size_t words, Word* out) override;
  Status WriteWords(Addr addr, std::size_t words, const Word* in) override;
  const char* name() const override { return "memory"; }

 private:
  std::vector<Word> storage_;
};

/// \brief File-backed store: an unlinked temp file driven by pread/pwrite.
///
/// The file is unlinked immediately after creation, so the space is reclaimed
/// by the OS even on a crash. Growth is via ftruncate (sparse, so reserving
/// capacity is free until blocks are actually written). POSIX only.
class FileBackend final : public StorageBackend {
 public:
  /// Creates the backing file in `dir`; empty means $TMPDIR, falling back
  /// to /tmp.
  explicit FileBackend(std::string dir = "");
  ~FileBackend() override;
  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  Status EnsureSize(std::size_t words) override;
  std::size_t size_words() const override { return size_words_; }
  bool memory_resident() const override { return false; }
  Status ReadWords(Addr addr, std::size_t words, Word* out) override;
  Status WriteWords(Addr addr, std::size_t words, const Word* in) override;
  Status init_status() const override { return init_status_; }
  const char* name() const override { return "file"; }

  /// Path the backing file was created at (already unlinked; informational).
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::size_t size_words_ = 0;
  std::string path_;
  Status init_status_;
};

/// Factory from the context configuration.
std::unique_ptr<StorageBackend> MakeStorageBackend(const EmConfig& cfg);

}  // namespace trienum::em

#endif  // TRIENUM_EM_STORAGE_H_
