// LRU internal-memory cache: the I/O-accounting heart of the library.
//
// Internal memory holds M/B lines of B words. Each word touch either hits a
// resident line or faults it in (one block read); evicting a dirty line costs
// one block write, with two exceptions for dead data: a line whose words were
// all released (DropDirty) is clean, and a line its owner will never read
// again leaves without write-back (DropLines). The paper's cache-oblivious
// analysis is stated for an optimal replacement policy and transfers to LRU
// by [Frigo et al. 2012, Lemma 6.4]; measuring under LRU is therefore the
// standard way to evaluate a cache-oblivious algorithm at arbitrary (M, B).
//
// The cache runs in one of two modes, fixed at construction:
//
//   * counting-only (no staging backend): touches only update the LRU state
//     and the IoStats counters; data lives elsewhere (the MemoryBackend's
//     direct view). This is the original simulator, bit-for-bit.
//
//   * staged (a StorageBackend* is supplied): the cache additionally owns a
//     B-word buffer per line and becomes the real data path — misses fetch
//     the block from the backend, dirty evictions write it back, so resident
//     memory is O(M). The counting code is shared between the modes, which is
//     what guarantees IoStats are backend-independent (asserted by
//     tests/test_storage_backends.cc).
//
// A counting-only cache can also be switched into recording (Record): its
// charges are then appended to a ChargeLog instead of reaching any LRU
// state, and Replay later re-issues the log against a real cache. This is
// how pool workers run counted code off the owner thread (pivot_enum.h).
#ifndef TRIENUM_EM_CACHE_H_
#define TRIENUM_EM_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "em/defs.h"
#include "em/storage.h"

namespace trienum::em {

/// \brief Line id -> slot index map: dense vector for small line ids, hash
/// map past `dense_limit`.
///
/// The dense regime keeps the hot lookup a single vector load; the sparse
/// regime bounds host memory at O(resident lines) instead of O(device lines),
/// which is what lets a file-backed device grow to many TiB without the map
/// alone eating device/(2B) bytes of RAM. Evicted lines are erased from the
/// hash map, so its size never exceeds the number of cache slots.
class LineMap {
 public:
  explicit LineMap(std::size_t dense_limit) : dense_limit_(dense_limit) {}

  std::int32_t Get(std::int64_t line) const {
    const std::size_t l = static_cast<std::size_t>(line);
    if (l < dense_.size()) return dense_[l];
    if (l < dense_limit_) return -1;  // dense regime, not grown this far yet
    auto it = sparse_.find(l);
    return it == sparse_.end() ? -1 : it->second;
  }

  void Set(std::int64_t line, std::int32_t slot) {
    const std::size_t l = static_cast<std::size_t>(line);
    if (l < dense_limit_) {
      if (l >= dense_.size()) {
        std::size_t grown = dense_.size() < 64 ? 64 : dense_.size() * 2;
        if (grown < l + 1) grown = l + 1;
        if (grown > dense_limit_) grown = dense_limit_;
        dense_.resize(grown, -1);
      }
      dense_[l] = slot;
    } else if (slot < 0) {
      sparse_.erase(l);
    } else {
      sparse_[l] = slot;
    }
  }

  /// Drops every mapping (Cache::Discard). Keeps the dense vector's capacity.
  void Clear() {
    std::fill(dense_.begin(), dense_.end(), -1);
    sparse_.clear();
  }

 private:
  std::size_t dense_limit_;
  std::vector<std::int32_t> dense_;
  std::unordered_map<std::size_t, std::int32_t> sparse_;
};

/// One recorded charge (see Cache::Record): a TouchRange (elem_words == 0)
/// or ScanRange call, followed by `repeat_hits` further touches that all
/// fell on the line holding the call's last word. On replay the call runs
/// as recorded and leaves that line MRU, so every folded touch is a hit on
/// it in a cache of the recording's line size.
struct Charge {
  Addr addr = 0;
  std::uint64_t repeat_hits = 0;
  std::uint32_t words = 0;
  std::uint16_t elem_words = 0;
  bool write = false;
  bool repeat_write = false;  // some folded touch was a write
};
using ChargeLog = std::vector<Charge>;

/// \brief LRU cache of M words in B-word lines with I/O counting and an
/// optional real (staged) data path.
///
/// Writes that start at a line boundary allocate the line without charging a
/// fetch (a purely sequential output stream costs n/B writes and no reads,
/// matching the EM model's scan semantics); any other miss costs a block read.
class Cache {
 public:
  /// Most lines (M/B) one cache can hold: slots link to each other by
  /// int32_t index, whatever the host's memory.
  static constexpr std::size_t kMaxLines = INT32_MAX;

  /// `staging` selects the mode: nullptr = counting-only (default);
  /// otherwise the cache stages real data against that backend.
  Cache(std::size_t memory_words, std::size_t block_words,
        StorageBackend* staging = nullptr,
        std::size_t line_map_dense_limit = std::size_t{1} << 22);

  /// Registers a touch of `words` consecutive words starting at `addr`.
  /// (In staged mode, missed lines are fetched so buffers stay coherent,
  /// but no data is returned — prefer ReadRange/WriteRange.) Inlined
  /// streaming fast path: a repeat touch of the MRU line is a handful of
  /// instructions — this is the dominant call on every per-record hot loop.
  void TouchRange(Addr addr, std::size_t words, bool write) {
    if (!counting_ || words == 0) return;
    const std::int64_t first = LineOf(addr);
    const std::int64_t last = LineOf(addr + words - 1);
    if (first == last && first == last_line_ && head_ >= 0 &&
        slots_[head_].line == first) {
      slots_[head_].dirty |= write;
      ++stats_.cache_hits;
      return;
    }
    TouchRangeSlow(addr, words, first, last, write);
  }

  /// Single-word convenience wrapper.
  void Touch(Addr addr, bool write) { TouchRange(addr, 1, write); }

  /// Batched scan charge: registers the exact touch sequence that a forward
  /// element-wise pass over [addr, addr+words) in records of `elem_words`
  /// words would — one TouchLine per covered line plus one cache hit for
  /// every further record touching that line — in O(lines) instead of
  /// O(records) work. This is the accounting fast path under the buffered
  /// Scanner/Writer: IoStats (reads, writes AND hits) come out bit-for-bit
  /// identical to per-record TouchRange calls. `addr` must be the first
  /// record's start and `words` a multiple of `elem_words`.
  void ScanRange(Addr addr, std::size_t words, std::size_t elem_words,
                 bool write);

  /// Staged-mode data path: reads/writes `words` words at `addr` through the
  /// resident line buffers, counting I/Os exactly like TouchRange. While
  /// counting is disabled the access bypasses the LRU state entirely
  /// (read-through/write-through to the backend), mirroring the simulator's
  /// uncounted raw-pointer accesses. Staged mode only.
  void ReadRange(Addr addr, std::size_t words, void* out);
  void WriteRange(Addr addr, std::size_t words, const void* in);

  /// Staged-mode duals of ScanRange: move data through the line buffers
  /// while charging exactly like an element-wise pass. A counted full-line
  /// WriteScan skips the backend fetch entirely (every word is overwritten),
  /// which is where the file backend's real read traffic drops to block
  /// granularity. Uncounted calls fall back to the bypass semantics of
  /// ReadRange/WriteRange. Staged mode only.
  void ReadScan(Addr addr, std::size_t words, std::size_t elem_words,
                void* out);
  void WriteScan(Addr addr, std::size_t words, std::size_t elem_words,
                 const void* in);

  /// True if this cache stages real data (file-backed device).
  bool staged() const { return staging_ != nullptr; }

  /// Recording mode (counting-only caches): every later TouchRange and
  /// ScanRange is appended to `log` as a Charge — a touch of the line the
  /// previous charge ended on folds into that charge — and no LRU state or
  /// IoStats change. Recording happens at this cache's line size, so the
  /// log replays exactly into one cache of that line size (a recording
  /// view records at its store's B). Record(nullptr) closes the last
  /// charge and ends recording; switching logs closes it too.
  void Record(ChargeLog* log);

  /// Re-issues `log`'s charges, touching lines and counting reads, writes
  /// and hits exactly as the recorded calls would have. A no-op while
  /// counting is disabled, like the calls themselves.
  void Replay(const ChargeLog& log);

  /// Dead-line operations on the line ids [begin, end) of this cache's line
  /// size. Neither charges an I/O. Both reject a recording cache, and both
  /// are no-ops once a fault is latched (Discard follows). Cost
  /// O(min(end - begin, resident lines)).
  ///
  /// DropDirty: the lines hold released words. Resident ones lose their
  /// dirty bit, so they are not written back unless a later write dirties
  /// them again, but keep their slot and their LRU position: no later read
  /// or hit changes.
  void DropDirty(std::int64_t begin, std::int64_t end);
  /// DropLines: the lines will never be read again. Resident ones leave the
  /// cache without write-back (a staged buffer is abandoned) and their slots
  /// are reused before any line is evicted.
  void DropLines(std::int64_t begin, std::int64_t end);

  /// Writes back all dirty lines (counting block writes) and empties the
  /// cache. Call at the end of a measured run so pending output is charged.
  void FlushAll();

  /// Empties the cache and zeroes all counters; the next run starts cold.
  /// (Staged dirty data is live data, so it is written back, never dropped.)
  void Reset();

  /// Crash-consistency reset: drops every line *without* write-back, clears
  /// counters and the latched fault. After a failed query the dirty
  /// lines hold scratch data from an abandoned plan — writing them back could
  /// itself fault, and nothing will ever read them (the query's region is
  /// released). The frozen graph pages are clean by construction, so
  /// discarding cannot lose graph data.
  void Discard();

  /// First staged-I/O failure observed by this cache, latched until
  /// Discard(). The query layer checks this after a run: a fault swallowed
  /// during unwinding (Writer destructors) still fails the query.
  const Status& fault() const { return fault_; }

  /// Number of lines currently resident (in the LRU list).
  std::size_t resident_lines() const { return resident_; }

  /// Enables/disables accounting. While disabled, touches are no-ops; used
  /// when building inputs or verifying outputs outside the measured region.
  void set_counting(bool on) { counting_ = on; }
  bool counting() const { return counting_; }

  const IoStats& stats() const { return stats_; }

  std::size_t memory_words() const { return memory_words_; }
  std::size_t block_words() const { return block_words_; }
  std::size_t num_lines() const { return num_slots_; }

  /// True if the line containing `addr` is resident (for witness checks).
  bool IsResident(Addr addr) const;

 private:
  struct Slot {
    std::int32_t prev;
    std::int32_t next;
    std::int64_t line;   // line id, or -1 if free
    bool dirty;
  };

  enum class ScanOpKind { kCharge, kRead, kWrite };

  /// Core touch: updates LRU/counters and returns the slot now holding
  /// `line`. `fetch` controls whether a staged miss loads the block from the
  /// backend (false only when the caller overwrites the whole line).
  std::int32_t TouchLine(std::int64_t line, bool write, bool aligned_write,
                         bool fetch);
  void TouchRangeSlow(Addr addr, std::size_t words, std::int64_t first,
                      std::int64_t last, bool write);
  /// Recording mode: starts a new Charge, closing the open one. Slot 0
  /// stands for the line the open charge ended on, so the inline TouchRange
  /// fast path folds repeat touches into stats_.cache_hits and the slot's
  /// dirty bit, which CloseCharge moves into the log.
  void RecordCharge(Addr addr, std::size_t words, std::size_t elem_words,
                    bool write);
  void CloseCharge();
  /// Shared walk behind ScanRange/ReadScan/WriteScan.
  void ScanOp(Addr addr, std::size_t words, std::size_t elem_words,
              ScanOpKind kind, void* out, const void* in);
  /// Staged backend I/O with fault latching. On a backend error the Status
  /// is latched into fault_ and an IoFault is thrown — unless the stack is
  /// already unwinding (a Writer flushing from a destructor), in which case
  /// the op degrades to a no-op (reads zero-fill) and the latch alone
  /// carries the failure to the query layer. Once latched, every further
  /// staged op behaves the same way: fail fast, never touch the backend.
  void StagedRead(Addr addr, std::size_t words, Word* out);
  void StagedWrite(Addr addr, std::size_t words, const Word* in);
  /// Calls f(slot) for every resident line in [begin, end), probing the
  /// range or walking the LRU list, whichever is shorter. f may unlink the
  /// slot it is given.
  template <typename F>
  void ForEachResident(std::int64_t begin, std::int64_t end, F&& f);
  std::int32_t GrabSlot();           // free slot, else evicts the LRU line
  void MoveToFront(std::int32_t s);
  void PushFront(std::int32_t s);
  void Unlink(std::int32_t s);
  std::int32_t Lookup(std::int64_t line) const { return where_.Get(line); }
  Word* line_buf(std::int32_t s) {
    return line_data_.data() + static_cast<std::size_t>(s) * block_words_;
  }
  /// Line id / in-line offset of `addr`; a shift/mask when B is a power of
  /// two (the common case — two fewer 64-bit divisions on every touch).
  std::int64_t LineOf(Addr a) const {
    return static_cast<std::int64_t>(line_shift_ >= 0 ? a >> line_shift_
                                                      : a / block_words_);
  }
  std::size_t OffsetIn(Addr a) const {
    return static_cast<std::size_t>(
        line_shift_ >= 0 ? a & (block_words_ - 1) : a % block_words_);
  }

  std::size_t memory_words_;
  std::size_t block_words_;
  std::size_t num_slots_;
  int line_shift_ = -1;  // log2(block_words) when a power of two, else -1

  std::vector<Slot> slots_;
  LineMap where_;                    // line id -> slot or -1
  std::int32_t head_ = -1;           // MRU
  std::int32_t tail_ = -1;           // LRU
  std::int32_t free_head_ = -1;
  std::int64_t last_line_ = -1;      // fast path for streaming access
  std::size_t resident_ = 0;         // slots in the LRU list

  StorageBackend* staging_ = nullptr;  // non-null = staged data mode
  std::vector<Word> line_data_;        // num_slots_ * block_words_ (staged)
  ChargeLog* log_ = nullptr;           // non-null = recording mode

  bool counting_ = true;
  IoStats stats_;
  Status fault_;  // first staged-I/O failure; cleared by Discard()
};

}  // namespace trienum::em

#endif  // TRIENUM_EM_CACHE_H_
