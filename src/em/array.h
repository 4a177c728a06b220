// Typed views over device storage with I/O-accounted element access, plus
// streaming Scanner/Writer helpers used throughout the algorithms.
//
// Scanner and Writer are *block-buffered*: they move one B-word-aligned cache
// line per refill/flush (a single GraphStore::ReadScan/WriteScan call)
// instead of one transfer per record, while charging the touch sequence a
// record-by-record pass of Array::Get/Set calls would — coalesced per line.
// The two agree bit-for-bit (reads, writes and hits) whenever every active
// stream's current line stays resident between consecutive records: one
// line per stream, true for the library's scans, filters and
// bounded-fan-in merges (tests/test_hotpath.cc checks it against a Get/Set
// loop on a twin context). Under capacity pressure, charging per line
// coarsens LRU recency, so eviction victims can differ; the EM model prices
// block transfers only, and these streams are the library's one scan path.
#ifndef TRIENUM_EM_ARRAY_H_
#define TRIENUM_EM_ARRAY_H_

#include <cstring>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "em/context.h"

namespace trienum::em {

/// \brief A fixed-size array of trivially-copyable records on the device.
///
/// Every element access touches the covering cache lines, so reading or
/// writing an Array is exactly what costs I/Os in this library. Records are
/// padded to whole words; an Edge (two 32-bit ids) is one word, matching the
/// paper's "an edge requires one memory word" accounting.
///
/// All data moves through GraphStore::ReadWords/WriteWords (or their
/// scan-exact bulk duals ReadScan/WriteScan), so an Array works identically
/// — same values, same IoStats — over the in-memory and the file-backed
/// storage backend (see em/storage.h).
template <typename T>
class Array {
  static_assert(std::is_trivially_copyable_v<T>,
                "EM arrays hold trivially copyable records");

 public:
  /// Words occupied by one record.
  static constexpr std::size_t kWordsPer = (sizeof(T) + sizeof(Word) - 1) / sizeof(Word);
  /// True when records fill their words exactly (no per-record padding), so
  /// a bulk transfer is one contiguous byte range.
  static constexpr bool kPacked = sizeof(T) == kWordsPer * sizeof(Word);

  Array() = default;
  Array(GraphStore* store, Addr base, std::size_t n)
      : ctx_(store), base_(base), n_(n) {}

  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  Addr base() const { return base_; }
  /// The store the array's words live on. Arrays are graph-lifetime state:
  /// they are bound to a GraphStore, never to a QuerySession, so data
  /// written under one session stays readable under every later one.
  GraphStore* store() const { return ctx_; }

  /// Word address of element `i` (for witness/residency checks).
  Addr AddrOf(std::size_t i) const { return base_ + i * kWordsPer; }

  /// Reads element `i` (counts I/O on a cache miss).
  T Get(std::size_t i) const {
    TRIENUM_CHECK(i < n_);
    Word tmp[kWordsPer];
    ctx_->ReadWords(base_ + i * kWordsPer, kWordsPer, tmp);
    T out;
    std::memcpy(static_cast<void*>(&out), static_cast<const void*>(tmp), sizeof(T));
    return out;
  }

  /// Writes element `i` (counts I/O on a cache miss; sequential aligned
  /// writes are charged as pure output).
  void Set(std::size_t i, const T& v) {
    TRIENUM_CHECK(i < n_);
    Word tmp[kWordsPer];
    tmp[kWordsPer - 1] = 0;  // deterministic padding in the tail word
    std::memcpy(static_cast<void*>(tmp), static_cast<const void*>(&v), sizeof(T));
    ctx_->WriteWords(base_ + i * kWordsPer, kWordsPer, tmp);
  }

  /// Charges the touch of element `i` without moving data — what a
  /// Get would cost. Scanner::Peek uses this so every Peek costs a Get.
  void TouchGet(std::size_t i) const {
    TRIENUM_CHECK(i < n_);
    ctx_->cache().TouchRange(base_ + i * kWordsPer, kWordsPer,
                             /*write=*/false);
  }

  /// Charges the touch of element `i` as a write — what a Set would cost.
  void TouchSet(std::size_t i) const {
    TRIENUM_CHECK(i < n_);
    ctx_->cache().TouchRange(base_ + i * kWordsPer, kWordsPer,
                             /*write=*/true);
  }

  /// Memory-backend zero-copy view of the records: a typed pointer into the
  /// direct view (records start word-aligned, so the cast is valid), or
  /// nullptr when the device stages real data. Accesses through it move no
  /// accounted data — callers charge TouchGet/TouchSet at exactly the points
  /// a Get/Set would occur, which keeps IoStats identical across backends
  /// (asserted by the storage differential matrix). Invalidated by Alloc.
  T* MemRef() const {
    // Only packed records line up with a T[] view; padded ones would stride
    // wrong. Over-aligned types can't alias the word store either.
    if constexpr (!kPacked || alignof(T) > alignof(Word)) {
      return nullptr;
    } else {
      Word* p = ctx_->DirectData(base_);
      return p == nullptr ? nullptr : reinterpret_cast<T*>(p);
    }
  }

  /// Subrange view [off, off+len).
  Array Slice(std::size_t off, std::size_t len) const {
    TRIENUM_CHECK(off + len <= n_);
    return Array(ctx_, base_ + off * kWordsPer, len);
  }

  /// Bulk read of [begin, end) into a host buffer; touches each covered line
  /// once (simulated DMA into internal memory).
  void ReadTo(std::size_t begin, std::size_t end, T* out) const {
    TRIENUM_CHECK(begin <= end && end <= n_);
    if (begin == end) return;
    Addr a = base_ + begin * kWordsPer;
    std::size_t words = (end - begin) * kWordsPer;
    if constexpr (kPacked) {
      ctx_->ReadWords(a, words, static_cast<void*>(out));
    } else {
      std::vector<Word> tmp(words);
      ctx_->ReadWords(a, words, tmp.data());
      UnpackRecords(tmp.data(), end - begin, out);
    }
  }

  /// Bulk write of a host buffer into [begin, end).
  void WriteFrom(std::size_t begin, std::size_t end, const T* in) {
    TRIENUM_CHECK(begin <= end && end <= n_);
    if (begin == end) return;
    Addr a = base_ + begin * kWordsPer;
    std::size_t words = (end - begin) * kWordsPer;
    if constexpr (kPacked) {
      ctx_->WriteWords(a, words, static_cast<const void*>(in));
    } else {
      std::vector<Word> tmp(words, 0);
      PackRecords(in, end - begin, tmp.data());
      ctx_->WriteWords(a, words, tmp.data());
    }
  }

  /// Scan-exact bulk read of [begin, end): one transfer, charged exactly
  /// like per-record Get calls (the buffered Scanner's refill).
  void ReadScanInto(std::size_t begin, std::size_t end, T* out) const {
    TRIENUM_CHECK(begin <= end && end <= n_);
    if (begin == end) return;
    Addr a = base_ + begin * kWordsPer;
    std::size_t words = (end - begin) * kWordsPer;
    if constexpr (kPacked) {
      ctx_->ReadScan(a, words, kWordsPer, static_cast<void*>(out));
    } else {
      std::vector<Word> tmp(words);
      ctx_->ReadScan(a, words, kWordsPer, tmp.data());
      UnpackRecords(tmp.data(), end - begin, out);
    }
  }

  /// Scan-exact bulk write into [begin, end): one transfer, charged exactly
  /// like per-record Set calls (the buffered Writer's flush).
  void WriteScanFrom(std::size_t begin, std::size_t end, const T* in) {
    TRIENUM_CHECK(begin <= end && end <= n_);
    if (begin == end) return;
    Addr a = base_ + begin * kWordsPer;
    std::size_t words = (end - begin) * kWordsPer;
    if constexpr (kPacked) {
      ctx_->WriteScan(a, words, kWordsPer, static_cast<const void*>(in));
    } else {
      std::vector<Word> tmp(words, 0);
      PackRecords(in, end - begin, tmp.data());
      ctx_->WriteScan(a, words, kWordsPer, tmp.data());
    }
  }

 private:
  static void UnpackRecords(const Word* words, std::size_t n, T* out) {
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(static_cast<void*>(out + i),
                  static_cast<const void*>(words + i * kWordsPer), sizeof(T));
    }
  }
  static void PackRecords(const T* in, std::size_t n, Word* words) {
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(static_cast<void*>(words + i * kWordsPer),
                  static_cast<const void*>(in + i), sizeof(T));
    }
  }

  GraphStore* ctx_ = nullptr;
  Addr base_ = 0;
  std::size_t n_ = 0;
};

template <typename T>
Array<T> GraphStore::Alloc(std::size_t n) {
  Addr base = device_.Allocate(n * Array<T>::kWordsPer, cfg_.block_words);
  return Array<T>(this, base, n);
}

template <typename T>
Array<T> QuerySession::Alloc(std::size_t n) {
  return store_->Alloc<T>(n);
}

/// \brief Forward sequential reader over an Array (one scan = n/B reads).
///
/// Refills one cache line at a time: the refill issues a single ReadScan
/// charging exactly what record-by-record Gets would (the skipped-ahead
/// records are charged as the cache hits they would have been), then
/// Next/Peek serve from the host buffer. Peek additionally charges one touch
/// per call, what a per-record Get costs. Skip never touches (a seek is free
/// in the EM model); note that records already buffered were charged at
/// refill, so a Skip inside a buffered line does not un-charge them.
template <typename T>
class Scanner {
 public:
  Scanner() = default;
  explicit Scanner(Array<T> a) : a_(a) {}
  Scanner(Array<T> a, std::size_t begin, std::size_t end)
      : a_(a.Slice(begin, end - begin)) {}

  bool HasNext() const { return pos_ < a_.size(); }
  std::size_t remaining() const { return a_.size() - pos_; }

  /// Reads the current element without advancing (charges one touch, like
  /// a Get).
  T Peek() {
    if (pos_ < buf_lo_ || pos_ >= buf_hi_) Refill();
    a_.TouchGet(pos_);
    return buf_[pos_ - buf_lo_];
  }

  /// Reads and advances.
  T Next() {
    if (pos_ < buf_lo_ || pos_ >= buf_hi_) Refill();
    return buf_[pos_++ - buf_lo_];
  }

  void Skip() { ++pos_; }

 private:
  void Refill() {
    const std::size_t n = a_.size();
    TRIENUM_CHECK(pos_ < n);
    constexpr std::size_t w = Array<T>::kWordsPer;
    const std::size_t b = a_.store()->block_words();
    const Addr a0 = a_.AddrOf(pos_);
    // End of the last line touched by the current record; buffer every
    // record that finishes within it (at least the current one).
    const Addr line_end = ((a0 + w - 1) / b + 1) * b;
    std::size_t j = static_cast<std::size_t>((line_end - a_.base()) / w);
    if (j <= pos_) j = pos_ + 1;
    if (j > n) j = n;
    // Grow-only buffer: ReadScanInto overwrites [0, j - pos_), so no
    // per-refill value-initialization is needed.
    if (buf_.size() < j - pos_) buf_.resize(j - pos_);
    a_.ReadScanInto(pos_, j, buf_.data());
    buf_lo_ = pos_;
    buf_hi_ = j;
  }

  Array<T> a_;
  std::size_t pos_ = 0;
  std::size_t buf_lo_ = 0;
  std::size_t buf_hi_ = 0;  // buffered records: [buf_lo_, buf_hi_)
  std::vector<T> buf_;
};

/// \brief Forward sequential writer into a pre-allocated Array.
///
/// Accumulates records host-side and flushes one cache line per WriteScan,
/// charged exactly like record-by-record Sets. The buffered data becomes
/// visible to *other* readers of the target array only at Flush; Written()
/// flushes, and the destructor is a safety net — code that reads the target
/// array directly while the Writer is still alive must call Flush() first.
template <typename T>
class Writer {
 public:
  Writer() = default;
  explicit Writer(Array<T> a) : a_(a) {}
  ~Writer() {
    // Flush can hit a staged-I/O fault; the destructor must not throw. The
    // cache latches the fault (Cache::fault()), which the query layer checks
    // after every run, so swallowing here loses nothing.
    try {
      Flush();
    } catch (const IoFault&) {
    }
  }
  Writer(Writer&& o) noexcept
      : a_(o.a_), pos_(o.pos_), flush_lo_(o.flush_lo_), flush_at_(o.flush_at_),
        buf_(std::move(o.buf_)) {
    o.buf_.clear();
    o.a_ = Array<T>();
  }
  Writer& operator=(Writer&& o) noexcept {
    if (this != &o) {
      try {
        Flush();  // same fault-latch contract as the destructor
      } catch (const IoFault&) {
      }
      a_ = o.a_;
      pos_ = o.pos_;
      flush_lo_ = o.flush_lo_;
      flush_at_ = o.flush_at_;
      buf_ = std::move(o.buf_);
      o.buf_.clear();
      o.a_ = Array<T>();
    }
    return *this;
  }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Push(const T& v) {
    TRIENUM_CHECK(pos_ < a_.size());
    if (buf_.empty()) {
      // Flush once the pending run reaches the end of the line its first
      // record starts in (one WriteScan per line on a long stream).
      constexpr std::size_t w = Array<T>::kWordsPer;
      const std::size_t b = a_.store()->block_words();
      const Addr line_end = (a_.AddrOf(pos_) / b + 1) * b;
      flush_at_ = static_cast<std::size_t>((line_end - a_.base() + w - 1) / w);
    }
    buf_.push_back(v);
    if (++pos_ >= flush_at_) Flush();
  }

  std::size_t count() const { return pos_; }

  /// Writes out any buffered records.
  void Flush() {
    if (buf_.empty()) return;
    a_.WriteScanFrom(flush_lo_, flush_lo_ + buf_.size(), buf_.data());
    flush_lo_ += buf_.size();
    buf_.clear();
  }

  /// View of everything written so far (flushes pending records first).
  Array<T> Written() {
    Flush();
    return a_.Slice(0, pos_);
  }

 private:
  Array<T> a_;
  std::size_t pos_ = 0;
  std::size_t flush_lo_ = 0;  // first record not yet flushed
  std::size_t flush_at_ = 0;  // record index triggering the next flush
  std::vector<T> buf_;
};

}  // namespace trienum::em

#endif  // TRIENUM_EM_ARRAY_H_
