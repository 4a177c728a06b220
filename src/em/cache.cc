#include "em/cache.h"

#include <algorithm>
#include <cstring>
#include <exception>

namespace trienum::em {

void Cache::StagedRead(Addr addr, std::size_t words, Word* out) {
  if (fault_.ok()) {
    Status st = staging_->ReadWords(addr, words, out);
    if (st.ok()) return;
    fault_ = st;
  }
  // Latched: zero-fill so callers see deterministic data, then either
  // propagate or — mid-unwind, where throwing would terminate — rely on the
  // latch (checked by RunQuery after the plan exits).
  std::memset(out, 0, words * sizeof(Word));
  if (std::uncaught_exceptions() == 0) throw IoFault(fault_);
}

void Cache::StagedWrite(Addr addr, std::size_t words, const Word* in) {
  if (fault_.ok()) {
    Status st = staging_->WriteWords(addr, words, in);
    if (st.ok()) return;
    fault_ = st;
  }
  if (std::uncaught_exceptions() == 0) throw IoFault(fault_);
}

Cache::Cache(std::size_t memory_words, std::size_t block_words,
             StorageBackend* staging, std::size_t line_map_dense_limit)
    : memory_words_(memory_words),
      block_words_(block_words),
      where_(line_map_dense_limit),
      staging_(staging) {
  TRIENUM_CHECK(block_words_ > 0);
  if ((block_words_ & (block_words_ - 1)) == 0) {
    line_shift_ = 0;
    while ((std::size_t{1} << line_shift_) < block_words_) ++line_shift_;
  }
  num_slots_ = std::max<std::size_t>(1, memory_words_ / block_words_);
  slots_.resize(num_slots_);
  for (std::size_t i = 0; i < num_slots_; ++i) {
    slots_[i].line = -1;
    slots_[i].dirty = false;
    slots_[i].next = static_cast<std::int32_t>(i) + 1;
    slots_[i].prev = -1;
  }
  slots_[num_slots_ - 1].next = -1;
  free_head_ = 0;
  if (staging_ != nullptr) {
    // Resident line buffers: the only device *data* kept in RAM, so data
    // residency is O(M). The line-to-slot map is dense (one int32 per device
    // line) only below the configured limit; past it, a hash map over the
    // resident lines keeps host memory independent of device size.
    line_data_.resize(num_slots_ * block_words_, 0);
  }
}

void Cache::Unlink(std::int32_t s) {
  Slot& slot = slots_[s];
  if (slot.prev >= 0) slots_[slot.prev].next = slot.next;
  if (slot.next >= 0) slots_[slot.next].prev = slot.prev;
  if (head_ == s) head_ = slot.next;
  if (tail_ == s) tail_ = slot.prev;
}

void Cache::PushFront(std::int32_t s) {
  slots_[s].prev = -1;
  slots_[s].next = head_;
  if (head_ >= 0) slots_[head_].prev = s;
  head_ = s;
  if (tail_ < 0) tail_ = s;
}

void Cache::MoveToFront(std::int32_t s) {
  if (head_ == s) return;
  Unlink(s);
  PushFront(s);
}

std::int32_t Cache::GrabSlot() {
  if (free_head_ >= 0) {
    std::int32_t s = free_head_;
    free_head_ = slots_[s].next;
    return s;
  }
  // Evict the least-recently-used line. Every slot is either free or
  // resident, so a tail exists whenever the free list is empty.
  const std::int32_t s = tail_;
  TRIENUM_CHECK_MSG(s >= 0, "no cache line left to evict");
  Unlink(s);
  --resident_;
  // Unmap before the write-back: StagedWrite can throw IoFault, and the
  // unwind may run more cache ops (Writer flushes) — the map and list must
  // already be consistent.
  const std::int64_t evicted = slots_[s].line;
  const bool was_dirty = slots_[s].dirty;
  where_.Set(evicted, -1);
  slots_[s].line = -1;
  slots_[s].dirty = false;
  if (was_dirty) {
    ++stats_.block_writes;
    if (staging_ != nullptr) {
      try {
        StagedWrite(static_cast<Addr>(evicted) * block_words_, block_words_,
                    line_buf(s));
      } catch (const IoFault&) {
        // The slot goes back on the free list before the fault propagates,
        // or a one-line cache would have no line for the unwind's flushes.
        slots_[s].prev = -1;
        slots_[s].next = free_head_;
        free_head_ = s;
        throw;
      }
    }
  }
  return s;
}

std::int32_t Cache::TouchLine(std::int64_t line, bool write, bool aligned_write,
                              bool fetch) {
  if (line == last_line_ && head_ >= 0 && slots_[head_].line == line) {
    // Fast path: streaming access to the MRU line.
    slots_[head_].dirty |= write;
    ++stats_.cache_hits;
    return head_;
  }
  std::int32_t s = Lookup(line);
  if (s >= 0) {
    MoveToFront(s);
    slots_[s].dirty |= write;
    ++stats_.cache_hits;
  } else {
    s = GrabSlot();
    where_.Set(line, s);
    slots_[s].line = line;
    if (write && aligned_write) {
      // Fresh full-line output: allocate without charging a fetch.
      slots_[s].dirty = true;
    } else {
      ++stats_.block_reads;
      slots_[s].dirty = write;
    }
    PushFront(s);
    ++resident_;
    if (staging_ != nullptr && fetch) {
      // Real block fetch, after the slot is fully linked so an IoFault here
      // leaves the LRU state consistent. Deliberately independent of the
      // charging decision above: a block-aligned fresh write is not charged
      // a read by the model, but a partially-covered line must still be
      // loaded so its untouched words survive the eventual write-back.
      StagedRead(static_cast<Addr>(line) * block_words_, block_words_,
                 line_buf(s));
    }
  }
  last_line_ = line;
  return s;
}

void Cache::TouchRangeSlow(Addr addr, std::size_t words, std::int64_t first,
                           std::int64_t last, bool write) {
  if (log_ != nullptr) {
    RecordCharge(addr, words, 0, write);
    return;
  }
  for (std::int64_t line = first; line <= last; ++line) {
    bool aligned = write && (line > first || OffsetIn(addr) == 0);
    // Data-less touch: always fetch on a staged miss, since we cannot know
    // which words the caller will overwrite.
    TouchLine(line, write, aligned, /*fetch=*/true);
  }
}

void Cache::ScanOp(Addr addr, std::size_t words, std::size_t elem_words,
                   ScanOpKind kind, void* out, const void* in) {
  TRIENUM_CHECK(elem_words > 0 && words % elem_words == 0);
  const bool write = kind == ScanOpKind::kWrite;
  const Addr end = addr + words;
  char* dst = static_cast<char*>(out);
  const char* src = static_cast<const char*>(in);
  std::int64_t first = LineOf(addr);
  std::int64_t last = LineOf(end - 1);
  for (std::int64_t line = first; line <= last; ++line) {
    const Addr line_base = static_cast<Addr>(line) * block_words_;
    const Addr lo = std::max<Addr>(addr, line_base);
    const Addr hi = std::min<Addr>(end, line_base + block_words_);
    const std::size_t n = static_cast<std::size_t>(hi - lo);
    // Records overlapping this line: the one containing word `lo` through
    // the one containing word `hi - 1`. An element-wise pass would call
    // TouchLine once per such record; after the first, the line is MRU, so
    // all further touches are hits — charge them as a batch.
    const std::size_t i_lo = static_cast<std::size_t>(lo - addr) / elem_words;
    const std::size_t i_hi = static_cast<std::size_t>(hi - 1 - addr) / elem_words;
    const Addr first_rec_start = addr + i_lo * elem_words;
    // First toucher's alignment, exactly as its own TouchRange would see it:
    // a record starting at the line boundary, or one crossing in from the
    // previous line, makes a write "aligned" (no read charged on a miss).
    const bool aligned = write && first_rec_start <= line_base;
    // A full-line write with data overwrites every word: skip the real
    // fetch. Data-less charges mirror TouchRange (always fetch on a staged
    // miss). Fetching is never part of the charging decision.
    const bool fetch =
        !(kind == ScanOpKind::kWrite && in != nullptr && n == block_words_);
    std::int32_t s = TouchLine(line, write, aligned, fetch);
    stats_.cache_hits += i_hi - i_lo;
    if (kind == ScanOpKind::kRead) {
      std::memcpy(dst, line_buf(s) + (lo - line_base), n * sizeof(Word));
      dst += n * sizeof(Word);
    } else if (kind == ScanOpKind::kWrite && src != nullptr) {
      std::memcpy(line_buf(s) + (lo - line_base), src, n * sizeof(Word));
      src += n * sizeof(Word);
    }
  }
}

void Cache::ScanRange(Addr addr, std::size_t words, std::size_t elem_words,
                      bool write) {
  if (!counting_ || words == 0) return;
  if (log_ != nullptr) {
    TRIENUM_CHECK(elem_words > 0 && words % elem_words == 0);
    if (head_ >= 0 && LineOf(addr) == last_line_ &&
        LineOf(addr + words - 1) == last_line_) {
      // Every record of the scan lies on the open charge's line: on replay
      // each is one MRU hit, exactly what ScanOp charges for a resident line.
      stats_.cache_hits += words / elem_words;
      slots_[0].dirty |= write;
    } else {
      RecordCharge(addr, words, elem_words, write);
    }
    return;
  }
  ScanOp(addr, words, elem_words,
         write ? ScanOpKind::kWrite : ScanOpKind::kCharge, nullptr, nullptr);
}

void Cache::Record(ChargeLog* log) {
  TRIENUM_CHECK_MSG(staging_ == nullptr, "only counting-only caches record");
  // Recording reuses head_ and slot 0 for the open charge, so it may only
  // start on a cache holding no lines.
  TRIENUM_CHECK_MSG(log_ != nullptr || head_ < 0,
                    "recording needs an empty cache");
  if (log_ != nullptr) CloseCharge();
  log_ = log;
  head_ = -1;
  last_line_ = -1;
}

void Cache::CloseCharge() {
  if (head_ < 0) return;
  Charge& c = log_->back();
  c.repeat_hits = stats_.cache_hits;
  c.repeat_write = slots_[0].dirty;
}

void Cache::RecordCharge(Addr addr, std::size_t words, std::size_t elem_words,
                         bool write) {
  TRIENUM_CHECK(words <= UINT32_MAX && elem_words <= UINT16_MAX);
  CloseCharge();
  log_->push_back(Charge{addr, 0, static_cast<std::uint32_t>(words),
                         static_cast<std::uint16_t>(elem_words), write, false});
  head_ = 0;
  last_line_ = LineOf(addr + words - 1);
  slots_[0].line = last_line_;
  slots_[0].dirty = false;
  stats_.cache_hits = 0;
}

void Cache::Replay(const ChargeLog& log) {
  TRIENUM_CHECK_MSG(log_ == nullptr, "a recording cache cannot replay");
  if (!counting_) return;
  for (const Charge& c : log) {
    if (c.elem_words == 0) {
      TouchRange(c.addr, c.words, c.write);
    } else {
      ScanRange(c.addr, c.words, c.elem_words, c.write);
    }
    slots_[head_].dirty |= c.repeat_write;
    stats_.cache_hits += c.repeat_hits;
  }
}

void Cache::ReadScan(Addr addr, std::size_t words, std::size_t elem_words,
                     void* out) {
  TRIENUM_CHECK_MSG(staging_ != nullptr, "ReadScan requires staged mode");
  if (words == 0) return;
  if (!counting_) {
    ReadRange(addr, words, out);
    return;
  }
  ScanOp(addr, words, elem_words, ScanOpKind::kRead, out, nullptr);
}

void Cache::WriteScan(Addr addr, std::size_t words, std::size_t elem_words,
                      const void* in) {
  TRIENUM_CHECK_MSG(staging_ != nullptr, "WriteScan requires staged mode");
  if (words == 0) return;
  if (!counting_) {
    WriteRange(addr, words, in);
    return;
  }
  ScanOp(addr, words, elem_words, ScanOpKind::kWrite, nullptr, in);
}

void Cache::ReadRange(Addr addr, std::size_t words, void* out) {
  TRIENUM_CHECK_MSG(staging_ != nullptr, "ReadRange requires staged mode");
  if (words == 0) return;
  char* dst = static_cast<char*>(out);
  const Addr end = addr + words;
  std::int64_t first = LineOf(addr);
  std::int64_t last = LineOf(end - 1);
  if (!counting_) {
    // Uncounted bypass: no insertion, no recency update, no counters —
    // exactly like the simulator's raw pointer. Resident lines are served
    // from their buffer (the authoritative copy when dirty); maximal runs
    // of non-resident lines coalesce into one backend read each, so a bulk
    // upload/download costs O(1) syscalls, not one per line.
    Addr run_start = addr;  // pending non-resident span [run_start, ...)
    for (std::int64_t line = first; line <= last; ++line) {
      Addr line_base = static_cast<Addr>(line) * block_words_;
      std::int32_t s = Lookup(line);
      if (s < 0) continue;
      Addr lo = std::max<Addr>(addr, line_base);
      Addr hi = std::min<Addr>(end, line_base + block_words_);
      if (lo > run_start) {
        StagedRead(run_start, static_cast<std::size_t>(lo - run_start),
                   reinterpret_cast<Word*>(dst + (run_start - addr) * sizeof(Word)));
      }
      std::memcpy(dst + (lo - addr) * sizeof(Word), line_buf(s) + (lo - line_base),
                  static_cast<std::size_t>(hi - lo) * sizeof(Word));
      run_start = hi;
    }
    if (end > run_start) {
      StagedRead(run_start, static_cast<std::size_t>(end - run_start),
                 reinterpret_cast<Word*>(dst + (run_start - addr) * sizeof(Word)));
    }
    return;
  }
  for (std::int64_t line = first; line <= last; ++line) {
    Addr line_base = static_cast<Addr>(line) * block_words_;
    Addr lo = std::max<Addr>(addr, line_base);
    Addr hi = std::min<Addr>(end, line_base + block_words_);
    std::size_t n = static_cast<std::size_t>(hi - lo);
    std::int32_t s = TouchLine(line, /*write=*/false, /*aligned_write=*/false,
                               /*fetch=*/true);
    std::memcpy(dst, line_buf(s) + (lo - line_base), n * sizeof(Word));
    dst += n * sizeof(Word);
  }
}

void Cache::WriteRange(Addr addr, std::size_t words, const void* in) {
  TRIENUM_CHECK_MSG(staging_ != nullptr, "WriteRange requires staged mode");
  if (words == 0) return;
  const char* src = static_cast<const char*>(in);
  const Addr end = addr + words;
  std::int64_t first = LineOf(addr);
  std::int64_t last = LineOf(end - 1);
  if (!counting_) {
    // Uncounted write: one write-through of the whole range (so a clean
    // line can later be dropped without losing this data, at O(1) syscalls
    // for bulk uploads), plus buffer updates for any resident lines so they
    // stay authoritative. Dirty flags and recency stay untouched, so the
    // counted-region IoStats remain identical to the simulator's.
    StagedWrite(addr, words, reinterpret_cast<const Word*>(src));
    for (std::int64_t line = first; line <= last; ++line) {
      std::int32_t s = Lookup(line);
      if (s < 0) continue;
      Addr line_base = static_cast<Addr>(line) * block_words_;
      Addr lo = std::max<Addr>(addr, line_base);
      Addr hi = std::min<Addr>(end, line_base + block_words_);
      std::memcpy(line_buf(s) + (lo - line_base), src + (lo - addr) * sizeof(Word),
                  static_cast<std::size_t>(hi - lo) * sizeof(Word));
    }
    return;
  }
  for (std::int64_t line = first; line <= last; ++line) {
    Addr line_base = static_cast<Addr>(line) * block_words_;
    Addr lo = std::max<Addr>(addr, line_base);
    Addr hi = std::min<Addr>(end, line_base + block_words_);
    std::size_t n = static_cast<std::size_t>(hi - lo);
    // Same charging rule as TouchRange: a write starting at a line boundary
    // is "aligned" (no read charged); the block is still fetched unless this
    // write covers the whole line.
    bool aligned = lo == line_base;
    bool full_cover = n == block_words_;
    std::int32_t s =
        TouchLine(line, /*write=*/true, aligned, /*fetch=*/!full_cover);
    std::memcpy(line_buf(s) + (lo - line_base), src, n * sizeof(Word));
    src += n * sizeof(Word);
  }
}

template <typename F>
void Cache::ForEachResident(std::int64_t begin, std::int64_t end, F&& f) {
  if (begin >= end) return;
  if (static_cast<std::uint64_t>(end - begin) <= resident_) {
    for (std::int64_t line = begin; line < end; ++line) {
      const std::int32_t s = Lookup(line);
      if (s >= 0) f(s);
    }
    return;
  }
  for (std::int32_t s = head_; s >= 0;) {
    const std::int32_t next = slots_[s].next;
    if (slots_[s].line >= begin && slots_[s].line < end) f(s);
    s = next;
  }
}

void Cache::DropDirty(std::int64_t begin, std::int64_t end) {
  TRIENUM_CHECK_MSG(log_ == nullptr, "a recording cache cannot drop lines");
  if (!fault_.ok()) return;
  ForEachResident(begin, end,
                  [this](std::int32_t s) { slots_[s].dirty = false; });
}

void Cache::DropLines(std::int64_t begin, std::int64_t end) {
  TRIENUM_CHECK_MSG(log_ == nullptr, "a recording cache cannot drop lines");
  if (!fault_.ok()) return;
  ForEachResident(begin, end, [this](std::int32_t s) {
    Slot& slot = slots_[s];
    Unlink(s);
    --resident_;
    where_.Set(slot.line, -1);
    if (slot.line == last_line_) last_line_ = -1;
    slot.line = -1;
    slot.dirty = false;
    slot.prev = -1;
    slot.next = free_head_;
    free_head_ = s;
  });
}

void Cache::FlushAll() {
  for (std::int32_t s = head_; s >= 0;) {
    std::int32_t next = slots_[s].next;
    if (slots_[s].dirty) {
      if (staging_ != nullptr) {
        // Live data is never dropped, even when the flush itself is
        // uncounted (e.g. Reset between phases).
        StagedWrite(static_cast<Addr>(slots_[s].line) * block_words_,
                    block_words_, line_buf(s));
      }
      if (counting_) ++stats_.block_writes;
    }
    where_.Set(slots_[s].line, -1);
    slots_[s].line = -1;
    slots_[s].dirty = false;
    slots_[s].prev = -1;
    slots_[s].next = free_head_;
    free_head_ = s;
    s = next;
  }
  head_ = tail_ = -1;
  last_line_ = -1;
  resident_ = 0;
}

void Cache::Reset() {
  bool saved = counting_;
  counting_ = false;
  FlushAll();
  counting_ = saved;
  stats_ = IoStats{};
}

void Cache::Discard() {
  // Rebuild the slot array wholesale rather than walking the lists: a fault
  // can abandon the cache in a partial state (a half-flushed LRU chain), and
  // this reconstruction is correct from any of them.
  for (std::size_t i = 0; i < num_slots_; ++i) {
    slots_[i].line = -1;
    slots_[i].dirty = false;
    slots_[i].next = static_cast<std::int32_t>(i) + 1;
    slots_[i].prev = -1;
  }
  slots_[num_slots_ - 1].next = -1;
  free_head_ = 0;
  head_ = tail_ = -1;
  last_line_ = -1;
  resident_ = 0;
  where_.Clear();
  stats_ = IoStats{};
  fault_ = Status::OK();
}

bool Cache::IsResident(Addr addr) const {
  return Lookup(LineOf(addr)) >= 0;
}

}  // namespace trienum::em
