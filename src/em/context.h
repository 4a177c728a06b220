// The state model of the external-memory layer, split by lifetime:
//
//   * GraphStore — graph-lifetime state: the device (memory- or file-backed,
//     see em/storage.h) and the one LRU cache with its geometry (M, B). One
//     store holds one resident data set (typically a normalized graph) and
//     serves any number of queries over it. A second cache level is measured
//     by a second run at that level's (M, B), not by a second cache here:
//     the §3 algorithm never reads M or B, so both runs issue one access
//     stream (see bench/bench_multilevel.cc).
//
//   * QuerySession — query-lifetime state: scratch-memory accounting, the
//     internal-work counter and the RNG seed of one measured run. A session
//     borrows a GraphStore and forwards its cache, device and allocator, so
//     algorithm code sees one handle. Sessions are cheap; reusing one across
//     queries is equivalent (bit-for-bit, including IoStats) to a fresh
//     session per query as long as each query starts cold (Cache::Reset) and
//     releases its device region.
//
//   * Context — the historical fused object, kept as "a store plus one
//     session over it": it owns a GraphStore and IS-A QuerySession. Existing
//     single-run call sites (tests, benches, examples) construct a Context
//     and hand it to algorithms, which take QuerySession&.
//
// See README.md "Query sessions" for the lifetime rules and what is charged
// when.
#ifndef TRIENUM_EM_CONTEXT_H_
#define TRIENUM_EM_CONTEXT_H_

#include <cstdint>
#include <cstring>
#include <memory>

#include "common/status.h"
#include "em/cache.h"
#include "em/defs.h"
#include "em/device.h"

namespace trienum::em {

class GraphStore;
class QuerySession;

// Typed device array; defined in array.h.
template <typename T>
class Array;

/// \brief RAII accounting of host-side working buffers ("internal memory").
///
/// Cache-aware algorithms stage data in buffers of at most M words (run
/// formation, pivot chunks, merge heaps). Each such buffer takes a lease; the
/// session checks that the total leased at any instant never exceeds M, which
/// enforces the model's internal-memory budget. Cache-oblivious algorithms
/// lease only O(1)-sized buffers. Leases are query-lifetime state: they live
/// on the QuerySession, never on the store.
///
/// An over-budget lease throws a Status (InvalidArgument, naming M and the
/// lease size): an M below an algorithm's fixed buffer size is a user input,
/// not a library bug. Like IoFault, it is caught only by the query layer,
/// which discards the failed query's cache state and returns the Status.
class ScratchLease {
 public:
  ScratchLease() = default;
  ScratchLease(QuerySession* session, std::size_t words);
  ~ScratchLease();
  ScratchLease(ScratchLease&& o) noexcept;
  ScratchLease& operator=(ScratchLease&& o) noexcept;
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  std::size_t words() const { return words_; }

 private:
  QuerySession* session_ = nullptr;
  std::size_t words_ = 0;
};

/// \brief RAII region of device allocations, popped on destruction.
class DeviceRegion {
 public:
  explicit DeviceRegion(GraphStore* store);
  ~DeviceRegion();
  DeviceRegion(const DeviceRegion&) = delete;
  DeviceRegion& operator=(const DeviceRegion&) = delete;

 private:
  GraphStore* store_;
  Addr mark_;
};

/// \brief Graph-lifetime state: device + backend + cache geometry (M, B).
///
/// The store is the data plane. Every em::Array is bound to a store (not to
/// a session), so arrays written by one session — e.g. the normalized graph
/// produced by an uncounted ingest — are readable by every later session
/// over the same store. The store outlives all of its sessions; it is
/// neither copyable nor movable (arrays and sessions hold pointers into it).
class GraphStore {
 public:
  explicit GraphStore(const EmConfig& cfg);
  GraphStore(const GraphStore&) = delete;
  GraphStore& operator=(const GraphStore&) = delete;

  Device& device() { return device_; }
  const Device& device() const { return device_; }
  Cache& cache() { return cache_; }
  const Cache& cache() const { return cache_; }

  /// Reads `words` device words at `a` into `out`, charging I/Os exactly as
  /// a TouchRange of the same span. All em::Array accesses route through
  /// here (and WriteWords below), which is what makes the storage backend
  /// swappable: with a direct view (memory backend) this is a touch plus a
  /// memcpy; otherwise the staged cache moves real blocks.
  void ReadWords(Addr a, std::size_t words, void* out) {
    if (!cache_.staged()) {
      cache_.TouchRange(a, words, /*write=*/false);
      std::memcpy(out, device_.direct_view() + a, words * sizeof(Word));
    } else {
      cache_.ReadRange(a, words, out);
    }
  }

  /// Writes `words` device words at `a` from `in`; the I/O-accounting dual
  /// of ReadWords (sequential block-aligned writes are charged as pure
  /// output).
  void WriteWords(Addr a, std::size_t words, const void* in) {
    if (!cache_.staged()) {
      cache_.TouchRange(a, words, /*write=*/true);
      std::memcpy(device_.direct_view() + a, in, words * sizeof(Word));
    } else {
      cache_.WriteRange(a, words, in);
    }
  }

  /// Block-buffered stream transfers: move [a, a+words) in one call while
  /// charging the exact touch sequence of a record-by-record pass in
  /// `elem_words`-word records (see Cache::ScanRange). These back
  /// Scanner/Writer in em/array.h: the IoStats of per-record Get/Set calls,
  /// a fraction of the bookkeeping work.
  void ReadScan(Addr a, std::size_t words, std::size_t elem_words, void* out) {
    if (!cache_.staged()) {
      cache_.ScanRange(a, words, elem_words, /*write=*/false);
      std::memcpy(out, device_.direct_view() + a, words * sizeof(Word));
    } else {
      cache_.ReadScan(a, words, elem_words, out);
    }
  }

  void WriteScan(Addr a, std::size_t words, std::size_t elem_words,
                 const void* in) {
    if (!cache_.staged()) {
      cache_.ScanRange(a, words, elem_words, /*write=*/true);
      std::memcpy(device_.direct_view() + a, in, words * sizeof(Word));
    } else {
      cache_.WriteScan(a, words, elem_words, in);
    }
  }

  /// Memory-backend pointer to device word `a` (the raw simulator view), or
  /// nullptr when the device stages real data. Array::MemRef is the one
  /// caller: it pairs the pointer with explicit TouchRange charges to keep
  /// IoStats exact while skipping the per-record copy chain. Invalidated by
  /// Alloc.
  Word* DirectData(Addr a) {
    return cache_.staged() ? nullptr : device_.direct_view() + a;
  }

  /// A recording view of this memory-resident store, for running counted
  /// code on another thread. Arrays rebound to the view (Array(view, base,
  /// n)) read the same words through the direct view, while every charge
  /// goes to the log set by the view's cache().Record instead of to any
  /// cache; cache().Replay then applies the log to this store's cache on its
  /// owner thread. The view records at this store's line size B. It is
  /// valid while this store's device neither grows nor releases the words
  /// it reads.
  std::unique_ptr<GraphStore> RecordingView();

  /// Internal memory size M in words. Only cache-aware algorithms may
  /// consult this.
  std::size_t memory_words() const { return cfg_.memory_words; }

  /// Block size B in words. Only cache-aware algorithms may consult this.
  std::size_t block_words() const { return cfg_.block_words; }

  const EmConfig& config() const { return cfg_; }

  /// Allocates `n` elements of T on the device, block-aligned. The returned
  /// array is bound to this store, not to any session.
  /// (Declared here; defined in array.h to avoid a cyclic include.)
  template <typename T>
  Array<T> Alloc(std::size_t n);

  /// Opens a device allocation region (freed when the returned object dies).
  DeviceRegion Region() { return DeviceRegion(this); }

  /// Pops every allocation made since `mark` (DeviceRegion's release). The
  /// popped words are dead, so resident lines lying wholly at or above the
  /// mark lose their dirty bit (Cache::DropDirty).
  /// They stay resident: the next allocation reuses these addresses at once,
  /// so evicting them would cost reads.
  void Release(Addr mark);

  /// Declares [addr, addr+words) never read again while it stays allocated:
  /// the lines wholly inside it leave the cache without write-back
  /// (Cache::DropLines). A line shared with a neighbour is kept.
  void DropLines(Addr addr, std::size_t words);

 private:
  /// The RecordingView constructor: an alias of `source`'s data with a
  /// one-line recording cache of `line_words`.
  GraphStore(GraphStore& source, std::size_t line_words);

  EmConfig cfg_;
  Device device_;
  Cache cache_;
};

/// \brief Query-lifetime state over a borrowed GraphStore.
///
/// Every EM algorithm in the library takes a QuerySession&: the session
/// forwards the store's cache, device and allocator unchanged (arrays move
/// their data through the store itself) and adds the per-query state —
/// host-scratch leases, the internal-work counter, the RNG seed and the host
/// thread count. Reusing one session for many queries is supported and
/// bit-identical to fresh sessions provided each query starts cold (see
/// query::RunQuery, which enforces the contract).
class QuerySession {
 public:
  explicit QuerySession(GraphStore& store)
      : store_(&store), seed_(store.config().seed) {}
  QuerySession(const QuerySession&) = delete;
  QuerySession& operator=(const QuerySession&) = delete;

  GraphStore& store() { return *store_; }
  const GraphStore& store() const { return *store_; }

  // --- forwarded data plane (graph-lifetime state) ---------------------
  Device& device() { return store_->device(); }
  Cache& cache() { return store_->cache(); }
  const Cache& cache() const {
    return static_cast<const GraphStore*>(store_)->cache();
  }
  void DropLines(Addr addr, std::size_t words) {
    store_->DropLines(addr, words);
  }
  std::size_t memory_words() const { return store_->memory_words(); }
  std::size_t block_words() const { return store_->block_words(); }
  const EmConfig& config() const { return store_->config(); }

  /// Allocates on the store's device (the array is store-bound; it may
  /// outlive this session if the caller intends graph-lifetime data).
  /// (Declared here; defined in array.h to avoid a cyclic include.)
  template <typename T>
  Array<T> Alloc(std::size_t n);

  DeviceRegion Region() { return store_->Region(); }

  // --- query-lifetime state --------------------------------------------
  /// Leases `words` of host scratch; throws an InvalidArgument Status if the
  /// total would exceed M (see ScratchLease).
  ScratchLease LeaseScratch(std::size_t words) {
    return ScratchLease(this, words);
  }
  std::size_t scratch_in_use() const { return scratch_used_; }

  /// Internal-work counter (RAM operations), for the paper's O(E^{3/2}) work
  /// optimality remark.
  void AddWork(std::uint64_t n) { work_ += n; }
  std::uint64_t work() const { return work_; }
  void ResetWork() { work_ = 0; }

  /// Seed of this query's randomized components. Defaults to the store's
  /// configured master seed; a per-query override makes a reused session
  /// reproduce exactly what a fresh run with --seed=<s> would.
  std::uint64_t seed() const { return seed_; }
  void set_seed(std::uint64_t s) { seed_ = s; }

  /// Host compute threads for this session's parallel phases (Lemma 2
  /// chunks, clique4's pair join); 1, the default, and 0 run serially. It
  /// never moves an I/O. query::RunQuery sets it from Query::threads. The
  /// worker pool is process-wide and runs one region at a time, so sessions
  /// on different host threads must not fan out at once.
  std::size_t threads() const { return threads_; }
  void set_threads(std::size_t n) { threads_ = n; }

  /// Threads the widest parallel region of this query ran on, the caller
  /// included; 1 while nothing fanned out, which is what a staged store or
  /// an algorithm without a parallel phase reports at any threads().
  /// query::RunQuery resets it at each query's cold start.
  std::size_t threads_used() const { return threads_used_; }
  void NoteThreadsUsed(std::size_t n) {
    if (n > threads_used_) threads_used_ = n;
  }
  void ResetThreadsUsed() { threads_used_ = 1; }

 private:
  friend class ScratchLease;

  GraphStore* store_;
  std::size_t scratch_used_ = 0;
  std::uint64_t work_ = 0;
  std::uint64_t seed_ = 0;
  std::size_t threads_ = 1;
  std::size_t threads_used_ = 1;
};

namespace internal {
/// Holds the store of a fused Context; a private base so it is constructed
/// before the QuerySession base that borrows it.
struct OwnedStore {
  explicit OwnedStore(const EmConfig& cfg) : store(cfg) {}
  GraphStore store;
};
}  // namespace internal

/// \brief The fused store + session: one device, one measured run.
///
/// Kept as the convenience type for single-query call sites (tests, benches,
/// examples): constructing a Context is exactly "make a GraphStore, open one
/// QuerySession over it". Long-lived services hold a GraphStore (via
/// query::LoadedGraph) and open sessions per query instead.
class Context : private internal::OwnedStore, public QuerySession {
 public:
  explicit Context(const EmConfig& cfg)
      : internal::OwnedStore(cfg), QuerySession(this->internal::OwnedStore::store) {}
};

}  // namespace trienum::em

#endif  // TRIENUM_EM_CONTEXT_H_
