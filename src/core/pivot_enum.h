// Lemma 2 (Hu, Tao, Chung): enumerate all triangles whose pivot edge lies in
// a designated edge set, in O(E/B + E'·E/(MB)) I/Os.
//
// The pivot set is consumed in chunks of alpha*M edges held in internal
// memory. For each chunk, one scan of the cone edge stream(s) — grouped by
// smaller endpoint v, which the §1.3 lex order provides for free — collects
// Gamma_v, the neighbours of v that appear in the resident chunk, and every
// resident pivot edge {u, w} with u, w in Gamma_v closes the triangle
// (v, u, w).
//
// The same engine serves two callers:
//   * the full Hu-Tao-Chung baseline (cone = pivot = E);
//   * step 3 of the paper's cache-aware algorithm, where the cone edges come
//     from color buckets (tau1,tau2) and (tau1,tau3) and the pivot from
//     (tau2,tau3) — which makes the paper's "ignore triangles whose cone
//     vertex is not colored tau1" a structural no-op.
//
// Each chunk (load, then cone scan) is independent of every other, and so
// is each call. Two engines run the same per-chunk code
// (ResidentChunk::Load plus ScanConesSerial):
//   * serial (a session at threads=1, the default, and every staged
//     store): the chunks in order on the calling thread;
//   * ordered (ctx.threads() > 1 over a memory-resident store): each chunk
//     is a par::RunOrdered task. A pool worker runs it against a recording
//     view of the store (em::GraphStore::RecordingView), which reads the
//     words through the direct view and appends every charge to a per-task
//     charge log; the triangles go to an emit buffer and the work to a
//     count. The caller commits the tasks strictly in serial order: it
//     takes the chunk's lease, replays the logs into the store's LRU cache
//     under the same pivot.chunk_load / pivot.cone_scan spans, adds the
//     work and flushes the emits to the sink. Triangles, emission order,
//     IoStats (reads, writes and hits), work and the phase table therefore
//     match threads=1 by construction (pinned by tests/test_parallel.cc).
//     Sinks see every emission on the calling thread.
//
// Both engines drive the src/simd/ two-regime intersection kernels: the
// cone-stream role probes go through batched flat-map lookups, and the
// emit phase intersects each resident pivot run against Gamma_3 either by
// merge kernel or — when Gamma_3 is large and dense (the high-degree-hub
// shape) — through a per-group offset bitmap. The regime is a pure
// host-performance choice: both produce the same matches in the same
// order, and the work totals and the Peek/Next charge sequence do not
// depend on it (ParallelInvariance.Lemma2EmitLoopFanOutOnDenseCore in
// tests/test_parallel.cc drives the bitmap regime on K_150).
#ifndef TRIENUM_CORE_PIVOT_ENUM_H_
#define TRIENUM_CORE_PIVOT_ENUM_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "core/sink.h"
#include "em/array.h"
#include "graph/types.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "simd/intersect.h"

namespace trienum::core {
namespace internal {

/// Minimal open-addressed map VertexId -> u32 payload (linear probing,
/// power-of-two capacity). The pivot chunk's adjacency index is rebuilt and
/// probed millions of times per run; a flat table beats both
/// std::unordered_map (per-node mallocs, bucket chasing) and binary search
/// (log-n mispredicted branches) on this hot path. Host-side only: no effect
/// on I/O accounting. Concurrent Get from pool workers is safe once the
/// build (Put/Add) phase is done.
class FlatVertexMap {
 public:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  void Reset(std::size_t expected) {
    std::size_t cap = 16;
    while (cap < 2 * expected) cap <<= 1;
    keys_.assign(cap, 0);
    vals_.assign(cap, kEmpty);
    mask_ = static_cast<std::uint32_t>(cap - 1);
  }

  /// Inserts or overwrites.
  void Put(graph::VertexId key, std::uint32_t val) {
    std::uint32_t i = Hash(key);
    while (vals_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask_;
    keys_[i] = key;
    vals_[i] = val;
  }

  /// ORs `bits` into the payload for `key` (inserting it if absent) — lets
  /// one table carry several roles per vertex, so the cone-stream hot loop
  /// pays one probe instead of one per role.
  void Add(graph::VertexId key, std::uint32_t bits) {
    std::uint32_t i = Hash(key);
    while (vals_[i] != kEmpty && keys_[i] != key) i = (i + 1) & mask_;
    keys_[i] = key;
    vals_[i] = vals_[i] == kEmpty ? bits : (vals_[i] | bits);
  }

  /// Payload for `key`, or kEmpty.
  std::uint32_t Get(graph::VertexId key) const {
    std::uint32_t i = Hash(key);
    while (vals_[i] != kEmpty) {
      if (keys_[i] == key) return vals_[i];
      i = (i + 1) & mask_;
    }
    return kEmpty;
  }

  /// Raw-pointer read view. The probe loops call Get millions of times
  /// between opaque calls (sink emission, work accounting); a by-value View
  /// lets the compiler keep the table pointers and mask in registers
  /// instead of reloading them after every such call. Invalidated by Reset.
  struct View {
    const graph::VertexId* keys;
    const std::uint32_t* vals;
    std::uint32_t mask;

    std::uint32_t Get(graph::VertexId key) const {
      std::uint32_t i = (static_cast<std::uint32_t>(key) * 0x9E3779B1u) & mask;
      while (vals[i] != kEmpty) {
        if (keys[i] == key) return vals[i];
        i = (i + 1) & mask;
      }
      return kEmpty;
    }
  };
  View view() const { return View{keys_.data(), vals_.data(), mask_}; }

 private:
  std::uint32_t Hash(graph::VertexId key) const {
    return (static_cast<std::uint32_t>(key) * 0x9E3779B1u) & mask_;
  }

  std::vector<graph::VertexId> keys_;
  std::vector<std::uint32_t> vals_;
  std::uint32_t mask_ = 0;
};

/// One resident pivot chunk with its host-side index: the sorted chunk, the
/// per-u run table, and the role map.
template <typename EdgeT>
struct ResidentChunk {
  using Access = graph::EdgeAccess<EdgeT>;

  std::vector<EdgeT> chunk;
  /// Each distinct smaller-endpoint u's [first, last) run in `chunk`.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  /// chunk[i]'s larger endpoint, extracted once so each u-run is a
  /// contiguous strictly-increasing u32 array — the shape the intersection
  /// kernels take directly (no per-element EdgeAccess in the emit loop).
  std::vector<std::uint32_t> vmax;
  /// Payload bit 0: max-side membership; bits 1+: 1 + `ranges` index of the
  /// vertex's u-side run. (The packed payload would alias the empty
  /// sentinel only at 2^30 resident ranges; chunks are capped at M/(w+6)
  /// records, orders of magnitude below.)
  FlatVertexMap roles;

  void Load(em::QuerySession& ctx, em::Array<EdgeT> pivot, std::size_t p0,
            std::size_t p1) {
    const std::size_t csize = p1 - p0;
    chunk.resize(csize);
    pivot.ReadTo(p0, p1, chunk.data());
    // Every caller passes lex-sorted pivot edges (whole edge list or color
    // buckets cut from one), so the chunk is almost always already sorted —
    // verify in one sweep and skip the sort. The fallback stays std::sort:
    // edges are unique under LexLess, so stability is moot, and the
    // in-place sort keeps the chunk lease the honest account of this
    // chunk's internal-memory footprint.
    if (!std::is_sorted(chunk.begin(), chunk.end(), graph::LexLess{})) {
      std::sort(chunk.begin(), chunk.end(), graph::LexLess{});
    }
    ctx.AddWork(csize * 2);

    ranges.clear();
    ranges.reserve(csize);
    vmax.resize(csize);
    roles.Reset(2 * csize);
    for (std::size_t i = 0; i < csize; ++i) {
      graph::VertexId u = Access::U(chunk[i]);
      if (ranges.empty() ||
          Access::U(chunk[i - 1]) != u) {  // chunk sorted: runs are contiguous
        roles.Add(u, (static_cast<std::uint32_t>(ranges.size()) + 1) << 1);
        ranges.emplace_back(static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(i + 1));
      } else {
        ranges.back().second = static_cast<std::uint32_t>(i + 1);
      }
      vmax[i] = static_cast<std::uint32_t>(Access::V(chunk[i]));
      roles.Add(Access::V(chunk[i]), 1u);
    }
  }
};

/// The serial loop engine: the exact Peek/Next charge sequence of the old
/// fused loop, with the pure host compute between charges reorganized into
/// kernel batches — one ProbeFlatMapU32 call per cone group resolves every
/// neighbour's roles, and the emit phase intersects each resident pivot run
/// against Gamma_3 through the two-regime kernels. A pivot run's larger
/// endpoints are strictly increasing (lex-sorted unique edges), so the
/// kernels' ascending match output IS the old run-scan emit order; work is
/// charged per batch with totals equal to the old per-item counts.
template <typename EdgeT>
void ScanConesSerial(em::QuerySession& ctx, const ResidentChunk<EdgeT>& rc,
                     em::Array<EdgeT> cone_a, em::Array<EdgeT> cone_b,
                     bool same_cone, TriangleSink& sink) {
  using Access = graph::EdgeAccess<EdgeT>;
  using graph::VertexId;
  // One pass over the cone stream(s), grouped by cone vertex v.
  em::Scanner<EdgeT> sa(cone_a);
  em::Scanner<EdgeT> sb;
  if (!same_cone) sb = em::Scanner<EdgeT>(cone_b);
  // Hot-state locals (see FlatVertexMap::View): the chunk, run table and
  // role map never change inside this scan, and keeping raw pointers in
  // locals stops the opaque sink/work calls from forcing reloads.
  const std::uint32_t* const vmax = rc.vmax.data();
  const std::pair<std::uint32_t, std::uint32_t>* const ranges =
      rc.ranges.data();
  const FlatVertexMap::View roles = rc.roles.view();
  // Gamma_v split by role: u-side neighbours carry their resolved ranges
  // index (no re-probe in the emit loop), w-side is membership only.
  std::vector<std::pair<VertexId, std::uint32_t>> g2;
  std::vector<VertexId> g3;
  std::vector<VertexId> nbrs;       // one group's neighbours, arrival order
  std::vector<std::uint32_t> role;  // their batch-probed role payloads
  std::vector<std::uint32_t> match;  // one run's kernel match output
  simd::DenseBitmap bitmap;

  while (sa.HasNext() || (!same_cone && sb.HasNext())) {
    VertexId v;
    if (!sa.HasNext()) {
      v = Access::U(sb.Peek());
    } else if (same_cone || !sb.HasNext()) {
      v = Access::U(sa.Peek());
    } else {
      v = std::min(Access::U(sa.Peek()), Access::U(sb.Peek()));
    }
    g2.clear();
    g3.clear();
    // Neighbour collection keeps the old loop's Peek/Next sequence; the
    // (pure) role probes move into one batched kernel call per group —
    // still one probe per cone edge per chunk, the hottest host loop of
    // Lemma 2.
    nbrs.clear();
    while (sa.HasNext() && Access::U(sa.Peek()) == v) {
      nbrs.push_back(Access::V(sa.Next()));
    }
    ctx.AddWork(nbrs.size());
    if (role.size() < nbrs.size()) role.resize(nbrs.size());
    simd::ProbeFlatMapU32(roles.keys, roles.vals, roles.mask, nbrs.data(),
                          nbrs.size(), role.data());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::uint32_t r = role[i];
      if (r != FlatVertexMap::kEmpty) {
        if ((r >> 1) != 0) g2.emplace_back(nbrs[i], (r >> 1) - 1);
        if (same_cone && (r & 1u) != 0) g3.push_back(nbrs[i]);
      }
    }
    if (!same_cone) {
      nbrs.clear();
      while (sb.HasNext() && Access::U(sb.Peek()) == v) {
        nbrs.push_back(Access::V(sb.Next()));
      }
      ctx.AddWork(nbrs.size());
      if (role.size() < nbrs.size()) role.resize(nbrs.size());
      simd::ProbeFlatMapU32(roles.keys, roles.vals, roles.mask, nbrs.data(),
                            nbrs.size(), role.data());
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (role[i] != FlatVertexMap::kEmpty && (role[i] & 1u) != 0) {
          g3.push_back(nbrs[i]);
        }
      }
    }
    if (g2.empty() || g3.empty()) continue;

    // The lex-sort precondition makes neighbours within a group arrive
    // v-ascending, so g3 is already sorted for the intersections below;
    // verify in one sweep (and repair) rather than trust the caller.
    if (!std::is_sorted(g3.begin(), g3.end())) {
      std::sort(g3.begin(), g3.end());
    }
    // Emit phase: intersect each g2 entry's resident pivot run with g3.
    // Regime choice is per group — dense Gamma_3 builds one offset bitmap
    // reused across every run; sparse Gamma_3 goes through the merge
    // kernel. Work is the run length, exactly the old per-element count.
    const simd::Regime regime =
        simd::ChooseRegime(g3.size(), g3.front(), g3.back());
    if (regime == simd::Regime::kBitmap) bitmap.Build(g3.data(), g3.size());
    for (const auto& [u, ri] : g2) {
      const auto& range = ranges[ri];
      const std::uint32_t* run = vmax + range.first;
      const std::size_t len = range.second - range.first;
      ctx.AddWork(len);
      if (match.size() < len) match.resize(len);
      std::size_t m;
      if (regime == simd::Regime::kBitmap) {
        m = bitmap.Probe(run, len, match.data());
      } else {
        m = simd::IntersectSorted(run, len, g3.data(), g3.size(),
                                  match.data())
                .matches;
      }
      for (std::size_t i = 0; i < m; ++i) sink.Emit(v, u, match[i]);
    }
  }
}

/// Host words per resident chunk record: the chunk itself, its adjacency
/// index, the endpoint filter and the per-v buffers (the kernel sidecars —
/// extracted endpoints, group bitmap, match scratch — add ~1.25 words per
/// record, inside the slack the power-of-two role table leaves). Each
/// chunk's scratch lease is this times its record count.
template <typename EdgeT>
inline constexpr std::size_t kChunkWordsPer = em::Array<EdgeT>::kWordsPer + 6;

}  // namespace internal

/// Fraction alpha of internal memory that one resident pivot chunk takes.
inline constexpr double kChunkFraction = 1.0 / 8.0;

/// One Lemma 2 call of an ordered batch (PivotEnumerateOrdered): arrays as
/// for PivotEnumerate, plus the caller's own charges that precede the call
/// in serial order.
template <typename EdgeT>
struct PivotCall {
  em::Array<EdgeT> cone_a;
  em::Array<EdgeT> cone_b;
  em::Array<EdgeT> pivot;
  /// Runs on the calling thread at the call's serial position: after the
  /// previous call's last chunk and before this call's first one.
  std::function<void()> before;
};

namespace internal {

/// Records per resident chunk: alpha*M words of records, at least one. At
/// alpha = 1/8 the chunk's scratch lease of kChunkWordsPer words a record
/// stays within M.
template <typename EdgeT>
std::size_t ChunkItems(const em::QuerySession& ctx) {
  const std::size_t items = static_cast<std::size_t>(
      static_cast<double>(ctx.memory_words()) * kChunkFraction /
      static_cast<double>(em::Array<EdgeT>::kWordsPer));
  return std::max<std::size_t>(items, 1);
}

/// One slot of the ordered engine, reused by every task RunOrdered assigns
/// it: a recording view of the store with a session counting the task's
/// work, the resident chunk, the chunk-load and cone-scan charge logs with
/// their work counts, and the chunk's triangles in emission order.
template <typename EdgeT>
struct ChunkSlot {
  std::unique_ptr<em::GraphStore> view;
  std::unique_ptr<em::QuerySession> session;  // over *view
  ResidentChunk<EdgeT> rc;
  em::ChargeLog load_log;
  em::ChargeLog scan_log;
  std::uint64_t load_work = 0;
  std::uint64_t scan_work = 0;
  CollectingSink emits;
};

}  // namespace internal

/// True when Lemma 2 chunks run on pool workers: more than one thread in
/// the session, and a store a worker can read without going through the
/// cache. A staged store (the file backend, the fault decorators) moves its
/// data through the LRU cache itself, so reads cannot be separated from
/// charges and it keeps the serial loop.
inline bool PivotChunksRunOrdered(em::QuerySession& ctx) {
  return ctx.threads() > 1 && !ctx.cache().staged();
}

/// \brief Runs `calls` exactly as PivotEnumerate on each in turn would —
/// same triangles in the same order, same IoStats, work and phase spans —
/// with the chunks computed on pool workers (see the header comment).
///
/// Requires PivotChunksRunOrdered(ctx). The device must not allocate until
/// this returns: workers read it through its direct view.
template <typename EdgeT>
void PivotEnumerateOrdered(em::QuerySession& ctx,
                           const std::vector<PivotCall<EdgeT>>& calls,
                           TriangleSink& sink) {
  struct Task {
    std::size_t call, p0, p1;
  };
  const std::size_t chunk_items = internal::ChunkItems<EdgeT>(ctx);
  em::GraphStore& store = ctx.store();
  std::vector<Task> tasks;
  for (std::size_t k = 0; k < calls.size(); ++k) {
    const PivotCall<EdgeT>& c = calls[k];
    if (c.pivot.empty() || c.cone_a.empty() || c.cone_b.empty()) continue;
    // Workers read every array through a view of the session's store.
    TRIENUM_CHECK(c.cone_a.store() == &store && c.cone_b.store() == &store &&
                  c.pivot.store() == &store);
    for (std::size_t p0 = 0; p0 < c.pivot.size(); p0 += chunk_items) {
      const std::size_t p1 = std::min(c.pivot.size(), p0 + chunk_items);
      tasks.push_back(Task{k, p0, p1});
    }
  }

  const std::size_t threads = ctx.threads();
  std::vector<internal::ChunkSlot<EdgeT>> slots(par::OrderedWindow(threads));
  for (internal::ChunkSlot<EdgeT>& s : slots) {
    s.view = store.RecordingView();
    s.session = std::make_unique<em::QuerySession>(*s.view);
    // Full-size chunk buffers, allocated here so the workers' Loads reuse
    // them rather than grow per-thread malloc arenas, which keep what they
    // grow resident (about 5 MB of peak RSS on rmat16-mem).
    s.rc.chunk.reserve(chunk_items);
    s.rc.ranges.reserve(chunk_items);
    s.rc.vmax.reserve(chunk_items);
    s.rc.roles.Reset(2 * chunk_items);
  }
  const em::Addr top = ctx.device().Mark();
  const em::Word* const words = ctx.device().direct_view();
  std::size_t next_before = 0;  // first call whose `before` has not run
  auto run_befores = [&](std::size_t end) {
    for (; next_before < end; ++next_before) {
      if (calls[next_before].before) calls[next_before].before();
    }
  };

  // A worker runs the serial engine's own code on the chunk, against its
  // slot's recording view: the charges land in the slot's logs, the
  // triangles in its emit buffer.
  auto compute = [&](std::size_t i, std::size_t s) {
    const Task& t = tasks[i];
    const PivotCall<EdgeT>& c = calls[t.call];
    internal::ChunkSlot<EdgeT>& slot = slots[s];
    em::GraphStore* view = slot.view.get();
    auto on_view = [view](const em::Array<EdgeT>& a) {
      return em::Array<EdgeT>(view, a.base(), a.size());
    };
    slot.emits.mutable_triangles().clear();
    slot.load_log.clear();
    slot.scan_log.clear();
    view->cache().Record(&slot.load_log);
    slot.session->ResetWork();
    slot.rc.Load(*slot.session, on_view(c.pivot), t.p0, t.p1);
    slot.load_work = slot.session->work();
    view->cache().Record(&slot.scan_log);
    slot.session->ResetWork();
    internal::ScanConesSerial<EdgeT>(
        *slot.session, slot.rc, on_view(c.cone_a), on_view(c.cone_b),
        c.cone_a.base() == c.cone_b.base(), slot.emits);
    slot.scan_work = slot.session->work();
    view->cache().Record(nullptr);
  };
  // The caller then issues what the serial loop would have at this point:
  // the lease, the two phases' charges and work, and the emissions.
  auto commit = [&](std::size_t i, std::size_t s) {
    const Task& t = tasks[i];
    const internal::ChunkSlot<EdgeT>& slot = slots[s];
    run_befores(t.call + 1);
    const std::size_t csize = t.p1 - t.p0;
    em::ScratchLease lease =
        ctx.LeaseScratch(csize * internal::kChunkWordsPer<EdgeT>);
    {
      obs::Span span("pivot.chunk_load");
      span.AddArg("chunk_items", csize);
      store.cache().Replay(slot.load_log);
      ctx.AddWork(slot.load_work);
    }
    {
      obs::Span span("pivot.cone_scan");
      span.AddArg("chunk_items", csize);
      store.cache().Replay(slot.scan_log);
      ctx.AddWork(slot.scan_work);
      for (const graph::Triangle& tri : slot.emits.triangles()) {
        sink.Emit(tri.a, tri.b, tri.c);
      }
    }
    // Workers are reading the device through `words` right now.
    TRIENUM_CHECK_MSG(
        ctx.device().Mark() == top && ctx.device().direct_view() == words,
        "device allocation while Lemma 2 chunks are in flight");
  };
  ctx.NoteThreadsUsed(par::RunOrdered(tasks.size(), threads, compute, commit));
  run_befores(calls.size());
}

/// \brief Enumerates all triangles (v, u, w), v < u < w, with cone edges
/// {v,u} in `cone_a`, {v,w} in `cone_b` and pivot edge {u,w} in `pivot`.
///
/// Preconditions: all three arrays are lex-sorted with u < v per edge. Pass
/// the same array as `cone_a` and `cone_b` when they coincide (detected by
/// base address; the stream is then scanned once and feeds both roles).
template <typename EdgeT>
void PivotEnumerate(em::QuerySession& ctx, em::Array<EdgeT> cone_a,
                    em::Array<EdgeT> cone_b, em::Array<EdgeT> pivot,
                    TriangleSink& sink) {
  if (pivot.empty() || cone_a.empty() || cone_b.empty()) return;
  if (PivotChunksRunOrdered(ctx)) {
    PivotEnumerateOrdered<EdgeT>(
        ctx, {PivotCall<EdgeT>{cone_a, cone_b, pivot, {}}}, sink);
    return;
  }

  const bool same_cone = cone_a.base() == cone_b.base();
  const std::size_t chunk_items = internal::ChunkItems<EdgeT>(ctx);
  internal::ResidentChunk<EdgeT> rc;
  for (std::size_t p0 = 0; p0 < pivot.size(); p0 += chunk_items) {
    const std::size_t p1 = std::min(pivot.size(), p0 + chunk_items);
    const std::size_t csize = p1 - p0;

    em::ScratchLease lease =
        ctx.LeaseScratch(csize * internal::kChunkWordsPer<EdgeT>);
    {
      obs::Span span("pivot.chunk_load");
      span.AddArg("chunk_items", csize);
      rc.Load(ctx, pivot, p0, p1);
    }

    {
      obs::Span span("pivot.cone_scan");
      span.AddArg("chunk_items", csize);
      internal::ScanConesSerial<EdgeT>(ctx, rc, cone_a, cone_b, same_cone,
                                       sink);
    }
  }
}

}  // namespace trienum::core

#endif  // TRIENUM_CORE_PIVOT_ENUM_H_
