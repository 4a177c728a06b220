#include "core/clique4.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/rng.h"
#include "core/cache_aware.h"
#include "core/sink.h"
#include "core/vertex_enum.h"
#include "extsort/ext_merge_sort.h"
#include "extsort/scan_ops.h"
#include "graph/host_graph.h"
#include "hashing/kwise.h"
#include "par/partition.h"
#include "par/thread_pool.h"
#include "simd/flat_set.h"

namespace trienum::core {
namespace {

using graph::Edge;
using graph::VertexId;

/// Fraction of M available to one in-memory subproblem.
constexpr double kCapacityFraction = 1.0 / 3;

std::uint64_t PackEdge(VertexId a, VertexId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Emits the sorted 4-tuple {x} union {a < b < c}.
void EmitWith(CliqueSink& sink, VertexId x, VertexId a, VertexId b, VertexId c) {
  if (x < a) {
    sink.Emit4(x, a, b, c);
  } else if (x < b) {
    sink.Emit4(a, x, b, c);
  } else if (x < c) {
    sink.Emit4(a, b, x, c);
  } else {
    sink.Emit4(a, b, c, x);
  }
}

/// One color-4-tuple subproblem: six device slices, one per vertex-pair
/// slot. Oversized subproblems are split with a fresh 4-wise bit (the §3
/// refinement) until they fit in memory.
class QuadRecursor {
 public:
  QuadRecursor(em::QuerySession& ctx, CliqueSink& sink, std::size_t capacity_items,
               SplitMix64* rng)
      : ctx_(ctx), sink_(sink), capacity_(capacity_items), rng_(rng) {}

  void Solve(std::array<em::Array<Edge>, 6> slots, int depth) {
    std::size_t total = 0;
    for (const auto& s : slots) total += s.size();
    // A 4-clique needs one edge per slot.
    for (const auto& s : slots) {
      if (s.empty()) return;
    }
    if (total <= capacity_) {
      // Internal-memory layout: host copies of the two pair-generating
      // slots plus one membership hash over the union (~3 words/edge).
      em::ScratchLease lease = ctx_.LeaseScratch(total * 3);
      std::vector<Edge> b12(slots[0].size());
      slots[0].ReadTo(0, slots[0].size(), b12.data());
      std::vector<Edge> b34(slots[5].size());
      slots[5].ReadTo(0, slots[5].size(), b34.data());
      // Membership over all six slots: a flat open-addressed set (packed
      // edges are never 0, the empty sentinel), probed four-at-a-time by
      // the join below. ContainsAll4 overlaps the four (usually
      // cache-missing) slot loads.
      simd::FlatU64Set has;
      has.Reset(total);
      std::vector<Edge> tmp;
      for (int i = 0; i < 6; ++i) {
        tmp.resize(slots[i].size());
        slots[i].ReadTo(0, slots[i].size(), tmp.data());
        for (const Edge& e : tmp) has.Insert(PackEdge(e.u, e.v));
      }
      // The pair join is pure host work on the staged copies — everything
      // below runs after the slots' charged reads and emits straight to the
      // sink, so at the session's thread count it fans out over the par
      // pool: one contiguous block of b12 rows per part, per-part emit
      // buffers flushed in partition order. Emission order and the work
      // counter are identical to the fused serial loop (kept below for the
      // default threads=1).
      ctx_.AddWork(b12.size() * b34.size());
      auto match = [&](const Edge& e12, const Edge& e34) {
        return e12.v < e34.u &&  // enforce v2 < v3
               has.ContainsAll4(
                   PackEdge(e12.u, e34.u), PackEdge(e12.u, e34.v),
                   PackEdge(e12.v, e34.u), PackEdge(e12.v, e34.v));
      };
      const std::size_t threads = ctx_.threads();
      const std::size_t parts =
          par::PartsFor(b12.size() * b34.size(), threads, kJoinGrainPairs);
      if (parts <= 1) {
        for (const Edge& e12 : b12) {
          for (const Edge& e34 : b34) {
            if (match(e12, e34)) sink_.Emit4(e12.u, e12.v, e34.u, e34.v);
          }
        }
        return;
      }
      std::vector<std::vector<std::array<VertexId, 4>>> bufs(parts);
      auto join = [&](std::size_t k) {
        const par::Range rows = par::PartRange(b12.size(), parts, k);
        for (std::size_t i = rows.lo; i < rows.hi; ++i) {
          for (const Edge& e34 : b34) {
            if (match(b12[i], e34)) {
              bufs[k].push_back({b12[i].u, b12[i].v, e34.u, e34.v});
            }
          }
        }
      };
      ctx_.NoteThreadsUsed(par::ThreadPool::Global().Run(parts, threads, join));
      for (const auto& buf : bufs) {
        for (const auto& q : buf) sink_.Emit4(q[0], q[1], q[2], q[3]);
      }
      return;
    }
    TRIENUM_CHECK_MSG(depth < 64, "color refinement failed to shrink subproblem");

    // Refine: one fresh 4-wise bit; each of the 16 sign patterns of the four
    // positions is a child; slot (i, j) edges route on (bit(u), bit(v)).
    hashing::FourWiseHash bh(rng_->Next());
    static constexpr int kSlotPos[6][2] = {{0, 1}, {0, 2}, {0, 3},
                                           {1, 2}, {1, 3}, {2, 3}};
    for (int pattern = 0; pattern < 16; ++pattern) {
      em::DeviceRegion region = ctx_.Region();
      std::array<em::Array<Edge>, 6> child;
      bool viable = true;
      for (int s = 0; s < 6 && viable; ++s) {
        std::uint32_t want_u = (pattern >> kSlotPos[s][0]) & 1;
        std::uint32_t want_v = (pattern >> kSlotPos[s][1]) & 1;
        em::Array<Edge> out = ctx_.Alloc<Edge>(slots[s].size());
        em::Writer<Edge> w(out);
        em::Scanner<Edge> in(slots[s]);
        // The refine scan stays fused (read, hash, push per record): its
        // reads interleave with the child Writer's flushes, and that
        // interleaving is part of the pinned LRU charge sequence. The
        // parallel window of this algorithm is the in-memory join above —
        // charge-free between its staging reads and its emissions.
        while (in.HasNext()) {
          Edge e = in.Next();
          ctx_.AddWork(1);
          const std::uint32_t pb = bh.PairBits(e.u, e.v);
          if ((pb & 1u) == want_u && (pb >> 1) == want_v) w.Push(e);
        }
        if (w.count() == 0) viable = false;
        child[s] = w.Written();
      }
      if (viable) Solve(child, depth + 1);
    }
  }

  /// Candidate pairs per pool partition below which the in-memory join
  /// stays serial (a hash-set probe is tens of nanoseconds; a partition
  /// must amortize the fork/join handshake).
  static constexpr std::size_t kJoinGrainPairs = std::size_t{1} << 12;

 private:
  em::QuerySession& ctx_;
  CliqueSink& sink_;
  std::size_t capacity_;
  SplitMix64* rng_;
};

}  // namespace

void EnumerateFourCliques(em::QuerySession& ctx, const graph::EmGraph& g,
                          CliqueSink& sink) {
  const std::size_t m0 = g.num_edges();
  if (m0 < 6) return;
  auto region = ctx.Region();
  SplitMix64 rng(ctx.seed() ^ 0x4C14);

  em::Array<Edge> work = ctx.Alloc<Edge>(m0);
  extsort::Copy(g.edges, work);
  std::size_t wlen = m0;

  // ---- Step 1: 4-cliques through high-degree vertices -----------------------
  // For each x with deg > sqrt(E*M) (highest rank first): materialize E'_x,
  // the edges with both endpoints adjacent to x; its *triangles* are x's
  // 4-cliques. E'_x is renormalized into its own little EmGraph and handed
  // to the §2 triangle algorithm; emissions are mapped back.
  const double threshold =
      std::sqrt(static_cast<double>(m0) * static_cast<double>(ctx.memory_words()));
  VertexId h0 = g.num_vertices;
  for (VertexId i = 0; i < g.num_vertices; ++i) {
    if (static_cast<double>(g.degrees.Get(i)) > threshold) {
      h0 = i;
      break;
    }
  }
  for (VertexId x = g.num_vertices; x-- > h0;) {
    em::Array<Edge> cur = work.Slice(0, wlen);
    em::DeviceRegion sub_region = ctx.Region();
    em::Array<Edge> gamma_edges = ctx.Alloc<Edge>(wlen);
    em::Writer<Edge> gw(gamma_edges);
    EnumerateTrianglesContaining<Edge>(
        ctx, cur, x, extsort::AwareSorter{},
        [&](VertexId u, VertexId w, std::uint32_t, std::uint32_t,
            std::uint32_t) { gw.Push(Edge{u, w}); });
    if (gw.count() >= 3) {
      std::vector<VertexId> back;
      graph::EmGraph sub = graph::NormalizeEdges(ctx, gw.Written(), &back);
      CallbackSink tri_sink([&](VertexId a, VertexId b, VertexId c) {
        VertexId oa = back[a], ob = back[b], oc = back[c];
        // Renormalization may permute; restore id order before emitting.
        VertexId lo = std::min({oa, ob, oc});
        VertexId hi = std::max({oa, ob, oc});
        VertexId mid = oa ^ ob ^ oc ^ lo ^ hi;
        EmitWith(sink, x, lo, mid, hi);
      });
      EnumerateCacheAware(ctx, sub, tri_sink);
    }
    wlen = extsort::Filter(cur, work, [x](const Edge& e) {
      return e.u != x && e.v != x;
    });
  }
  if (wlen < 6) return;
  em::Array<Edge> low = work.Slice(0, wlen);

  // ---- Step 2: coloring and bucketing (as in §2) -----------------------------
  std::uint32_t c = 1;
  while (static_cast<std::uint64_t>(c) * c * ctx.memory_words() < wlen) c <<= 1;
  hashing::FourWiseHash color_hash(rng.Next());
  auto color = [&](VertexId v) { return color_hash.Color(v, c); };

  em::Array<graph::ColoredEdge> colored = ctx.Alloc<graph::ColoredEdge>(wlen);
  for (std::size_t i = 0; i < wlen; ++i) {
    Edge e = low.Get(i);
    colored.Set(i, graph::ColoredEdge{e.u, e.v, color(e.u), color(e.v)});
  }
  extsort::ExternalMergeSort(ctx, colored, graph::ColorClassLess{});
  const std::size_t num_keys = static_cast<std::size_t>(c) * c;
  em::Array<std::uint64_t> offsets = ctx.Alloc<std::uint64_t>(num_keys + 1);
  em::Array<Edge> buckets = ctx.Alloc<Edge>(wlen);
  for (std::size_t k = 0; k <= num_keys; ++k) offsets.Set(k, 0);
  for (std::size_t i = 0; i < wlen; ++i) {
    graph::ColoredEdge e = colored.Get(i);
    std::size_t key = static_cast<std::size_t>(e.cu) * c + e.cv;
    offsets.Set(key + 1, offsets.Get(key + 1) + 1);
    buckets.Set(i, Edge{e.u, e.v});
  }
  {
    std::uint64_t run = 0;
    for (std::size_t k = 0; k <= num_keys; ++k) {
      run += offsets.Get(k);
      offsets.Set(k, run);
    }
  }
  auto bucket = [&](std::uint32_t a, std::uint32_t b) {
    std::size_t key = static_cast<std::size_t>(a) * c + b;
    std::size_t lo = offsets.Get(key);
    std::size_t hi = offsets.Get(key + 1);
    return buckets.Slice(lo, hi - lo);
  };

  // ---- Step 3: all ordered color 4-tuples ------------------------------------
  std::size_t capacity = std::max<std::size_t>(
      16, static_cast<std::size_t>(static_cast<double>(ctx.memory_words()) *
                                   kCapacityFraction) -
              16);
  QuadRecursor recursor(ctx, sink, capacity, &rng);
  for (std::uint32_t t1 = 0; t1 < c; ++t1) {
    for (std::uint32_t t2 = 0; t2 < c; ++t2) {
      if (bucket(t1, t2).empty()) continue;
      for (std::uint32_t t3 = 0; t3 < c; ++t3) {
        if (bucket(t2, t3).empty() || bucket(t1, t3).empty()) continue;
        for (std::uint32_t t4 = 0; t4 < c; ++t4) {
          std::array<em::Array<Edge>, 6> slots = {
              bucket(t1, t2), bucket(t1, t3), bucket(t1, t4),
              bucket(t2, t3), bucket(t2, t4), bucket(t3, t4)};
          recursor.Solve(slots, 0);
        }
      }
    }
  }
}

std::uint64_t CountFourCliquesHost(const std::vector<Edge>& edges) {
  graph::HostGraph g(edges);
  std::uint64_t count = 0;
  // For each triangle (u, v, w): count common forward neighbours beyond w.
  for (const Edge& e : g.CanonicalEdges()) {
    const auto& fu = g.Forward(e.u);
    const auto& fv = g.Forward(e.v);
    std::size_t i = 0, j = 0;
    while (i < fu.size() && j < fv.size()) {
      if (fu[i] < fv[j]) {
        ++i;
      } else if (fv[j] < fu[i]) {
        ++j;
      } else {
        VertexId w = fu[i];
        // (u, v, w) is a triangle; extend with x > w adjacent to all three.
        const auto& fw = g.Forward(w);
        for (VertexId x : fw) {
          if (x > w && g.HasEdge(e.u, x) && g.HasEdge(e.v, x)) ++count;
        }
        ++i;
        ++j;
      }
    }
  }
  return count;
}

double Clique4IoBound(std::size_t num_edges, std::size_t m, std::size_t b) {
  double e = static_cast<double>(num_edges);
  return e * e / (static_cast<double>(m) * static_cast<double>(b));
}

}  // namespace trienum::core
