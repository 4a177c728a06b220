#include "core/cache_oblivious.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/dementiev.h"
#include "core/vertex_enum.h"
#include "extsort/scan_ops.h"
#include "extsort/sorter.h"
#include "hashing/kwise.h"
#include "obs/trace.h"

namespace trienum::core {

namespace internal {

std::uint32_t HighDegreeFinder::EqMask(const Lanes (&lanes)[kGroups],
                                       std::uint32_t x) {
  const Lanes xs = Lanes{} + x;
  Lanes acc{};
  for (int g = 0; g < kGroups; ++g) {
    const Lanes bit = Lanes{1, 2, 4, 8} << (4 * g);
    acc |= reinterpret_cast<Lanes>(lanes[g] == xs) & bit;
  }
  return acc[0] | acc[1] | acc[2] | acc[3];
}

void HighDegreeFinder::Offer(graph::VertexId x) {
  const std::uint32_t hit = EqMask(key_, x) & occupied_;
  if (hit != 0) {
    const int k = __builtin_ctz(hit);
    ++cnt_[k >> 2][k & 3];
  } else if (occupied_ != kSlots) {
    const int k = __builtin_ctz(~occupied_);  // lowest free slot first
    key_[k >> 2][k & 3] = x;
    cnt_[k >> 2][k & 3] = 1;
    occupied_ |= 1u << k;
  } else {
    // All 31 counters are live, so every decrement stays >= 0; lane 31
    // wraps, but it is never occupied.
    for (int g = 0; g < kGroups; ++g) cnt_[g] -= 1;
    occupied_ &= ~EqMask(cnt_, 0);
  }
}

void HighDegreeFinder::Count(graph::VertexId u, graph::VertexId v) {
  Offer(u);
  Offer(v);
  ++counted_;
}

void HighDegreeFinder::BeginVerify() {
  for (int g = 0; g < kGroups; ++g) cnt_[g] = Lanes{};
}

void HighDegreeFinder::Verify(graph::VertexId u, graph::VertexId v) {
  // A true compare is all-ones, so subtracting it adds one. Lanes that hold
  // no candidate count too, but High() never reads them.
  const Lanes us = Lanes{} + u;
  const Lanes vs = Lanes{} + v;
  for (int g = 0; g < kGroups; ++g) {
    cnt_[g] -= reinterpret_cast<Lanes>(key_[g] == us);
    cnt_[g] -= reinterpret_cast<Lanes>(key_[g] == vs);
  }
}

void HighDegreeFinder::High(std::size_t threshold,
                            std::vector<graph::VertexId>& out) const {
  for (std::uint32_t m = occupied_; m != 0; m &= m - 1) {
    const int k = __builtin_ctz(m);
    if (cnt_[k >> 2][k & 3] >= threshold) out.push_back(key_[k >> 2][k & 3]);
  }
}

JoinCounts StreamJoin(em::QuerySession& ctx, em::Array<graph::ColoredEdge> node,
                      std::array<std::uint32_t, 3> col, TriangleSink& sink) {
  using graph::ColoredEdge;
  using graph::VertexId;
  em::ScratchLease lease = ctx.LeaseScratch(kBaseLeaseWords);
  std::array<std::uint64_t, kJoinKeys> keys{};
  std::array<VertexId, kJoinRunEnds> ends{};
  const std::size_t len = node.size();
  constexpr std::size_t kNone = ~std::size_t{0};
  JoinCounts counts;

  // One record of a join pass: an R02 edge (u, w) probes (v, w) for every
  // kept endpoint v < w, then an R01 edge keeps its endpoint. Every key of
  // the chunk has its v in [first_v, last_v], so only an endpoint in that
  // range is kept, and only an R02 edge with w > first_v probes. A full
  // buffer marks the run's first unkept R01 record as its spill point.
  std::size_t nkeys = 0;
  std::size_t nends = 0;
  std::size_t spill = kNone;
  VertexId first_v = 0;
  VertexId last_v = 0;
  std::uint64_t probes = 0;
  auto visit = [&](const ColoredEdge& e, std::size_t i) {
    if (e.cu != col[0]) return;
    if (e.cv == col[2] && e.v > first_v) {
      for (std::size_t k = 0; k < nends; ++k) {
        if (std::binary_search(keys.begin(), keys.begin() + nkeys,
                               extsort::PackKey(ends[k], e.v))) {
          sink.Emit(e.u, ends[k], e.v);
        }
      }
      probes += nends;
    }
    if (e.cv == col[1] && e.v >= first_v && e.v <= last_v) {
      if (nends < kJoinRunEnds) {
        ends[nends++] = e.v;
      } else if (spill == kNone) {
        spill = i;
      }
    }
  };
  // Ends the u-run whose records end before `end`: each spill rescans the
  // run's tail from the spill point with an emptied buffer.
  std::uint64_t streamed = 0;
  auto end_run = [&](std::size_t end) {
    while (spill != kNone) {
      const std::size_t from = spill;
      nends = 0;
      spill = kNone;
      ++counts.spills;
      em::Scanner<ColoredEdge> tail(node.Slice(from, end - from));
      for (std::size_t i = from; i < end; ++i) visit(tail.Next(), i);
      streamed += end - from;
    }
    nends = 0;
  };

  std::size_t from = 0;  // the first record the next gather pass reads
  std::uint64_t prev = 0;
  while (from < len) {
    // Gather the next chunk of R12 keys; the record that finds the chunk
    // full starts the next gather pass.
    nkeys = 0;
    std::size_t next = len;
    em::Scanner<ColoredEdge> in(node.Slice(from, len - from));
    for (std::size_t i = from; i < len; ++i) {
      const ColoredEdge e = in.Next();
      ++streamed;
      const std::uint64_t key = extsort::PackKey(e.u, e.v);
      TRIENUM_CHECK_MSG(i == 0 || prev < key, "base-case node not lex-sorted");
      if (e.cu == col[1] && e.cv == col[2]) {
        if (nkeys == kJoinKeys) {
          next = i;
          break;
        }
        keys[nkeys++] = key;
      }
      prev = key;
    }
    from = next;
    if (nkeys == 0) break;

    // Join the u-runs that can reach the chunk: u < v <= its last key's v.
    ++counts.rounds;
    first_v = static_cast<VertexId>(keys[0] >> 32);
    last_v = static_cast<VertexId>(keys[nkeys - 1] >> 32);
    em::Scanner<ColoredEdge> runs(node);
    VertexId u = 0;
    std::size_t i = 0;
    for (; i < len; ++i) {
      const ColoredEdge e = runs.Next();
      ++streamed;
      if (e.u >= last_v) break;
      if (e.u != u) {
        end_run(i);
        u = e.u;
      }
      visit(e, i);
    }
    end_run(i);
  }
  ctx.AddWork(streamed + probes);
  return counts;
}

}  // namespace internal

namespace {

using graph::ColoredEdge;
using graph::VertexId;

/// Wall time and node count of one recursion role, tallied only while a
/// trace collector is installed.
struct RoleTally {
  std::uint64_t ns = 0;
  std::uint64_t nodes = 0;
};

struct RoleTallies {
  RoleTally high_degree, lemma1, partition, base;
};

/// Nodes, input edges and exclusive block I/Os of one recursion depth,
/// tallied only while a trace collector is installed.
struct LevelTally {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// The recursion's shape, reported as co.recurse args.
struct Shape {
  std::uint64_t subproblems = 0;        ///< recursion nodes entered
  std::uint64_t base_cases = 0;         ///< base cases solved
  std::uint64_t high_degree_calls = 0;  ///< Lemma 1 invocations
  std::uint64_t total_child_edges = 0;  ///< sum of child edge-set sizes
  std::uint64_t join_rounds = 0;        ///< base joins' gather-and-join rounds
  std::uint64_t join_spills = 0;        ///< base joins' u-run spills
  int max_depth_reached = 0;
};

/// Span args keep their key pointers until the trace is written, so the
/// "level<d>_<field>" keys live in a static table. max_depth = ceil(log4 E)
/// stays below 32 for any E below 2^62; deeper levels, reachable only
/// through a larger cap of internal::EnumerateCacheObliviousToDepth, share
/// the last row.
constexpr int kLevelRows = 32;
constexpr const char* kLevelFields[4] = {"nodes", "edges", "reads", "writes"};

const char* LevelKey(int depth, int field) {
  static const auto keys = [] {
    std::array<std::array<std::string, 4>, kLevelRows> k;
    for (int d = 0; d < kLevelRows; ++d) {
      for (int f = 0; f < 4; ++f) {
        k[d][f] = "level";
        k[d][f] += std::to_string(d);
        k[d][f] += '_';
        k[d][f] += kLevelFields[f];
      }
    }
    return k;
  }();
  return keys[std::min(depth, kLevelRows - 1)][field].c_str();
}

/// Adds the scope's steady_clock time and one node to `tally`; a null tally
/// reads no clock.
class RoleTimer {
 public:
  explicit RoleTimer(RoleTally* tally) : tally_(tally) {
    if (tally_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~RoleTimer() {
    if (tally_ == nullptr) return;
    tally_->ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    ++tally_->nodes;
  }
  RoleTimer(const RoleTimer&) = delete;
  RoleTimer& operator=(const RoleTimer&) = delete;

 private:
  RoleTally* tally_;
  std::chrono::steady_clock::time_point start_;
};

class CoRunner {
 public:
  CoRunner(em::QuerySession& ctx, TriangleSink& sink, int max_depth,
           bool timed)
      : ctx_(ctx),
        sink_(sink),
        max_depth_(max_depth),
        rng_(ctx.seed()),
        timed_(timed) {
    if (timed_) level_mark_ = ctx_.cache().stats();
  }

  /// Solves the (col)-problem on `a`. `counted` is Misra-Gries pass 1 of the
  /// high-degree step over `a`'s records in order, fed by whoever wrote `a`
  /// (the root's transform, or the parent's routing scan) iff `a` is not a
  /// base case.
  void Recurse(em::Array<ColoredEdge> a, std::array<std::uint32_t, 3> col,
               int depth, const internal::HighDegreeFinder& counted) {
    const em::Array<ColoredEdge> input = a;
    std::size_t len = a.size();
    // A proper triangle needs all three of its edges inside the subproblem,
    // so fewer than three edges cannot contain one (the paper's "E empty"
    // base, tightened to the trivially sound constant).
    if (len < 3) return;
    ++shape_.subproblems;
    shape_.max_depth_reached = std::max(shape_.max_depth_reached, depth);
    if (timed_) {
      SwitchLevel(depth);
      ++levels_[level_].nodes;
      levels_[level_].edges += len;
    }
    if (IsBase(len, depth)) {
      RoleTimer timer(Tally(roles_.base));
      BaseCase(a, col);
      return;
    }

    // Step 2's hash is drawn before step 1, from a copy of the generator, so
    // that step 1's verify scan can count the children too. rng_ advances
    // only where the hash is used, so a node the filter empties draws
    // nothing.
    SplitMix64 next = rng_;
    const hashing::FourWiseHash bh(next.Next());

    // Step 3's 8 child color vectors. All eight compatible-edge subsets are
    // materialized with two passes over the parent (count, then write)
    // rather than one scan per child; the recursion itself stays
    // depth-first.
    std::array<std::array<std::uint32_t, 3>, 8> cc;
    std::array<std::size_t, 8> child_len{};
    for (int z = 0; z < 8; ++z) {
      cc[z] = {2 * col[0] - ((z >> 0) & 1), 2 * col[1] - ((z >> 1) & 1),
               2 * col[2] - ((z >> 2) & 1)};
    }
    // Closed-form child dispatch: a slot-(i,j) match pins two of z's three
    // bits (z's bit k is position k's refinement bit), leaving exactly two
    // candidate children per slot class. Equivalent to comparing (nu, nv)
    // against all eight cc[z] rows, at a fraction of the work. Bit z of
    // `hit` marks child z, so only the (at most six) hit children are
    // visited, in ascending z. Each pass over the parent charges its 2 units
    // of work per record itself.
    auto route = [&](const ColoredEdge& e, std::uint32_t bu, std::uint32_t bv,
                     auto&& per_child) {
      const std::uint32_t s01 = e.cu == col[0] && e.cv == col[1];
      const std::uint32_t s12 = e.cu == col[1] && e.cv == col[2];
      const std::uint32_t s02 = e.cu == col[0] && e.cv == col[2];
      const std::uint32_t z01 = bu | (bv << 1);
      const std::uint32_t z12 = (bu << 1) | (bv << 2);
      const std::uint32_t z02 = bu | (bv << 2);
      const std::uint32_t hit = (s01 << z01) | (s01 << (z01 | 4)) |
                                (s12 << z12) | (s12 << (z12 | 1)) |
                                (s02 << z02) | (s02 << (z02 | 2));
      const ColoredEdge ce{e.u, e.v, 2 * e.cu - bu, 2 * e.cv - bv};
      for (std::uint32_t m = hit; m != 0; m &= m - 1) {
        per_child(__builtin_ctz(m), ce);
      }
    };
    auto count_child = [&](int z, const ColoredEdge&) { ++child_len[z]; };
    // Refinement bits are GF(2^61-1) polynomial evaluations — the
    // recursion's hottest host work. Each record's two bits are evaluated
    // once (one batched two-point evaluation on the counting pass) and
    // replayed on the write scan from a host-side bit cache, instead of
    // re-deriving them per pass. The cache is 2 bits per record packed in a
    // byte, capped by a fixed (M-independent, so still oblivious) constant;
    // nodes beyond the cap fall back to re-evaluating on the write scan.
    // Either way both passes stay real Scanner passes, so the bit cache
    // never changes an I/O charge. One buffer is shared down the whole
    // recursion: children reuse it only after the parent's write scan has
    // drained it.
    const bool cache_bits = len <= kBitCacheMax;
    std::vector<std::uint8_t>& bits = bit_cache_;
    if (cache_bits && bits.size() < len) bits.resize(len);
    std::size_t nbits = 0;
    auto count_record = [&](const ColoredEdge& e) {
      const std::uint32_t pb = bh.PairBits(e.u, e.v);
      if (cache_bits) bits[nbits++] = static_cast<std::uint8_t>(pb);
      route(e, pb & 1u, pb >> 1, count_child);
    };

    // ---- Step 1: local high-degree vertices ---------------------------------
    // Its verify scan is also the children's counting pass. If no vertex
    // qualifies, the node's records are final, and so are the counts and
    // the cached bits; otherwise Lemma 1 removes edges, and the counts are
    // thrown away and redone on the filtered array below.
    const std::size_t before = len;
    len = HighDegreeStep(a, col, len, counted, count_record);
    const bool counts_final = len == before;
    if (len < 3) return;
    a = a.Slice(0, len);

    // ---- Step 2: refine the coloring with one fresh 4-wise random bit -------
    rng_ = next;

    // ---- Step 3: write the 8 children ---------------------------------------
    // The routing pass feeds each child that will run the step its pass-1
    // finder, in the child's own record order.
    em::DeviceRegion region = ctx_.Region();
    std::array<internal::HighDegreeFinder, 8> finders;
    std::array<em::Writer<ColoredEdge>, 8> writers;
    {
      RoleTimer timer(Tally(roles_.partition));
      if (!counts_final) {
        child_len = {};
        nbits = 0;
        em::Scanner<ColoredEdge> in(a.Slice(0, len));
        while (in.HasNext()) count_record(in.Next());
      }
      ctx_.AddWork(2 * len);  // the counting pass, fused or not
      std::uint32_t feed = 0;  // bit z: child z runs the step
      for (int z = 0; z < 8; ++z) {
        writers[z] =
            em::Writer<ColoredEdge>(ctx_.Alloc<ColoredEdge>(child_len[z]));
        if (!IsBase(child_len[z], depth + 1)) feed |= 1u << z;
      }
      auto push_child = [&](int z, const ColoredEdge& ce) {
        writers[z].Push(ce);
        if ((feed >> z) & 1u) finders[z].Count(ce.u, ce.v);
      };
      em::Scanner<ColoredEdge> in(a.Slice(0, len));
      ctx_.AddWork(2 * len);
      if (cache_bits) {
        std::size_t i = 0;
        while (in.HasNext()) {
          ColoredEdge e = in.Next();
          const std::uint32_t pb = bits[i++];
          route(e, pb & 1u, pb >> 1, push_child);
        }
      } else {
        while (in.HasNext()) {
          ColoredEdge e = in.Next();
          const std::uint32_t pb = bh.PairBits(e.u, e.v);
          route(e, pb & 1u, pb >> 1, push_child);
        }
      }
    }
    // The input is never read again, yet it stays allocated until the
    // parent's region is released: its lines leave the cache without
    // write-back, so the children keep their slots.
    ctx_.DropLines(input.base(),
                   input.size() * em::Array<ColoredEdge>::kWordsPer);
    for (int z = 0; z < 8; ++z) {
      shape_.total_child_edges += child_len[z];
      // A child's tail line is flushed only now, just before it recurses.
      Recurse(writers[z].Written(), cc[z], depth + 1, finders[z]);
      SwitchLevel(depth);
    }
  }

  const Shape& shape() const { return shape_; }

  /// Per-role wall time and node counts, filled only when timed.
  const RoleTallies& roles() const { return roles_; }

  /// Per-depth tallies, filled only when timed. Charges the I/O since the
  /// last switch first, so read them once the recursion has returned.
  const std::array<LevelTally, kLevelRows>& levels() {
    SwitchLevel(level_);
    return levels_;
  }

 private:
  /// Largest subproblem whose refinement bits are cached between the
  /// counting pass and the write scan (2 bits/record, 1 MiB of host
  /// metadata at the cap). A fixed constant — the oblivious code path still never consults
  /// M or B.
  static constexpr std::size_t kBitCacheMax = std::size_t{1} << 20;

  RoleTally* Tally(RoleTally& t) { return timed_ ? &t : nullptr; }

  /// Charges the block I/Os since the last switch to the current level and
  /// makes `depth` current. Reads counters only, never a clock; a no-op
  /// untraced.
  void SwitchLevel(int depth) {
    if (!timed_) return;
    const em::IoStats now = ctx_.cache().stats();
    levels_[level_].reads += now.block_reads - level_mark_.block_reads;
    levels_[level_].writes += now.block_writes - level_mark_.block_writes;
    level_mark_ = now;
    level_ = std::min(depth, kLevelRows - 1);
  }

  /// Whether a node of `len` edges at `depth` is solved by the base case;
  /// every other node runs the high-degree step. The writer of a node's
  /// array feeds its pass-1 finder exactly when this fails, and the node
  /// checks that it got one.
  bool IsBase(std::size_t len, int depth) const {
    return depth >= max_depth_ || len <= kTinyBase;
  }

  /// Enumerates proper triangles through vertices of degree >= E/8 within
  /// the subproblem and removes those vertices' edges; returns the new
  /// length of `a`, which is `len` exactly when no vertex qualifies (a
  /// qualifying vertex has edges, and the filter removes them). Its one
  /// scan hands every record to `visit` as well.
  template <typename Visit>
  std::size_t HighDegreeStep(em::Array<ColoredEdge> a,
                             std::array<std::uint32_t, 3> col, std::size_t len,
                             const internal::HighDegreeFinder& counted,
                             Visit&& visit) {
    // At most 2E/(E/8) = 16 vertices can qualify; two passes with O(1)
    // internal memory find them (see internal::HighDegreeFinder), which is
    // cheaper than the endpoint sort and still oblivious. Pass 1 ran while
    // the array was written, so the node itself makes only the verify scan.
    // A finder fed a different number of records would silently skip
    // Lemma 1 here.
    TRIENUM_CHECK(counted.counted() == len);
    ctx_.AddWork(2 * len);  // pass 1's work
    const std::size_t threshold = std::max<std::size_t>(1, len / 8);
    std::vector<VertexId> high;
    {
      RoleTimer timer(Tally(roles_.high_degree));
      internal::HighDegreeFinder finder = counted;
      finder.BeginVerify();
      em::Scanner<ColoredEdge> in(a.Slice(0, len));
      while (in.HasNext()) {
        ColoredEdge e = in.Next();
        finder.Verify(e.u, e.v);
        visit(e);
      }
      finder.High(threshold, high);
    }
    if (high.empty()) return len;

    RoleTimer timer(Tally(roles_.lemma1));
    for (VertexId x : high) {
      ++shape_.high_degree_calls;
      em::Array<ColoredEdge> cur = a.Slice(0, len);
      EnumerateTrianglesContaining<ColoredEdge>(
          ctx_, cur, x, extsort::ObliviousSorter{},
          [&](VertexId u, VertexId w, std::uint32_t cu, std::uint32_t cw,
              std::uint32_t cx) {
            auto [tri, c0, c1, c2] = OrderColoredTriple(x, cx, u, cu, w, cw);
            if (c0 == col[0] && c1 == col[1] && c2 == col[2]) {
              sink_.Emit(tri.a, tri.b, tri.c);
            }
          });
      len = extsort::Filter(cur, a, [x](const ColoredEdge& e) {
        return e.u != x && e.v != x;
      });
    }
    return len;
  }

  /// Base case. Constant-size subproblems (<= kTinyBase edges) stream
  /// through internal::StreamJoin in an O(1) host buffer; larger
  /// depth-capped subproblems run Dementiev's sort/scan listing in its
  /// oblivious (funnelsort) flavor. Both filter to proper triangles. The
  /// input is never read again, so its lines leave the cache without
  /// write-back.
  void BaseCase(em::Array<ColoredEdge> a, std::array<std::uint32_t, 3> col) {
    ++shape_.base_cases;
    if (a.size() <= kTinyBase) {
      const internal::JoinCounts c = internal::StreamJoin(ctx_, a, col, sink_);
      shape_.join_rounds += c.rounds;
      shape_.join_spills += c.spills;
    } else {
      WedgeJoinEnumerate<ColoredEdge>(
          ctx_, a, extsort::ObliviousSorter{},
          [col](const graph::Triangle&, std::uint32_t c0, std::uint32_t c1,
                std::uint32_t c2) {
            return c0 == col[0] && c1 == col[1] && c2 == col[2];
          },
          sink_);
    }
    ctx_.DropLines(a.base(), a.size() * em::Array<ColoredEdge>::kWordsPer);
  }

  em::QuerySession& ctx_;
  TriangleSink& sink_;
  int max_depth_;
  SplitMix64 rng_;
  const bool timed_;
  Shape shape_;
  RoleTallies roles_;
  std::array<LevelTally, kLevelRows> levels_{};
  int level_ = 0;          // the depth charged at the next switch
  em::IoStats level_mark_;  // counters at the last switch
  std::vector<std::uint8_t> bit_cache_;  // refinement bits, node-local use
};

}  // namespace

namespace internal {

void EnumerateCacheObliviousToDepth(em::QuerySession& ctx,
                                    const graph::EmGraph& g,
                                    TriangleSink& sink, int max_depth) {
  const std::size_t m = g.num_edges();
  if (m < 3) return;
  auto region = ctx.Region();

  // The (1,1,1)-problem under the constant coloring xi = 1. The transform
  // that writes the root also makes the root's high-degree pass 1.
  em::Array<ColoredEdge> root = ctx.Alloc<ColoredEdge>(m);
  HighDegreeFinder counted;
  {
    obs::Span span("co.root");
    extsort::Transform(g.edges, root, [&counted](const graph::Edge& e) {
      counted.Count(e.u, e.v);
      return ColoredEdge{e.u, e.v, 1, 1};
    });
  }

  // One span for the whole recursion: per-node spans would emit an event per
  // subproblem, so the runner tallies each role's time and nodes, and each
  // depth's nodes, edges and exclusive block I/Os, instead, and they ride on
  // this span as args. Untraced runs read no clock and no counter.
  obs::Span span("co.recurse");
  span.AddArg("edges", m);
  span.AddArg("record_words", em::Array<ColoredEdge>::kWordsPer);
  span.AddArg("max_depth", static_cast<std::uint64_t>(max_depth));
  const bool timed = obs::CurrentTraceCollector() != nullptr;
  CoRunner runner(ctx, sink, max_depth, timed);
  runner.Recurse(root, {1, 1, 1}, 0, counted);
  if (!timed) return;
  const RoleTallies& roles = runner.roles();
  span.AddArg("high_degree_ns", roles.high_degree.ns);
  span.AddArg("high_degree_nodes", roles.high_degree.nodes);
  span.AddArg("lemma1_ns", roles.lemma1.ns);
  span.AddArg("lemma1_nodes", roles.lemma1.nodes);
  span.AddArg("partition_ns", roles.partition.ns);
  span.AddArg("partition_nodes", roles.partition.nodes);
  span.AddArg("base_ns", roles.base.ns);
  span.AddArg("base_nodes", roles.base.nodes);
  const Shape& shape = runner.shape();
  span.AddArg("subproblems", shape.subproblems);
  span.AddArg("base_cases", shape.base_cases);
  span.AddArg("high_degree_calls", shape.high_degree_calls);
  span.AddArg("total_child_edges", shape.total_child_edges);
  span.AddArg("join_rounds", shape.join_rounds);
  span.AddArg("join_spills", shape.join_spills);
  span.AddArg("max_depth_reached",
              static_cast<std::uint64_t>(shape.max_depth_reached));
  const std::array<LevelTally, kLevelRows>& levels = runner.levels();
  for (int d = 0; d <= std::min(shape.max_depth_reached, kLevelRows - 1);
       ++d) {
    const LevelTally& t = levels[d];
    const std::uint64_t values[4] = {t.nodes, t.edges, t.reads, t.writes};
    for (int f = 0; f < 4; ++f) span.AddArg(LevelKey(d, f), values[f]);
  }
}

}  // namespace internal

void EnumerateCacheOblivious(em::QuerySession& ctx, const graph::EmGraph& g,
                             TriangleSink& sink) {
  int max_depth = 0;  // ceil(log4 E)
  while ((std::uint64_t{1} << (2 * max_depth)) < g.num_edges()) ++max_depth;
  internal::EnumerateCacheObliviousToDepth(ctx, g, sink, max_depth);
}

}  // namespace trienum::core
