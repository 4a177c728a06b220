#include "core/derandomize.h"

#include <cmath>
#include <memory>
#include <tuple>

#include "extsort/ext_merge_sort.h"
#include "extsort/sort_key.h"
#include "hashing/bit_family.h"
#include "obs/trace.h"

namespace trienum::core {
namespace {

using graph::ColoredEdge;
using graph::VertexId;

/// Cap on candidates inspected per round; if none satisfies (4) the best
/// seen is used (the final X_xi is still verified by tests/benches).
constexpr std::size_t kMaxCandidates = 64;
/// Field degree m of the AGHP family over GF(2^m).
constexpr int kAghpFieldBits = 12;

/// One endpoint incidence within a color class (side 0: v is the smaller
/// endpoint of the edge; side 1: the larger).
struct IncRec {
  std::uint32_t cu = 0, cv = 0;  // class of the incident edge
  VertexId v = 0;                // the vertex this record belongs to
  VertexId other = 0;            // the opposite endpoint
  std::uint32_t side = 0;
  std::uint32_t pad = 0;
};

/// (cu, cv, v) grouping order; radix on the packed class pair, comparator
/// finishes the per-class runs. (other, side) are payload, so the engine's
/// stability keeps the scans deterministic.
struct IncClassLess {
  static constexpr bool kKeyComplete = false;
  static std::uint64_t Key(const IncRec& r) {
    return extsort::PackKey(r.cu, r.cv);
  }
  bool operator()(const IncRec& a, const IncRec& b) const {
    return std::tie(a.cu, a.cv, a.v) < std::tie(b.cu, b.cv, b.v);
  }
};

double Choose2(double n) { return n * (n - 1) / 2.0; }

struct LevelStats {
  double x_total = 0;
  double x_adj = 0;
};

/// X statistics of the *current* coloring (no candidate bit applied).
LevelStats CurrentStats(em::Array<ColoredEdge> ce, em::Array<IncRec> inc) {
  LevelStats s;
  if (ce.empty()) return s;
  {
    ColoredEdge cur = ce.Get(0);
    double cnt = 1;
    for (std::size_t i = 1; i < ce.size(); ++i) {
      ColoredEdge e = ce.Get(i);
      if (e.cu == cur.cu && e.cv == cur.cv) {
        ++cnt;
      } else {
        s.x_total += Choose2(cnt);
        cur = e;
        cnt = 1;
      }
    }
    s.x_total += Choose2(cnt);
  }
  {
    IncRec cur = inc.Get(0);
    double cnt = 1;
    for (std::size_t i = 1; i < inc.size(); ++i) {
      IncRec r = inc.Get(i);
      if (r.cu == cur.cu && r.cv == cur.cv && r.v == cur.v) {
        ++cnt;
      } else {
        s.x_adj += Choose2(cnt);
        cur = r;
        cnt = 1;
      }
    }
    s.x_adj += Choose2(cnt);
  }
  return s;
}

/// X statistics of the coloring refined by candidate bit function `bh`,
/// evaluated with one scan of the class-grouped edges (subclass counts) and
/// one scan of the (class, vertex)-grouped incidences (adjacent pairs).
template <typename BitFn>
LevelStats CandidateStats(em::QuerySession& ctx, em::Array<ColoredEdge> ce,
                          em::Array<IncRec> inc, const BitFn& bh) {
  LevelStats s;
  if (ce.empty()) return s;
  {
    // Subclass counts: each class splits into 4 by (b(u), b(v)).
    double cells[4] = {0, 0, 0, 0};
    ColoredEdge cur = ce.Get(0);
    auto close_run = [&]() {
      for (double& cell : cells) {
        s.x_total += Choose2(cell);
        cell = 0;
      }
    };
    for (std::size_t i = 0; i < ce.size(); ++i) {
      ColoredEdge e = ce.Get(i);
      if (i > 0 && (e.cu != cur.cu || e.cv != cur.cv)) {
        close_run();
        cur = e;
      }
      cells[2 * bh(e.u) + bh(e.v)] += 1;
      ctx.AddWork(2);
    }
    close_run();
  }
  {
    // Adjacent pairs at each (class, vertex): edges where v sits on the same
    // side collide iff the opposite endpoints get equal bits; min-side /
    // max-side cross pairs (possible only in diagonal classes) collide iff
    // both opposite bits equal b(v).
    double lr[2][2] = {{0, 0}, {0, 0}};  // [side][b(other)]
    IncRec cur = inc.Get(0);
    auto close_run = [&]() {
      std::uint32_t bv = bh(cur.v);
      s.x_adj += Choose2(lr[0][0]) + Choose2(lr[0][1]) + Choose2(lr[1][0]) +
                 Choose2(lr[1][1]);
      s.x_adj += lr[0][bv] * lr[1][bv];
      lr[0][0] = lr[0][1] = lr[1][0] = lr[1][1] = 0;
    };
    for (std::size_t i = 0; i < inc.size(); ++i) {
      IncRec r = inc.Get(i);
      if (i > 0 && (r.cu != cur.cu || r.cv != cur.cv || r.v != cur.v)) {
        close_run();
        cur = r;
      }
      lr[r.side][bh(r.other)] += 1;
      ctx.AddWork(2);
    }
    close_run();
  }
  return s;
}

double Potential(const LevelStats& s, int level, std::uint32_t c) {
  double cc = static_cast<double>(c);
  return std::ldexp(s.x_total - s.x_adj, 2 * level) / (cc * cc) +
         std::ldexp(s.x_adj, level) / cc;
}

void SortStructures(em::QuerySession& ctx, em::Array<ColoredEdge> ce,
                    em::Array<IncRec> inc) {
  extsort::ExternalMergeSort(ctx, ce, graph::ColorClassLess{});
  extsort::ExternalMergeSort(ctx, inc, IncClassLess{});
}

void RebuildIncidences(em::Array<ColoredEdge> ce, em::Array<IncRec> inc) {
  for (std::size_t i = 0; i < ce.size(); ++i) {
    ColoredEdge e = ce.Get(i);
    inc.Set(2 * i, IncRec{e.cu, e.cv, e.u, e.v, 0, 0});
    inc.Set(2 * i + 1, IncRec{e.cu, e.cv, e.v, e.u, 1, 0});
  }
}

}  // namespace

DeterministicColoring::DeterministicColoring(std::uint32_t c,
                                             std::vector<std::uint64_t> seeds)
    : c_(c), seeds_(std::move(seeds)) {
  bits_.reserve(seeds_.size());
  for (std::uint64_t s : seeds_) {
    bits_.push_back([h = hashing::FourWiseHash(s)](graph::VertexId v) {
      return h.Bit(v);
    });
  }
}

DeterministicColoring::DeterministicColoring(std::uint32_t c,
                                             std::vector<BitFn> bits)
    : c_(c), bits_(std::move(bits)) {}

std::uint32_t DeterministicColoring::Color(graph::VertexId v) const {
  std::uint32_t idx = 0;
  for (const BitFn& bh : bits_) idx = (idx << 1) | bh(v);
  return idx;
}

std::uint32_t DeterministicColoring::RoundBit(std::size_t r,
                                              graph::VertexId v) const {
  TRIENUM_CHECK(r < bits_.size());
  return bits_[r](v);
}

DeterministicColoring BuildDeterministicColoring(em::QuerySession& ctx,
                                                 em::Array<graph::Edge> edges,
                                                 std::uint32_t c,
                                                 const DerandOptions& opts) {
  TRIENUM_CHECK_MSG((c & (c - 1)) == 0, "color count must be a power of two");
  int levels = 0;
  while ((std::uint32_t{1} << levels) < c) ++levels;
  if (levels == 0 || edges.empty()) {
    return DeterministicColoring(c, std::vector<std::uint64_t>{});
  }
  // The slack of (4): the paper's alpha = 1/log2(c).
  const double alpha = 1.0 / static_cast<double>(levels);

  // One span for all rounds; the region releases inside it.
  obs::Span span("det.round");
  auto region = ctx.Region();
  const std::size_t m = edges.size();
  em::Array<ColoredEdge> ce = ctx.Alloc<ColoredEdge>(m);
  for (std::size_t i = 0; i < m; ++i) {
    graph::Edge e = edges.Get(i);
    ce.Set(i, ColoredEdge{e.u, e.v, 1, 1});
  }
  em::Array<IncRec> inc = ctx.Alloc<IncRec>(2 * m);
  RebuildIncidences(ce, inc);
  SortStructures(ctx, ce, inc);

  LevelStats cur = CurrentStats(ce, inc);
  double phi = Potential(cur, 0, c);
  std::vector<std::uint64_t> seeds;
  std::vector<DeterministicColoring::BitFn> bits;
  std::uint64_t tried = 0;

  // Candidate source: the fast deterministic 4-wise schedule, or the
  // genuine AGHP epsilon-biased family of the paper's Lemma 6. The family is
  // shared into the returned bit closures (they reference its GF(2^m)
  // field), so it must outlive the coloring object.
  std::shared_ptr<hashing::AghpFamily> aghp;
  if (opts.use_aghp_family) {
    aghp = std::make_shared<hashing::AghpFamily>(kAghpFieldBits);
  }
  auto candidate = [&](int round, std::size_t j) -> DeterministicColoring::BitFn {
    if (aghp != nullptr) {
      // A fixed low-discrepancy walk through the family indices.
      std::uint64_t index =
          (static_cast<std::uint64_t>(round) * 0x9E3779B97F4A7C15ULL +
           j * 0x632BE59BD9B4E019ULL) %
          aghp->size();
      return [fam = aghp, index](graph::VertexId v) {
        return fam->Get(index).Bit(v);
      };
    }
    hashing::FourWiseHash h = hashing::FourWiseBitCandidates::Candidate(
        static_cast<std::uint64_t>(round), j);
    return [h](graph::VertexId v) { return h.Bit(v); };
  };

  for (int round = 1; round <= levels; ++round) {
    const double target = (1.0 + alpha) * phi;
    DeterministicColoring::BitFn best_fn;
    std::uint64_t best_seed = 0;
    double best_phi = -1.0;
    for (std::size_t j = 0; j < kMaxCandidates; ++j) {
      DeterministicColoring::BitFn bh = candidate(round, j);
      ++tried;
      LevelStats cand = CandidateStats(ctx, ce, inc, bh);
      double cand_phi = Potential(cand, round, c);
      if (best_phi < 0 || cand_phi < best_phi) {
        best_phi = cand_phi;
        best_fn = bh;
        best_seed = j;
      }
      if (cand_phi <= target) break;  // first fit, as in the greedy argument
    }
    seeds.push_back(best_seed);
    bits.push_back(best_fn);
    phi = best_phi;
    // Nothing reads the arrays after the last round.
    if (round == levels) break;

    // Apply the accepted bit: refine colors, rebuild and re-sort by class.
    for (std::size_t i = 0; i < m; ++i) {
      ColoredEdge e = ce.Get(i);
      e.cu = 2 * e.cu - best_fn(e.u);
      e.cv = 2 * e.cv - best_fn(e.v);
      ce.Set(i, e);
    }
    RebuildIncidences(ce, inc);
    SortStructures(ctx, ce, inc);
  }

  span.AddArg("rounds", static_cast<std::uint64_t>(levels));
  span.AddArg("candidates", tried);
  DeterministicColoring out(c, std::move(bits));
  out.set_round_seeds(std::move(seeds));
  out.set_final_potential(phi);  // at the last level the potential IS X_xi
  out.set_candidates_tried(tried);
  return out;
}

}  // namespace trienum::core
