#include "obs/metrics.h"

#include <deque>
#include <mutex>
#include <tuple>

namespace trienum::obs {

HistogramSnapshot HistogramSnapshot::operator-(
    const HistogramSnapshot& rhs) const {
  HistogramSnapshot d;
  d.name = name;
  d.count = count - rhs.count;
  d.sum = sum - rhs.sum;
  d.max = max;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[static_cast<std::size_t>(i)] =
        buckets[static_cast<std::size_t>(i)] -
        rhs.buckets[static_cast<std::size_t>(i)];
  }
  return d;
}

HistogramSnapshot Histogram::Snapshot(std::string name) const {
  HistogramSnapshot s;
  s.name = std::move(name);
  for (int i = 0; i < kHistogramBuckets; ++i) {
    s.buckets[static_cast<std::size_t>(i)] =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

// Histograms live in a deque so GetHistogram references stay valid forever;
// the mutex guards registration and name iteration only, never the hot path.
struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::deque<std::pair<std::string, Histogram>> histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* impl = new Impl;  // leaked: outlives every worker thread
  return *impl;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* r = new MetricsRegistry;
  return *r;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  for (auto& [n, h] : im.histograms) {
    if (n == name) return h;
  }
  im.histograms.emplace_back(std::piecewise_construct,
                             std::forward_as_tuple(name),
                             std::forward_as_tuple());
  return im.histograms.back().second;
}

MetricsRegistry::Snapshot MetricsRegistry::Snap() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  Snapshot s;
  s.histograms.reserve(im.histograms.size());
  for (const auto& [n, h] : im.histograms) s.histograms.push_back(h.Snapshot(n));
  return s;
}

}  // namespace trienum::obs
