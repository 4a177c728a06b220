// Scoped trace spans with phase-attributed counter deltas, emitted as
// Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// The invariance contract (the same one threads, kernels, and faults
// obey): tracing on or off is bit-invisible to triangles, emission
// order, IoStats, and work. Spans achieve this by *reading* existing
// counters at phase boundaries — they never touch the counted charge
// sequence, never allocate inside it, and compile down to one relaxed
// atomic load when no collector is installed.
//
// Mechanics:
//   - A process-wide atomic TraceCollector pointer (InstallTraceCollector /
//     ScopedTraceCollector). Null means every TRIENUM_SPAN site is a no-op.
//   - Span is RAII: opening records a steady_clock timestamp; closing
//     records the duration and appends one complete ("ph":"X") event. Any
//     thread may open spans — the collector assigns small stable tids and
//     emits thread-name metadata, so par workers are visible as their own
//     tracks.
//   - Counter attribution runs only on the collector's owner thread (the
//     thread that constructed it), via a sampler callback the query layer
//     installs per query (the obs layer cannot depend on em). Each sampled
//     span records its *inclusive* counter delta and, via a per-thread
//     stack of child accumulators, its *exclusive* (self) delta: inclusive
//     minus the sum of sampled children. Self deltas over all sampled spans
//     of a query telescope exactly to the query's totals, which is how the
//     per-phase table in QueryResult always sums to block_reads /
//     block_writes / work.
#ifndef TRIENUM_OBS_TRACE_H_
#define TRIENUM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace trienum::obs {

/// One point-in-time read of the counters a span attributes. Filled by the
/// sampler the query layer installs; the obs layer only diffs it.
struct CounterSample {
  std::uint64_t block_reads = 0;
  std::uint64_t block_writes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t work = 0;
  std::uint64_t read_calls = 0;
  std::uint64_t write_calls = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// Saturating component-wise difference (counters are monotone within a
/// query; saturation keeps a mid-span reset from wrapping).
CounterSample operator-(const CounterSample& a, const CounterSample& b);
CounterSample& operator+=(CounterSample& a, const CounterSample& b);

struct TraceEvent {
  const char* name = "";  // span names are string literals
  int tid = 0;
  int depth = 0;  // span nesting depth on its thread at open time
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  bool has_delta = false;       // sampled on the owner thread
  CounterSample self;           // exclusive delta (inclusive minus children)
  CounterSample inclusive;      // full delta over the span
  std::uint64_t self_wall_ns = 0;  // dur minus sampled children's durs
  std::vector<std::pair<const char*, std::uint64_t>> args;  // custom args
};

class TraceCollector {
 public:
  TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  using Sampler = std::function<CounterSample()>;

  /// Installs / clears the counter sampler. Owner thread only: the sampler
  /// reads query-layer state that is not thread-safe, so only spans opened
  /// on the owner thread ever invoke it.
  void set_sampler(Sampler s);
  void clear_sampler();
  bool has_sampler() const { return static_cast<bool>(sampler_); }
  CounterSample Sample() const { return sampler_(); }

  std::thread::id owner() const { return owner_; }

  /// Number of events recorded so far (use as a mark, then events_since).
  std::size_t event_count() const;
  std::vector<TraceEvent> events_since(std::size_t mark) const;

  /// Drops all recorded events (tids and epoch are kept).
  void Clear();

  /// Emits the Chrome trace-event JSON document: one "X" complete event
  /// per span (ts/dur in microseconds, args carrying the self counter
  /// deltas) plus "M" thread_name metadata rows.
  void WriteChromeJson(std::ostream& os) const;

  // Span internals.
  std::uint64_t NowNs() const;
  int TidForCurrentThread();
  void Record(TraceEvent ev);

 private:
  const std::thread::id owner_;
  const std::chrono::steady_clock::time_point epoch_;
  Sampler sampler_;  // owner-thread access only
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::vector<std::pair<std::thread::id, int>> tids_;
};

/// Installs `c` as the process-wide collector (nullptr uninstalls).
/// Returns the previous collector.
TraceCollector* InstallTraceCollector(TraceCollector* c);
TraceCollector* CurrentTraceCollector();

/// RAII install/restore, for tests and the CLI.
class ScopedTraceCollector {
 public:
  explicit ScopedTraceCollector(TraceCollector& c)
      : prev_(InstallTraceCollector(&c)) {}
  ~ScopedTraceCollector() { InstallTraceCollector(prev_); }
  ScopedTraceCollector(const ScopedTraceCollector&) = delete;
  ScopedTraceCollector& operator=(const ScopedTraceCollector&) = delete;

 private:
  TraceCollector* prev_;
};

/// Names the current thread for trace metadata ("par-worker-0",
/// "par-worker-1", ...). Process-wide; survives collector churn.
void SetCurrentThreadName(std::string name);
std::string CurrentThreadNameFor(std::thread::id id);  // "" if unnamed

namespace internal {
/// Per-thread span nesting depth, exposed so the imbalance check is
/// testable: EndSpanDepth underflow is a hard TRIENUM_CHECK failure.
int BeginSpanDepth();   // returns the depth the new span opens at
void EndSpanDepth();    // aborts if no span is open on this thread
int CurrentSpanDepth();
}  // namespace internal

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a custom numeric arg (emitted in the event's "args" object).
  /// No-op when tracing is off.
  void AddArg(const char* key, std::uint64_t value);

 private:
  TraceCollector* c_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  int depth_ = 0;
  bool sampling_ = false;
  CounterSample before_;
  std::vector<std::pair<const char*, std::uint64_t>> args_;
};

#define TRIENUM_OBS_CONCAT2(a, b) a##b
#define TRIENUM_OBS_CONCAT(a, b) TRIENUM_OBS_CONCAT2(a, b)
/// Opens a scoped span: `TRIENUM_SPAN("sort.run_formation");`
#define TRIENUM_SPAN(name) \
  ::trienum::obs::Span TRIENUM_OBS_CONCAT(trienum_span_, __LINE__)(name)

}  // namespace trienum::obs

#endif  // TRIENUM_OBS_TRACE_H_
