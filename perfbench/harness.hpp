#pragma once
// Measurement plumbing shared by the perfbench workloads: order
// statistics, an in-memory span tracer, the metric table that every
// emitted result is checked against, and the per-layer breakdown of a
// traced pass's spans.
//
// Spans are taken from outside the library, around calls into each
// layer's public functions (the library itself carries no
// instrumentation). A disabled Tracer records nothing, so the untraced
// pass that yields the end-to-end numbers pays one branch per scope.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double micros_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least q * n values at or below it. q = 0 gives the minimum, q = 1 the
/// maximum. Throws std::invalid_argument on an empty sample or q outside
/// [0, 1].
double percentile(const std::vector<double>& sorted, double q);

/// Number of samples strictly above the nearest-rank q-percentile slot.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of p50, p90, p99, p99.9, p99.99 that leaves at least
/// `min_beyond` samples above it; 0 when even the median does not.
double highest_supported_quantile(std::size_t n, std::size_t min_beyond = 10);

/// Median of an unsorted sample (the lower middle for even sizes, matching
/// percentile(sorted, 0.5)). Throws on an empty sample.
double median(std::vector<double> v);

/// How a sample of timings is reported: its median, the highest
/// percentile with at least ten samples beyond it, and the sample count.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail_quantile = 0.0;  ///< 0 when n is too small for any tail
  double tail = 0.0;
};
Summary summarize(std::vector<double> v);

// --------------------------------------------------------------- tracing

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the tracer's epoch
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;   ///< index of the enclosing span on the same thread
  std::uint64_t request = 0;  ///< shared by every span of one serve request; 0 = none
  std::uint32_t thread = 0;
};

/// A count recorded at a layer boundary, next to the spans.
struct Counter {
  std::string name;
  std::int64_t at_ns = 0;
  double value = 0.0;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its direct children's intervals.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span: opened by Tracer::scope, closed by its destructor. The
  /// parent is the innermost span still open on the constructing thread.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, std::int64_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    std::int64_t index_;
  };

  [[nodiscard]] Scope scope(const std::string& name, std::uint64_t request = 0);
  void count(const std::string& name, double value);

  std::vector<Span> spans() const;
  std::vector<Counter> counters() const;

  /// Durations in seconds of every closed span called `name`.
  std::vector<double> durations_s(const std::string& name) const;
  /// Every value recorded for counter `name`.
  std::vector<double> values(const std::string& name) const;

  /// Writes spans and counters as Chrome trace-event JSON, with each
  /// span's self time in its args. Returns false when the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;
  void close(std::int64_t index);

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::vector<Counter> counters_;  // guarded by mu_
};

/// Runs fn inside a span named `span` and returns its wall time in
/// seconds. The stopwatch encloses the span, so a traced pass pays the
/// tracing cost in its own numbers (the measured tracing overhead).
template <typename Fn>
double timed(Tracer& tracer, const std::string& span, Fn&& fn) {
  const auto start = Clock::now();
  {
    const auto s = tracer.scope(span);
    fn();
  }
  return seconds_between(start, Clock::now());
}

// ---------------------------------------------------------- metric table

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The metrics every workload reports: end_to_end from an untraced pass,
/// per_layer from a traced one. BENCHMARK.json declares the same lists;
/// test_perfbench.py checks that they agree exactly.
const std::vector<MetricSpec>& end_to_end_specs();
const std::vector<MetricSpec>& per_layer_specs();

/// Collects one run's metrics and refuses any name the spec does not
/// list, so a typo cannot slip a stray metric into a result.
class MetricSet {
 public:
  explicit MetricSet(std::vector<MetricSpec> allowed) : allowed_(std::move(allowed)) {}
  void set(const std::string& name, double value);
  /// Names in the spec that were never set.
  std::vector<std::string> missing() const;
  /// {"name": {"value": v, "unit": "u"}, ...} in spec order.
  std::string to_json() const;

 private:
  std::vector<MetricSpec> allowed_;
  std::map<std::string, double> values_;
};

/// A workload's own figures (per-case stage times, cache ratios, quality
/// numbers), reported in the stamp line beside the result. Unlike a
/// MetricSet, any name goes.
class Figures {
 public:
  void add(const std::string& name, const std::string& unit, double value);
  /// {"name": {"value": v, "unit": "u"}, ...} in insertion order.
  std::string to_json() const;

 private:
  std::vector<std::pair<MetricSpec, double>> figures_;
};

// ------------------------------------------------------ layer breakdown

/// The layers the spans time. A span belongs to the layer its name starts
/// with, up to the first '.' ("models.fit.case1" is models).
inline const char* const kLayers[] = {"core", "dataset", "search", "models", "serve"};

struct LayerShare {
  std::string layer;
  double self_pct = 0.0;   ///< the layer's share of all spans' self time
  std::size_t calls = 0;   ///< spans of the layer
};

/// One entry per kLayers layer, in that order. Shares are 0 when the
/// spans have no self time at all.
std::vector<LayerShare> layer_shares(const std::vector<Span>& spans);

/// JSON number with every significant digit (nan/inf become null).
std::string json_number(double v);
std::string json_string(const std::string& s);

}  // namespace perfbench
