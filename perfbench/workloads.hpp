#pragma once
// The three perfbench workloads. Each runs for a fixed wall-clock budget
// on inputs derived only from the seed, checks its correctness gates,
// sets the end-to-end metrics (setup_s, latency_ms, throughput_per_s,
// each with the workload's own meaning) from its own stopwatches, and
// adds its own figures: per-case stage times and counters from the spans
// it recorded around calls into the library when the tracer is enabled,
// and quality numbers always. The per-layer metrics are computed from the
// spans by the caller.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dataset/dataset.hpp"
#include "harness.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::string workdir;  ///< scratch directory for datasets, snapshots, models
};

struct PassResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few gate messages
  /// The quantity a traced and an untraced pass are compared on to
  /// measure tracing overhead; larger means slower.
  double cost = 0.0;
  /// The raw samples behind the end-to-end metrics, summarized (median,
  /// highest supported percentile, count) for the result's stamp.
  std::vector<std::pair<std::string, Summary>> timings;

  void fail(std::uint64_t n, const std::string& what);
};

using WorkloadFn = PassResult (*)(const RunConfig&, Tracer&, MetricSet& end_to_end,
                                  Figures& figures);

PassResult run_label(const RunConfig& cfg, Tracer& tracer, MetricSet& end_to_end,
                     Figures& figures);
PassResult run_train(const RunConfig& cfg, Tracer& tracer, MetricSet& end_to_end,
                     Figures& figures);
PassResult run_serve(const RunConfig& cfg, Tracer& tracer, MetricSet& end_to_end,
                     Figures& figures);

// Helpers shared by the workloads.

inline const char* const kCaseNames[3] = {"case1", "case2", "case3"};

/// Independent sub-seed for one use of the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

/// Points of `a` that differ from `b` in features or label; every point
/// counts when the schemas or sizes differ.
std::size_t count_mismatches(const airch::Dataset& a, const airch::Dataset& b);

std::vector<std::vector<std::int64_t>> features_of(const airch::Dataset& ds);

std::uint64_t file_bytes(const std::string& path);

}  // namespace perfbench
