// perfbench: one workload of the repository benchmark (BENCHMARK.json),
// usually started through perfbench/run.py, which builds this binary and
// pins AIRCH_THREADS.
//
//   perfbench --workload label|train|serve --seed N --seconds S --trace 0|1
//             --workdir DIR [--trace-out FILE]
//   perfbench --list-metrics
//
// Every workload reports the same metrics, each with its own meaning:
// --trace 0 runs one untraced pass and reports the end-to-end metrics.
// --trace 1 runs an untraced pass and then a traced pass of the same
// length, reports the per-layer metrics (each layer's share of the traced
// pass's span self time and its span count) plus the tracing overhead
// (the traced pass's cost over the untraced one's), and writes the spans
// to --trace-out. The last line of standard output is one JSON object:
// correct, attempted, failed, metrics, plus an env block, summaries of
// the raw timing samples, the workload's own figures and the first few
// gate failures.

#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

std::string specs_json() {
  std::ostringstream os;
  const auto list = [&](const std::vector<MetricSpec>& ms) {
    os << "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      os << (i ? ", " : "") << json_string(ms[i].name) << ": " << json_string(ms[i].unit);
    }
    os << "}";
  };
  os << "{\"end_to_end\": ";
  list(end_to_end_specs());
  os << ", \"per_layer\": ";
  list(per_layer_specs());
  os << "}";
  return os.str();
}

WorkloadFn workload_fn(const std::string& name) {
  if (name == "label") return run_label;
  if (name == "train") return run_train;
  if (name == "serve") return run_serve;
  return nullptr;
}

int run(int argc, char** argv) {
  airch::ArgParser args("perfbench", "one workload of the repository benchmark");
  args.flag_str("workload", "", "label | train | serve");
  args.flag_i64("seed", 1, "workload seed", 0, std::numeric_limits<std::int64_t>::max());
  args.flag_f64("seconds", 10.0, "measured wall time per pass");
  args.flag_i64("trace", 0, "1 = per-layer metrics from a traced pass", 0, 1);
  args.flag_str("workdir", "", "scratch directory for datasets, snapshots and models");
  args.flag_str("trace-out", "", "where the traced pass writes its spans");
  args.flag_bool("list-metrics", false, "print the metric names and units and exit");
  args.parse(argc, argv);

  if (args.boolean("list-metrics")) {
    std::cout << specs_json() << "\n";
    return 0;
  }
  const WorkloadFn fn = workload_fn(args.str("workload"));
  if (fn == nullptr) {
    std::cerr << "perfbench: unknown --workload '" << args.str("workload") << "'\n";
    return 2;
  }
  if (args.str("workdir").empty() || !(args.f64("seconds") > 0.0)) {
    std::cerr << "perfbench: --workdir and a positive --seconds are required\n";
    return 2;
  }
  RunConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(args.i64("seed"));
  cfg.seconds = args.f64("seconds");
  cfg.workdir = args.str("workdir");
  std::filesystem::create_directories(cfg.workdir);
  const bool traced = args.i64("trace") == 1;

  Tracer off(false);
  MetricSet e2e(end_to_end_specs());
  Figures figures;
  PassResult result = fn(cfg, off, e2e, figures);

  MetricSet layers(per_layer_specs());
  if (traced) {
    Tracer on(true);
    MetricSet traced_e2e(end_to_end_specs());
    figures = Figures();
    const PassResult t = fn(cfg, on, traced_e2e, figures);
    for (const LayerShare& share : layer_shares(on.spans())) {
      layers.set(share.layer + ".self_pct", share.self_pct);
      layers.set(share.layer + ".calls", static_cast<double>(share.calls));
    }
    layers.set("trace.overhead_pct", (t.cost / result.cost - 1.0) * 100.0);
    result.attempted += t.attempted;
    result.failed += t.failed;
    result.failures.insert(result.failures.end(), t.failures.begin(), t.failures.end());
    const std::string out = args.str("trace-out");
    if (!out.empty() && !on.write_chrome_trace(out)) {
      std::cerr << "perfbench: cannot write " << out << "\n";
      return 1;
    }
  }

  const MetricSet& reported = traced ? layers : e2e;
  if (const auto missing = reported.missing(); !missing.empty()) {
    std::cerr << "perfbench: workload did not report " << missing.front() << "\n";
    return 1;
  }
  for (const std::string& f : result.failures) std::cerr << "perfbench: FAILED " << f << "\n";

  std::ostringstream os;
  os << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
     << ", \"metrics\": " << reported.to_json() << ", \"env\": {\"compiler\": "
     << json_string(PERFBENCH_COMPILER)
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"airch_threads\": " << airch::hardware_threads() << ", \"seed\": " << cfg.seed
     << "}, \"timings\": {";
  for (std::size_t i = 0; i < result.timings.size(); ++i) {
    const auto& [name, t] = result.timings[i];
    os << (i ? ", " : "") << json_string(name) << ": {\"n\": " << t.n
       << ", \"median\": " << json_number(t.median)
       << ", \"tail_quantile\": " << json_number(t.tail_quantile)
       << ", \"tail\": " << json_number(t.tail) << "}";
  }
  os << "}, \"figures\": " << figures.to_json() << ", \"failures\": [";
  for (std::size_t i = 0; i < result.failures.size(); ++i) {
    os << (i ? ", " : "") << json_string(result.failures[i]);
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
