// `label` workload: cold search-labelled generation of all three case
// studies, each dataset written in the binary format, then the sweep
// caches saved as snapshots, restored into fresh studies, and the same
// points regenerated warm.
//
// sim, search and dataset do nearly all the work; ml and serve none. The
// cold phase mostly misses and inserts into the sweep caches while the
// warm phase mostly hits after a snapshot read, so a cache change that
// speeds one phase and slows the other shows on one of the two rates.
//
// Every cycle builds fresh studies, so each cycle is equally cold and the
// cycle medians are comparable across runs.
//
//   setup_s           building the three studies, median over cycles
//   latency_ms        one cold cycle: all three datasets labelled and
//                     written, median over cycles
//   throughput_per_s  points per second of snapshot save + restore +
//                     warm regeneration, median over cycles

#include <memory>
#include <string>
#include <utility>

#include "core/case_study.hpp"
#include "dataset/binary_io.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using airch::CaseId;

// Points per case and cycle, sized so that the three cold passes take a
// similar share of a cycle (case 3 labels ~15x slower per point than
// case 1) and a cycle lasts well under a second.
constexpr std::size_t kPoints[3] = {60000, 20000, 5000};
constexpr CaseId kIds[3] = {CaseId::kArrayDataflow, CaseId::kBufferSizing,
                            CaseId::kScheduling};

double hit_ratio(const airch::CacheStats& s) {
  const double total = static_cast<double>(s.hits + s.misses + s.races);
  return total > 0.0 ? static_cast<double>(s.hits) / total : 0.0;
}

}  // namespace

PassResult run_label(const RunConfig& cfg, Tracer& tracer, MetricSet& e2e, Figures& figures) {
  PassResult r;
  std::size_t total_points = 0;
  for (const std::size_t n : kPoints) total_points += n;

  std::vector<double> setup_s, cold_pps, warm_pps, cold_s, warm_s;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(cfg.seconds));
  for (int cycle = 0; cycle == 0 || Clock::now() < deadline; ++cycle) {
    const auto t0 = Clock::now();
    std::unique_ptr<airch::CaseStudy> studies[3];
    for (int c = 0; c < 3; ++c) studies[c] = airch::make_case_study(kIds[c]);
    setup_s.push_back(seconds_between(t0, Clock::now()));

    double cold = 0.0, warm = 0.0;
    for (int c = 0; c < 3; ++c) {
      const std::string cn = kCaseNames[c];
      const airch::CaseStudy& study = *studies[c];
      const std::uint64_t seed = derive_seed(cfg.seed, static_cast<std::uint64_t>(c));
      const std::string data_path = cfg.workdir + "/label-" + cn + ".bin";
      const std::string snap_path = cfg.workdir + "/label-" + cn + ".snap";

      airch::Dataset cold_ds;
      cold += timed(tracer, "core.generate." + cn,
                    [&] { cold_ds = study.generate(kPoints[c], seed); });
      cold += timed(tracer, "dataset.write_binary." + cn,
                    [&] { airch::write_binary_dataset(cold_ds, data_path); });
      const airch::CacheStats cs = study.cache_stats();
      tracer.count("search.cache_hit_ratio." + cn, hit_ratio(cs));
      tracer.count("search.cache_misses." + cn, static_cast<double>(cs.misses));
      tracer.count("search.cache_entries." + cn, static_cast<double>(cs.entries));
      tracer.count("dataset.file_bytes." + cn, static_cast<double>(file_bytes(data_path)));
      r.attempted += cold_ds.size();

      // Gate: the file reads back as exactly the dataset written.
      const airch::Dataset read_back = airch::read_binary_dataset(data_path);
      if (const std::size_t bad = count_mismatches(read_back, cold_ds)) {
        r.fail(bad, cn + ": binary dataset read back differs from the one written");
      }

      const std::unique_ptr<airch::CaseStudy> fresh = airch::make_case_study(kIds[c]);
      airch::Dataset warm_ds;
      warm += timed(tracer, "search.snapshot_save." + cn,
                    [&] { (void)study.save_cache_snapshot(snap_path); });
      warm += timed(tracer, "search.snapshot_load." + cn,
                    [&] { (void)fresh->load_cache_snapshot(snap_path); });
      warm += timed(tracer, "core.regenerate." + cn,
                    [&] { warm_ds = fresh->generate(kPoints[c], seed); });
      tracer.count("search.warm_hit_ratio." + cn, hit_ratio(fresh->cache_stats()));
      r.attempted += warm_ds.size();

      // Gate: labels from the restored cache equal the cold labels.
      if (const std::size_t bad = count_mismatches(warm_ds, cold_ds)) {
        r.fail(bad, cn + ": warm labels differ from cold labels");
      }
    }
    cold_pps.push_back(static_cast<double>(total_points) / cold);
    warm_pps.push_back(static_cast<double>(total_points) / warm);
    cold_s.push_back(cold);
    warm_s.push_back(warm);
  }

  e2e.set("setup_s", median(setup_s));
  e2e.set("latency_ms", median(cold_s) * 1e3);
  e2e.set("throughput_per_s", median(warm_pps));
  figures.add("label_points_per_s", "1/s", median(cold_pps));
  figures.add("relabel_points_per_s", "1/s", median(warm_pps));
  r.cost = median(cold_s) / static_cast<double>(total_points);
  r.timings = {{"setup_s", summarize(setup_s)},
               {"cold_cycle_s", summarize(cold_s)},
               {"warm_cycle_s", summarize(warm_s)}};

  if (tracer.enabled()) {
    for (const char* c : kCaseNames) {
      const std::string cn = c;
      for (const auto& [stem, unit] :
           {std::pair{"search.cache_hit_ratio.", "ratio"}, {"search.cache_misses.", "count"},
            {"search.cache_entries.", "count"}, {"dataset.file_bytes.", "bytes"},
            {"search.warm_hit_ratio.", "ratio"}}) {
        figures.add(stem + cn, unit, median(tracer.values(stem + cn)));
      }
      for (const char* stem : {"core.generate", "dataset.write_binary", "search.snapshot_save",
                               "search.snapshot_load", "core.regenerate"}) {
        figures.add(std::string(stem) + "_s." + cn, "s",
                    median(tracer.durations_s(std::string(stem) + "." + cn)));
      }
    }
  }
  return r;
}

}  // namespace perfbench
