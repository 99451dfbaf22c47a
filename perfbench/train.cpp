// `train` workload: per case, on a fixed dataset generated and written in
// set-up, read the binary file back, fit the FeatureEncoder, fit an
// AIRCHITECT model, save and reload it as a Recommender, answer the test
// split with the reloaded model and score the answers by re-simulation.
//
// ml and models kernels at training shapes (forward, backward, Adam)
// dominate; sim only scores the test split, and search and serve do
// nothing. This is the training side of every ml change, as `serve` is
// its inference side.
//
//   setup_s           generating and writing the three datasets, median
//                     over kSetupReps repetitions
//   latency_ms        one cycle: binary dataset on disk to a saved,
//                     reloaded and scored recommender, all three cases,
//                     median over cycles
//   throughput_per_s  training samples x epochs per second of fit wall
//                     time, all three cases, median over cycles
//
// The quality numbers (validation accuracy, geomean normalized
// performance per case) are fixed by the seed and reported as figures;
// every cycle must reproduce them.

#include <memory>
#include <string>

#include "common/math_utils.hpp"
#include "core/recommender.hpp"
#include "dataset/binary_io.hpp"
#include "dataset/encoding.hpp"
#include "models/neural.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using airch::CaseId;

// Points per case and training epochs: small enough that a cycle takes
// well under a second, so a run's medians rest on tens of cycles. Case 1
// gets the most data; it learns slowest per sample.
constexpr std::size_t kPoints[3] = {3000, 1000, 1000};
constexpr int kEpochs = 2;
constexpr int kSetupReps = 9;
constexpr CaseId kIds[3] = {CaseId::kArrayDataflow, CaseId::kBufferSizing,
                            CaseId::kScheduling};

/// What one case's pipeline produced; compared across cycles, since
/// training is deterministic for a given seed.
struct CaseOutcome {
  double val_accuracy = 0.0;
  double geomean_perf = 0.0;
};

}  // namespace

PassResult run_train(const RunConfig& cfg, Tracer& tracer, MetricSet& e2e, Figures& figures) {
  PassResult r;

  // Set-up: generate and write the fixed datasets, several times so that
  // setup_s is a median; the last repetition's studies and data are used.
  std::vector<double> setup_s;
  std::unique_ptr<airch::CaseStudy> studies[3];
  airch::Dataset reference[3];
  std::string data_path[3];
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    for (int c = 0; c < 3; ++c) {
      studies[c] = airch::make_case_study(kIds[c]);
      const std::uint64_t seed = derive_seed(cfg.seed, 100 + static_cast<std::uint64_t>(c));
      reference[c] = studies[c]->generate(kPoints[c], seed);
      data_path[c] = cfg.workdir + "/train-" + kCaseNames[c] + ".bin";
      airch::write_binary_dataset(reference[c], data_path[c]);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::vector<double> model_ready_s, fit_s, samples_per_s;
  CaseOutcome first[3];
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(cfg.seconds));
  for (int cycle = 0; cycle == 0 || Clock::now() < deadline; ++cycle) {
    double ready = 0.0, fit = 0.0, samples = 0.0;

    for (int c = 0; c < 3; ++c) {
      const std::string cn = kCaseNames[c];
      const airch::CaseStudy& study = *studies[c];
      const std::uint64_t seed = derive_seed(cfg.seed, 200 + static_cast<std::uint64_t>(c));
      const std::string model_path = cfg.workdir + "/train-" + cn + ".model";

      airch::Dataset data;
      ready += timed(tracer, "dataset.read_binary." + cn,
                     [&] { data = airch::read_binary_dataset(data_path[c]); });
      if (const std::size_t bad = count_mismatches(data, reference[c])) {
        r.fail(bad, cn + ": binary dataset read back differs from the one written");
      }

      airch::Dataset::TrainValTest split;
      ready += timed(tracer, "dataset.split." + cn, [&] {
        airch::Rng rng(seed);
        data.shuffle(rng);
        split = data.split3(0.8, 0.1);
      });
      std::unique_ptr<airch::FeatureEncoder> enc;
      ready += timed(tracer, "dataset.encoder_fit." + cn,
                     [&] { enc = std::make_unique<airch::FeatureEncoder>(split.train); });
      std::unique_ptr<airch::NeuralClassifier> model = airch::make_airchitect(seed, kEpochs);
      std::vector<airch::EpochStats> history;
      const double fit_case = timed(tracer, "models.fit." + cn,
                                    [&] { history = model->fit(split.train, split.val, *enc); });
      fit += fit_case;
      ready += fit_case;
      samples += static_cast<double>(split.train.size() * history.size());

      const airch::Recommender trained(study, std::move(model), std::move(enc));
      ready += timed(tracer, "core.save." + cn, [&] { trained.save(model_path); });
      tracer.count("core.model_bytes." + cn, static_cast<double>(file_bytes(model_path)));
      std::unique_ptr<airch::Recommender> loaded;
      ready += timed(tracer, "core.load." + cn, [&] {
        loaded = std::make_unique<airch::Recommender>(airch::Recommender::load(model_path, study));
      });

      const auto queries = features_of(split.test);
      std::vector<std::int32_t> preds;
      ready += timed(tracer, "core.predict_test." + cn,
                     [&] { preds = loaded->recommend_batch(queries); });
      // Gate: the reloaded recommender answers exactly as the trained one.
      const std::vector<std::int32_t> direct = trained.recommend_batch(queries);
      std::size_t bad = direct.size() == preds.size() ? 0 : queries.size();
      for (std::size_t i = 0; bad == 0 && i < preds.size(); ++i) bad += direct[i] != preds[i];
      if (bad) r.fail(bad, cn + ": reloaded recommender answers differ from the trained one");

      std::vector<double> perf;
      ready += timed(tracer, "core.score." + cn,
                     [&] { perf = study.normalized_performance_batch(split.test, preds); });
      r.attempted += 1 + split.test.size();

      const CaseOutcome out{history.empty() ? 0.0 : history.back().val_accuracy,
                            airch::geomean(perf)};
      // Gate: a fixed seed trains to the same model every cycle.
      if (cycle == 0) {
        first[c] = out;
      } else if (out.val_accuracy != first[c].val_accuracy ||
                 out.geomean_perf != first[c].geomean_perf) {
        r.fail(1, cn + ": training is not deterministic across cycles");
      }
    }
    model_ready_s.push_back(ready);
    fit_s.push_back(fit);
    samples_per_s.push_back(samples / fit);
  }

  e2e.set("setup_s", median(setup_s));
  e2e.set("latency_ms", median(model_ready_s) * 1e3);
  e2e.set("throughput_per_s", median(samples_per_s));
  figures.add("model_ready_s", "s", median(model_ready_s));
  figures.add("train_samples_per_s", "1/s", median(samples_per_s));
  for (int c = 0; c < 3; ++c) {
    figures.add(std::string("val_accuracy.") + kCaseNames[c], "ratio", first[c].val_accuracy);
    figures.add(std::string("geomean_perf.") + kCaseNames[c], "ratio", first[c].geomean_perf);
  }
  r.cost = median(model_ready_s);
  r.timings = {{"setup_s", summarize(setup_s)},
               {"model_ready_s", summarize(model_ready_s)},
               {"fit_cycle_s", summarize(fit_s)}};

  if (tracer.enabled()) {
    for (const char* c : kCaseNames) {
      const std::string cn = c;
      figures.add("models.epoch_s." + cn, "s",
                  median(tracer.durations_s("models.fit." + cn)) / kEpochs);
      for (const char* stem : {"dataset.read_binary", "dataset.encoder_fit", "core.save",
                               "core.load", "core.predict_test", "core.score"}) {
        figures.add(std::string(stem) + "_s." + cn, "s",
                    median(tracer.durations_s(std::string(stem) + "." + cn)));
      }
      figures.add("core.model_bytes." + cn, "bytes",
                  median(tracer.values("core.model_bytes." + cn)));
    }
  }
  return r;
}

}  // namespace perfbench
