#pragma once
// The paper's headline artifact: a constant-time learned optimizer.
// A Recommender owns a trained AIRCHITECT network plus the feature
// encoder and output space needed to answer design queries in one
// inference (Fig. 1(b), Step 1') — no simulation, no search.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/case_study.hpp"
#include "models/neural.hpp"

namespace airch {

struct RecommenderTrainOptions {
  std::size_t dataset_size = 50000;
  std::uint64_t seed = 42;
  int epochs = 15;
  double train_frac = 0.9;  ///< remainder is validation
};

class Recommender {
 public:
  using TrainOptions = RecommenderTrainOptions;

  struct TrainReport {
    std::vector<EpochStats> history;
    double val_accuracy = 0.0;
  };

  /// Trains an AIRCHITECT model for `study` on freshly generated data.
  /// `study` must outlive the recommender.
  static Recommender train(const CaseStudy& study, const TrainOptions& options = {});

  /// Wraps an already-fitted classifier (ownership transferred). Throws
  /// std::invalid_argument unless the encoder's arity is the model's fitted
  /// input dimension and, for an embedding model, its vocab sizes are the
  /// ones the embedding tables were built for.
  Recommender(const CaseStudy& study, std::unique_ptr<NeuralClassifier> model,
              std::unique_ptr<FeatureEncoder> encoder);

  /// Raw constant-time query: feature vector -> output-space label.
  std::int32_t recommend_label(const std::vector<std::int64_t>& features) const;

  /// Batched serving query: labels for N feature vectors via ONE packed
  /// forward pass. Equivalent to mapping recommend_label over `queries`
  /// but amortizes the per-call network overhead across the batch
  /// (bench_query_latency's BM_InferBatched measures the gap).
  std::vector<std::int32_t> recommend_batch(
      const std::vector<std::vector<std::int64_t>>& queries) const;

  /// Top-k labels by predicted probability, most likely first. Useful for
  /// the hybrid mode: recommend k candidates, re-rank them with k cheap
  /// simulations instead of a full search.
  std::vector<std::int32_t> recommend_topk(const std::vector<std::int64_t>& features,
                                           int k) const;

  /// Persistence: a saved recommender can be reloaded and queried without
  /// regenerating data or retraining. The file is binary model format 2
  /// (common/binio framing: header, classifier and encoder sections,
  /// checksum trailer); weights and val_accuracy round-trip bit-exactly.
  void save(const std::string& path) const;
  /// `study` must be the same case study (id and output-space size are
  /// verified) and must outlive the recommender. A missing file or another
  /// case study's model throws std::runtime_error; a corrupt, truncated,
  /// trailing-garbage or format-1 (text) file throws ContractViolation.
  static Recommender load(const std::string& path, const CaseStudy& study);

  /// Typed queries; each checks that the underlying study matches.
  ArrayConfig recommend_array(const GemmWorkload& w, int budget_exp) const;
  MemoryConfig recommend_buffers(std::int64_t limit_kb, const GemmWorkload& w,
                                 const ArrayConfig& array, std::int64_t bandwidth) const;
  ScheduleSpace::Schedule recommend_schedule(const std::vector<GemmWorkload>& workloads) const;

  const TrainReport& report() const { return report_; }
  const CaseStudy& study() const { return *study_; }
  /// Feature arity the model was fitted with (serving-side request
  /// validation: reject a wrong-arity query before it joins a packed batch).
  int num_features() const { return encoder_->num_features(); }

 private:
  const CaseStudy* study_;
  std::unique_ptr<NeuralClassifier> model_;
  std::unique_ptr<FeatureEncoder> encoder_;
  TrainReport report_;
};

}  // namespace airch
