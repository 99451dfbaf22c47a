#pragma once
// Neural classifiers: the MLP-A..D baselines (standardized float input)
// and AIRCHITECT (per-feature embedding input, paper Fig. 2). Both share
// one mini-batch training loop; the input modality is selected by
// Options::embed_dim (0 = float MLP, >0 = embedding front-end).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ml/network.hpp"
#include "models/classifier.hpp"

namespace airch {

class BatchStream;
class BinReader;
class BinWriter;

class NeuralClassifier final : public Classifier {
 public:
  struct Options {
    std::vector<std::size_t> hidden = {256};  ///< hidden layer widths
    std::size_t embed_dim = 0;                ///< 0 = float input, >0 = embeddings
    int epochs = 15;                          ///< paper trains ~15-22 epochs
    std::size_t batch_size = 256;
    double learning_rate = 1e-3;              ///< Adam
    double lr_decay = 1.0;                    ///< per-epoch multiplicative decay
    int early_stop_patience = 0;              ///< stop after N epochs without
                                              ///< val-accuracy improvement (0 = off)
    std::uint64_t seed = 1;
    int log_every_epochs = 1;                 ///< history granularity
  };

  NeuralClassifier(std::string name, Options options)
      : name_(std::move(name)), options_(options) {}

  std::string name() const override { return name_; }
  std::vector<EpochStats> fit(const Dataset& train, const Dataset& val,
                              const FeatureEncoder& enc) override;

  /// fit() for datasets that never fit in memory at once: streams the
  /// binary training file chunk-by-chunk (≤ chunk_points each), one pass
  /// per epoch, shuffling within each chunk. When a single chunk covers
  /// the whole file this is bit-identical to fit() on the materialized
  /// dataset (same Rng sequence, same batch fold order) — property-tested
  /// in tests/test_binary_io.cpp.
  std::vector<EpochStats> fit_stream(BatchStream& train, const Dataset& val,
                                     const FeatureEncoder& enc, std::size_t chunk_points);

  std::vector<std::int32_t> predict(const Dataset& ds, const FeatureEncoder& enc) const override;

  /// Batched inference over raw feature vectors: encodes all queries into
  /// one packed batch and runs a single forward pass (serving path; see
  /// Recommender::recommend_batch). const and side-effect-free: routed
  /// through FeedForwardNet::infer_logits, so concurrent callers sharing
  /// one fitted model are race-free.
  std::vector<std::int32_t> predict_batch(const std::vector<std::vector<std::int64_t>>& queries,
                                          const FeatureEncoder& enc) const;

  /// Class-probability scores for one feature vector (inference path).
  std::vector<float> predict_proba(const std::vector<std::int64_t>& features,
                                   const FeatureEncoder& enc) const;

  const Options& options() const { return options_; }

  /// Input shape the network was fitted with (0 and empty before fit):
  /// the feature arity and, in embedding mode, the per-feature vocab sizes
  /// its embedding tables were built for (empty in float mode).
  std::size_t fitted_input_dim() const { return fitted_input_dim_; }
  const std::vector<int>& fitted_vocab() const { return fitted_vocab_; }

  /// Binary section of a recommender model file (core/recommender.cpp
  /// owns the header and trailer): name, options, fitted shape, then each
  /// parameter tensor as a u64 size and its floats' IEEE-754 bit patterns,
  /// so weights round-trip bit-exactly. Throws std::logic_error before fit().
  void save(BinWriter& out) const;
  /// Rebuilds a fitted classifier saved with save(). Every count is checked
  /// against the bytes left in the file before it sizes an allocation, and
  /// the parameter count the shape implies must fit in them before the
  /// network is built; corruption and truncation throw ContractViolation.
  static std::unique_ptr<NeuralClassifier> load(BinReader& in);

 private:
  bool uses_embedding() const { return options_.embed_dim > 0; }
  void build_net(std::size_t classes, std::size_t input_dim, const std::vector<int>& vocab);
  bool finish_epoch(int epoch, const ml::TrainStats& epoch_stats, const Dataset& val,
                    const FeatureEncoder& enc, std::vector<EpochStats>& history,
                    double& best_val, int& epochs_since_best);

  std::string name_;
  Options options_;
  std::unique_ptr<ml::FeedForwardNet> net_;
  // Fit-time shape metadata, required to rebuild the net at load().
  std::size_t fitted_input_dim_ = 0;
  std::vector<int> fitted_vocab_;
};

/// Factory helpers matching the paper's model table (Fig. 9).
std::unique_ptr<NeuralClassifier> make_mlp_a(std::uint64_t seed = 1, int epochs = 15);  ///< 1 x 128
std::unique_ptr<NeuralClassifier> make_mlp_b(std::uint64_t seed = 1, int epochs = 15);  ///< 1 x 256
std::unique_ptr<NeuralClassifier> make_mlp_c(std::uint64_t seed = 1, int epochs = 15);  ///< 2 x 128
std::unique_ptr<NeuralClassifier> make_mlp_d(std::uint64_t seed = 1, int epochs = 15);  ///< 2 x 256
/// AIRCHITECT: 16-wide embeddings + one 256-node hidden layer.
std::unique_ptr<NeuralClassifier> make_airchitect(std::uint64_t seed = 1, int epochs = 15);

}  // namespace airch
