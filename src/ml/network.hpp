#pragma once
// FeedForwardNet: the complete classifier body used by both the paper's
// MLP baselines (float input) and AIRCHITECT (per-feature embedding input,
// Fig. 2). One forward function computes every activation; training runs
// it with a tape and walks the tape backward.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ml/dense.hpp"
#include "ml/embedding.hpp"
#include "ml/loss.hpp"
#include "ml/optimizer.hpp"

namespace airch::ml {

/// The activations one forward pass produced, in order: the embedding
/// output (embedding input only), then each hidden layer's post-ReLU
/// output — each one the recorded input of the next Dense layer.
using Tape = std::vector<Matrix>;

struct TrainStats {
  double loss = 0.0;
  std::size_t correct = 0;
  std::size_t count = 0;

  /// Merges another batch's statistics; `loss` stays the sample-weighted
  /// mean. The in-memory and streaming fit paths both fold their batches
  /// through this operator in the same order, which is what makes their
  /// reported epoch histories bit-identical when the stream's chunk covers
  /// the whole set.
  TrainStats& operator+=(const TrainStats& other) {
    const double merged = static_cast<double>(count) + static_cast<double>(other.count);
    if (merged > 0.0) {
      loss = (loss * static_cast<double>(count) +
              other.loss * static_cast<double>(other.count)) /
             merged;
    }
    correct += other.correct;
    count += other.count;
    return *this;
  }
};

/// MLP classifier with either a float input or an embedding front-end.
class FeedForwardNet {
 public:
  /// Embedding-input variant (AIRCHITECT): per-feature vocabularies,
  /// an embedding width, then hidden ReLU layers and a logits layer.
  FeedForwardNet(std::vector<int> vocab_sizes, std::size_t embed_dim,
                 const std::vector<std::size_t>& hidden, std::size_t classes, Rng& rng);

  /// Float-input variant (MLP-A..D baselines).
  FeedForwardNet(std::size_t input_dim, const std::vector<std::size_t>& hidden,
                 std::size_t classes, Rng& rng);

  bool has_embedding() const { return embedding_.has_value(); }
  std::size_t num_classes() const { return classes_; }

  /// The forward pass to logits; exactly one overload is legal per
  /// variant. Without a tape it has no side effects, so many threads can
  /// share one trained net. With one, every activation it produces is
  /// moved onto `tape` (appended), which is all a backward pass needs.
  Matrix infer_logits(const IntBatch& x, Tape* tape = nullptr) const;
  Matrix infer_logits(const Matrix& x, Tape* tape = nullptr) const;

  /// One optimizer step on a batch: infer_logits on a per-call tape, the
  /// loss, the backward pass over the tape. Returns loss/accuracy stats.
  [[nodiscard]] TrainStats train_batch(const IntBatch& x, const std::vector<std::int32_t>& y, Optimizer& opt);
  [[nodiscard]] TrainStats train_batch(const Matrix& x, const std::vector<std::int32_t>& y, Optimizer& opt);

  std::vector<std::int32_t> predict(const IntBatch& x) const;
  std::vector<std::int32_t> predict(const Matrix& x) const;

  /// Embedding tables first, then W and b of each Dense layer in order.
  std::vector<ParamRef> params();
  std::vector<ConstParamRef> params() const;

 private:
  void build_dense(std::size_t in_dim, const std::vector<std::size_t>& hidden,
                   std::size_t classes, Rng& rng);
  Matrix forward_dense(const Matrix& x, Tape* tape) const;
  Matrix backward_dense(const Matrix& x, std::span<const Matrix> hidden, Matrix grad);

  std::optional<EmbeddingBag> embedding_;
  std::vector<Dense> dense_;
  std::size_t classes_ = 0;
};

}  // namespace airch::ml
