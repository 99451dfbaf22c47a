#pragma once
// Per-feature embedding front-end (the "trained embedding" of the paper's
// Fig. 2). Each of the F integer input features has its own table mapping
// a bucketized feature value to a dim-wide dense vector; the F vectors are
// concatenated into the MLP input.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "ml/matrix.hpp"
#include "ml/optimizer.hpp"

namespace airch::ml {

/// Row-major batch of integer feature indices (batch x features).
struct IntBatch {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::int32_t> data;

  std::int32_t operator()(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
  std::int32_t& operator()(std::size_t r, std::size_t c) { return data[r * cols + c]; }
  void resize(std::size_t r, std::size_t c) {
    rows = r;
    cols = c;
    data.assign(r * c, 0);
  }
};

/// Embedding tables and their gradients. FeedForwardNet::infer_logits
/// gathers the rows; the bag's own work is the backward scatter.
class EmbeddingBag {
 public:
  /// vocab_sizes[f] = number of buckets for feature f; dim = vector width.
  EmbeddingBag(std::vector<int> vocab_sizes, std::size_t dim, Rng& rng);

  /// The dim-wide table row feature `f` maps `index` to. Indices are
  /// clamped into the vocab range defensively.
  const float* row(std::size_t f, std::int32_t index) const {
    return tables_[f].row(slot(f, index));
  }

  /// Sets the table gradients from dL/d(output) of the forward pass that
  /// gathered the (batch x F) `indices`.
  void backward(const IntBatch& indices, const Matrix& grad_out);

  std::vector<ParamRef> params();
  /// Read-only parameter views (serialization from a const model).
  std::vector<ConstParamRef> params() const;

  /// Width of the concatenated (batch x F*dim) output.
  std::size_t output_dim() const { return vocab_sizes_.size() * dim_; }
  std::size_t dim() const { return dim_; }
  std::size_t num_features() const { return vocab_sizes_.size(); }

 private:
  std::size_t slot(std::size_t f, std::int32_t index) const {
    return static_cast<std::size_t>(std::clamp<std::int32_t>(index, 0, vocab_sizes_[f] - 1));
  }

  std::vector<int> vocab_sizes_;
  std::size_t dim_;
  std::vector<Matrix> tables_;       // per feature: vocab x dim
  std::vector<Matrix> table_grads_;  // same shapes
};

}  // namespace airch::ml
