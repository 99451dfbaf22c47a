#include "ml/embedding.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace airch::ml {

EmbeddingBag::EmbeddingBag(std::vector<int> vocab_sizes, std::size_t dim, Rng& rng)
    : vocab_sizes_(std::move(vocab_sizes)), dim_(dim) {
  if (vocab_sizes_.empty() || dim_ == 0) throw std::invalid_argument("empty embedding spec");
  tables_.reserve(vocab_sizes_.size());
  table_grads_.reserve(vocab_sizes_.size());
  for (int vocab : vocab_sizes_) {
    if (vocab < 1) throw std::invalid_argument("vocab size must be >= 1");
    Matrix t(static_cast<std::size_t>(vocab), dim_);
    t.init_glorot(rng);
    tables_.push_back(std::move(t));
    table_grads_.emplace_back(static_cast<std::size_t>(vocab), dim_);
  }
}

void EmbeddingBag::backward(const IntBatch& indices, const Matrix& grad_out) {
  AIRCH_ASSERT(indices.cols == vocab_sizes_.size() && grad_out.rows() == indices.rows &&
               grad_out.cols() == output_dim());
  // The scatter is partitioned by FEATURE, not by row: feature f owns
  // table_grads_[f] exclusively, so concurrent workers never touch the
  // same gradient cell, and within a feature the rows are walked in
  // ascending order — the same per-cell accumulation order as the
  // original row-major loop. Race-free and bit-identical.
  const std::size_t rows = indices.rows;
  parallel_rows(vocab_sizes_.size(), rows * dim_ * 2, [&](std::size_t f0, std::size_t f1) {
    for (std::size_t f = f0; f < f1; ++f) {
      table_grads_[f].fill(0.0f);
      for (std::size_t r = 0; r < rows; ++r) {
        const float* src = grad_out.row(r) + f * dim_;
        float* dst = table_grads_[f].row(slot(f, indices(r, f)));
        for (std::size_t d = 0; d < dim_; ++d) dst[d] += src[d];
      }
    }
  });
}

std::vector<ParamRef> EmbeddingBag::params() {
  std::vector<ParamRef> out;
  out.reserve(tables_.size());
  for (std::size_t f = 0; f < tables_.size(); ++f) {
    out.push_back({tables_[f].data(), table_grads_[f].data(), tables_[f].size()});
  }
  return out;
}

std::vector<ConstParamRef> EmbeddingBag::params() const {
  std::vector<ConstParamRef> out;
  out.reserve(tables_.size());
  for (const Matrix& t : tables_) out.push_back({t.data(), t.size()});
  return out;
}

}  // namespace airch::ml
