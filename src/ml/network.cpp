#include "ml/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "ml/activation.hpp"

namespace airch::ml {

FeedForwardNet::FeedForwardNet(std::vector<int> vocab_sizes, std::size_t embed_dim,
                               const std::vector<std::size_t>& hidden, std::size_t classes,
                               Rng& rng)
    : embedding_(std::in_place, std::move(vocab_sizes), embed_dim, rng), classes_(classes) {
  build_dense(embedding_->output_dim(), hidden, classes, rng);
}

FeedForwardNet::FeedForwardNet(std::size_t input_dim, const std::vector<std::size_t>& hidden,
                               std::size_t classes, Rng& rng)
    : classes_(classes) {
  build_dense(input_dim, hidden, classes, rng);
}

void FeedForwardNet::build_dense(std::size_t in_dim, const std::vector<std::size_t>& hidden,
                                 std::size_t classes, Rng& rng) {
  dense_.reserve(hidden.size() + 1);
  for (std::size_t h : hidden) {
    dense_.emplace_back(in_dim, h, rng);
    in_dim = h;
  }
  dense_.emplace_back(in_dim, classes, rng);
}

Matrix FeedForwardNet::infer_logits(const IntBatch& x, Tape* tape) const {
  if (!embedding_) throw std::logic_error("net has no embedding front-end");
  AIRCH_ASSERT(x.cols == embedding_->num_features());
  const EmbeddingBag& emb = *embedding_;
  const std::size_t dim = emb.dim();
  Matrix e(x.rows, emb.output_dim());
  // Each output row is an independent gather; row-partitioning across
  // workers is race-free and order-independent (pure copies).
  parallel_rows(x.rows, emb.output_dim() * 2, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t f = 0; f < x.cols; ++f) {
        const float* src = emb.row(f, x(r, f));
        std::copy(src, src + dim, e.row(r) + f * dim);
      }
    }
  });
  if (tape == nullptr) return forward_dense(e, nullptr);
  tape->push_back(std::move(e));
  return forward_dense(tape->back(), tape);
}

Matrix FeedForwardNet::infer_logits(const Matrix& x, Tape* tape) const {
  if (embedding_) throw std::logic_error("net expects integer (embedding) input");
  return forward_dense(x, tape);
}

// The Dense/ReLU stack. `x` is read by the first layer only, before the
// tape grows, so it may itself be the tape's last entry.
Matrix FeedForwardNet::forward_dense(const Matrix& x, Tape* tape) const {
  Matrix cur;  // the latest hidden activation when nothing is recorded
  for (std::size_t i = 0;; ++i) {
    const Dense& layer = dense_[i];
    const Matrix& in = i == 0 ? x : tape != nullptr ? tape->back() : cur;
    AIRCH_ASSERT(in.cols() == layer.w.rows());
    Matrix y(in.rows(), layer.w.cols());
    matmul(in, false, layer.w, false, y);
    add_row_broadcast(y, layer.b);
    if (i + 1 == dense_.size()) return y;
    relu(y);
    if (tape != nullptr) {
      tape->push_back(std::move(y));
    } else {
      cur = std::move(y);
    }
  }
}

// Walks the Dense/ReLU stack backward from dL/d(logits). `x` is the first
// layer's input and `hidden` the recorded post-ReLU outputs; returns dL/dx.
Matrix FeedForwardNet::backward_dense(const Matrix& x, std::span<const Matrix> hidden,
                                      Matrix grad) {
  AIRCH_ASSERT(hidden.size() + 1 == dense_.size());
  for (std::size_t i = dense_.size(); i-- > 0;) {
    grad = dense_[i].backward(i == 0 ? x : hidden[i - 1], grad);
    if (i > 0) relu_backward(hidden[i - 1], grad);
  }
  return grad;
}

TrainStats FeedForwardNet::train_batch(const IntBatch& x, const std::vector<std::int32_t>& y,
                                       Optimizer& opt) {
  AIRCH_ASSERT(x.rows == y.size());
  Tape tape;
  LossResult lr = softmax_cross_entropy(infer_logits(x, &tape), y);
  const Matrix grad_e =
      backward_dense(tape.front(), std::span<const Matrix>(tape).subspan(1), std::move(lr.grad));
  embedding_->backward(x, grad_e);
  opt.step(params());
  return {lr.loss, lr.correct, y.size()};
}

TrainStats FeedForwardNet::train_batch(const Matrix& x, const std::vector<std::int32_t>& y,
                                       Optimizer& opt) {
  AIRCH_ASSERT(x.rows() == y.size());
  Tape tape;
  LossResult lr = softmax_cross_entropy(infer_logits(x, &tape), y);
  (void)backward_dense(x, tape, std::move(lr.grad));  // no layer below the input
  opt.step(params());
  return {lr.loss, lr.correct, y.size()};
}

std::vector<std::int32_t> FeedForwardNet::predict(const IntBatch& x) const {
  return argmax_rows(infer_logits(x));
}

std::vector<std::int32_t> FeedForwardNet::predict(const Matrix& x) const {
  return argmax_rows(infer_logits(x));
}

std::vector<ParamRef> FeedForwardNet::params() {
  std::vector<ParamRef> out;
  if (embedding_) out = embedding_->params();
  for (Dense& layer : dense_) {
    const auto p = layer.params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

std::vector<ConstParamRef> FeedForwardNet::params() const {
  std::vector<ConstParamRef> out;
  if (embedding_) out = embedding_->params();
  for (const Dense& layer : dense_) {
    const auto p = layer.params();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

}  // namespace airch::ml
