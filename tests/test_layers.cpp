// Finite-difference gradient checks for every trainable layer's backward
// pass and the fused softmax cross-entropy — the backbone correctness
// guarantee of the from-scratch NN stack. A layer holds parameters only,
// so each check states its forward pass here (y = x W + b, the embedding
// gather); tests/test_network.cpp checks the network's own forward.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "ml/activation.hpp"
#include "ml/dense.hpp"
#include "ml/embedding.hpp"
#include "ml/loss.hpp"
#include "ml/network.hpp"

namespace airch::ml {
namespace {

constexpr float kEps = 1e-3f;
constexpr float kTol = 2e-2f;  // relative tolerance for fp32 central differences

Matrix random_matrix(std::size_t r, std::size_t c, Rng& rng, double scale = 1.0) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-scale, scale));
  }
  return m;
}

/// Scalar loss used to drive gradient checks: L = sum(out * coeff).
double weighted_sum(const Matrix& out, const Matrix& coeff) {
  double s = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    s += static_cast<double>(out.data()[i]) * static_cast<double>(coeff.data()[i]);
  }
  return s;
}

void expect_close(float analytic, float numeric, const std::string& what) {
  const float denom = std::max({std::abs(analytic), std::abs(numeric), 1e-2f});
  EXPECT_LT(std::abs(analytic - numeric) / denom, kTol)
      << what << ": analytic=" << analytic << " numeric=" << numeric;
}

Matrix dense_forward(const Dense& layer, const Matrix& x) {
  Matrix y(x.rows(), layer.w.cols());
  matmul(x, false, layer.w, false, y);
  add_row_broadcast(y, layer.b);
  return y;
}

Matrix gather(const EmbeddingBag& emb, const IntBatch& x) {
  Matrix out(x.rows, emb.output_dim());
  for (std::size_t r = 0; r < x.rows; ++r) {
    for (std::size_t f = 0; f < x.cols; ++f) {
      const float* src = emb.row(f, x(r, f));
      std::copy(src, src + emb.dim(), out.row(r) + f * emb.dim());
    }
  }
  return out;
}

TEST(GradCheck, DenseInputGradient) {
  Rng rng(3);
  Dense layer(4, 3, rng);
  Matrix x = random_matrix(5, 4, rng);
  const Matrix coeff = random_matrix(5, 3, rng);

  const Matrix grad_in = layer.backward(x, coeff);

  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const float orig = x(r, c);
      x(r, c) = orig + kEps;
      const double plus = weighted_sum(dense_forward(layer, x), coeff);
      x(r, c) = orig - kEps;
      const double minus = weighted_sum(dense_forward(layer, x), coeff);
      x(r, c) = orig;
      const float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
      expect_close(grad_in(r, c), numeric, "dX[" + std::to_string(r) + "," + std::to_string(c) + "]");
    }
  }
}

TEST(GradCheck, DenseParamGradients) {
  Rng rng(5);
  Dense layer(3, 2, rng);
  const Matrix x = random_matrix(4, 3, rng);
  const Matrix coeff = random_matrix(4, 2, rng);

  (void)layer.backward(x, coeff);  // parameter gradients only
  auto params = layer.params();  // [0] = W, [1] = b

  for (const auto& p : params) {
    for (std::size_t i = 0; i < p.size; ++i) {
      const float analytic = p.grad[i];
      const float orig = p.value[i];
      p.value[i] = orig + kEps;
      const double plus = weighted_sum(dense_forward(layer, x), coeff);
      p.value[i] = orig - kEps;
      const double minus = weighted_sum(dense_forward(layer, x), coeff);
      p.value[i] = orig;
      const float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
      expect_close(analytic, numeric, "param[" + std::to_string(i) + "]");
    }
  }
}

TEST(GradCheck, ReluGradient) {
  Rng rng(7);
  const Matrix x = random_matrix(6, 5, rng);
  const Matrix coeff = random_matrix(6, 5, rng);

  Matrix y = x;
  relu(y);
  Matrix grad_in = coeff;
  relu_backward(y, grad_in);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(y.data()[i], x.data()[i] > 0.0f ? x.data()[i] : 0.0f);
    const float expected = x.data()[i] > 0.0f ? coeff.data()[i] : 0.0f;
    EXPECT_FLOAT_EQ(grad_in.data()[i], expected);
    // The mask multiplies: a blocked negative gradient keeps its sign.
    if (!(x.data()[i] > 0.0f)) {
      EXPECT_EQ(std::signbit(grad_in.data()[i]), std::signbit(coeff.data()[i]));
    }
  }
}

TEST(GradCheck, EmbeddingTableGradient) {
  Rng rng(9);
  EmbeddingBag emb({4, 3}, 2, rng);
  IntBatch x;
  x.resize(3, 2);
  x(0, 0) = 1;
  x(0, 1) = 2;
  x(1, 0) = 1;  // repeated index: gradients must accumulate
  x(1, 1) = 0;
  x(2, 0) = 3;
  x(2, 1) = 2;
  const Matrix coeff = random_matrix(3, emb.output_dim(), rng);

  emb.backward(x, coeff);
  auto params = emb.params();

  for (const auto& p : params) {
    for (std::size_t i = 0; i < p.size; ++i) {
      const float analytic = p.grad[i];
      const float orig = p.value[i];
      p.value[i] = orig + kEps;
      const double plus = weighted_sum(gather(emb, x), coeff);
      p.value[i] = orig - kEps;
      const double minus = weighted_sum(gather(emb, x), coeff);
      p.value[i] = orig;
      const float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
      expect_close(analytic, numeric, "emb[" + std::to_string(i) + "]");
    }
  }
}

TEST(GradCheck, SoftmaxCrossEntropyGradient) {
  Rng rng(11);
  Matrix logits = random_matrix(4, 5, rng, 2.0);
  const std::vector<std::int32_t> labels = {0, 3, 2, 4};

  const LossResult base = softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float orig = logits.data()[i];
    logits.data()[i] = orig + kEps;
    const double plus = softmax_cross_entropy(logits, labels).loss;
    logits.data()[i] = orig - kEps;
    const double minus = softmax_cross_entropy(logits, labels).loss;
    logits.data()[i] = orig;
    const float numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
    expect_close(base.grad.data()[i], numeric, "logit[" + std::to_string(i) + "]");
  }
}

TEST(Embedding, OutOfRangeIndicesClamped) {
  Rng rng(13);
  EmbeddingBag emb({4}, 2, rng);
  EXPECT_EQ(emb.row(0, -5), emb.row(0, 0));
  EXPECT_EQ(emb.row(0, 99), emb.row(0, 3));

  // Through the network's gather, and into the backward scatter.
  FeedForwardNet net({4}, 2, {}, 3, rng);
  IntBatch out_of_range;
  out_of_range.resize(2, 1);
  out_of_range(0, 0) = -5;
  out_of_range(1, 0) = 99;
  IntBatch clamped = out_of_range;
  clamped(0, 0) = 0;
  clamped(1, 0) = 3;
  Tape tape;
  const Matrix out = net.infer_logits(out_of_range, &tape);  // must not crash
  EXPECT_EQ(out.rows(), 2u);
  EXPECT_EQ(out.cols(), 3u);
  Tape clamped_tape;
  (void)net.infer_logits(clamped, &clamped_tape);
  ASSERT_EQ(tape.size(), 1u);
  EXPECT_EQ(std::memcmp(tape[0].data(), clamped_tape[0].data(), tape[0].size() * sizeof(float)),
            0);

  const Matrix coeff = random_matrix(2, emb.output_dim(), rng);
  emb.backward(out_of_range, coeff);
  const auto p = emb.params()[0];
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(p.grad[0 * 2 + d], coeff(0, d));
    EXPECT_EQ(p.grad[3 * 2 + d], coeff(1, d));
  }
}

TEST(Embedding, OutputLayout) {
  Rng rng(15);
  FeedForwardNet net({3, 3}, 4, {}, 2, rng);
  IntBatch x;
  x.resize(1, 2);
  x(0, 0) = 1;
  x(0, 1) = 2;
  Tape tape;
  (void)net.infer_logits(x, &tape);
  ASSERT_EQ(tape.size(), 1u);  // the embedding output; no hidden layer
  const Matrix& out = tape[0];
  ASSERT_EQ(out.cols(), 8u);
  // First 4 entries = table0 row1; last 4 = table1 row2.
  const auto params = net.params();
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(out(0, d), params[0].value[1 * 4 + d]);
    EXPECT_FLOAT_EQ(out(0, 4 + d), params[1].value[2 * 4 + d]);
  }
}

TEST(Dense, ZeroSizeRejected) {
  Rng rng(17);
  EXPECT_THROW(Dense(0, 5, rng), std::invalid_argument);
  EXPECT_THROW(Dense(5, 0, rng), std::invalid_argument);
}

TEST(Embedding, BadSpecRejected) {
  Rng rng(19);
  EXPECT_THROW(EmbeddingBag({}, 4, rng), std::invalid_argument);
  EXPECT_THROW(EmbeddingBag({3}, 0, rng), std::invalid_argument);
  EXPECT_THROW(EmbeddingBag({0}, 4, rng), std::invalid_argument);
}

}  // namespace
}  // namespace airch::ml
