#include "ml/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

namespace airch::ml {
namespace {

// Synthetic 3-class problem, float modality: class = argmax coordinate.
TEST(FeedForwardNet, LearnsSeparableFloatProblem) {
  Rng rng(3);
  FeedForwardNet net(3, {32}, 3, rng);
  Adam opt(0.01);

  Rng data_rng(5);
  auto make_batch = [&](std::size_t n, Matrix& x, std::vector<std::int32_t>& y) {
    x.resize(n, 3);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      int best = 0;
      for (int f = 0; f < 3; ++f) {
        x(i, static_cast<std::size_t>(f)) = static_cast<float>(data_rng.uniform(-1.0, 1.0));
        if (x(i, static_cast<std::size_t>(f)) > x(i, static_cast<std::size_t>(best))) best = f;
      }
      y[i] = best;
    }
  };

  Matrix x;
  std::vector<std::int32_t> y;
  for (int step = 0; step < 300; ++step) {
    make_batch(64, x, y);
    (void)net.train_batch(x, y, opt);  // training for the side effect; per-step stats unused
  }
  make_batch(500, x, y);
  const auto preds = net.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (preds[i] == y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / 500.0, 0.9);
}

// Embedding modality: label determined by a lookup table over 2 features.
TEST(FeedForwardNet, LearnsCategoricalProblemViaEmbeddings) {
  Rng rng(7);
  FeedForwardNet net({5, 5}, 8, {32}, 4, rng);
  Adam opt(0.01);

  auto label_of = [](int a, int b) { return (a * 3 + b * 7) % 4; };
  Rng data_rng(9);
  auto make_batch = [&](std::size_t n, IntBatch& x, std::vector<std::int32_t>& y) {
    x.resize(n, 2);
    y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const int a = static_cast<int>(data_rng.uniform_int(0, 4));
      const int b = static_cast<int>(data_rng.uniform_int(0, 4));
      x(i, 0) = a;
      x(i, 1) = b;
      y[i] = label_of(a, b);
    }
  };

  IntBatch x;
  std::vector<std::int32_t> y;
  for (int step = 0; step < 400; ++step) {
    make_batch(64, x, y);
    (void)net.train_batch(x, y, opt);  // training for the side effect; per-step stats unused
  }
  make_batch(500, x, y);
  const auto preds = net.predict(x);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (preds[i] == y[i]) ++correct;
  }
  // The mapping is a finite table; the net should essentially memorize it.
  EXPECT_GT(static_cast<double>(correct) / 500.0, 0.95);
}

TEST(FeedForwardNet, TrainingReducesLoss) {
  Rng rng(11);
  FeedForwardNet net(4, {16}, 2, rng);
  Adam opt(0.01);
  Matrix x(32, 4);
  std::vector<std::int32_t> y(32);
  Rng data_rng(13);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t f = 0; f < 4; ++f) {
      x(i, f) = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    }
    y[i] = x(i, 0) > 0.0f ? 1 : 0;
  }
  const double first = net.train_batch(x, y, opt).loss;
  double last = first;
  for (int step = 0; step < 100; ++step) last = net.train_batch(x, y, opt).loss;
  EXPECT_LT(last, first * 0.5);
}

TEST(FeedForwardNet, ModalityMismatchThrows) {
  Rng rng(15);
  FeedForwardNet float_net(4, {8}, 2, rng);
  IntBatch ints;
  ints.resize(1, 4);
  EXPECT_THROW((void)float_net.infer_logits(ints), std::logic_error);

  FeedForwardNet embed_net({4, 4, 4, 4}, 4, {8}, 2, rng);
  Matrix floats(1, 4);
  EXPECT_THROW((void)embed_net.infer_logits(floats), std::logic_error);
}

TEST(FeedForwardNet, ParamsCoverAllLayers) {
  Rng rng(17);
  // embeddings (2 tables) + dense1 (W+b) + dense2 (W+b) = 6 param tensors.
  FeedForwardNet net({4, 4}, 4, {8}, 3, rng);
  EXPECT_EQ(net.params().size(), 6u);
  EXPECT_TRUE(net.has_embedding());
  EXPECT_EQ(net.num_classes(), 3u);
}

TEST(FeedForwardNet, TwoHiddenLayerShapes) {
  Rng rng(19);
  FeedForwardNet net(6, {4, 5}, 2, rng);
  const Matrix x(3, 6, 0.5f);
  Tape tape;
  const Matrix out = net.infer_logits(x, &tape);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 2u);
  // One post-ReLU activation per hidden layer; the caller's input is not copied.
  ASSERT_EQ(tape.size(), 2u);
  EXPECT_EQ(tape[0].rows(), 3u);
  EXPECT_EQ(tape[0].cols(), 4u);
  EXPECT_EQ(tape[1].rows(), 3u);
  EXPECT_EQ(tape[1].cols(), 5u);
  EXPECT_EQ(net.params().size(), 6u);  // W and b of three Dense layers

  // The recording pass computes exactly what plain inference does.
  const Matrix plain = net.infer_logits(x);
  EXPECT_TRUE(std::equal(out.data(), out.data() + out.size(), plain.data()));

  FeedForwardNet embed_net({3, 3}, 2, {4, 5}, 2, rng);
  IntBatch ints;
  ints.resize(3, 2);
  Tape embed_tape;
  EXPECT_EQ(embed_net.infer_logits(ints, &embed_tape).cols(), 2u);
  ASSERT_EQ(embed_tape.size(), 3u);  // the embedding output, then two hidden
  EXPECT_EQ(embed_tape[0].cols(), 4u);
}

/// An optimizer that leaves every parameter alone, so the gradients one
/// train_batch leaves in the parameter views can be read back.
class NoStep final : public Optimizer {
 public:
  NoStep() : Optimizer(0.0) {}
  void step(const std::vector<ParamRef>& /*params*/) override {}
};

/// Central differences of the batch loss against the gradients train_batch
/// computed, for every parameter of the net: the forward pass
/// (infer_logits), the tape and the backward pass checked as one.
template <typename Input>
void expect_network_gradients(FeedForwardNet& net, const Input& x,
                              const std::vector<std::int32_t>& y) {
  // Small enough that no perturbation moves a ReLU input across zero.
  constexpr float kEps = 1e-4f;
  NoStep no_step;
  (void)net.train_batch(x, y, no_step);  // fills the gradients only
  const auto params = net.params();
  for (std::size_t t = 0; t < params.size(); ++t) {
    const ParamRef& p = params[t];
    for (std::size_t i = 0; i < p.size; ++i) {
      const float orig = p.value[i];
      p.value[i] = orig + kEps;
      const double plus = softmax_cross_entropy(net.infer_logits(x), y).loss;
      p.value[i] = orig - kEps;
      const double minus = softmax_cross_entropy(net.infer_logits(x), y).loss;
      p.value[i] = orig;
      const auto numeric = static_cast<float>((plus - minus) / (2.0 * kEps));
      const float denom = std::max({std::abs(p.grad[i]), std::abs(numeric), 1e-2f});
      EXPECT_LT(std::abs(p.grad[i] - numeric) / denom, 2e-2f)
          << "tensor " << t << " [" << i << "]: analytic=" << p.grad[i] << " numeric=" << numeric;
    }
  }
}

TEST(FeedForwardNet, WholeNetworkGradientCheck) {
  Rng rng(21);
  const std::vector<std::int32_t> y = {0, 2, 1, 2};

  FeedForwardNet float_net(3, {5, 4}, 3, rng);
  Matrix floats(4, 3);
  for (std::size_t i = 0; i < floats.size(); ++i) {
    floats.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  expect_network_gradients(float_net, floats, y);

  FeedForwardNet embed_net({3, 4}, 2, {5, 4}, 3, rng);
  IntBatch ints;
  ints.resize(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    ints(r, 0) = static_cast<std::int32_t>(r % 3);
    ints(r, 1) = static_cast<std::int32_t>((r * 3) % 4);
  }
  expect_network_gradients(embed_net, ints, y);
}

}  // namespace
}  // namespace airch::ml
