// Dropout layer semantics, early stopping, and the transformer workload
// extensions.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/binio.hpp"
#include "ml/dropout.hpp"
#include "models/neural.hpp"
#include "workload/model_zoo.hpp"

namespace airch {
namespace {

using ml::DropoutLayer;
using ml::Matrix;

TEST(Dropout, IdentityAtInference) {
  DropoutLayer layer(0.5, 1);
  Matrix x(4, 8, 2.0f);
  const Matrix y = layer.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y.data()[i], 2.0f);
}

TEST(Dropout, ZeroRateIsIdentityInTraining) {
  DropoutLayer layer(0.0, 1);
  Matrix x(4, 8, 3.0f);
  const Matrix y = layer.forward(x, /*training=*/true);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y.data()[i], 3.0f);
}

TEST(Dropout, DropsApproximatelyRateFraction) {
  DropoutLayer layer(0.3, 7);
  Matrix x(100, 100, 1.0f);
  const Matrix y = layer.forward(x, /*training=*/true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y.data()[i] == 0.0f) {
      ++zeros;
    } else {
      // Inverted dropout scales survivors by 1/(1-rate).
      EXPECT_NEAR(y.data()[i], 1.0f / 0.7f, 1e-5f);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(y.size()), 0.3, 0.02);
}

TEST(Dropout, BackwardUsesSameMask) {
  DropoutLayer layer(0.5, 11);
  Matrix x(10, 10, 1.0f);
  const Matrix y = layer.forward(x, /*training=*/true);
  Matrix grad(10, 10, 1.0f);
  const Matrix gx = layer.backward(grad);
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_FLOAT_EQ(gx.data()[i], y.data()[i]);  // both equal the mask value
  }
}

TEST(Dropout, RejectsBadRate) {
  EXPECT_THROW(DropoutLayer(-0.1, 1), std::invalid_argument);
  EXPECT_THROW(DropoutLayer(1.0, 1), std::invalid_argument);
}

// ------------------------------------------------------- early stopping

Dataset tiny_task(std::size_t n, std::uint64_t seed) {
  Dataset ds({"a", "b"}, 2);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t a = rng.uniform_int(0, 100);
    const std::int64_t b = rng.uniform_int(0, 100);
    ds.add({{a, b}, a > b ? 1 : 0});
  }
  return ds;
}

TEST(EarlyStopping, StopsBeforeEpochBudget) {
  NeuralClassifier::Options o;
  o.hidden = {16};
  o.epochs = 100;
  o.early_stop_patience = 2;
  NeuralClassifier clf("es", o);
  const Dataset train = tiny_task(400, 1);
  const Dataset val = tiny_task(100, 2);
  const FeatureEncoder enc(train);
  const auto history = clf.fit(train, val, enc);
  // A trivially learnable task saturates quickly; patience must kick in
  // long before 100 epochs.
  EXPECT_LT(history.size(), 50u);
}

TEST(EarlyStopping, DisabledRunsAllEpochs) {
  NeuralClassifier::Options o;
  o.hidden = {16};
  o.epochs = 12;
  NeuralClassifier clf("no-es", o);
  const Dataset train = tiny_task(200, 3);
  const Dataset val = tiny_task(50, 4);
  const FeatureEncoder enc(train);
  EXPECT_EQ(clf.fit(train, val, enc).size(), 12u);
}

TEST(DropoutClassifier, StillLearns) {
  NeuralClassifier::Options o;
  o.hidden = {32};
  o.epochs = 15;
  o.dropout = 0.2;
  NeuralClassifier clf("dropout", o);
  const Dataset train = tiny_task(1000, 5);
  const Dataset val = tiny_task(300, 6);
  const FeatureEncoder enc(train);
  clf.fit(train, val, enc);
  // Bucketized a-vs-b comparison has irreducible error near the diagonal;
  // with dropout the classifier should still clear 80%.
  EXPECT_GT(clf.accuracy(val, enc), 0.8);
}

TEST(DropoutClassifier, SerializationRoundTrips) {
  NeuralClassifier::Options o;
  o.hidden = {16};
  o.epochs = 3;
  o.dropout = 0.25;
  NeuralClassifier clf("dropout-io", o);
  const Dataset train = tiny_task(300, 7);
  const FeatureEncoder enc(train);
  clf.fit(train, {}, enc);
  const std::string path = ::testing::TempDir() + "dropout_io.bin";
  {
    BinWriter out(path);
    clf.save(out);
  }
  BinReader in(path);
  auto loaded = NeuralClassifier::load(in);
  std::remove(path.c_str());
  const Dataset test = tiny_task(100, 8);
  EXPECT_EQ(loaded->predict(test, enc), clf.predict(test, enc));
  EXPECT_DOUBLE_EQ(loaded->options().dropout, 0.25);
}

// ------------------------------------------------------- transformers

TEST(TransformerZoo, BlocksLowerToValidGemms) {
  for (const auto& net : transformer_zoo()) {
    const auto gemms = net.gemms();
    EXPECT_GE(gemms.size(), 24u) << net.name;  // 4 blocks x 6 GEMMs
    for (const auto& g : gemms) EXPECT_TRUE(g.valid()) << net.name;
  }
}

TEST(TransformerZoo, AttentionShapesAreSeqDependent) {
  const auto net = make_bert_base(128);
  bool found_scores = false;
  const auto names = net.layer_names();
  const auto gemms = net.gemms();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].find("attn_scores") != std::string::npos) {
      found_scores = true;
      EXPECT_EQ(gemms[i].m, 128);  // seq
      EXPECT_EQ(gemms[i].n, 128);  // seq
      EXPECT_EQ(gemms[i].k, 64);   // d_head = 768 / 12
    }
  }
  EXPECT_TRUE(found_scores);
}

TEST(TransformerZoo, SeqLenScalesAttention) {
  const auto short_seq = make_bert_base(64).gemms();
  const auto long_seq = make_bert_base(512).gemms();
  MacCount short_macs, long_macs;
  for (const auto& g : short_seq) short_macs += g.macs();
  for (const auto& g : long_seq) long_macs += g.macs();
  EXPECT_GT(long_macs, 4 * short_macs);  // superlinear due to attention
}

TEST(TransformerZoo, FfnIsWidest) {
  const auto net = make_gpt2_small();
  const auto names = net.layer_names();
  const auto gemms = net.gemms();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].find("ffn_up") != std::string::npos) {
      EXPECT_EQ(gemms[i].n, 3072);
      EXPECT_EQ(gemms[i].k, 768);
    }
  }
}

}  // namespace
}  // namespace airch
