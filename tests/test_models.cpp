// Every classifier in the Fig. 9 zoo must learn a simple synthetic design
// rule far better than chance. The dataset mimics the structure of the
// real case studies: integer features, label a deterministic function.
// Also: early stopping in the neural fit loop, and the naive-vs-fast
// kernel training trajectory.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "common/binio.hpp"
#include "file_bytes.hpp"
#include "ml/matrix.hpp"
#include "models/gbt.hpp"
#include "models/neural.hpp"
#include "models/svc.hpp"

namespace airch {
namespace {

/// 4 integer features; label = 2*(f0 > 32) + (f2 > 128): four classes
/// depending on thresholds — linearly separable in log space.
Dataset synthetic_dataset(std::size_t n, std::uint64_t seed) {
  Dataset ds({"f0", "f1", "f2", "f3"}, 4);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t f0 = rng.log_uniform_int(1, 1024);
    const std::int64_t f1 = rng.log_uniform_int(1, 1024);
    const std::int64_t f2 = rng.log_uniform_int(1, 1024);
    const std::int64_t f3 = rng.log_uniform_int(1, 1024);
    const std::int32_t label =
        static_cast<std::int32_t>(2 * (f0 > 32 ? 1 : 0) + (f2 > 128 ? 1 : 0));
    ds.add({{f0, f1, f2, f3}, label});
  }
  return ds;
}

class ModelZooTest : public ::testing::Test {
 protected:
  ModelZooTest()
      : train_(synthetic_dataset(4000, 1)),
        val_(synthetic_dataset(500, 2)),
        test_(synthetic_dataset(500, 3)),
        enc_(train_) {}

  double fit_and_score(Classifier& clf) {
    clf.fit(train_, val_, enc_);
    return clf.accuracy(test_, enc_);
  }

  Dataset train_, val_, test_;
  FeatureEncoder enc_;
};

TEST_F(ModelZooTest, AirchitectLearnsRule) {
  auto clf = make_airchitect(1, 10);
  EXPECT_GT(fit_and_score(*clf), 0.9);
}

TEST_F(ModelZooTest, MlpALearnsRule) {
  auto clf = make_mlp_a(1);
  EXPECT_GT(fit_and_score(*clf), 0.9);
}

TEST_F(ModelZooTest, MlpBLearnsRule) {
  auto clf = make_mlp_b(1);
  EXPECT_GT(fit_and_score(*clf), 0.9);
}

TEST_F(ModelZooTest, MlpCLearnsRule) {
  auto clf = make_mlp_c(1);
  EXPECT_GT(fit_and_score(*clf), 0.9);
}

TEST_F(ModelZooTest, MlpDLearnsRule) {
  auto clf = make_mlp_d(1);
  EXPECT_GT(fit_and_score(*clf), 0.9);
}

TEST_F(ModelZooTest, LinearSvcLearnsRule) {
  auto clf = make_svc_linear(1);
  // Linear SVC on a modest subgradient budget: well above the 0.25 chance
  // floor, below the kernel/NN models.
  EXPECT_GT(fit_and_score(*clf), 0.75);
}

TEST_F(ModelZooTest, RbfSvcLearnsRule) {
  auto clf = make_svc_rbf(1);
  EXPECT_GT(fit_and_score(*clf), 0.85);
}

TEST_F(ModelZooTest, GbtLearnsRule) {
  auto clf = make_xgboost_like(1);
  // Threshold rules are trees' native language; expect near-perfect.
  EXPECT_GT(fit_and_score(*clf), 0.95);
}

TEST_F(ModelZooTest, HistoryHasExpectedLength) {
  auto mlp = make_mlp_a(1);
  const auto history = mlp->fit(train_, val_, enc_);
  EXPECT_EQ(history.size(), static_cast<std::size_t>(mlp->options().epochs));
  // Validation accuracy should improve from first to last epoch.
  EXPECT_GE(history.back().val_accuracy, history.front().val_accuracy - 0.05);
}

TEST_F(ModelZooTest, PredictBeforeFitThrows) {
  NeuralClassifier::Options o;
  NeuralClassifier clf("unfitted", o);
  EXPECT_THROW(clf.predict(test_, enc_), std::logic_error);

  SvcClassifier svc("unfitted", SvcClassifier::Options{});
  EXPECT_THROW(svc.predict(test_, enc_), std::logic_error);

  GbtClassifier gbt("unfitted", GbtClassifier::Options{});
  EXPECT_THROW(gbt.predict(test_, enc_), std::logic_error);
}

TEST_F(ModelZooTest, PredictProbaSumsToOne) {
  auto clf = make_airchitect(1, 3);
  clf->fit(train_, val_, enc_);
  const auto proba = clf->predict_proba(test_[0].features, enc_);
  ASSERT_EQ(proba.size(), 4u);
  float sum = 0.0f;
  for (float p : proba) {
    EXPECT_GE(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
}

TEST_F(ModelZooTest, NamesMatchPaperTable) {
  EXPECT_EQ(make_mlp_a()->name(), "MLP-A");
  EXPECT_EQ(make_mlp_d()->name(), "MLP-D");
  EXPECT_EQ(make_svc_linear()->name(), "SVC-Linear");
  EXPECT_EQ(make_svc_rbf()->name(), "SVC-RBF");
  EXPECT_EQ(make_xgboost_like()->name(), "XGBoost");
  EXPECT_EQ(make_airchitect()->name(), "AIrchitect");
}

TEST_F(ModelZooTest, ArchitecturesMatchPaperTable) {
  EXPECT_EQ(make_mlp_a()->options().hidden, (std::vector<std::size_t>{128}));
  EXPECT_EQ(make_mlp_b()->options().hidden, (std::vector<std::size_t>{256}));
  EXPECT_EQ(make_mlp_c()->options().hidden, (std::vector<std::size_t>{128, 128}));
  EXPECT_EQ(make_mlp_d()->options().hidden, (std::vector<std::size_t>{256, 256}));
  EXPECT_EQ(make_airchitect()->options().embed_dim, 16u);
  EXPECT_EQ(make_airchitect()->options().hidden, (std::vector<std::size_t>{256}));
}

TEST(GbtOptions, SubsampleCapRespected) {
  GbtClassifier::Options o;
  o.rounds = 2;
  o.max_train_points = 100;
  GbtClassifier clf("gbt", o);
  const Dataset train = synthetic_dataset(1000, 4);
  const Dataset val = synthetic_dataset(100, 5);
  const FeatureEncoder enc(train);
  const auto hist = clf.fit(train, val, enc);
  EXPECT_EQ(hist.size(), 2u);
  // Still learns something better than the 4-class chance floor.
  EXPECT_GT(clf.accuracy(val, enc), 0.4);
}

// Early stopping: the overfitting counter-measure of the neural fit loop.
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

// The fast-vs-reference kernel contract, end to end through training:
// the same fit under KernelMode::kNaive (the single-threaded reference
// loops) and kFast (blocked matmul plus parallel element loops, forced
// onto 4 workers) must produce the same epoch history, compared as exact
// doubles, and the same parameters byte for byte. Covers the embedding
// front-end (AIRCHITECT) and a float MLP with two hidden layers.
struct Trajectory {
  std::vector<EpochStats> history;
  std::string model_bytes;  // every parameter tensor's bit patterns
};

Trajectory fit_under(ml::KernelMode mode, std::unique_ptr<NeuralClassifier> clf,
                     const Dataset& train, const Dataset& val, const FeatureEncoder& enc) {
  const ml::KernelMode saved = ml::kernel_mode();
  ml::set_kernel_mode(mode);
  Trajectory t;
  t.history = clf->fit(train, val, enc);
  ml::set_kernel_mode(saved);
  const std::string path = ::testing::TempDir() + "trajectory_" + clf->name() + ".bin";
  {
    BinWriter out(path);
    clf->save(out);
  }
  t.model_bytes = test::read_file(path);
  std::remove(path.c_str());
  return t;
}

void expect_identical_trajectories(const Trajectory& naive, const Trajectory& fast) {
  ASSERT_EQ(naive.history.size(), fast.history.size());
  for (std::size_t i = 0; i < naive.history.size(); ++i) {
    // Exact double equality on purpose: the contract is bit-identity.
    EXPECT_EQ(naive.history[i].train_loss, fast.history[i].train_loss) << "epoch " << i + 1;
    EXPECT_EQ(naive.history[i].train_accuracy, fast.history[i].train_accuracy)
        << "epoch " << i + 1;
    EXPECT_EQ(naive.history[i].val_accuracy, fast.history[i].val_accuracy) << "epoch " << i + 1;
  }
  ASSERT_FALSE(naive.model_bytes.empty());
  ASSERT_EQ(naive.model_bytes.size(), fast.model_bytes.size());
  EXPECT_EQ(std::memcmp(naive.model_bytes.data(), fast.model_bytes.data(),
                        naive.model_bytes.size()),
            0);
}

TEST(TrainingTrajectory, NaiveAndFastKernelsTrainBitIdentically) {
  ASSERT_EQ(setenv("AIRCH_THREADS", "4", 1), 0);
  const Dataset train = synthetic_dataset(1200, 6);
  const Dataset val = synthetic_dataset(200, 7);
  const FeatureEncoder enc(train);
  expect_identical_trajectories(
      fit_under(ml::KernelMode::kNaive, make_airchitect(3, 3), train, val, enc),
      fit_under(ml::KernelMode::kFast, make_airchitect(3, 3), train, val, enc));
  expect_identical_trajectories(
      fit_under(ml::KernelMode::kNaive, make_mlp_d(3, 3), train, val, enc),
      fit_under(ml::KernelMode::kFast, make_mlp_d(3, 3), train, val, enc));
  ASSERT_EQ(unsetenv("AIRCH_THREADS"), 0);
}

}  // namespace
}  // namespace airch
