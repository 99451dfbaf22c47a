#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "core/case_study.hpp"
#include "core/pipeline.hpp"
#include "core/recommender.hpp"

namespace airch {
namespace {

TEST(CaseStudyFactory, BuildsAllThree) {
  EXPECT_EQ(make_case_study(CaseId::kArrayDataflow)->num_classes(), 459);
  EXPECT_EQ(make_case_study(CaseId::kBufferSizing)->num_classes(), 1000);
  EXPECT_EQ(make_case_study(CaseId::kScheduling)->num_classes(), 1944);
}

TEST(CaseStudyFactory, Names) {
  EXPECT_NE(std::string(case_name(CaseId::kArrayDataflow)).find("Array"), std::string::npos);
  EXPECT_NE(std::string(case_name(CaseId::kBufferSizing)).find("Buffer"), std::string::npos);
  EXPECT_NE(std::string(case_name(CaseId::kScheduling)).find("Scheduling"), std::string::npos);
}

class NormalizedPerfTest : public ::testing::Test {
 protected:
  // Small spaces keep these tests quick.
  ArrayDataflowStudy study1_{Case1Config{5, 10, {}}, 10};
};

TEST_F(NormalizedPerfTest, OptimalLabelScoresOne) {
  const Dataset ds = study1_.generate(30, 7);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_DOUBLE_EQ(study1_.normalized_performance(ds[i], ds[i].label), 1.0);
  }
}

TEST_F(NormalizedPerfTest, OtherLabelsScoreAtMostOne) {
  const Dataset ds = study1_.generate(10, 9);
  Rng rng(11);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    for (int trial = 0; trial < 20; ++trial) {
      const auto label = static_cast<std::int32_t>(
          rng.uniform_int(0, study1_.num_classes() - 1));
      const double perf = study1_.normalized_performance(ds[i], label);
      EXPECT_GT(perf, 0.0);
      EXPECT_LE(perf, 1.0 + 1e-12);
    }
  }
}

TEST_F(NormalizedPerfTest, BatchMatchesPointwise) {
  const Dataset ds = study1_.generate(20, 13);
  std::vector<std::int32_t> preds(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) preds[i] = ds[i].label;
  const auto perfs = study1_.normalized_performance_batch(ds, preds);
  ASSERT_EQ(perfs.size(), ds.size());
  for (double p : perfs) EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(BufferStudyPerf, OptimalScoresOneAndOthersAtMostOne) {
  BufferSizingStudy study;
  const Dataset ds = study.generate(10, 3);
  Rng rng(5);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_DOUBLE_EQ(study.normalized_performance(ds[i], ds[i].label), 1.0);
    for (int t = 0; t < 5; ++t) {
      const auto label =
          static_cast<std::int32_t>(rng.uniform_int(0, study.num_classes() - 1));
      EXPECT_LE(study.normalized_performance(ds[i], label), 1.0 + 1e-12);
    }
  }
}

TEST(SchedulingStudyPerf, OptimalScoresOne) {
  SchedulingStudy study;
  const Dataset ds = study.generate(5, 3);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_DOUBLE_EQ(study.normalized_performance(ds[i], ds[i].label), 1.0);
    EXPECT_LE(study.normalized_performance(ds[i], 0), 1.0 + 1e-12);
  }
}

TEST(Pipeline, RunsEndToEndOnCase1) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  const Dataset data = study.generate(2000, 21);
  auto clf = make_airchitect(1, 4);
  ExperimentOptions opts;
  const ExperimentResult r = run_experiment(study, *clf, data, opts);

  EXPECT_EQ(r.train_size, 1600u);
  EXPECT_EQ(r.val_size, 200u);
  EXPECT_EQ(r.test_size, 200u);
  EXPECT_EQ(r.predictions.size(), 200u);
  EXPECT_GE(r.test_accuracy, 0.0);
  EXPECT_LE(r.test_accuracy, 1.0);
  EXPECT_FALSE(r.history.empty());

  std::int64_t actual_total = 0, pred_total = 0;
  for (auto v : r.actual_hist) actual_total += v;
  for (auto v : r.predicted_hist) pred_total += v;
  EXPECT_EQ(actual_total, 200);
  EXPECT_EQ(pred_total, 200);

  ASSERT_EQ(r.normalized_perf.size(), 200u);
  EXPECT_GT(r.geomean_perf, 0.0);
  EXPECT_LE(r.geomean_perf, 1.0 + 1e-12);
  // Sorted ascending.
  EXPECT_TRUE(std::is_sorted(r.normalized_perf.begin(), r.normalized_perf.end()));
}

TEST(Pipeline, ScorePerformanceCanBeDisabled) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  const Dataset data = study.generate(500, 23);
  auto clf = make_mlp_a(1);
  ExperimentOptions opts;
  opts.score_performance = false;
  const ExperimentResult r = run_experiment(study, *clf, data, opts);
  EXPECT_TRUE(r.normalized_perf.empty());
  EXPECT_EQ(r.geomean_perf, 0.0);
}

TEST(Recommender, TrainAndQueryCase1) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 3000;
  opts.epochs = 5;
  const Recommender rec = Recommender::train(study, opts);
  EXPECT_GT(rec.report().val_accuracy, 0.08);  // far above the ~1/135 chance floor

  const ArrayConfig c = rec.recommend_array({128, 128, 128}, 8);
  EXPECT_TRUE(c.valid());
  EXPECT_TRUE(is_pow2(c.rows));
  EXPECT_TRUE(is_pow2(c.cols));

  // Wrong-study typed queries must throw.
  EXPECT_THROW(rec.recommend_buffers(500, {1, 1, 1}, c, 10), std::logic_error);
  EXPECT_THROW(rec.recommend_schedule({{1, 1, 1}}), std::logic_error);
}

TEST(Recommender, TrainAndQueryCase3) {
  SchedulingStudy study;
  Recommender::TrainOptions opts;
  opts.dataset_size = 800;
  opts.epochs = 3;
  const Recommender rec = Recommender::train(study, opts);
  const auto schedule =
      rec.recommend_schedule({{64, 64, 64}, {512, 512, 64}, {32, 128, 16}, {256, 32, 900}});
  EXPECT_EQ(schedule.workload_of.size(), 4u);
  EXPECT_EQ(schedule.dataflow_of.size(), 4u);
  EXPECT_THROW(rec.recommend_array({1, 1, 1}, 8), std::logic_error);
}

TEST(Recommender, LabelQueryInRange) {
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  Recommender::TrainOptions opts;
  opts.dataset_size = 1000;
  opts.epochs = 2;
  const Recommender rec = Recommender::train(study, opts);
  const auto label = rec.recommend_label({8, 100, 100, 100});
  EXPECT_GE(label, 0);
  EXPECT_LT(label, study.num_classes());
}

TEST(Recommender, RejectsEncoderThatDoesNotFitTheModel) {
  // The checks guard query time: a wrong bucket count would be clamped
  // into the embedding tables (silently wrong answers) and a wrong arity
  // would read past each index row.
  ArrayDataflowStudy study(Case1Config{5, 10, {}}, 10);
  const Dataset data = study.generate(400, 13);
  auto model = make_airchitect(1, 1);
  const FeatureEncoder fitted(data);
  model->fit(data, {}, fitted);
  auto coarse = std::make_unique<FeatureEncoder>(data, 8);
  ASSERT_NE(coarse->vocab_sizes(), fitted.vocab_sizes());
  EXPECT_THROW(Recommender(study, std::move(model), std::move(coarse)), std::invalid_argument);

  Dataset narrow({"m", "n", "k"}, study.num_classes());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto& f = data[i].features;
    narrow.add({{f[1], f[2], f[3]}, data[i].label});
  }
  auto mlp = make_mlp_a(1, 1);
  mlp->fit(data, {}, fitted);
  EXPECT_THROW(Recommender(study, std::move(mlp), std::make_unique<FeatureEncoder>(narrow)),
               std::invalid_argument);

  // A float model reads only the encoder's per-column statistics, which
  // do not depend on the bucket count.
  auto mlp_ok = make_mlp_a(1, 1);
  mlp_ok->fit(data, {}, fitted);
  EXPECT_NO_THROW(
      Recommender(study, std::move(mlp_ok), std::make_unique<FeatureEncoder>(data, 8)));
}

}  // namespace
}  // namespace airch
