#include "search/genetic.hpp"

#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "workload/sampler.hpp"

namespace airch {
namespace {

class GaCase1Test : public ::testing::Test {
 protected:
  GaCase1Test() : space_(12), exhaustive_(space_, sim_) {}
  SearchResult ga(const GemmWorkload& w, int budget_exp, const GaOptions& options = {}) const {
    return genetic_search(array_dataflow_env(space_, sim_, w, budget_exp), options);
  }
  Simulator sim_;
  ArrayDataflowSpace space_;
  ArrayDataflowSearch exhaustive_;
};

TEST_F(GaCase1Test, FindsNearOptimalSolutions) {
  Rng rng(3);
  LogUniformGemmSampler sampler;
  for (int trial = 0; trial < 10; ++trial) {
    const GemmWorkload w = sampler.sample(rng);
    const auto opt = exhaustive_.best(w, 12);
    GaOptions options;
    options.seed = static_cast<std::uint64_t>(trial) + 1;
    const auto r = ga(w, 12, options);
    // GA should be within 25% of the exhaustive optimum on this small space.
    EXPECT_LE(r.cost / opt.cycles, 1.25)
        << w.to_string();
    // And never better than it (the optimum is a true minimum).
    EXPECT_GE(r.cost, opt.cycles);
  }
}

TEST_F(GaCase1Test, RespectsBudget) {
  Rng rng(5);
  LogUniformGemmSampler sampler;
  for (int budget = 4; budget <= 12; budget += 2) {
    const GemmWorkload w = sampler.sample(rng);
    const auto r = ga(w, budget);
    EXPECT_LE(space_.config(r.label).macs(), MacCount{pow2(budget)});
  }
}

TEST(GaEvaluationBudget, FarFewerEvaluationsThanExhaustiveOnFullSpace) {
  // On the paper-sized space (459 labels) the GA's evaluation budget
  // (pop + generations * (pop - elite)) is well below exhaustive search.
  const Simulator sim;
  const ArrayDataflowSpace space(18);
  const GemmWorkload w{512, 512, 512};
  const GaOptions options;
  const auto r = genetic_search(array_dataflow_env(space, sim, w, 18), options);
  EXPECT_EQ(r.evaluations, static_cast<std::size_t>(
                               options.population +
                               options.generations * (options.population - options.elite)));
  EXPECT_LT(r.evaluations, space.labels_within_budget(18).size());
}

TEST_F(GaCase1Test, DeterministicForSeed) {
  const GemmWorkload w{300, 400, 500};
  GaOptions options;
  options.seed = 77;
  const auto a = ga(w, 10, options);
  const auto b = ga(w, 10, options);
  EXPECT_EQ(a.label, b.label);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST_F(GaCase1Test, ReportedCyclesMatchLabel) {
  const GemmWorkload w{777, 222, 333};
  const auto r = ga(w, 11);
  EXPECT_EQ(r.cost, exhaustive_.cycles_of(w, r.label));
}

class GaCase3Test : public ::testing::Test {
 protected:
  GaCase3Test() : space_(4), exhaustive_(space_, default_scheduled_arrays(), sim_) {}
  Simulator sim_;
  ScheduleSpace space_;
  ScheduleSearch exhaustive_;
};

TEST_F(GaCase3Test, FindsNearOptimalSchedules) {
  Rng rng(7);
  LogUniformGemmSampler sampler;
  for (int trial = 0; trial < 5; ++trial) {
    const auto workloads = sampler.sample_many(rng, 4);
    const auto opt = exhaustive_.best(workloads);
    GaOptions options;
    options.seed = static_cast<std::uint64_t>(trial) + 1;
    const auto r = genetic_search(schedule_env(exhaustive_, workloads), options);
    EXPECT_LE(r.cost / opt.makespan_cycles, 1.2);
    EXPECT_GE(r.cost, opt.makespan_cycles);
  }
}

TEST_F(GaCase3Test, ProducesValidScheduleLabels) {
  Rng rng(9);
  LogUniformGemmSampler sampler;
  const auto workloads = sampler.sample_many(rng, 4);
  const auto r = genetic_search(schedule_env(exhaustive_, workloads));
  EXPECT_GE(r.label, 0);
  EXPECT_LT(r.label, space_.size());
  // Label decodes to a real permutation.
  const auto s = space_.config(r.label);
  std::vector<int> sorted = s.workload_of;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3}));
}

TEST(GeneticSearch, ConvergesOnToyProblem) {
  // Minimize (x-42)^2 over one ordinal digit in [0, 100]. Mutation steps
  // the digit by one, so the range is one a 30-generation run can walk.
  const SearchEnv env({{0, 100, false, false}}, 0,
                      [](const SearchEnv::Point& p) { return p[0]; },
                      [](int x) { return Cycles{(x - 42) * (x - 42)}; });
  GaOptions options;
  options.generations = 30;
  const auto r = genetic_search(env, options);
  EXPECT_NEAR(r.label, 42, 5);
  EXPECT_GT(r.evaluations, 0u);
}

}  // namespace
}  // namespace airch
