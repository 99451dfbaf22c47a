#include <gtest/gtest.h>

#include "common/math_utils.hpp"
#include "search/annealing.hpp"
#include "search/exhaustive.hpp"
#include "search/objective.hpp"
#include "workload/sampler.hpp"

namespace airch {
namespace {

class AnnealingTest : public ::testing::Test {
 protected:
  AnnealingTest() : space_(12), exhaustive_(space_, sim_) {}
  SearchResult sa(const GemmWorkload& w, int budget_exp, const AnnealingOptions& options = {}) const {
    return annealing_search(array_dataflow_env(space_, sim_, w, budget_exp), options);
  }
  Simulator sim_;
  ArrayDataflowSpace space_;
  ArrayDataflowSearch exhaustive_;
};

TEST_F(AnnealingTest, FindsNearOptimalSolutions) {
  Rng rng(3);
  LogUniformGemmSampler sampler;
  for (int trial = 0; trial < 10; ++trial) {
    const GemmWorkload w = sampler.sample(rng);
    const auto opt = exhaustive_.best(w, 12);
    AnnealingOptions options;
    options.seed = static_cast<std::uint64_t>(trial) + 1;
    const auto r = sa(w, 12, options);
    EXPECT_LE(r.cost / opt.cycles, 1.25) << w.to_string();
    EXPECT_GE(r.cost, opt.cycles);
  }
}

TEST_F(AnnealingTest, RespectsBudget) {
  Rng rng(5);
  LogUniformGemmSampler sampler;
  for (int budget = 4; budget <= 12; budget += 2) {
    const auto r = sa(sampler.sample(rng), budget);
    EXPECT_LE(space_.config(r.label).macs(), MacCount{pow2(budget)});
  }
}

TEST_F(AnnealingTest, DeterministicForSeed) {
  const GemmWorkload w{321, 654, 987};
  AnnealingOptions options;
  options.seed = 9;
  const auto a = sa(w, 10, options);
  const auto b = sa(w, 10, options);
  EXPECT_EQ(a.label, b.label);
}

TEST_F(AnnealingTest, EvaluationCountIsStepsPlusOne) {
  AnnealingOptions options;
  options.steps = 55;
  const auto r = sa({64, 64, 64}, 10, options);
  EXPECT_EQ(r.evaluations, 56u);
}

TEST_F(AnnealingTest, BestNeverWorseThanReportedCycles) {
  const GemmWorkload w{999, 111, 444};
  const auto r = sa(w, 11);
  EXPECT_EQ(r.cost, exhaustive_.cycles_of(w, r.label));
}

// ------------------------------------------------------------ objectives

TEST(Objective, StringRoundTrip) {
  for (Objective o : {Objective::kRuntime, Objective::kEnergy, Objective::kEdp}) {
    EXPECT_EQ(objective_from_string(to_string(o)), o);
  }
  EXPECT_THROW(objective_from_string("speed"), std::invalid_argument);
}

TEST(Objective, RuntimeMatchesComputeModel) {
  const Simulator sim;
  const ObjectiveEvaluator eval(sim);
  const GemmWorkload w{128, 128, 128};
  const ArrayConfig a{16, 16, Dataflow::kWeightStationary};
  EXPECT_DOUBLE_EQ(eval.cost(w, a, Objective::kRuntime),
                   static_cast<double>(sim.compute_cycles(w, a).value()));
}

TEST(Objective, EdpIsEnergyTimesDelay) {
  const Simulator sim;
  const ObjectiveEvaluator eval(sim);
  const GemmWorkload w{200, 300, 400};
  const ArrayConfig a{32, 8, Dataflow::kOutputStationary};
  const SimResult r = sim.simulate(w, a, eval.nominal_memory());
  EXPECT_DOUBLE_EQ(eval.cost(w, a, Objective::kEdp),
                   eval.cost(w, a, Objective::kEnergy) * static_cast<double>(r.total_cycles().value()));
}

TEST(Objective, SearchFindsObjectiveMinimum) {
  const Simulator sim;
  const ArrayDataflowSpace space(10);
  const ArrayDataflowSearch search(space, sim);
  const ObjectiveEvaluator eval(sim);
  Rng rng(7);
  LogUniformGemmSampler sampler;
  for (Objective obj : {Objective::kRuntime, Objective::kEnergy, Objective::kEdp}) {
    const GemmWorkload w = sampler.sample(rng);
    const auto best = search.best_with_objective(w, 10, eval, obj);
    for (int label : space.labels_within_budget(10)) {
      EXPECT_LE(best.cost, eval.cost(w, space.config(label), obj) * (1 + 1e-12))
          << to_string(obj);
    }
  }
}

TEST(Objective, RuntimeObjectiveAgreesWithRuntimeSearch) {
  const Simulator sim;
  const ArrayDataflowSpace space(10);
  const ArrayDataflowSearch search(space, sim);
  const ObjectiveEvaluator eval(sim);
  Rng rng(9);
  LogUniformGemmSampler sampler;
  for (int trial = 0; trial < 10; ++trial) {
    const GemmWorkload w = sampler.sample(rng);
    const auto runtime = search.best(w, 10);
    const auto objective = search.best_with_objective(w, 10, eval, Objective::kRuntime);
    // Costs agree exactly; labels may differ only among exact ties.
    EXPECT_DOUBLE_EQ(objective.cost, static_cast<double>(runtime.cycles.value()));
  }
}

TEST(Objective, EnergyOptimumCanDifferFromRuntimeOptimum) {
  // Across a population, the energy-optimal design must differ from the
  // runtime-optimal one at least sometimes — otherwise the objective knob
  // would be vacuous.
  const Simulator sim;
  const ArrayDataflowSpace space(10);
  const ArrayDataflowSearch search(space, sim);
  const ObjectiveEvaluator eval(sim);
  Rng rng(11);
  LogUniformGemmSampler sampler;
  int differs = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const GemmWorkload w = sampler.sample(rng);
    if (search.best(w, 10).label !=
        search.best_with_objective(w, 10, eval, Objective::kEnergy).label) {
      ++differs;
    }
  }
  EXPECT_GT(differs, 0);
}

}  // namespace
}  // namespace airch
