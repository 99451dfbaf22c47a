#include "search/env.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/math_utils.hpp"
#include "search/annealing.hpp"
#include "search/genetic.hpp"
#include "search/reinforce.hpp"
#include "workload/sampler.hpp"

namespace airch {
namespace {

struct Family {
  std::string name;
  std::function<SearchResult(const SearchEnv&)> run;
};

std::vector<Family> families() {
  return {{"genetic", [](const SearchEnv& env) { return genetic_search(env); }},
          {"reinforce", [](const SearchEnv& env) { return reinforce_search(env); }},
          {"annealing", [](const SearchEnv& env) { return annealing_search(env); }}};
}

// ------------------------------------------------------- case-1 golden

struct Triple {
  int label;
  std::size_t evaluations;
  std::int64_t cycles;
};

struct GoldenRow {
  Triple ga, rl, sa;
};

struct GoldenQuery {
  GemmWorkload w;
  int budget_exp;
};

const std::vector<GoldenQuery> kGoldenQueries = {
    {{64, 64, 64}, 4},     {{300, 400, 500}, 5},  {{1024, 16, 256}, 6},
    {{7, 9000, 33}, 7},    {{512, 512, 512}, 8},  {{2000, 100, 3000}, 9},
    {{777, 222, 333}, 10}, {{31, 4097, 129}, 11}, {{4096, 4096, 8}, 12},
    {{100, 100, 100}, 12}, {{5, 3, 2}, 4},        {{9999, 1, 777}, 8}};

// (label, evaluations, cycles) that the per-case GA, REINFORCE and
// annealing searches returned on ArrayDataflowSpace(12) before they were
// rebuilt over SearchEnv. Default options first, then the options of
// bench_optimizer_comparison (seed 13 + query, annealing at 100 steps).
const std::vector<GoldenRow> kGoldenDefault = {
    {{38, 288, 18944}, {36, 192, 18944}, {38, 201, 18944}},
    {{39, 288, 1927500}, {39, 192, 1927500}, {39, 201, 1927500}},
    {{94, 288, 67712}, {70, 192, 66944}, {70, 201, 66944}},
    {{98, 288, 27114}, {98, 192, 27114}, {98, 201, 27114}},
    {{76, 288, 571392}, {75, 192, 571392}, {100, 201, 571392}},
    {{156, 288, 1303200}, {156, 192, 1303200}, {156, 201, 1303200}},
    {{127, 288, 67067}, {127, 192, 67067}, {127, 201, 67067}},
    {{176, 288, 18460}, {149, 192, 12765}, {129, 201, 16575}},
    {{89, 288, 36976}, {88, 192, 36976}, {88, 201, 36976}},
    {{152, 288, 1160}, {132, 192, 1160}, {134, 201, 1160}},
    {{4, 288, 11}, {4, 192, 11}, {4, 201, 11}},
    {{154, 288, 71785}, {154, 192, 71785}, {154, 201, 71785}},
};
const std::vector<GoldenRow> kGoldenBench = {
    {{38, 288, 18944}, {8, 192, 18944}, {38, 101, 18944}},
    {{39, 288, 1927500}, {39, 192, 1927500}, {39, 101, 1927500}},
    {{43, 288, 66944}, {70, 192, 66944}, {94, 101, 67712}},
    {{98, 288, 27114}, {98, 192, 27114}, {119, 101, 36264}},
    {{101, 288, 571392}, {77, 192, 571392}, {76, 101, 571392}},
    {{156, 288, 1303200}, {156, 192, 1303200}, {156, 101, 1303200}},
    {{127, 288, 67067}, {127, 192, 67067}, {127, 101, 67067}},
    {{149, 288, 12765}, {149, 192, 12765}, {149, 101, 12765}},
    {{89, 288, 36976}, {89, 192, 36976}, {88, 101, 36976}},
    {{150, 288, 1160}, {133, 192, 1160}, {151, 101, 1160}},
    {{4, 288, 11}, {4, 192, 11}, {4, 101, 11}},
    {{154, 288, 71785}, {154, 192, 71785}, {154, 101, 71785}},
};

void expect_triple(const SearchResult& r, const Triple& t, const std::string& what) {
  EXPECT_EQ(r.label, t.label) << what;
  EXPECT_EQ(r.evaluations, t.evaluations) << what;
  EXPECT_EQ(r.cost, Cycles{t.cycles}) << what;
}

TEST(SearchEnvGolden, Case1MatchesPerCaseSearchesBitForBit) {
  const Simulator sim;
  const ArrayDataflowSpace space(12);
  for (int bench = 0; bench < 2; ++bench) {
    const auto& golden = bench == 0 ? kGoldenDefault : kGoldenBench;
    for (std::size_t q = 0; q < kGoldenQueries.size(); ++q) {
      const SearchEnv env =
          array_dataflow_env(space, sim, kGoldenQueries[q].w, kGoldenQueries[q].budget_exp);
      GaOptions ga;
      ReinforceOptions rl;
      AnnealingOptions sa;
      if (bench == 1) {
        ga.seed = rl.seed = sa.seed = 13 + q;
        sa.steps = 100;
      }
      const std::string what = (bench == 0 ? "default #" : "bench #") + std::to_string(q);
      expect_triple(genetic_search(env, ga), golden[q].ga, "GA " + what);
      expect_triple(reinforce_search(env, rl), golden[q].rl, "REINFORCE " + what);
      expect_triple(annealing_search(env, sa), golden[q].sa, "annealing " + what);
    }
  }
}

// ------------------------------------------------------ infeasible queries

TEST(SearchEnvInfeasible, EveryFamilyRejectsAnEmptyConstraint) {
  const Simulator sim;
  const ArrayDataflowSpace space(12);
  const BufferSizeSpace buffers;
  const GemmWorkload w{64, 64, 64};
  for (const Family& f : families()) {
    for (int budget : {0, 1}) {
      EXPECT_THROW(
          {
            const auto r = f.run(array_dataflow_env(space, sim, w, budget));
            (void)r;
          },
          std::invalid_argument)
          << f.name << " budget 2^" << budget;
    }
    for (std::int64_t limit : {std::int64_t{0}, 3 * buffers.step_kb() - 1}) {
      EXPECT_THROW(
          {
            const auto r = f.run(buffer_env(buffers, w, {16, 16, Dataflow::kOutputStationary}, 10, limit));
            (void)r;
          },
          std::invalid_argument)
          << f.name << " limit " << limit << " KB";
    }
  }
  const ScheduleSpace schedule_space(4);
  const ScheduleSearch schedules(schedule_space, default_scheduled_arrays(), sim);
  EXPECT_THROW((void)schedule_env(schedules, {w, w, w}), std::invalid_argument);
}

TEST(SearchEnvInfeasible, MessagesMatchTheExhaustiveSearches) {
  const Simulator sim;
  const ArrayDataflowSpace space(12);
  try {
    (void)array_dataflow_env(space, sim, {8, 8, 8}, 1);
    FAIL() << "budget 2^1 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "MAC budget below smallest array in space");
  }
  const BufferSizeSpace buffers;
  try {
    (void)buffer_env(buffers, {8, 8, 8}, {8, 8, Dataflow::kWeightStationary}, 10, 250);
    FAIL() << "limit 250 KB accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "buffer limit below smallest size in space");
  }
  // The smallest feasible limits are accepted.
  EXPECT_NO_THROW((void)array_dataflow_env(space, sim, {8, 8, 8}, 2));
  EXPECT_NO_THROW((void)buffer_env(buffers, {8, 8, 8}, {8, 8, Dataflow::kWeightStationary}, 10, 300));
}

// ------------------------------------------------------- env properties

/// The workload order that Lehmer digits name (digit i picks among the
/// workloads not yet placed; the last workload fills the last array).
std::vector<int> lehmer_permutation(const SearchEnv::Point& p, int n) {
  std::vector<int> free(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) free[static_cast<std::size_t>(i)] = i;
  std::vector<int> perm;
  for (int i = 0; i + 1 < n; ++i) {
    const auto it = free.begin() + p[static_cast<std::size_t>(i)];
    perm.push_back(*it);
    free.erase(it);
  }
  perm.push_back(free.front());
  return perm;
}

TEST(SearchEnvProperties, Case3DigitVectorsMapOneToOneOntoScheduleLabels) {
  const Simulator sim;
  const ScheduleSpace space(4);
  const ScheduleSearch search(space, default_scheduled_arrays(), sim);
  const SearchEnv env = schedule_env(search, std::vector<GemmWorkload>(4, GemmWorkload{8, 8, 8}));
  ASSERT_EQ(env.num_digits(), 7u);  // 3 Lehmer digits + 4 dataflows

  std::vector<int> hits(static_cast<std::size_t>(space.size()), 0);
  SearchEnv::Point p(env.num_digits());
  for (int i = 0; i < space.size(); ++i) {
    const int label = env.label_of(p);
    ASSERT_GE(label, 0);
    ASSERT_LT(label, space.size());
    ++hits[static_cast<std::size_t>(label)];
    const ScheduleSpace::Schedule s = space.config(label);
    EXPECT_EQ(s.workload_of, lehmer_permutation(p, 4)) << "label " << label;
    for (int a = 0; a < 4; ++a) {
      EXPECT_EQ(dataflow_index(s.dataflow_of[static_cast<std::size_t>(a)]),
                p[static_cast<std::size_t>(3 + a)]);
    }
    // Next digit vector: a mixed-radix counter, last digit fastest.
    for (std::size_t d = env.num_digits(); d-- > 0;) {
      if (++p[d] <= env.digit(d).hi) break;
      p[d] = env.digit(d).lo;
    }
  }
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
}

/// A digit vector with every digit drawn far outside its range.
SearchEnv::Point wild_point(const SearchEnv& env, Rng& rng) {
  SearchEnv::Point p(env.num_digits());
  for (auto& digit : p) digit = static_cast<int>(rng.uniform_int(-40, 40));
  return p;
}

TEST(SearchEnvProperties, Case1RepairedPointsStayWithinTheMacBudget) {
  const Simulator sim;
  const ArrayDataflowSpace space(12);
  Rng rng(21);
  for (int budget = 2; budget <= 14; ++budget) {
    const SearchEnv env = array_dataflow_env(space, sim, {100, 200, 300}, budget);
    for (int trial = 0; trial < 200; ++trial) {
      SearchEnv::Point p = wild_point(env, rng);
      env.repair(p);
      const int label = env.label_of(p);
      EXPECT_LE(space.config(label).macs(), MacCount{pow2(std::min(budget, 12))});
      SearchEnv::Point q = p;
      env.repair(q);
      EXPECT_EQ(q, p) << "repair is not idempotent";
    }
  }
}

TEST(SearchEnvProperties, Case2RepairedPointsStayWithinTheCapacityLimit) {
  const BufferSizeSpace space;
  Rng rng(22);
  for (std::int64_t limit : {300, 350, 700, 1000, 1800, 2900, 3000, 5000}) {
    const SearchEnv env = buffer_env(space, {256, 128, 512}, {16, 16, Dataflow::kWeightStationary},
                                     20, limit);
    std::size_t reached = 0;
    for (int trial = 0; trial < 300; ++trial) {
      SearchEnv::Point p = wild_point(env, rng);
      env.repair(p);
      const MemoryConfig mem = space.config(env.label_of(p));
      EXPECT_LE(mem.total_kb(), limit);
      reached += mem.total_kb() == std::min<std::int64_t>(limit / 100 * 100, 3000) ? 1 : 0;
    }
    EXPECT_GT(reached, 0u) << "repair never reaches the limit " << limit;
  }
}

TEST(SearchEnvProperties, Case2LabelsFollowTheSpaceOrder) {
  const BufferSizeSpace space;
  const SearchEnv env =
      buffer_env(space, {8, 8, 8}, {8, 8, Dataflow::kOutputStationary}, 10, 3000);
  MemoryConfig mem;
  mem.ifmap_kb = 300;
  mem.filter_kb = 900;
  mem.ofmap_kb = 100;
  EXPECT_EQ(env.label_of({2, 8, 0}), space.label_of(mem));
}

// ------------------------------------------------ near-optimality, case 2

TEST(SearchEnvQuality, Case2AllFamiliesNearTheExhaustiveOptimum) {
  const Simulator sim;
  const BufferSizeSpace space;
  const BufferSearch exhaustive(space, sim);
  Rng rng(31);
  const LogUniformGemmSampler sampler;
  for (int trial = 0; trial < 8; ++trial) {
    const GemmWorkload w = sampler.sample(rng);
    const ArrayConfig array{pow2(static_cast<int>(rng.uniform_int(2, 6))),
                            pow2(static_cast<int>(rng.uniform_int(2, 6))),
                            dataflow_from_index(static_cast<int>(rng.uniform_int(0, 2)))};
    const std::int64_t bandwidth = rng.uniform_int(1, 100);
    const std::int64_t limit = 100 * rng.uniform_int(4, 18);
    const auto opt = exhaustive.best(w, array, bandwidth, limit);
    const SearchEnv env = buffer_env(space, w, array, bandwidth, limit);
    std::size_t unused = 0;
    const Cycles opt_cost = env.cost(opt.label, unused);
    EXPECT_EQ(opt_cost, compute_latency(w, array).cycles + opt.stall_cycles);
    for (const Family& f : families()) {
      const SearchResult r = f.run(env);
      // Stall cycles + 1 so a stall-free optimum still gives a ratio.
      const Cycles stalls = r.cost - compute_latency(w, array).cycles;
      EXPECT_LE((stalls + Cycles{1}) / (opt.stall_cycles + Cycles{1}), 1.25)
          << f.name << ' ' << w.to_string();
      EXPECT_GE(r.cost, opt_cost) << f.name;
      EXPECT_LE(space.config(r.label).total_kb(), limit) << f.name;
    }
  }
}

// ------------------------------------------------ near-optimality, case 3

TEST(SearchEnvQuality, Case3AllFamiliesNearTheExhaustiveOptimum) {
  const Simulator sim;
  const ScheduleSpace space(4);
  const ScheduleSearch exhaustive(space, default_scheduled_arrays(), sim);
  Rng rng(7);
  const LogUniformGemmSampler sampler;
  for (int trial = 0; trial < 5; ++trial) {
    const auto workloads = sampler.sample_many(rng, 4);
    const auto opt = exhaustive.best(workloads);
    const SearchEnv env = schedule_env(exhaustive, workloads);
    for (const Family& f : families()) {
      const SearchResult r = f.run(env);
      EXPECT_LE(r.cost / opt.makespan_cycles, 1.2) << f.name;
      EXPECT_GE(r.cost, opt.makespan_cycles) << f.name;
      EXPECT_EQ(r.cost, exhaustive.evaluate(workloads, r.label).makespan_cycles) << f.name;
    }
  }
}

}  // namespace
}  // namespace airch
