// The optimizer families on the same queries (the landscape the paper's
// related-work section draws): exhaustive simulate-and-search, ML-guided
// search (genetic algorithm, REINFORCE, simulated annealing — the
// GAMMA/ConfuciuX family), and AIrchitect's constant-time learned
// inference. Reports solution quality (normalized to the exhaustive
// optimum) and cost-model evaluations per query. The search families run
// through one shared loop over each case study's SearchEnv.
//
// Expected shape: exhaustive = 1.0 quality at full evaluation cost; search
// near-1.0 at a fraction of the evaluations; AIrchitect near-1.0 at ZERO
// per-query evaluations (after one-off offline training).

#include <functional>
#include <iostream>

#include "common/cli.hpp"
#include "common/math_utils.hpp"
#include "common/table.hpp"
#include "core/recommender.hpp"
#include "dataset/generator.hpp"
#include "search/annealing.hpp"
#include "search/genetic.hpp"
#include "search/reinforce.hpp"
#include "workload/sampler.hpp"

using namespace airch;

namespace {

struct Family {
  const char* name;
  std::function<SearchResult(const SearchEnv&, std::uint64_t seed)> run;
};

const Family kFamilies[] = {
    {"genetic algorithm",
     [](const SearchEnv& env, std::uint64_t seed) {
       GaOptions o;
       o.seed = seed;
       return genetic_search(env, o);
     }},
    {"REINFORCE",
     [](const SearchEnv& env, std::uint64_t seed) {
       ReinforceOptions o;
       o.seed = seed;
       return reinforce_search(env, o);
     }},
    {"simulated annealing",
     [](const SearchEnv& env, std::uint64_t seed) {
       AnnealingOptions o;
       o.steps = 100;
       o.seed = seed;
       return annealing_search(env, o);
     }},
};

/// One design query: its env and the exhaustive search's optimal label.
struct Query {
  SearchEnv env;
  int optimum;
};

/// Adds one row per search family: geomean of optimum cost / found cost,
/// and evaluations per query. Query q runs at seed + q.
void add_search_rows(AsciiTable& t, const std::vector<Query>& queries, std::uint64_t seed) {
  for (const Family& family : kFamilies) {
    std::vector<double> quality;
    std::size_t evals = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      std::size_t unused = 0;
      const Cycles opt = queries[q].env.cost(queries[q].optimum, unused);
      const SearchResult r = family.run(queries[q].env, seed + q);
      evals += r.evaluations;
      quality.push_back(opt / r.cost);
    }
    t.add_row({family.name, AsciiTable::fmt(geomean(quality), 3),
               std::to_string(evals / queries.size())});
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_optimizer_comparison", "exhaustive vs search vs learned inference");
  args.flag_i64("queries", 200, "number of fresh design queries");
  args.flag_i64("points", 40000, "AIrchitect offline training dataset size");
  args.flag_i64("epochs", 10, "AIrchitect training epochs");
  args.flag_i64("seed", 13, "RNG seed");
  args.parse(argc, argv);
  const auto seed = static_cast<std::uint64_t>(args.i64("seed"));
  const auto queries = static_cast<std::size_t>(args.i64("queries"));
  const std::size_t small_queries = std::min<std::size_t>(queries, 100);

  // --------------------------------------------------------- case 1
  {
    std::cout << "=== Case study 1: array shape + dataflow (budget 2^10) ===\n";
    ArrayDataflowStudy study;
    const ArrayDataflowSearch exhaustive(study.space(), study.simulator());

    Recommender::TrainOptions topts;
    topts.dataset_size = static_cast<std::size_t>(args.i64("points"));
    topts.epochs = static_cast<int>(args.i64("epochs"));
    topts.seed = seed;
    std::cerr << "[cmp] training AIrchitect (offline, once)...\n";
    const Recommender rec = Recommender::train(study, topts);

    Rng rng(seed);
    const LogUniformGemmSampler sampler;
    std::vector<Query> envs;
    std::vector<double> ml_quality, topk_quality;
    for (std::size_t q = 0; q < queries; ++q) {
      const GemmWorkload w = sampler.sample(rng);
      const auto opt = exhaustive.best(w, 10);
      envs.push_back({array_dataflow_env(study.space(), study.simulator(), w, 10), opt.label});

      const ArrayConfig pred = rec.recommend_array(w, 10);
      Cycles pred_cycles = study.simulator().compute_cycles(w, pred);
      const MacCount budget{pow2(10)};
      if (pred.macs() > budget) pred_cycles *= ceil_div(pred.macs(), budget);
      ml_quality.push_back(std::min(1.0, opt.cycles / pred_cycles));

      // Hybrid: top-5 inference candidates re-ranked by 5 simulations.
      const auto top5 = rec.recommend_topk({10, w.m, w.n, w.k}, 5);
      Cycles best5{std::numeric_limits<std::int64_t>::max()};
      for (auto label : top5) {
        const ArrayConfig c = study.space().config(label);
        Cycles cyc = study.simulator().compute_cycles(w, c);
        if (c.macs() > budget) cyc *= ceil_div(c.macs(), budget);
        best5 = std::min(best5, cyc);
      }
      topk_quality.push_back(std::min(1.0, opt.cycles / best5));
    }

    AsciiTable t({"optimizer", "geomean quality", "evals/query"});
    t.add_row({"exhaustive search", "1.000",
               std::to_string(study.space().labels_within_budget(10).size())});
    add_search_rows(t, envs, seed);
    t.add_row({"AIrchitect (top-1)", AsciiTable::fmt(geomean(ml_quality), 3), "0"});
    t.add_row({"AIrchitect (top-5 + rerank)", AsciiTable::fmt(geomean(topk_quality), 3), "5"});
    t.print(std::cout);
    std::cout << '\n';
  }

  // --------------------------------------------------------- case 2
  {
    std::cout << "=== Case study 2: buffer sizing (runtime = compute + stalls) ===\n";
    BufferSizingStudy study;
    // Queries and their optimal labels are the dataset generator's.
    const Dataset data =
        generate_case2(small_queries, study.space(), study.simulator(), Case2Config{}, seed);
    std::vector<Query> envs;
    std::size_t exhaustive_evals = 0;
    for (const DataPoint& point : data.points()) {
      const Case2Features f = decode_case2(point.features);
      envs.push_back(
          {buffer_env(study.space(), f.workload, f.array, f.bandwidth, f.limit_kb), point.label});
      exhaustive_evals += study.space().labels_within_total(f.limit_kb).size();
    }

    AsciiTable t({"optimizer", "geomean quality", "evals/query"});
    t.add_row({"exhaustive search", "1.000", std::to_string(exhaustive_evals / data.size())});
    add_search_rows(t, envs, seed);
    t.print(std::cout);
    std::cout << '\n';
  }

  // --------------------------------------------------------- case 3
  {
    std::cout << "=== Case study 3: multi-array scheduling ===\n";
    SchedulingStudy study;
    const auto& exhaustive = study.search();

    Recommender::TrainOptions topts;
    topts.dataset_size = static_cast<std::size_t>(args.i64("points")) / 5;
    topts.epochs = static_cast<int>(args.i64("epochs"));
    topts.seed = seed;
    std::cerr << "[cmp] training scheduling recommender (offline, once)...\n";
    const Recommender rec = Recommender::train(study, topts);

    Rng rng(seed + 1);
    const LogUniformGemmSampler sampler;
    std::vector<Query> envs;
    std::vector<double> ml_quality;
    for (std::size_t q = 0; q < small_queries; ++q) {
      const auto workloads = sampler.sample_many(rng, 4);
      const auto opt = exhaustive.best(workloads);
      envs.push_back({schedule_env(exhaustive, workloads), opt.label});

      const auto sched = rec.recommend_schedule(workloads);
      const auto pred = exhaustive.evaluate(workloads, study.space().label_of(sched));
      ml_quality.push_back(opt.makespan_cycles / pred.makespan_cycles);
    }

    AsciiTable t({"optimizer", "geomean quality", "evals/query"});
    t.add_row({"exhaustive search", "1.000", std::to_string(study.space().size())});
    add_search_rows(t, envs, seed);
    t.add_row({"AIrchitect (top-1)", AsciiTable::fmt(geomean(ml_quality), 3), "0"});
    t.print(std::cout);
  }
  std::cout << "\nPaper framing: search methods pay per-query simulation cost forever;\n"
               "the learned optimizer amortizes one offline dataset+training pass into\n"
               "constant-time queries (Fig. 1(b)).\n";
  return 0;
}
