#include "search/genetic.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace airch {

SearchResult genetic_search(const SearchEnv& env, const GaOptions& options) {
  Rng rng(options.seed);
  SearchResult result;
  struct Scored {
    SearchEnv::Point point;
    int label;
    Cycles cost;
  };
  auto score = [&](SearchEnv::Point p) {
    const int label = env.label_of(p);
    const Cycles cost = env.cost(label, result.evaluations);
    return Scored{std::move(p), label, cost};
  };

  std::vector<Scored> population;
  population.reserve(static_cast<std::size_t>(options.population));
  for (int i = 0; i < options.population; ++i) population.push_back(score(env.random_point(rng)));
  auto by_cost = [](const Scored& a, const Scored& b) { return a.cost < b.cost; };
  std::sort(population.begin(), population.end(), by_cost);

  auto tournament_pick = [&]() -> const SearchEnv::Point& {
    auto best = static_cast<std::size_t>(rng.uniform_int(0, options.population - 1));
    for (int t = 1; t < options.tournament; ++t) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(0, options.population - 1));
      if (population[idx].cost < population[best].cost) best = idx;
    }
    return population[best].point;
  };

  const auto last_digit = static_cast<std::int64_t>(env.num_digits()) - 1;
  for (int gen = 0; gen < options.generations; ++gen) {
    std::vector<Scored> next;
    next.reserve(population.size());
    for (int e = 0; e < options.elite && e < options.population; ++e) {
      next.push_back(population[static_cast<std::size_t>(e)]);
    }
    while (static_cast<int>(next.size()) < options.population) {
      // The second parent is drawn first (the draw order SearchEnvGolden pins).
      const SearchEnv::Point& b = tournament_pick();
      const SearchEnv::Point& a = tournament_pick();
      SearchEnv::Point child(env.num_digits());
      for (std::size_t d = 0; d < child.size(); ++d) child[d] = rng.uniform() < 0.5 ? a[d] : b[d];
      env.repair(child);
      if (rng.uniform() < options.mutation_rate) {
        env.move(child, static_cast<std::size_t>(rng.uniform_int(0, last_digit)), rng);
      }
      next.push_back(score(std::move(child)));
    }
    population = std::move(next);
    std::sort(population.begin(), population.end(), by_cost);
  }

  result.label = population.front().label;
  result.cost = population.front().cost;
  return result;
}

}  // namespace airch
