#include "search/annealing.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace airch {

SearchResult annealing_search(const SearchEnv& env, const AnnealingOptions& options) {
  Rng rng(options.seed);
  SearchResult result;
  SearchEnv::Point cur = env.random_point(rng);
  int cur_label = env.label_of(cur);
  Cycles cur_cost = env.cost(cur_label, result.evaluations);
  result.label = cur_label;
  result.cost = cur_cost;

  const auto jump = static_cast<std::int64_t>(env.num_digits());
  double temperature = options.initial_temperature;
  for (int step = 0; step < options.steps; ++step) {
    SearchEnv::Point next = cur;
    const std::int64_t d = rng.uniform_int(0, jump);
    if (d == jump) {
      // Occasional random jump: escapes basins the local moves cannot.
      next = env.random_point(rng);
    } else {
      env.move(next, static_cast<std::size_t>(d), rng);
    }
    const int next_label = env.label_of(next);
    const Cycles next_cost = env.cost(next_label, result.evaluations);

    // Metropolis acceptance on relative cost difference; the dimensionless
    // ratio comes straight from the same-tag Quantity division.
    const double delta = (next_cost - cur_cost) / cur_cost;
    if (delta <= 0.0 || rng.uniform() < std::exp(-delta / std::max(temperature, 1e-9))) {
      cur = std::move(next);
      cur_label = next_label;
      cur_cost = next_cost;
    }
    if (cur_cost < result.cost) {
      result.cost = cur_cost;
      result.label = cur_label;
    }
    temperature *= options.cooling;
  }
  return result;
}

}  // namespace airch
