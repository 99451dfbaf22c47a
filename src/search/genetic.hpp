#pragma once
// Genetic-algorithm search baseline. The paper's related work splits
// learned-DSE approaches into (i) learned cost models and (ii) ML-guided
// search (GA/RL, e.g. GAMMA). This is (ii) over any SearchEnv, so the
// benches can compare the optimizer families — exhaustive search, GA,
// REINFORCE, annealing and AIrchitect's constant-time inference — in both
// solution quality and number of cost-model evaluations.

#include <cstdint>

#include "search/env.hpp"

namespace airch {

struct GaOptions {
  int population = 24;
  int generations = 12;
  int elite = 2;            ///< genomes copied unchanged each generation
  int tournament = 3;       ///< tournament selection size
  double mutation_rate = 0.4;
  std::uint64_t seed = 1;
};

/// Steady-state GA: tournament selection, uniform crossover per digit
/// (then repair), and SearchEnv::move on a random digit as the mutation.
/// Duplicate points are not cached, so `evaluations` is exactly the
/// cost-model query count, population + generations * (population - elite).
[[nodiscard]] SearchResult genetic_search(const SearchEnv& env, const GaOptions& options = {});

}  // namespace airch
