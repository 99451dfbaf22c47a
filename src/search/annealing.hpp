#pragma once
// Simulated-annealing search baseline — completes the classic search-family
// trio (exhaustive, GA, RL) the benches compare against learned inference.
// Standard geometric cooling over a SearchEnv, with the GA's mutation
// (SearchEnv::move) as the neighbourhood move.

#include <cstdint>

#include "search/env.hpp"

namespace airch {

struct AnnealingOptions {
  int steps = 200;
  double initial_temperature = 0.5;  ///< in units of relative cost
  double cooling = 0.97;             ///< geometric decay per step
  std::uint64_t seed = 1;
};

/// Each step moves one random digit or, with one extra choice among the
/// digits, jumps to a fresh random point. `evaluations` is steps + 1.
[[nodiscard]] SearchResult annealing_search(const SearchEnv& env, const AnnealingOptions& options = {});

}  // namespace airch
