#pragma once
// Policy-gradient (REINFORCE) search baseline — the RL-guided DSE family
// the paper cites (ConfuciuX, Apollo). For one query, a factored
// categorical policy over a SearchEnv's digits is optimized by sampling
// points, scoring them with the cost model, and ascending the
// advantage-weighted log-likelihood. Like the GA, its per-query cost is
// the number of cost-model evaluations.

#include <cstdint>

#include "search/env.hpp"

namespace airch {

struct ReinforceOptions {
  int iterations = 12;
  int batch = 16;            ///< samples per policy update
  double learning_rate = 0.5;
  std::uint64_t seed = 1;
};

/// One categorical per digit d over [lo, hi(d, lower bounds)]; a sample
/// that the earlier digits rule out is repaired into the constraint.
/// The reward is -log(cost), so the cost must stay above zero.
/// `evaluations` is iterations * batch.
[[nodiscard]] SearchResult reinforce_search(const SearchEnv& env, const ReinforceOptions& options = {});

}  // namespace airch
