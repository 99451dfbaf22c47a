#include "search/reinforce.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace airch {

namespace {

/// Softmax sampling from a logits vector.
std::size_t sample_categorical(const std::vector<double>& logits, Rng& rng) {
  const double mx = *std::max_element(logits.begin(), logits.end());
  std::vector<double> probs(logits.size());
  double denom = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - mx);
    denom += probs[i];
  }
  double r = rng.uniform() * denom;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    r -= probs[i];
    if (r <= 0.0) return i;
  }
  return probs.size() - 1;
}

/// d log softmax / d logits for a sampled index: e_i - softmax.
void add_logprob_grad(std::vector<double>& grad, const std::vector<double>& logits,
                      std::size_t sampled, double scale) {
  const double mx = *std::max_element(logits.begin(), logits.end());
  double denom = 0.0;
  std::vector<double> probs(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp(logits[i] - mx);
    denom += probs[i];
  }
  for (std::size_t i = 0; i < logits.size(); ++i) {
    grad[i] += scale * ((i == sampled ? 1.0 : 0.0) - probs[i] / denom);
  }
}

}  // namespace

SearchResult reinforce_search(const SearchEnv& env, const ReinforceOptions& options) {
  const std::size_t digits = env.num_digits();
  SearchEnv::Point lows(digits);
  for (std::size_t d = 0; d < digits; ++d) lows[d] = env.digit(d).lo;
  // Each digit's logits span the widest range it can take.
  std::vector<std::vector<double>> logits(digits);
  for (std::size_t d = 0; d < digits; ++d) {
    logits[d].assign(static_cast<std::size_t>(env.hi(d, lows) - lows[d] + 1), 0.0);
  }

  Rng rng(options.seed);
  SearchResult best{-1, Cycles{std::numeric_limits<std::int64_t>::max()}, 0};
  const auto batch = static_cast<std::size_t>(options.batch);
  std::vector<std::size_t> picks(batch * digits);  // sample-major
  std::vector<double> rewards(batch);
  for (int iter = 0; iter < options.iterations; ++iter) {
    for (std::size_t b = 0; b < batch; ++b) {
      SearchEnv::Point p(digits);
      for (std::size_t d = 0; d < digits; ++d) {
        picks[b * digits + d] = sample_categorical(logits[d], rng);
        p[d] = lows[d] + static_cast<int>(picks[b * digits + d]);
      }
      env.repair(p);
      const int label = env.label_of(p);
      const Cycles cost = env.cost(label, best.evaluations);
      if (cost < best.cost) {
        best.label = label;
        best.cost = cost;
      }
      // Negative log-cost: scale-free across workload sizes.
      rewards[b] = -std::log(cost / Cycles{1});
    }

    // Advantage = reward - batch mean; one policy-gradient step.
    double mean_reward = 0.0;
    for (double r : rewards) mean_reward += r;
    mean_reward /= static_cast<double>(batch);
    const double step = options.learning_rate / static_cast<double>(batch);
    for (std::size_t d = 0; d < digits; ++d) {
      std::vector<double> grad(logits[d].size(), 0.0);
      for (std::size_t b = 0; b < batch; ++b) {
        add_logprob_grad(grad, logits[d], picks[b * digits + d], rewards[b] - mean_reward);
      }
      for (std::size_t i = 0; i < grad.size(); ++i) logits[d][i] += step * grad[i];
    }
  }
  return best;
}

}  // namespace airch
