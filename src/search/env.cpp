#include "search/env.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/math_utils.hpp"

namespace airch {

SearchEnv::SearchEnv(std::vector<Digit> digits, int budget,
                     std::function<int(const Point&)> label_of, std::function<Cycles(int)> cost_of)
    : digits_(std::move(digits)),
      budget_(budget),
      label_of_(std::move(label_of)),
      cost_of_(std::move(cost_of)) {
  Point lows(digits_.size());
  for (std::size_t d = 0; d < digits_.size(); ++d) lows[d] = digits_[d].lo;
  for (std::size_t d = 0; d < digits_.size(); ++d) {
    AIRCH_CHECK(hi(d, lows) >= lows[d], "search env digit has an empty range");
  }
}

int SearchEnv::hi(std::size_t d, const Point& p) const {
  if (!digits_[d].budgeted) return digits_[d].hi;
  int room = budget_;
  for (std::size_t e = 0; e < digits_.size(); ++e) {
    if (e != d && digits_[e].budgeted) room -= e < d ? p[e] : digits_[e].lo;
  }
  return std::min(digits_[d].hi, room);
}

void SearchEnv::repair(Point& p) const {
  for (std::size_t d = 0; d < digits_.size(); ++d) {
    p[d] = std::clamp(p[d], digits_[d].lo, hi(d, p));
  }
}

SearchEnv::Point SearchEnv::random_point(Rng& rng) const {
  Point p(digits_.size());
  for (std::size_t d = 0; d < p.size(); ++d) {
    p[d] = static_cast<int>(rng.uniform_int(digits_[d].lo, hi(d, p)));
  }
  return p;
}

void SearchEnv::move(Point& p, std::size_t d, Rng& rng) const {
  if (digits_[d].categorical) {
    p[d] = static_cast<int>(rng.uniform_int(digits_[d].lo, hi(d, p)));
  } else {
    p[d] += rng.uniform() < 0.5 ? 1 : -1;
  }
  repair(p);
}

namespace {

/// Label of a point whose digits are the space's own mixed-radix digits
/// (first digit most significant).
std::function<int(const SearchEnv::Point&)> mixed_radix(const std::vector<SearchEnv::Digit>& digits) {
  return [digits](const SearchEnv::Point& p) {
    int label = 0;
    for (std::size_t d = 0; d < digits.size(); ++d) {
      label = label * (digits[d].hi - digits[d].lo + 1) + p[d] - digits[d].lo;
    }
    return label;
  };
}

}  // namespace

SearchEnv array_dataflow_env(const ArrayDataflowSpace& space, const Simulator& sim,
                             const GemmWorkload& w, int budget_exp) {
  AIRCH_ASSERT(w.valid());
  const int lo = space.min_exp();
  const int total = std::min(budget_exp, space.max_macs_exp());
  if (total < 2 * lo) throw std::invalid_argument("MAC budget below smallest array in space");
  // The column bound is total - row, so every point fits 2^total MACs.
  const SearchEnv::Digit exponent{lo, total - lo, false, true};
  return SearchEnv(
      {exponent, exponent, {0, kNumDataflows - 1, true, false}}, total,
      [&space](const SearchEnv::Point& p) {
        return space.label_of({pow2(p[0]), pow2(p[1]), dataflow_from_index(p[2])});
      },
      [&space, &sim, w](int label) { return sim.compute_cycles(w, space.config(label)); });
}

SearchEnv buffer_env(const BufferSizeSpace& space, const GemmWorkload& w, const ArrayConfig& array,
                     std::int64_t bandwidth, std::int64_t limit_kb) {
  AIRCH_ASSERT(w.valid() && array.valid());
  if (limit_kb < 3 * space.step_kb()) {
    throw std::invalid_argument("buffer limit below smallest size in space");
  }
  // Digit = level index (size / step - 1); the three sizes share limit_kb.
  // Stalls are flat over wide runs of sizes, where a one-level step only
  // wanders, so a move resamples a level instead.
  const int top = space.levels() - 1;
  const auto budget =
      static_cast<int>(std::min<std::int64_t>(limit_kb / space.step_kb() - 3, 3 * top));
  const std::vector<SearchEnv::Digit> digits(3, SearchEnv::Digit{0, top, true, true});
  const ComputeResult compute = compute_latency(w, array);
  // Stall-free optima are common, so the cost is the whole runtime: it
  // orders designs as stalls do and stays above zero.
  return SearchEnv(digits, budget, mixed_radix(digits),
                   [&space, w, array, bandwidth, compute](int label) {
                     MemoryConfig mem = space.config(label);
                     mem.bandwidth = bandwidth;
                     return compute.cycles + memory_behavior(w, array, mem, compute).stall_cycles;
                   });
}

SearchEnv schedule_env(const ScheduleSearch& search, std::vector<GemmWorkload> workloads) {
  const int n = search.space().num_arrays();
  if (static_cast<int>(workloads.size()) != n) {
    throw std::invalid_argument("workload count must match schedule space arity");
  }
  // Lehmer digit i picks among the n - i workloads not yet placed (the
  // last one has a single choice and is left out), so uniform crossover
  // always yields a permutation. Mixed radix over these digits is
  // ScheduleSpace's label: perm_index * 3^n + dataflow_code.
  std::vector<SearchEnv::Digit> digits;
  for (int i = 0; i + 1 < n; ++i) digits.push_back({0, n - 1 - i, false, false});
  for (int a = 0; a < n; ++a) digits.push_back({0, kNumDataflows - 1, true, false});
  return SearchEnv(digits, 0, mixed_radix(digits),
                   [&search, workloads = std::move(workloads)](int label) {
                     return search.evaluate(workloads, label).makespan_cycles;
                   });
}

}  // namespace airch
