#pragma once
// One search environment under every simulate-and-search family (the
// ArchGym design, PAPERS.md). A design point is a vector of integer
// digits; each case study supplies the digits' bounds, the map from a
// point to its label in the case's output space, and the simulator cost
// of a label. The families in search/genetic, search/reinforce and
// search/annealing are plain functions over a SearchEnv, so each one runs
// on all three case studies.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "search/exhaustive.hpp"
#include "search/space.hpp"
#include "workload/gemm.hpp"

namespace airch {

/// What every search family returns: the best label it saw, that label's
/// cost, and the number of cost-model queries it spent to find it.
struct SearchResult {
  int label = -1;
  Cycles cost;
  std::size_t evaluations = 0;
};

class SearchEnv {
 public:
  using Point = std::vector<int>;

  struct Digit {
    int lo = 0;
    int hi = 0;                ///< upper bound before the shared budget
    bool categorical = false;  ///< a move resamples it; otherwise it steps by one
    bool budgeted = false;     ///< counts against the env's shared budget
  };

  /// The budgeted digits sum to at most `budget`.
  SearchEnv(std::vector<Digit> digits, int budget, std::function<int(const Point&)> label_of,
            std::function<Cycles(int)> cost_of);

  std::size_t num_digits() const { return digits_.size(); }
  const Digit& digit(std::size_t d) const { return digits_[d]; }

  /// Upper bound of digit d given the earlier digits p[0..d): a budgeted
  /// digit leaves room for the lower bounds of the budgeted digits after it.
  int hi(std::size_t d, const Point& p) const;
  /// Clamps the digits in order into [lo, hi(d, p)], which puts any point
  /// inside the query's constraint.
  void repair(Point& p) const;
  /// Draws each digit uniformly from [lo, hi(d, p)] in order.
  Point random_point(Rng& rng) const;
  /// The one neighbourhood move: step digit d by ±1 (ordinal) or resample
  /// it (categorical), then repair.
  void move(Point& p, std::size_t d, Rng& rng) const;

  [[nodiscard]] int label_of(const Point& p) const { return label_of_(p); }
  /// Simulates one label and counts it as one evaluation in `evaluations`.
  [[nodiscard]] Cycles cost(int label, std::size_t& evaluations) const {
    ++evaluations;
    return cost_of_(label);
  }

 private:
  std::vector<Digit> digits_;
  int budget_;
  std::function<int(const Point&)> label_of_;
  std::function<Cycles(int)> cost_of_;
};

// Factories, one per case study. Each throws std::invalid_argument for a
// query with no feasible design point. The env refers to the space, the
// simulator and the search it is built from; they must outlive it.

/// Case 1: digits (row exp, col exp, dataflow) under a MAC budget of
/// 2^budget_exp; the cost is stall-free runtime.
SearchEnv array_dataflow_env(const ArrayDataflowSpace& space, const Simulator& sim,
                             const GemmWorkload& w, int budget_exp);

/// Case 2: digits (ifmap, filter, ofmap) buffer levels under a shared
/// capacity of limit_kb; the cost is compute plus stall cycles.
SearchEnv buffer_env(const BufferSizeSpace& space, const GemmWorkload& w, const ArrayConfig& array,
                     std::int64_t bandwidth, std::int64_t limit_kb);

/// Case 3: the Lehmer code of the workload-to-array permutation, then one
/// dataflow digit per array; the cost is the makespan.
SearchEnv schedule_env(const ScheduleSearch& search, std::vector<GemmWorkload> workloads);

}  // namespace airch
