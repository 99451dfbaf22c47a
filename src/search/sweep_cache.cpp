#include "search/sweep_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "common/math_utils.hpp"
#include "sim/compute_model.hpp"
#include "sim/energy_model.hpp"
#include "sim/memory_model.hpp"

namespace airch {

// --------------------------------------------------------------- case 1

namespace {

/// Initial open-addressed capacity per shard; sized so a typical
/// generation run grows each shard a handful of times at most.
constexpr std::size_t kInitialSlots = 64;

/// ceil(x / 2^e) without a division, overflow-safe for any x >= 1 (matches
/// ceil_div's (x - 1) / d + 1 form bit-for-bit for power-of-two divisors).
inline std::int64_t ceil_shr(std::int64_t x, int e) { return ((x - 1) >> e) + 1; }

/// Dedicated case-1 key hash: position-tagged product mix plus one
/// avalanche — half the multiplies of the chained I64SeqHash, and this
/// hash runs twice per query (prefetch + best). Low bits index the probe
/// slot, top bits pick the shard, so the two never correlate.
inline std::uint64_t case1_key_hash(const std::array<std::int64_t, 3>& key) {
  return detail::mix_u64(static_cast<std::uint64_t>(key[0]) * 0x9E3779B97F4A7C15ULL ^
                         static_cast<std::uint64_t>(key[1]) * 0xC2B2AE3D27D4EB4FULL ^
                         static_cast<std::uint64_t>(key[2]));
}

}  // namespace

Case1SweepCache::Case1SweepCache(const ArrayDataflowSpace& space, const Simulator& sim,
                                 std::size_t expected_workloads)
    : space_(&space),
      sim_(&sim),
      span_cap_(space.max_macs_exp() - 2 * space.min_exp() + 1),
      shards_(64) {
  AIRCH_ASSERT(span_cap_ >= 1);
  // The shard count is baked into the `hash >> 58` shard picks below.
  AIRCH_ASSERT(shards_.size() == 64);
  if (expected_workloads == 0) return;
  // Pre-size each shard for its share of the expected keys plus 25% slack
  // (key-to-shard assignment is hash-random, so shard counts fluctuate).
  // Writing the buffers now also faults their pages in, so the hot
  // labelling loop performs no rehash, no reallocation and no first-touch
  // page fault; the on-demand growth paths below remain as backstop.
  const std::size_t per_shard =
      expected_workloads / shards_.size() + expected_workloads / (shards_.size() * 4) + 1;
  std::size_t cap = kInitialSlots;
  while (cap < 2 * per_shard) cap <<= 1;  // keep load factor <= 50%
  for (Shard& shard : shards_) {
    // Clang's constructor exemption only covers members of `this`, not the
    // Shard objects' own guarded fields — and taking the lock here keeps
    // the pre-sizing writes visible to whichever thread touches the shard
    // first. Single-threaded at this point, so the cost is nil.
    const MutexLock lock(shard.mu);
    shard.slots.resize(cap);
    shard.pf_base.store(shard.slots.data(), std::memory_order_release);
    shard.pf_mask.store(cap - 1, std::memory_order_release);
    // resize-then-clear: touches every page, keeps the capacity.
    shard.spans.resize(per_shard * static_cast<std::size_t>(span_cap_));
    shard.spans.clear();
  }
}

Case1SweepCache::Slot& Case1SweepCache::find_or_insert(Shard& shard, const Key& key,
                                                       std::uint64_t hash) const
    REQUIRES(shard.mu) {
  if (shard.slots.empty()) {
    shard.slots.resize(kInitialSlots);
    shard.pf_base.store(shard.slots.data(), std::memory_order_release);
    shard.pf_mask.store(shard.slots.size() - 1, std::memory_order_release);
  }
  std::size_t mask = shard.slots.size() - 1;
  std::size_t i = hash & mask;
  while (shard.slots[i].key[0] != 0) {
    if (shard.slots[i].key == key) return shard.slots[i];
    i = (i + 1) & mask;
  }
  if (2 * (shard.used + 1) > shard.slots.size()) {
    // Grow at 50% load; rehashing moves 32-byte headers only, spans stay
    // where they are in the shard's span vector.
    std::vector<Slot> bigger(shard.slots.size() * 2);
    mask = bigger.size() - 1;
    for (const Slot& s : shard.slots) {
      if (s.key[0] == 0) continue;
      std::size_t j = case1_key_hash(s.key) & mask;
      while (bigger[j].key[0] != 0) j = (j + 1) & mask;
      bigger[j] = s;
    }
    shard.slots.swap(bigger);
    shard.pf_base.store(shard.slots.data(), std::memory_order_release);
    shard.pf_mask.store(shard.slots.size() - 1, std::memory_order_release);
    i = hash & mask;
    while (shard.slots[i].key[0] != 0) i = (i + 1) & mask;
  }
  Slot& slot = shard.slots[i];
  slot.key = key;
  slot.max_exp = -1;
  const std::size_t next_span = shard.spans.size() / static_cast<std::size_t>(span_cap_);
  AIRCH_DCHECK(next_span <= std::numeric_limits<std::uint32_t>::max(),
               "span index must fit Slot::span");
  slot.span = static_cast<std::uint32_t>(next_span);
  shard.spans.resize(shard.spans.size() + static_cast<std::size_t>(span_cap_));
  ++shard.used;
  return slot;
}

void Case1SweepCache::extend_table(const GemmWorkload& w, int up_to_exp, int built_exp,
                                   Result* best) const {
  const int min_e = space_->min_exp();
  const int lo = 2 * min_e;  // smallest MAC exponent in the space
  const int max_a = up_to_exp - min_e;
  const int start = built_exp >= lo ? built_exp + 1 : lo;

  // Factored compute model (compute_model.hpp): for a shape (2^a x 2^b),
  //   cycles = fold_cycles(a, b, dataflow) * row_folds(a) * col_folds(b)
  // where the fold counts depend on one exponent each. Hoisting the
  // ceil-divisions to one shift pass per exponent turns the per-label
  // sweep into a few multiply-compares. All scratch below is fixed-size
  // (exponents are < 63 by the pow2 contract): no allocation anywhere.
  std::array<std::int64_t, 63> folds_m;
  std::array<std::int64_t, 63> folds_n;
  std::array<std::int64_t, 63> folds_k;
  // Label of the first (lowest-b) shape for each row exponent, in the FULL
  // space enumeration (labels are ids in the whole space regardless of how
  // far this table is built): shapes are ordered by (a, b) with 3 dataflow
  // labels each, and row exponent a owns (max_s - a - min_e + 1) shapes.
  std::array<int, 63> label_base;
  {
    const int max_s = space_->max_macs_exp();
    int base = 0;
    for (int a = min_e; a <= max_a; ++a) {
      const auto ia = static_cast<std::size_t>(a);
      folds_m[ia] = ceil_shr(w.m, a);
      folds_n[ia] = ceil_shr(w.n, a);
      folds_k[ia] = ceil_shr(w.k, a);
      label_base[ia] = base;
      base += 3 * (max_s - a - min_e + 1);
    }
  }

  // Phase 1: per-diagonal argmin. All shapes with a + b = s share
  // macs = 2^s; iterating column-major (a outer, b inner) touches a
  // *different* accumulator slot on every inner step, so the sweep has no
  // loop-carried dependency and the multiplies pipeline freely. Within a
  // diagonal the visit order is still ascending a — ascending label — and
  // within a shape OS/WS/IS are compared in dataflow-index order, both
  // with strict '<', so equal-cycle ties resolve to the lowest label
  // exactly like the naive scan (strict-'<' argmin over a fixed visit
  // order is fold-shape independent).
  std::array<std::int64_t, 61> acc_cyc;
  std::array<int, 61> acc_lab;
  for (int s = start; s <= up_to_exp; ++s) {
    acc_cyc[static_cast<std::size_t>(s - lo)] = std::numeric_limits<std::int64_t>::max();
  }
  for (int a = min_e; a <= max_a; ++a) {
    const auto ia = static_cast<std::size_t>(a);
    const std::int64_t fm_a = folds_m[ia];
    const std::int64_t fk_a = folds_k[ia];
    // Fill/drain term shared by the three dataflows: OS pays
    // (rows-1) + (rows+cols-1), WS/IS pay rows + (rows+cols-2) — the
    // same 2*rows + cols - 2. Only the streamed dimension differs.
    const std::int64_t overhead_a = (std::int64_t{2} << a) - 2;
    // Streamed-dimension terms with the row part of the overhead folded in;
    // the inner loop only adds the column term 2^b.
    const std::int64_t oh_k = overhead_a + w.k;
    const std::int64_t oh_m = overhead_a + w.m;
    const std::int64_t oh_n = overhead_a + w.n;
    const int label_a = label_base[ia];
    const int b_lo = std::max(min_e, start - a);  // only diagonals >= start
    const int b_hi = up_to_exp - a;
    for (int b = b_lo; b <= b_hi; ++b) {
      const auto ib = static_cast<std::size_t>(b);
      const std::int64_t col = std::int64_t{1} << b;
      const std::int64_t os = (oh_k + col) * (fm_a * folds_n[ib]);
      const std::int64_t ws = (oh_m + col) * (fk_a * folds_n[ib]);
      const std::int64_t is = (oh_n + col) * (fk_a * folds_m[ib]);
      const int label = label_a + 3 * (b - min_e);
      // Branchless tournament + accumulator update: near-random argmin
      // outcomes make these compares mispredict constantly as branches, so
      // keep them as conditional moves (ternary + unconditional store).
      std::int64_t top_cyc = os;
      int top_lab = label;
      const bool ws_lt = ws < top_cyc;
      top_cyc = ws_lt ? ws : top_cyc;
      top_lab = ws_lt ? label + 1 : top_lab;
      const bool is_lt = is < top_cyc;
      top_cyc = is_lt ? is : top_cyc;
      top_lab = is_lt ? label + 2 : top_lab;
      const auto slot = static_cast<std::size_t>(a + b - lo);
      const bool acc_lt = top_cyc < acc_cyc[slot];
      acc_cyc[slot] = acc_lt ? top_cyc : acc_cyc[slot];
      acc_lab[slot] = acc_lt ? top_lab : acc_lab[slot];
    }
  }

  // Phase 2: prefix merge across ascending MAC exponents, seeded from the
  // already-built prefix when extending; strict '<' preserves the
  // equal-cycles -> fewer-MACs tie-break.
  int run_label = -1;
  std::int64_t run_cyc = std::numeric_limits<std::int64_t>::max();
  if (start > lo) {
    const Result& prev = best[start - 1 - lo];
    run_label = prev.label;
    // Unwrapped on purpose: the merge loop runs on raw int64 so the
    // compare-and-select compiles to conditional moves.
    run_cyc = prev.cycles.value();  // airch-lint: allow(value-escape)
  }
  for (int s = start; s <= up_to_exp; ++s) {
    const auto i = static_cast<std::size_t>(s - lo);
    const bool lt = acc_cyc[i] < run_cyc;
    run_cyc = lt ? acc_cyc[i] : run_cyc;
    run_label = lt ? acc_lab[i] : run_label;
    AIRCH_DCHECK(run_label >= 0, "every MAC-exponent diagonal holds at least one shape");
    best[i] = {run_label, Cycles{run_cyc}};
  }
}

ArrayDataflowSearch::Result Case1SweepCache::best(const GemmWorkload& w, int budget_exp) const {
  AIRCH_ASSERT(w.valid());
  const int lo = 2 * space_->min_exp();
  const int e = std::min(budget_exp, 62);  // naive path clamps identically
  if (e < lo) throw std::invalid_argument("MAC budget below smallest array in space");
  const int e_cap = std::min(e, space_->max_macs_exp());

  const Key key{w.m, w.n, w.k};
  const std::uint64_t hash = case1_key_hash(key);
  // Top hash bits pick the shard (64 shards): independent of the low
  // probe-index bits with no second avalanche.
  Shard& shard = shards_[hash >> 58];
  const MutexLock lock(shard.mu);
  Slot& slot = find_or_insert(shard, key, hash);
  // Pointer computed after find_or_insert: inserting may reallocate spans.
  Result* const best = shard.spans.data() + span_offset(slot);
  if (slot.max_exp >= e_cap) {
    ++shard.hits;
  } else {
    ++shard.misses;
    extend_table(w, e_cap, slot.max_exp, best);
    slot.max_exp = e_cap;
  }
  return best[e_cap - lo];
}

void Case1SweepCache::prefetch(const GemmWorkload& w) const {
  const Key key{w.m, w.n, w.k};
  const std::uint64_t hash = case1_key_hash(key);
  const Shard& shard = shards_[hash >> 58];
  // Mask before base (see Shard): the index is always in range for the
  // loaded base. A concurrently retired base may point at a stale array;
  // the hint then warms a dead line, which is merely wasted work.
  const std::size_t mask = shard.pf_mask.load(std::memory_order_acquire);
  const Slot* base = shard.pf_base.load(std::memory_order_acquire);
  if (base == nullptr) return;
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(base + (hash & mask));
#endif
}

CacheStats Case1SweepCache::stats() const {
  CacheStats s;
  for (const Shard& shard : shards_) {
    const MutexLock lock(shard.mu);
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.entries += shard.used;
  }
  return s;
}

// --------------------------------------------------------------- case 2

namespace {

/// Upper bound on BufferSizeSpace::levels() the stack-resident combine
/// below supports; the paper's space has 10.
constexpr int kMaxLevels = 64;

}  // namespace

Case2SweepCache::Case2SweepCache(const BufferSizeSpace& space, const Simulator& sim)
    : space_(&space), sim_(&sim) {
  AIRCH_CHECK(space.levels() <= kMaxLevels,
              "Case2SweepCache supports at most 64 buffer levels");
}

Case2SweepCache::Table Case2SweepCache::build_table(const GemmWorkload& w,
                                                    const ArrayConfig& array,
                                                    std::int64_t bandwidth) const {
  const int levels = space_->levels();
  const std::int64_t step = space_->step_kb();
  const ComputeResult compute = compute_latency(w, array);

  // The traffic model is separable per buffer (memory_model.hpp): each
  // operand's DRAM traffic is base + passes * spill(own capacity), and the
  // first-fill is an (ifmap term) + (filter term) sum. One traffic_factors
  // call therefore yields every per-level component directly — the probe
  // simulations the previous revision ran (1 + 3 * levels memory_behavior
  // calls per table) are gone entirely. operand_traffic / min are the very
  // int64 expressions memory_combine evaluates, so the per-label costs
  // below stay bit-identical to the naive path by construction.
  const TrafficFactors f = traffic_factors(w, array);
  // The combine runs on raw int64: conditional-move argmin plus the
  // InvariantDiv below want untyped operands, and the results re-enter
  // strong types at the table boundary.
  const std::int64_t cyc_compute = compute.cycles.value();  // airch-lint: allow(value-escape)
  std::array<std::int64_t, kMaxLevels> tr_if, tr_fil, tr_of, fl_if, fl_fil;
  for (int l = 0; l < levels; ++l) {
    const Bytes cap{(l + 1) * step * kBytesPerKb};
    const auto il = static_cast<std::size_t>(l);
    tr_if[il] = operand_traffic(f.ifmap, cap).value();    // airch-lint: allow(value-escape)
    tr_fil[il] = operand_traffic(f.filter, cap).value();  // airch-lint: allow(value-escape)
    tr_of[il] = operand_traffic(f.ofmap, cap).value();    // airch-lint: allow(value-escape)
    fl_if[il] = std::min(f.fill_ifmap, cap).value();      // airch-lint: allow(value-escape)
    fl_fil[il] = std::min(f.fill_filter, cap).value();    // airch-lint: allow(value-escape)
    AIRCH_DCHECK(tr_if[il] >= 0 && tr_fil[il] >= 0 && tr_of[il] >= 0,
                 "negative traffic — reuse accounting bug or int64 overflow");
  }

  // Combine the 1000 labels with pure integer arithmetic, bucketed by
  // total capacity so a shared-budget query is a prefix lookup. Dividing
  // by the (label-invariant) bandwidth via InvariantDiv turns the two
  // divisions per label into multiply-shifts — exact for non-negative
  // dividends, see math_utils.hpp.
  const InvariantDiv by_bw(bandwidth);
  struct Bucket {
    int label = -1;
    std::int64_t stalls = std::numeric_limits<std::int64_t>::max();
  };
  std::array<Bucket, 3 * (kMaxLevels - 1) + 1> buckets;
  const auto nbuckets = static_cast<std::size_t>(3 * (levels - 1)) + 1;
  for (std::size_t u = 0; u < nbuckets; ++u) buckets[u] = Bucket{};
  int label = 0;
  for (int i = 0; i < levels; ++i) {
    for (int fi = 0; fi < levels; ++fi) {
      const std::int64_t traffic_two =
          tr_if[static_cast<std::size_t>(i)] + tr_fil[static_cast<std::size_t>(fi)];
      const std::int64_t cyc_fill = by_bw.ceil_div(fl_if[static_cast<std::size_t>(i)] +
                                                   fl_fil[static_cast<std::size_t>(fi)]);
      for (int o = 0; o < levels; ++o, ++label) {
        const std::int64_t cyc_transfer =
            by_bw.ceil_div(traffic_two + tr_of[static_cast<std::size_t>(o)]);
        const std::int64_t stalls =
            cyc_fill + std::max<std::int64_t>(0, cyc_transfer - cyc_compute);
        Bucket& bk = buckets[static_cast<std::size_t>(i + fi + o)];
        if (stalls < bk.stalls) bk = {label, stalls};
      }
    }
  }
  AIRCH_DCHECK(label == space_->size(), "buffer combine must visit every label exactly once");

  // Prefix-argmin over ascending total capacity; strict '<' preserves the
  // naive tie-break (equal stalls -> smaller total capacity).
  Table t;
  t.best_by_total.resize(nbuckets);
  BufferSearch::Result run{-1, Cycles{std::numeric_limits<std::int64_t>::max()},
                           std::numeric_limits<std::int64_t>::max()};
  for (std::size_t u = 0; u < nbuckets; ++u) {
    const Bucket& bk = buckets[u];
    AIRCH_DCHECK(bk.label >= 0, "every total-capacity bucket holds at least one label");
    if (Cycles{bk.stalls} < run.stall_cycles) {
      run = {bk.label, Cycles{bk.stalls}, (static_cast<std::int64_t>(u) + 3) * step};
    }
    t.best_by_total[u] = run;
  }
  return t;
}

BufferSearch::Result Case2SweepCache::best(const GemmWorkload& w, const ArrayConfig& array,
                                           std::int64_t bandwidth,
                                           std::int64_t limit_kb) const {
  AIRCH_ASSERT(w.valid() && array.valid());
  const std::int64_t step = space_->step_kb();
  const std::int64_t limit_steps = limit_kb >= 0 ? limit_kb / step : 0;
  if (limit_steps < 3) {
    throw std::invalid_argument("buffer limit below smallest size in space");
  }
  const std::int64_t idx = std::min<std::int64_t>(limit_steps, 3 * space_->levels()) - 3;
  // Projection under the shard lock: copies one 24-byte Result out instead
  // of the whole table.
  return memo_.get_or_use(
      Key{w.m, w.n, w.k, array.rows, array.cols, dataflow_index(array.dataflow), bandwidth},
      [&] { return build_table(w, array, bandwidth); },
      [&](const Table& t) { return t.best_by_total[static_cast<std::size_t>(idx)]; });
}

// --------------------------------------------------------------- case 3

namespace {

/// Depth-first fold over one permutation's 3^n dataflow assignments, in
/// ascending label (base-3 code) order. Prunes a subtree only when its
/// partial makespan strictly exceeds the incumbent's: makespan is a max,
/// so every leaf below is at least as large — and on *equality* the
/// subtree is kept, because a leaf tying on makespan can still win the
/// energy or label tie-break. Energy accumulates in ascending array order,
/// the exact floating-point summation order of ScheduleSearch::best, so
/// leaf energies are bit-identical to the naive fold's.
struct ScheduleFold {
  int n = 0;
  // Per array (for the current permutation): 3 dataflow costs each.
  std::array<const Cycles*, 8> cyc{};
  std::array<const Picojoules*, 8> en{};
  std::int64_t label_base = 0;  // perm_index * 3^n

  int best_label = -1;
  Cycles best_ms{std::numeric_limits<std::int64_t>::max()};
  Picojoules best_en{std::numeric_limits<double>::max()};

  /// Candidate leaf: lexicographic (makespan, energy, label) min. The
  /// naive sweep's strict-'<' update over ascending labels computes
  /// exactly this, so any visit order (greedy seeds included) is safe.
  void offer(Cycles ms, Picojoules e, std::int64_t label) {
    if (ms < best_ms || (ms == best_ms && (e < best_en || (e == best_en && label < best_label)))) {
      best_ms = ms;
      best_en = e;
      best_label = static_cast<int>(label);
    }
  }

  void dfs(int a, std::int64_t code, Cycles partial_ms, Picojoules partial_en) {
    if (a == n) {
      offer(partial_ms, partial_en, label_base + code);
      return;
    }
    for (int d = 0; d < 3; ++d) {
      const Cycles ms = std::max(partial_ms, cyc[static_cast<std::size_t>(a)][d]);
      if (ms > best_ms) continue;  // exact: all leaves below are worse
      dfs(a + 1, code * 3 + d, ms, partial_en + en[static_cast<std::size_t>(a)][d]);
    }
  }
};

}  // namespace

Case3SweepCache::Case3SweepCache(const ScheduleSearch& search) : search_(&search) {}

ScheduleSearch::Result Case3SweepCache::factored_best(
    const std::vector<GemmWorkload>& workloads) const {
  const ScheduleSpace& space = search_->space();
  const int n = space.num_arrays();
  AIRCH_ASSERT(n >= 1 && n <= kMaxArrays);

  // Level-1 gather: per workload, the dataflow costs on every array —
  // 3 * n simulations, memoized across every vector the workload appears
  // in. Copied into a flat stack block so the fold below chases no memo
  // internals.
  std::array<ArrayCosts, kMaxArrays> costs;  // costs[wl][a]
  for (int wl = 0; wl < n; ++wl) {
    const GemmWorkload& w = workloads[static_cast<std::size_t>(wl)];
    costs[static_cast<std::size_t>(wl)] =
        array_memo_.get_or_compute(WorkloadKey{w.m, w.n, w.k}, [&] {
          ArrayCosts out{};
          for (int a = 0; a < n; ++a) {
            out[static_cast<std::size_t>(a)] = search_->dataflow_costs(a, w);
          }
          return out;
        });
  }

  std::int64_t pow3_n = 1;
  for (int i = 0; i < n; ++i) pow3_n *= 3;

  // Level-2 fold: walk permutations in lexicographic (= label-major)
  // order; for each, greedy-seed then depth-first the dataflow tree.
  ScheduleFold fold;
  fold.n = n;
  const int num_perms = space.num_permutations();
  for (int p = 0; p < num_perms; ++p) {
    const std::vector<int>& perm = space.permutation(p);
    fold.label_base = static_cast<std::int64_t>(p) * pow3_n;
    for (int a = 0; a < n; ++a) {
      const auto wl = static_cast<std::size_t>(perm[static_cast<std::size_t>(a)]);
      const ScheduleSearch::DataflowCosts& dc = costs[wl][static_cast<std::size_t>(a)];
      fold.cyc[static_cast<std::size_t>(a)] = dc.cycles.data();
      fold.en[static_cast<std::size_t>(a)] = dc.energy.data();
    }
    // Greedy seed: per array take the cheapest-cycles dataflow (ties to
    // the lower index). Usually at or near this permutation's optimum, so
    // the DFS starts with a tight makespan bound; evaluated through the
    // same ascending-array fold and offered with its exact label, it can
    // never displace a better (or equal-and-lower-label) leaf.
    {
      Cycles seed_ms{0};
      Picojoules seed_en{0.0};
      std::int64_t seed_code = 0;
      for (int a = 0; a < n; ++a) {
        const Cycles* cyc = fold.cyc[static_cast<std::size_t>(a)];
        int d = 0;
        if (cyc[1] < cyc[d]) d = 1;
        if (cyc[2] < cyc[d]) d = 2;
        seed_ms = std::max(seed_ms, cyc[d]);
        seed_en += fold.en[static_cast<std::size_t>(a)][d];
        seed_code = seed_code * 3 + d;
      }
      fold.offer(seed_ms, seed_en, fold.label_base + seed_code);
    }
    fold.dfs(0, 0, Cycles{0}, Picojoules{0.0});
  }
  return {fold.best_label, fold.best_ms, fold.best_en};
}

ScheduleSearch::Result Case3SweepCache::best(const std::vector<GemmWorkload>& workloads) const {
  if (static_cast<int>(workloads.size()) != search_->space().num_arrays()) {
    throw std::invalid_argument("workload count must match schedule space arity");
  }
  Key key;
  key.reserve(workloads.size() * 3);
  for (const GemmWorkload& w : workloads) {
    key.push_back(w.m);
    key.push_back(w.n);
    key.push_back(w.k);
  }
  return memo_.get_or_compute(key, [&] { return factored_best(workloads); });
}

// ------------------------------------------------------------ snapshots
//
// The one snapshot codec (common/binio.hpp discipline):
//   u64 magic | u32 version | u32 case id | u64 fingerprint
//   one or more sections, each: u64 count | count records
//   u64 trailer checksum (over every preceding byte)
// Each cache only encodes and decodes its own records. A load decodes and
// bounds-checks the whole file into staging buffers and verifies the
// trailer before the cache applies anything — a corrupt file can never
// leave a partially-applied (let alone wrong) cache behind. Every count
// or length field is checked against the bytes actually remaining before
// it sizes an allocation, so even a corruption the checksum has not yet
// seen cannot balloon memory.

namespace {

/// Seed of every fingerprint chain; the case id folds in first so the
/// three cases can never collide even on identical shape parameters.
constexpr std::uint64_t kFingerprintSeed = 0x41495243ULL;  // "AIRC"

/// Header, then the cache's sections (`encode_sections(w)`), then trailer.
template <typename EncodeSections>
void write_snapshot(const std::string& path, std::uint32_t case_id, std::uint64_t fingerprint,
                    const EncodeSections& encode_sections) {
  BinWriter w(path);
  w.put_u64(kSnapshotMagic);
  w.put_u32(kSnapshotFormatVersion);
  w.put_u32(case_id);
  w.put_u64(fingerprint);
  encode_sections(w);
  w.put_trailer_checksum();
  w.finish();
}

/// Validates magic → version → case → fingerprint in that order (so the
/// thrown message names the first thing that is actually wrong), stages
/// the cache's sections (`decode_sections(r)`), then verifies the trailer.
/// Returns only for a file that passed every check.
template <typename DecodeSections>
void read_snapshot(const std::string& path, std::uint32_t case_id, std::uint64_t fingerprint,
                   const DecodeSections& decode_sections) {
  BinReader r(path);
  AIRCH_CHECK(r.get_u64() == kSnapshotMagic, "not a sweep-cache snapshot: " + path);
  const std::uint32_t version = r.get_u32();
  AIRCH_CHECK(version == kSnapshotFormatVersion,
              "unsupported snapshot format version in " + path);
  const std::uint32_t got_case = r.get_u32();
  AIRCH_CHECK(got_case == case_id, "snapshot belongs to a different case study: " + path);
  const std::uint64_t got_fp = r.get_u64();
  AIRCH_CHECK(got_fp == fingerprint,
              "snapshot fingerprint does not match this search space: " + path);
  decode_sections(r);
  r.verify_trailer_checksum();
}

/// Writes one section: the record count, then `encode(w, record)` each.
template <typename Records, typename Encode>
void put_section(BinWriter& w, const Records& records, const Encode& encode) {
  w.put_u64(records.size());
  for (const auto& record : records) encode(w, record);
}

/// Reads one section into a vector of `decode()` results. The count is
/// bounded by the bytes left, at `min_record_bytes` per record, before it
/// sizes the vector.
template <typename Decode>
auto get_section(BinReader& r, std::uint64_t min_record_bytes, const Decode& decode) {
  const std::uint64_t n = r.get_count(min_record_bytes);
  std::vector<decltype(decode())> records;
  records.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) records.push_back(decode());
  return records;
}

/// Case-1 record: a workload key, its span's bound, and the offset of the
/// span's first element in a flat staging vector.
struct SpanRecord {
  std::array<std::int64_t, 3> key{};
  std::int32_t max_exp = 0;
  std::size_t off = 0;
};

}  // namespace

// --- case 1

std::uint64_t Case1SweepCache::fingerprint() const {
  std::uint64_t h = detail::hash_combine(kFingerprintSeed, 1);
  h = detail::hash_combine(h, static_cast<std::uint64_t>(space_->min_exp()));
  h = detail::hash_combine(h, static_cast<std::uint64_t>(space_->max_macs_exp()));
  return h;
}

SnapshotStats Case1SweepCache::save_snapshot(const std::string& path) const {
  const int lo = 2 * space_->min_exp();
  // Stage under the shard locks first: the section count and the payload
  // are then one consistent cut even with queries in flight.
  std::vector<SpanRecord> records;
  std::vector<Result> payload;
  for (const Shard& shard : shards_) {
    const MutexLock lock(shard.mu);
    for (const Slot& slot : shard.slots) {
      if (slot.key[0] == 0 || slot.max_exp < lo) continue;
      const Result* span = shard.spans.data() + span_offset(slot);
      records.push_back({slot.key, slot.max_exp, payload.size()});
      payload.insert(payload.end(), span, span + (slot.max_exp - lo + 1));
    }
  }
  write_snapshot(path, 1, fingerprint(), [&](BinWriter& w) {
    put_section(w, records, [&](BinWriter& out, const SpanRecord& rec) {
      for (const std::int64_t v : rec.key) out.put_i64(v);
      out.put_i32(rec.max_exp);
      for (int e = lo; e <= rec.max_exp; ++e) {
        const Result& res = payload[rec.off + static_cast<std::size_t>(e - lo)];
        out.put_i32(res.label);
        out.put_i64(std::bit_cast<std::int64_t>(res.cycles));
      }
    });
  });
  return {records.size()};
}

SnapshotStats Case1SweepCache::load_snapshot(const std::string& path) {
  const int lo = 2 * space_->min_exp();
  const int hi = space_->max_macs_exp();
  std::vector<SpanRecord> staged;
  std::vector<Result> payload;
  read_snapshot(path, 1, fingerprint(), [&](BinReader& r) {
    // Smallest legal record: 24-byte key + 4-byte bound + one 12-byte result.
    staged = get_section(r, 40, [&] {
      SpanRecord rec;
      for (std::int64_t& v : rec.key) v = r.get_i64();
      rec.max_exp = r.get_i32();
      rec.off = payload.size();
      AIRCH_CHECK(rec.key[0] >= 1 && rec.key[1] >= 1 && rec.key[2] >= 1,
                  "corrupt workload key in snapshot: " + path);
      AIRCH_CHECK(rec.max_exp >= lo && rec.max_exp <= hi,
                  "corrupt span bound in snapshot: " + path);
      const auto count = static_cast<std::size_t>(rec.max_exp - lo + 1);
      AIRCH_CHECK(count * 12 <= r.remaining(), "truncated span in snapshot: " + path);
      for (std::size_t e = 0; e < count; ++e) {
        const std::int32_t label = r.get_i32();
        const std::int64_t cycles = r.get_i64();
        AIRCH_CHECK(label >= 0 && label < space_->size(), "corrupt label in snapshot: " + path);
        AIRCH_CHECK(cycles >= 0, "corrupt cycle count in snapshot: " + path);
        payload.push_back({label, std::bit_cast<Cycles>(cycles)});
      }
      return rec;
    });
  });
  // An entry the cache already covers at least as far is skipped — its
  // resident span is identical by determinism.
  std::uint64_t applied = 0;
  for (const SpanRecord& rec : staged) {
    const std::uint64_t hash = case1_key_hash(rec.key);
    Shard& shard = shards_[hash >> 58];
    const MutexLock lock(shard.mu);
    Slot& slot = find_or_insert(shard, rec.key, hash);
    if (slot.max_exp >= rec.max_exp) continue;
    std::copy_n(payload.data() + rec.off, static_cast<std::size_t>(rec.max_exp - lo + 1),
                shard.spans.data() + span_offset(slot));
    slot.max_exp = rec.max_exp;
    ++applied;
  }
  return {applied};
}

// --- case 2

std::uint64_t Case2SweepCache::fingerprint() const {
  std::uint64_t h = detail::hash_combine(kFingerprintSeed, 2);
  h = detail::hash_combine(h, static_cast<std::uint64_t>(space_->levels()));
  h = detail::hash_combine(h, static_cast<std::uint64_t>(space_->step_kb()));
  return h;
}

SnapshotStats Case2SweepCache::save_snapshot(const std::string& path) const {
  const std::vector<std::pair<Key, Table>> staged = memo_.entries();
  write_snapshot(path, 2, fingerprint(), [&](BinWriter& w) {
    put_section(w, staged, [](BinWriter& out, const std::pair<Key, Table>& entry) {
      for (const std::int64_t v : entry.first) out.put_i64(v);
      out.put_u32(static_cast<std::uint32_t>(entry.second.best_by_total.size()));
      for (const BufferSearch::Result& res : entry.second.best_by_total) {
        out.put_i32(res.label);
        out.put_i64(std::bit_cast<std::int64_t>(res.stall_cycles));
        out.put_i64(res.total_kb);
      }
    });
  });
  return {staged.size()};
}

SnapshotStats Case2SweepCache::load_snapshot(const std::string& path) {
  const int levels = space_->levels();
  const std::int64_t step = space_->step_kb();
  const auto nbuckets = static_cast<std::uint32_t>(3 * (levels - 1)) + 1;
  std::vector<std::pair<Key, Table>> staged;
  read_snapshot(path, 2, fingerprint(), [&](BinReader& r) {
    const std::uint64_t record_bytes = 7 * 8 + 4 + static_cast<std::uint64_t>(nbuckets) * 20;
    staged = get_section(r, record_bytes, [&] {
      Key key{};
      for (std::int64_t& v : key) v = r.get_i64();
      AIRCH_CHECK(key[0] >= 1 && key[1] >= 1 && key[2] >= 1 && key[3] >= 1 && key[4] >= 1,
                  "corrupt key in snapshot: " + path);
      AIRCH_CHECK(key[5] >= 0 && key[5] < 3, "corrupt dataflow in snapshot: " + path);
      AIRCH_CHECK(key[6] >= 1, "corrupt bandwidth in snapshot: " + path);
      const std::uint32_t size = r.get_u32();
      AIRCH_CHECK(size == nbuckets, "snapshot table arity does not match space: " + path);
      Table t;
      t.best_by_total.reserve(size);
      for (std::uint32_t b = 0; b < size; ++b) {
        const std::int32_t label = r.get_i32();
        const std::int64_t stalls = r.get_i64();
        const std::int64_t total_kb = r.get_i64();
        AIRCH_CHECK(label >= 0 && label < space_->size(), "corrupt label in snapshot: " + path);
        AIRCH_CHECK(stalls >= 0, "corrupt stall count in snapshot: " + path);
        AIRCH_CHECK(total_kb >= 3 * step && total_kb <= 3 * levels * step,
                    "corrupt capacity in snapshot: " + path);
        t.best_by_total.push_back({label, std::bit_cast<Cycles>(stalls), total_kb});
      }
      return std::pair{key, std::move(t)};
    });
  });
  std::uint64_t applied = 0;
  for (auto& [key, table] : staged) applied += memo_.insert(key, std::move(table)) ? 1 : 0;
  return {applied};
}

// --- case 3

std::uint64_t Case3SweepCache::fingerprint() const {
  std::uint64_t h = detail::hash_combine(kFingerprintSeed, 3);
  h = detail::hash_combine(h, static_cast<std::uint64_t>(search_->space().num_arrays()));
  for (const ScheduledArray& sa : search_->arrays()) {
    h = detail::hash_combine(h, static_cast<std::uint64_t>(sa.array.rows));
    h = detail::hash_combine(h, static_cast<std::uint64_t>(sa.array.cols));
    h = detail::hash_combine(h, static_cast<std::uint64_t>(dataflow_index(sa.array.dataflow)));
    h = detail::hash_combine(h, static_cast<std::uint64_t>(sa.memory.ifmap_kb));
    h = detail::hash_combine(h, static_cast<std::uint64_t>(sa.memory.filter_kb));
    h = detail::hash_combine(h, static_cast<std::uint64_t>(sa.memory.ofmap_kb));
    h = detail::hash_combine(h, static_cast<std::uint64_t>(sa.memory.bandwidth));
  }
  // Cached energies depend on the energy params; fold their exact bit
  // patterns so a re-tuned simulator invalidates old snapshots.
  const EnergyParams& ep = search_->sim().energy_params();
  h = detail::hash_combine(h, std::bit_cast<std::uint64_t>(ep.mac_per_op));
  h = detail::hash_combine(h, std::bit_cast<std::uint64_t>(ep.sram_per_byte));
  h = detail::hash_combine(h, std::bit_cast<std::uint64_t>(ep.dram_per_byte));
  return h;
}

SnapshotStats Case3SweepCache::save_snapshot(const std::string& path) const {
  // Section 1: level-1 per-workload simulation costs. Section 2: level-2
  // per-vector argmin results.
  const std::vector<std::pair<WorkloadKey, ArrayCosts>> arrays = array_memo_.entries();
  const std::vector<std::pair<Key, ScheduleSearch::Result>> vectors = memo_.entries();
  write_snapshot(path, 3, fingerprint(), [&](BinWriter& w) {
    put_section(w, arrays, [](BinWriter& out, const std::pair<WorkloadKey, ArrayCosts>& entry) {
      for (const std::int64_t v : entry.first) out.put_i64(v);
      for (const ScheduleSearch::DataflowCosts& dc : entry.second) {
        for (const Cycles c : dc.cycles) out.put_i64(std::bit_cast<std::int64_t>(c));
        for (const Picojoules e : dc.energy) out.put_f64(std::bit_cast<double>(e));
      }
    });
    put_section(w, vectors,
                [](BinWriter& out, const std::pair<Key, ScheduleSearch::Result>& entry) {
                  out.put_u32(static_cast<std::uint32_t>(entry.first.size()));
                  for (const std::int64_t v : entry.first) out.put_i64(v);
                  out.put_i32(entry.second.label);
                  out.put_i64(std::bit_cast<std::int64_t>(entry.second.makespan_cycles));
                  out.put_f64(std::bit_cast<double>(entry.second.energy_pj));
                });
  });
  return {arrays.size() + vectors.size()};
}

SnapshotStats Case3SweepCache::load_snapshot(const std::string& path) {
  const ScheduleSpace& space = search_->space();
  const int n_arrays = space.num_arrays();
  std::vector<std::pair<WorkloadKey, ArrayCosts>> arrays;
  std::vector<std::pair<Key, ScheduleSearch::Result>> vectors;
  read_snapshot(path, 3, fingerprint(), [&](BinReader& r) {
    // 24-byte key + 8 blocks of 3 cycles + 3 energies.
    arrays = get_section(r, 24 + 8 * (3 * 8 + 3 * 8), [&] {
      WorkloadKey key{};
      for (std::int64_t& v : key) v = r.get_i64();
      AIRCH_CHECK(key[0] >= 1 && key[1] >= 1 && key[2] >= 1,
                  "corrupt workload key in snapshot: " + path);
      ArrayCosts costs{};
      for (ScheduleSearch::DataflowCosts& dc : costs) {
        for (Cycles& c : dc.cycles) {
          const std::int64_t cyc = r.get_i64();
          AIRCH_CHECK(cyc >= 0, "corrupt cycle count in snapshot: " + path);
          c = std::bit_cast<Cycles>(cyc);
        }
        for (Picojoules& e : dc.energy) {
          const double pj = r.get_f64();
          AIRCH_CHECK(std::isfinite(pj) && pj >= 0.0, "corrupt energy in snapshot: " + path);
          e = std::bit_cast<Picojoules>(pj);
        }
      }
      return std::pair{key, costs};
    });
    // u32 arity + the key + label, makespan, energy.
    const auto vector_bytes = static_cast<std::uint64_t>(4 + 3 * n_arrays * 8 + 4 + 8 + 8);
    vectors = get_section(r, vector_bytes, [&] {
      const std::uint32_t len = r.get_u32();
      AIRCH_CHECK(len == static_cast<std::uint32_t>(3 * n_arrays),
                  "snapshot key arity does not match space: " + path);
      Key key(len);
      for (std::int64_t& v : key) {
        v = r.get_i64();
        AIRCH_CHECK(v >= 1, "corrupt workload key in snapshot: " + path);
      }
      const std::int32_t label = r.get_i32();
      const std::int64_t makespan = r.get_i64();
      const double energy = r.get_f64();
      AIRCH_CHECK(label >= 0 && label < space.size(), "corrupt label in snapshot: " + path);
      AIRCH_CHECK(makespan >= 0, "corrupt cycle count in snapshot: " + path);
      AIRCH_CHECK(std::isfinite(energy) && energy >= 0.0, "corrupt energy in snapshot: " + path);
      return std::pair{std::move(key),
                       ScheduleSearch::Result{label, std::bit_cast<Cycles>(makespan),
                                              std::bit_cast<Picojoules>(energy)}};
    });
  });
  std::uint64_t applied = 0;
  for (const auto& [key, costs] : arrays) applied += array_memo_.insert(key, costs) ? 1 : 0;
  for (auto& [key, res] : vectors) applied += memo_.insert(std::move(key), res) ? 1 : 0;
  return {applied};
}

}  // namespace airch
