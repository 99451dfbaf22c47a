#pragma once
// Search acceleration layer for dataset labelling (docs/performance.md).
//
// Dataset generation is the repo's hottest path: every labelled point runs
// a full exhaustive sweep of the case study's output space (459 sims for
// case 1, 1000 for case 2, 16*3 sims + 1944 combinations for case 3) —
// exactly the simulate-per-config loop the paper amortizes away with a
// learned recommender. This layer amortizes it *before* learning, without
// changing a single label:
//
//   * Case 1: the per-label cycle counts are independent of the MAC
//     budget, and the compute model factors per label into
//     fold_cycles(a, b) * row_folds(a) * col_folds(b) over shape exponents
//     (a, b). One cheap factored pass per unique workload builds a
//     prefix-argmin table indexed by budget exponent (labels grouped by
//     MAC count ascending), after which any covered `budget_exp` query is
//     O(1). Tables are stored in a sharded open-addressed slot table with
//     arena-backed spans and are built *in place* under the shard lock,
//     lazily up to the highest budget queried so far (monotone coverage):
//     a fresh workload costs no more than the naive path's own
//     budget-filtered scan and zero per-query heap allocations, and a
//     later larger budget extends the existing prefix incrementally.
//   * Case 2: DRAM traffic is separable per buffer (memory_model.hpp), so
//     one traffic_factors() call recovers every per-level traffic and
//     first-fill component without a single probe simulation; the 1000
//     label costs are then pure integer combines (division by the fixed
//     bandwidth strength-reduced through InvariantDiv), folded into a
//     prefix-argmin table indexed by the quantized shared-capacity limit.
//     Any `limit_kb` query is O(1).
//   * Case 3: two memo levels. Per-workload, the 3 * num_arrays
//     simulations (every array x dataflow) are cached once and shared
//     across every workload *vector* that contains the workload. Per
//     vector, the full argmin is memoized; a fresh vector runs a factored
//     fold — permutations walked directly in label order, dataflow
//     assignments explored as a depth-first base-3 tree pruned on the
//     partial makespan — instead of decoding all 1944 labels.
//
// All three caches are sharded, mutex-striped concurrent memo tables
// (cases 2/3 share the node-based ShardedMemoCache; case 1 uses the
// open-addressed variant above), so the log-uniform sampler's duplicate
// workloads hit cache across a whole generation run from any worker
// thread. The caches are unbounded: a generation run's key set is bounded
// by its point count.
// Correctness bar: labels (and costs) are bit-identical to the naive
// exhaustive path — enforced by the property tests in
// tests/test_sweep_cache.cpp.
//
// Persistence: every cache serializes to a versioned, checksummed
// snapshot file (save_snapshot / load_snapshot) so a warm cache from a
// previous run amortizes labelling across runs, not just within one.
// One codec (sweep_cache.cpp) writes and reads every snapshot: a header
// (magic, format version, case id, fingerprint of the search-space
// shape), one or more sections of `u64 count` plus records, and a
// checksum trailer. A snapshot whose version, case, fingerprint, or
// trailer checksum does not match is rejected with a thrown AIRCH_CHECK
// error and the cache is left untouched (loads stage the decoded payload
// and apply it only after the checksum verifies — no partial loads).
// Restored entries are bit-identical to recomputed ones by construction:
// the payload stores the exact Results the build paths produced.
// Format details: docs/performance.md ("Persistent caches & binary
// datasets").

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "search/exhaustive.hpp"
#include "search/space.hpp"
#include "sim/simulator.hpp"
#include "workload/gemm.hpp"

namespace airch {

/// Counters and occupancy of a memo table, snapshotted shard by shard
/// under each shard's lock — stats() is safe to call concurrently with
/// queries and returns internally consistent per-shard slices.
///
/// Every query tallies exactly one of hits / misses / races:
///   hits      — key present on first probe.
///   misses    — key absent; this query computed and inserted the value.
///   races     — key absent on first probe but present on re-lock: another
///               thread inserted while this one computed. The work was
///               duplicated (deterministically — same value), but the
///               table was *not* cold for the key, so the race is tallied
///               apart from true misses.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t races = 0;
  std::size_t entries = 0;
};

/// Outcome of a snapshot save or restore: how many logical entries were
/// written, or applied to the cache (a load skips entries the cache
/// already covers at least as far).
struct SnapshotStats {
  std::uint64_t entries = 0;
};

/// First 8 bytes of every sweep-cache snapshot file ("AIRCHSNP" in LE
/// byte order); exposed so tests can craft wrong-magic / wrong-version
/// fixtures with valid checksums.
inline constexpr std::uint64_t kSnapshotMagic = 0x504E534843524941ULL;
/// Bumped whenever the snapshot payload layout changes; readers reject
/// any other version loudly instead of misparsing. Version 2 dropped the
/// header's entry count: every section carries its own.
inline constexpr std::uint32_t kSnapshotFormatVersion = 2;

namespace detail {

/// SplitMix64-style avalanche; good enough to spread near-identical keys
/// (small GEMM dims differ in few low bits) across shards and buckets.
constexpr std::uint64_t mix_u64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return mix_u64(h ^ (v + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2)));
}

/// Hash over any container of int64 (fixed keys and workload vectors).
struct I64SeqHash {
  template <typename Seq>
  std::size_t operator()(const Seq& seq) const {
    std::uint64_t h = 0x243F6A8885A308D3ULL;
    for (const std::int64_t v : seq) h = hash_combine(h, static_cast<std::uint64_t>(v));
    return static_cast<std::size_t>(h);
  }
};

}  // namespace detail

/// Sharded, mutex-striped concurrent memoization table. Lookups take one
/// shard lock; values are computed *outside* any lock, so a miss never
/// blocks other shards (or even other keys of the same shard for long).
/// Two threads racing on the same fresh key may both compute; the first
/// insert wins and both observe the same (deterministic) value — callers
/// must therefore pass pure compute functions. Entries are never removed.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedMemoCache {
 public:
  /// Copy of the cached (or freshly computed) value for `key`.
  template <typename Fn>
  Value get_or_compute(const Key& key, const Fn& compute) {
    return get_or_use(key, compute, [](const Value& v) { return v; });
  }

  /// Core lookup: applies `use` to the cached value *under the shard lock*
  /// and returns use's result by value. This is how callers extract a
  /// small projection of a large cached table without copying the table.
  /// `use` must be cheap and must not re-enter this cache (deadlock — and
  /// in checked builds the lock-rank registry turns the attempt into a
  /// ContractViolation: shard locks are peers at kSweepCacheShard rank).
  template <typename Fn, typename Use>
  auto get_or_use(const Key& key, const Fn& compute, const Use& use) {
    Shard& shard = shards_[shard_index(key)];
    {
      const MutexLock lock(shard.mu);
      const auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        ++shard.hits;
        return use(it->second);
      }
    }
    Value value = compute();  // outside any lock: misses don't serialize
    const MutexLock lock(shard.mu);
    const auto [it, inserted] = shard.map.try_emplace(key, std::move(value));
    // Not inserted: lost the insert race — another thread published while
    // this one computed. Serve the winner's (identical) value; the
    // duplicated compute is tallied as a race, not a miss — the table
    // held the key.
    if (inserted) {
      ++shard.misses;
    } else {
      ++shard.races;
    }
    return use(it->second);
  }

  [[nodiscard]] CacheStats stats() const {
    CacheStats s;
    for (const Shard& shard : shards_) {
      const MutexLock lock(shard.mu);
      s.hits += shard.hits;
      s.misses += shard.misses;
      s.races += shard.races;
      s.entries += shard.map.size();
    }
    return s;
  }

  /// Copies every resident entry out, shard by shard under each shard's
  /// lock. The cut is consistent per shard (not across shards). Snapshot
  /// saves stage through this.
  [[nodiscard]] std::vector<std::pair<Key, Value>> entries() const {
    std::vector<std::pair<Key, Value>> out;
    for (const Shard& shard : shards_) {
      const MutexLock lock(shard.mu);
      out.insert(out.end(), shard.map.begin(), shard.map.end());
    }
    return out;
  }

  /// Direct insert (snapshot restore path): stores `value` for `key`
  /// unless the key is already resident — first write wins, mirroring the
  /// get_or_use race rule, and restored values are deterministic so the
  /// kept entry is identical either way. Tallied as neither hit nor miss.
  /// Returns whether `value` was stored.
  bool insert(const Key& key, Value value) {
    Shard& shard = shards_[shard_index(key)];
    const MutexLock lock(shard.mu);
    return shard.map.try_emplace(key, std::move(value)).second;
  }

 private:
  /// Comfortably above any parallel_for worker count this repo deploys.
  static constexpr std::size_t kShards = 64;

  struct Shard {
    mutable Mutex mu{lock_rank::kSweepCacheShard};
    std::unordered_map<Key, Value, Hash> map GUARDED_BY(mu);
    // Plain counters: every touch happens under `mu`, no atomics needed —
    // which is also what makes stats() TSan-clean.
    std::uint64_t hits GUARDED_BY(mu) = 0;
    std::uint64_t misses GUARDED_BY(mu) = 0;
    std::uint64_t races GUARDED_BY(mu) = 0;
  };

  std::size_t shard_index(const Key& key) const {
    // Re-avalanche the map hash so shard index and bucket index do not
    // correlate (both would otherwise use the same low bits).
    return detail::mix_u64(static_cast<std::uint64_t>(Hash{}(key))) & (kShards - 1);
  }

  std::vector<Shard> shards_ = std::vector<Shard>(kShards);
};

// --------------------------------------------------------------- case 1

/// Constant-amortized drop-in for ArrayDataflowSearch::best. Thread-safe;
/// share one instance across all labelling workers of a generation run.
///
/// Storage is an open-addressed slot table per shard (power-of-two size,
/// linear probing, grown at 50% load) whose 32-byte slots index fixed-size
/// spans in one contiguous per-shard vector:
/// best[e - min_sum_exp] = argmin over labels with MAC exponent <= e, with
/// equal-cycle ties resolving to fewer MACs then lower label exactly like
/// the naive label-order scan. A span is built lazily — and *in place*,
/// under the shard lock — up to the highest budget exponent queried so far
/// for its workload, so a fresh query does work proportional to its own
/// budget (like the naive filtered scan), a later larger budget continues
/// the prefix scan from the stored bound, and steady-state queries perform
/// no heap allocation. Builds are sub-microsecond, so holding the shard
/// lock across them is cheaper than the allocate-outside-and-merge dance
/// it replaces; probing, building, and copying the answer out all happen
/// under that one lock.
///
/// This table stays apart from ShardedMemoCache on measurement: storing
/// each workload's budget table as a ShardedMemoCache value made every
/// case-1 labelling stage about 2x slower (docs/performance.md).
class Case1SweepCache {
 public:
  /// `expected_workloads` pre-sizes the shard tables for that many unique
  /// workloads (plus slack): the labelling loop then sees no slot rehash,
  /// no span reallocation and no first-touch page fault — that cost all
  /// lands here in the constructor, before any worker starts. 0 starts
  /// minimal and grows on demand.
  Case1SweepCache(const ArrayDataflowSpace& space, const Simulator& sim,
                  std::size_t expected_workloads = 0);

  /// Bit-identical to ArrayDataflowSearch::best(w, budget_exp), including
  /// the fewer-MACs / lower-label tie-break and the infeasible-budget
  /// std::invalid_argument. O(1) after the first covering query for a
  /// workload.
  [[nodiscard]] ArrayDataflowSearch::Result best(const GemmWorkload& w, int budget_exp) const;

  /// Hint that best(w, ...) is coming soon: issues a prefetch for w's home
  /// probe slot without taking the shard lock (reads no slot contents, so
  /// the race-free guarantee is untouched). Bulk labelling loops call this
  /// a few queries ahead to hide the probe's cache miss.
  void prefetch(const GemmWorkload& w) const;

  [[nodiscard]] CacheStats stats() const;

  /// Identity of the space shape this cache answers for (min_exp,
  /// max_macs_exp folded through the snapshot hash); snapshots for any
  /// other shape are rejected on load.
  [[nodiscard]] std::uint64_t fingerprint() const;
  /// Writes every resident span table to a versioned checksummed snapshot.
  [[nodiscard]] SnapshotStats save_snapshot(const std::string& path) const;
  /// Restores a snapshot saved by a cache with the same fingerprint.
  /// Throws ContractViolation (AIRCH_CHECK) on any mismatch or corruption,
  /// leaving the cache untouched; entries the cache already covers at
  /// least as far are skipped.
  [[nodiscard]] SnapshotStats load_snapshot(const std::string& path);

 private:
  using Result = ArrayDataflowSearch::Result;
  using Key = std::array<std::int64_t, 3>;

  /// 32-byte probe header; the span itself lives in the shard's `spans`
  /// vector at index `span * span_cap_`, computable from the header alone
  /// (no pointer chase). key[0] == 0 marks an empty slot — valid
  /// workloads have m >= 1.
  struct Slot {
    Key key{};
    std::int32_t max_exp = -1;  // highest MAC exponent built so far
    std::uint32_t span = 0;
  };

  struct Shard {
    mutable Mutex mu{lock_rank::kSweepCacheShard};
    std::vector<Slot> slots GUARDED_BY(mu);  // pow2 size, linear probing, <= 50% load
    std::size_t used GUARDED_BY(mu) = 0;
    std::vector<Result> spans GUARDED_BY(mu);  // span i occupies [i*span_cap, +span_cap)
    // Plain counters: every touch happens under `mu`, no atomics needed.
    std::uint64_t hits GUARDED_BY(mu) = 0;
    std::uint64_t misses GUARDED_BY(mu) = 0;
    // Lock-free snapshot of (slots.data(), size-1) for prefetch(). Writers
    // publish base before mask; readers load mask before base, so a
    // reader's base is always at least as new as its mask and the computed
    // address stays inside the base's allocation. Deliberately NOT
    // GUARDED_BY(mu) — this is the documented capability-analysis escape
    // hatch for the lock-free prefetch path: prefetch() reads the snapshot
    // without the shard lock (and dereferences nothing), while every store
    // happens under it. The atomics carry the ordering themselves.
    std::atomic<const Slot*> pf_base{nullptr};
    std::atomic<std::size_t> pf_mask{0};
  };

  Slot& find_or_insert(Shard& shard, const Key& key, std::uint64_t hash) const
      REQUIRES(shard.mu);
  /// Index of the first element of `slot`'s span in its shard's `spans`.
  std::size_t span_offset(const Slot& slot) const {
    return static_cast<std::size_t>(slot.span) * static_cast<std::size_t>(span_cap_);
  }

  /// Continue the prefix-argmin scan of `best` from `built_exp` (-1 for a
  /// fresh span) up to `up_to_exp`. Pure integer arithmetic; never throws.
  void extend_table(const GemmWorkload& w, int up_to_exp, int built_exp, Result* best) const;

  const ArrayDataflowSpace* space_;
  const Simulator* sim_;
  int span_cap_;  // entries per span: max_macs_exp - 2*min_exp + 1
  mutable std::vector<Shard> shards_;
};

// --------------------------------------------------------------- case 2

/// Constant-amortized drop-in for BufferSearch::best: per unique
/// (workload, array, bandwidth) the separable traffic model is factored
/// once — no probe simulations — and folded into a limit-indexed
/// prefix-argmin table. Queries project one table entry under the shard
/// lock instead of copying the table.
class Case2SweepCache {
 public:
  Case2SweepCache(const BufferSizeSpace& space, const Simulator& sim);

  /// Bit-identical to BufferSearch::best(w, array, bandwidth, limit_kb).
  [[nodiscard]] BufferSearch::Result best(const GemmWorkload& w, const ArrayConfig& array,
                            std::int64_t bandwidth, std::int64_t limit_kb) const;

  [[nodiscard]] CacheStats stats() const { return memo_.stats(); }

  /// Identity of the space shape (levels, step_kb); see Case1SweepCache.
  [[nodiscard]] std::uint64_t fingerprint() const;
  [[nodiscard]] SnapshotStats save_snapshot(const std::string& path) const;
  [[nodiscard]] SnapshotStats load_snapshot(const std::string& path);

 private:
  /// best_by_total[t - 3] = argmin over labels with total capacity
  /// <= t * step_kb, for t in [3, 3 * levels].
  struct Table {
    std::vector<BufferSearch::Result> best_by_total;
  };

  Table build_table(const GemmWorkload& w, const ArrayConfig& array,
                    std::int64_t bandwidth) const;

  using Key = std::array<std::int64_t, 7>;
  const BufferSizeSpace* space_;
  const Simulator* sim_;
  mutable ShardedMemoCache<Key, Table, detail::I64SeqHash> memo_;
};

// --------------------------------------------------------------- case 3

/// Two-level memo over ScheduleSearch::best. Level 1 (array_memo_): per
/// unique workload, the 3 * num_arrays simulations behind
/// ScheduleSearch::dataflow_costs, shared across every workload vector the
/// workload appears in. Level 2 (memo_): the full argmin per canonicalized
/// workload vector. A fresh vector therefore costs only its *new*
/// workloads' simulations plus one factored fold: permutations are walked
/// directly in label order and the 3^n dataflow assignments explored
/// depth-first, pruning any subtree whose partial makespan already
/// exceeds the incumbent — exact, because makespan is a max (monotone in
/// the remaining arrays) and the tie-break comparator carries the label.
class Case3SweepCache {
 public:
  explicit Case3SweepCache(const ScheduleSearch& search);

  /// Bit-identical to ScheduleSearch::best(workloads).
  [[nodiscard]] ScheduleSearch::Result best(const std::vector<GemmWorkload>& workloads) const;

  /// Level-2 (workload-vector) memo counters.
  [[nodiscard]] CacheStats stats() const { return memo_.stats(); }
  /// Level-1 (per-workload simulation) memo counters.
  [[nodiscard]] CacheStats array_stats() const { return array_memo_.stats(); }

  /// Identity of the schedule space AND the array system AND the energy
  /// params — cached costs depend on all three; see Case1SweepCache.
  [[nodiscard]] std::uint64_t fingerprint() const;
  /// Both memo levels travel in one snapshot file.
  [[nodiscard]] SnapshotStats save_snapshot(const std::string& path) const;
  [[nodiscard]] SnapshotStats load_snapshot(const std::string& path);

 private:
  /// ScheduleSpace supports at most 8 arrays; fixed-size cost blocks keep
  /// the fold allocation-free.
  static constexpr int kMaxArrays = 8;
  using Key = std::vector<std::int64_t>;
  using WorkloadKey = std::array<std::int64_t, 3>;
  /// dataflow_costs for one workload on every array (index = array).
  using ArrayCosts = std::array<ScheduleSearch::DataflowCosts, kMaxArrays>;

  [[nodiscard]] ScheduleSearch::Result factored_best(const std::vector<GemmWorkload>& workloads) const;

  const ScheduleSearch* search_;
  mutable ShardedMemoCache<Key, ScheduleSearch::Result, detail::I64SeqHash> memo_;
  mutable ShardedMemoCache<WorkloadKey, ArrayCosts, detail::I64SeqHash> array_memo_;
};

}  // namespace airch
