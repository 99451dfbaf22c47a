// Property tests for the search acceleration layer (search/sweep_cache):
// the correctness bar is *bit-identical* results between the cached /
// factored / prefix-argmin path and the naive exhaustive sweeps, across
// random (workload, budget/array/limit) queries for all three case
// studies, plus a multi-threaded hammer on the sharded memo table.

#include "search/sweep_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dataset/generator.hpp"
#include "workload/sampler.hpp"

namespace airch {
namespace {

// Query mix: mostly fresh log-uniform workloads, with a slice resampled
// from a small pool so the memo table's hit path is exercised too.
GemmWorkload draw_workload(Rng& rng, const LogUniformGemmSampler& sampler,
                           std::vector<GemmWorkload>& pool) {
  if (!pool.empty() && rng.uniform() < 0.3) {
    return pool[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
  }
  const GemmWorkload w = sampler.sample(rng);
  if (pool.size() < 64) pool.push_back(w);
  return w;
}

// ------------------------------------------------------------- case 1

TEST(Case1SweepCache, BitIdenticalToNaiveOn10kQueries) {
  const ArrayDataflowSpace space;  // paper default: 459 labels
  const Simulator sim;
  const ArrayDataflowSearch naive(space, sim);
  const Case1SweepCache cache(space, sim);

  Rng rng(11);
  LogUniformGemmSampler sampler;
  std::vector<GemmWorkload> pool;
  for (int q = 0; q < 10000; ++q) {
    const GemmWorkload w = draw_workload(rng, sampler, pool);
    // Budgets span infeasible-adjacent (2) through beyond-the-space (22).
    const int budget_exp = static_cast<int>(rng.uniform_int(2, 22));
    const auto expect = naive.best(w, budget_exp);
    const auto got = cache.best(w, budget_exp);
    ASSERT_EQ(got.label, expect.label) << w.to_string() << " budget_exp=" << budget_exp;
    ASSERT_EQ(got.cycles, expect.cycles) << w.to_string() << " budget_exp=" << budget_exp;
  }
  const CacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);  // the pooled duplicates must hit
  // Tables are built lazily up to the highest queried budget, so a repeat
  // workload with a larger budget re-misses (extending its entry in
  // place); entries never exceed misses.
  EXPECT_LE(stats.entries, stats.misses);
}

TEST(Case1SweepCache, NonDefaultSpaceParameters) {
  const ArrayDataflowSpace space(12, 2);  // min_exp 2: smallest array 2^4
  const Simulator sim;
  const ArrayDataflowSearch naive(space, sim);
  const Case1SweepCache cache(space, sim);
  Rng rng(13);
  LogUniformGemmSampler sampler;
  for (int q = 0; q < 500; ++q) {
    const GemmWorkload w = sampler.sample(rng);
    const int budget_exp = static_cast<int>(rng.uniform_int(4, 14));
    EXPECT_EQ(cache.best(w, budget_exp).label, naive.best(w, budget_exp).label);
  }
}

TEST(Case1SweepCache, InfeasibleBudgetThrowsLikeNaive) {
  const ArrayDataflowSpace space;
  const Simulator sim;
  const Case1SweepCache cache(space, sim);
  EXPECT_THROW((void)cache.best({8, 8, 8}, 1), std::invalid_argument);
  EXPECT_EQ(cache.stats().entries, 0u);  // rejected before any sweep
}

// ------------------------------------------------------------- case 2

Case2Features sample_case2_query(Rng& rng, const LogUniformGemmSampler& sampler,
                                 std::vector<GemmWorkload>& pool,
                                 const BufferSizeSpace& space) {
  Case2Features f;
  f.workload = draw_workload(rng, sampler, pool);
  const int macs_exp = static_cast<int>(rng.uniform_int(4, 18));
  const int row_exp = static_cast<int>(rng.uniform_int(1, macs_exp - 1));
  f.array.rows = std::int64_t{1} << row_exp;
  f.array.cols = std::int64_t{1} << (macs_exp - row_exp);
  f.array.dataflow = dataflow_from_index(static_cast<int>(rng.uniform_int(0, 2)));
  f.bandwidth = rng.uniform_int(1, 100);
  // Includes non-multiples of the step and the infeasibility boundary.
  f.limit_kb = rng.uniform_int(3 * space.step_kb(), 2 * space.max_kb());
  return f;
}

TEST(Case2SweepCache, BitIdenticalToNaiveOn10kQueries) {
  const BufferSizeSpace space;  // paper default: 1000 labels
  const Simulator sim;
  const BufferSearch naive(space, sim);
  const Case2SweepCache cache(space, sim);

  Rng rng(17);
  LogUniformGemmSampler sampler;
  std::vector<GemmWorkload> pool;
  for (int q = 0; q < 10000; ++q) {
    const Case2Features f = sample_case2_query(rng, sampler, pool, space);
    const auto expect = naive.best(f.workload, f.array, f.bandwidth, f.limit_kb);
    const auto got = cache.best(f.workload, f.array, f.bandwidth, f.limit_kb);
    ASSERT_EQ(got.label, expect.label)
        << f.workload.to_string() << " array=" << f.array.to_string()
        << " bw=" << f.bandwidth << " limit=" << f.limit_kb;
    ASSERT_EQ(got.stall_cycles, expect.stall_cycles);
    ASSERT_EQ(got.total_kb, expect.total_kb);
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(Case2SweepCache, InfeasibleLimitThrowsLikeNaive) {
  const BufferSizeSpace space;
  const Simulator sim;
  const Case2SweepCache cache(space, sim);
  const GemmWorkload w{64, 64, 64};
  const ArrayConfig array{8, 8, Dataflow::kOutputStationary};
  EXPECT_THROW((void)cache.best(w, array, 10, 3 * space.step_kb() - 1), std::invalid_argument);
  EXPECT_THROW((void)cache.best(w, array, 10, -100), std::invalid_argument);
}

// ------------------------------------------------------------- case 3

TEST(Case3SweepCache, BitIdenticalToNaiveOn10kQueries) {
  // 3-array system keeps the naive side fast (162 labels, 27 sims/query).
  const ScheduleSpace space(3);
  const Simulator sim;
  const std::vector<ScheduledArray> arrays = {
      {{32, 32, Dataflow::kOutputStationary}, {400, 400, 400, 50}},
      {{64, 8, Dataflow::kOutputStationary}, {300, 300, 300, 30}},
      {{16, 16, Dataflow::kOutputStationary}, {200, 200, 200, 20}},
  };
  const ScheduleSearch naive(space, arrays, sim);
  const Case3SweepCache cache(naive);

  Rng rng(19);
  LogUniformGemmSampler sampler;
  for (int q = 0; q < 10000; ++q) {
    // Re-query each workload set a second time through the memo.
    const auto wls = sampler.sample_many(rng, 3);
    const auto expect = naive.best(wls);
    const auto first = cache.best(wls);
    const auto again = cache.best(wls);
    ASSERT_EQ(first.label, expect.label);
    ASSERT_EQ(first.makespan_cycles, expect.makespan_cycles);
    ASSERT_EQ(first.energy_pj, expect.energy_pj);
    ASSERT_EQ(again.label, expect.label);
  }
  const CacheStats stats = cache.stats();
  EXPECT_GE(stats.hits, 10000u);
}

TEST(Case3SweepCache, DefaultFourArraySystem) {
  const ScheduleSpace space;  // paper default: 1944 labels
  const Simulator sim;
  const ScheduleSearch naive(space, default_scheduled_arrays(), sim);
  const Case3SweepCache cache(naive);
  Rng rng(23);
  LogUniformGemmSampler sampler;
  for (int q = 0; q < 300; ++q) {
    const auto wls = sampler.sample_many(rng, 4);
    EXPECT_EQ(cache.best(wls).label, naive.best(wls).label);
  }
}

// -------------------------------------------------- concurrent hammer

TEST(ShardedMemoCache, ComputesOncePerKeyAndCountsHits) {
  ShardedMemoCache<std::vector<std::int64_t>, std::int64_t, detail::I64SeqHash> cache;
  std::atomic<int> computes{0};
  for (int round = 0; round < 3; ++round) {
    for (std::int64_t k = 0; k < 100; ++k) {
      const std::int64_t v = cache.get_or_compute({k, k + 1}, [&] {
        computes.fetch_add(1);
        return k * 10;
      });
      ASSERT_EQ(v, k * 10);
    }
  }
  EXPECT_EQ(computes.load(), 100);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 100u);
  EXPECT_EQ(stats.misses, 100u);
  EXPECT_EQ(stats.hits, 200u);
  EXPECT_EQ(stats.races, 0u);  // single-threaded: no lost insert races
}

TEST(ShardedMemoCache, GetOrUseProjectsUnderTheLock) {
  ShardedMemoCache<std::vector<std::int64_t>, std::vector<std::int64_t>, detail::I64SeqHash>
      cache;
  // Cache a 3-element table but extract a single element: the projection
  // result arrives by value, no reference into the table escapes.
  for (int round = 0; round < 2; ++round) {
    for (std::int64_t k = 0; k < 20; ++k) {
      const std::int64_t third = cache.get_or_use(
          {k}, [&] { return std::vector<std::int64_t>{k, 2 * k, 3 * k}; },
          [](const std::vector<std::int64_t>& table) { return table[2]; });
      ASSERT_EQ(third, 3 * k);
    }
  }
  EXPECT_EQ(cache.stats().misses, 20u);
  EXPECT_EQ(cache.stats().hits, 20u);
}

// Every query tallies exactly one of hits / misses / races — even when
// many threads race fresh keys (both compute; the loser's insert is a
// "race", not a miss) and while other threads snapshot stats()
// mid-hammer. Runs under TSan via the tsan label on this binary.
TEST(ShardedMemoCache, StatsInvariantUnderConcurrency) {
  ShardedMemoCache<std::vector<std::int64_t>, std::int64_t, detail::I64SeqHash> cache;
  constexpr std::size_t kQueries = 4000;
  constexpr std::int64_t kKeys = 16;  // few keys, many threads: force races
  std::atomic<int> mismatches{0};
  parallel_for(kQueries, 8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto k = static_cast<std::int64_t>(i) % kKeys;
      const std::int64_t v = cache.get_or_compute({k}, [&] { return k * k; });
      if (v != k * k) mismatches.fetch_add(1);
      if (i % 64 == 0) {
        // Concurrent stats(): internally consistent per-shard slices, and
        // entries can never exceed keys inserted so far.
        const CacheStats mid = cache.stats();
        if (mid.entries > static_cast<std::size_t>(kKeys)) mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.races, kQueries);
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kKeys));  // one true miss per key
  EXPECT_EQ(stats.entries, static_cast<std::size_t>(kKeys));
}

// Labelled tsan (tests/CMakeLists.txt): many real threads hammer one memo
// table over a small, colliding key set while the result of every query is
// checked against the serially precomputed truth.
TEST(ShardedMemoCache, ConcurrentHammerIsRaceFreeAndDeterministic) {
  const ArrayDataflowSpace space(14);
  const Simulator sim;
  const ArrayDataflowSearch naive(space, sim);

  Rng rng(29);
  LogUniformGemmSampler sampler;
  const std::vector<GemmWorkload> keys = sampler.sample_many(rng, 24);
  std::vector<int> expected(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    expected[i] = naive.best(keys[i], 12).label;
  }

  const Case1SweepCache cache(space, sim);
  std::atomic<int> mismatches{0};
  // 8 real workers (explicit overload) race over 4000 overlapping queries;
  // every key is requested by many threads at once.
  parallel_for(4000, 8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t k = i % keys.size();
      if (cache.best(keys[k], 12).label != expected[k]) mismatches.fetch_add(1);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, keys.size());
  EXPECT_EQ(stats.hits + stats.misses, 4000u);
  EXPECT_GE(stats.misses, keys.size());  // racing threads may double-compute
}

// Same 8-thread stats-invariant hammer, driven through the migrated shard
// locks (common/sync.hpp Mutex/MutexLock instead of raw std::mutex /
// std::lock_guard): the sync-layer swap must preserve bit-identical labels
// and the hits+misses+races == queries accounting, including while other
// threads snapshot stats() mid-hammer. TSan-labelled via this binary.
TEST(Case2SweepCache, StatsInvariantUnderConcurrencyWithMigratedLocks) {
  const BufferSizeSpace space;
  const Simulator sim;
  const BufferSearch naive(space, sim);
  const Case2SweepCache cache(space, sim);

  Rng rng(43);
  LogUniformGemmSampler sampler;
  std::vector<GemmWorkload> pool;
  std::vector<Case2Features> queries;
  std::vector<BufferSearch::Result> expected;
  for (int i = 0; i < 24; ++i) {
    queries.push_back(sample_case2_query(rng, sampler, pool, space));
    expected.push_back(naive.best(queries.back().workload, queries.back().array,
                                  queries.back().bandwidth, queries.back().limit_kb));
  }

  constexpr std::size_t kQueries = 2000;
  std::atomic<int> mismatches{0};
  parallel_for(kQueries, 8, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t k = i % queries.size();
      const Case2Features& f = queries[k];
      const auto got = cache.best(f.workload, f.array, f.bandwidth, f.limit_kb);
      if (got.label != expected[k].label || got.stall_cycles != expected[k].stall_cycles ||
          got.total_kb != expected[k].total_kb) {
        mismatches.fetch_add(1);
      }
      if (i % 64 == 0) {
        // stats() locks each shard in turn mid-hammer; the per-shard
        // slices must stay internally consistent.
        const CacheStats mid = cache.stats();
        if (mid.entries > queries.size()) mismatches.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.races, kQueries);
  EXPECT_LE(stats.entries, queries.size());
}

}  // namespace
}  // namespace airch
