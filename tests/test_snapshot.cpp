// Sweep-cache snapshot persistence (search/sweep_cache.hpp): a cache
// restored from a snapshot must answer every query bit-identically to the
// cache that saved it AND to a naive cold sweep; snapshots from the wrong
// case, the wrong space shape, or a corrupted file must be rejected
// loudly (ContractViolation) with the cache left untouched. Also covers
// the CaseStudy-level persistence plumbing used by generate_dataset.

#include "search/sweep_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/case_study.hpp"
#include "workload/sampler.hpp"

#include "file_bytes.hpp"

namespace airch {
namespace {

using test::read_file;
using test::write_file;

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = ::testing::TempDir(); }
  std::string path(const std::string& name) const { return dir_ + name; }
  std::string dir_;
  Simulator sim_;
};

// ------------------------------------------------------------- case 1

TEST_F(SnapshotTest, Case1WarmCacheIsBitIdenticalAndActuallyWarm) {
  const ArrayDataflowSpace space(12);
  Rng rng(3);
  LogUniformGemmSampler sampler;
  std::vector<GemmWorkload> workloads;
  for (int i = 0; i < 200; ++i) workloads.push_back(sampler.sample(rng));

  const Case1SweepCache cold(space, sim_);
  std::vector<ArrayDataflowSearch::Result> expected;
  for (const auto& w : workloads) expected.push_back(cold.best(w, 12));
  const SnapshotStats saved = cold.save_snapshot(path("c1.snap"));
  EXPECT_GT(saved.entries, 0u);  // == distinct workloads (draws may collide)

  Case1SweepCache warm(space, sim_);
  const SnapshotStats loaded = warm.load_snapshot(path("c1.snap"));
  EXPECT_EQ(loaded.entries, saved.entries);
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const auto got = warm.best(workloads[i], 12);
    ASSERT_EQ(got.label, expected[i].label);
    ASSERT_EQ(got.cycles, expected[i].cycles);
  }
  // Every query above must have hit the restored entries — zero misses.
  const CacheStats stats = warm.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 200u);
}

TEST_F(SnapshotTest, Case1LoadSkipsEntriesTheCacheAlreadyCovers) {
  const ArrayDataflowSpace space(10);
  const Case1SweepCache a(space, sim_);
  (void)a.best({64, 64, 64}, 10);
  const SnapshotStats saved = a.save_snapshot(path("dup.snap"));
  EXPECT_EQ(saved.entries, 1u);

  Case1SweepCache b(space, sim_);
  (void)b.best({64, 64, 64}, 10);  // already covers the snapshot's entry
  const SnapshotStats loaded = b.load_snapshot(path("dup.snap"));
  EXPECT_EQ(loaded.entries, 0u);
}

TEST_F(SnapshotTest, Case1WrongSpaceShapeIsRejected) {
  const ArrayDataflowSpace space(12);
  const Case1SweepCache cache(space, sim_);
  (void)cache.best({32, 32, 32}, 12);
  (void)cache.save_snapshot(path("shape.snap"));

  const ArrayDataflowSpace other(14);  // different max_macs_exp
  Case1SweepCache victim(other, sim_);
  EXPECT_THROW((void)victim.load_snapshot(path("shape.snap")), ContractViolation);
  // Rejection happened before anything touched the cache.
  EXPECT_EQ(victim.stats().entries, 0u);
}

// ------------------------------------------------------------- case 2

TEST_F(SnapshotTest, Case2WarmCacheIsBitIdenticalAndActuallyWarm) {
  const BufferSizeSpace space;
  Rng rng(5);
  LogUniformGemmSampler sampler;
  struct Query {
    GemmWorkload w;
    ArrayConfig a;
    std::int64_t bw;
    std::int64_t limit;
  };
  std::vector<Query> queries;
  for (int i = 0; i < 100; ++i) {
    Query q;
    q.w = sampler.sample(rng);
    q.a.rows = 16;
    q.a.cols = 32;
    q.a.dataflow = dataflow_from_index(static_cast<int>(rng.uniform_int(0, 2)));
    q.bw = rng.uniform_int(1, 50);
    q.limit = 600;
    queries.push_back(q);
  }

  const Case2SweepCache cold(space, sim_);
  std::vector<BufferSearch::Result> expected;
  for (const auto& q : queries) expected.push_back(cold.best(q.w, q.a, q.bw, q.limit));
  (void)cold.save_snapshot(path("c2.snap"));

  Case2SweepCache warm(space, sim_);
  const SnapshotStats loaded = warm.load_snapshot(path("c2.snap"));
  EXPECT_GT(loaded.entries, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    const auto got = warm.best(q.w, q.a, q.bw, q.limit);
    ASSERT_EQ(got.label, expected[i].label);
    ASSERT_EQ(got.stall_cycles, expected[i].stall_cycles);
    ASSERT_EQ(got.total_kb, expected[i].total_kb);
  }
  EXPECT_EQ(warm.stats().misses, 0u);
}

TEST_F(SnapshotTest, Case2RejectsCase1Snapshot) {
  const ArrayDataflowSpace c1space(10);
  const Case1SweepCache c1(c1space, sim_);
  (void)c1.best({16, 16, 16}, 10);
  (void)c1.save_snapshot(path("cross.snap"));

  const BufferSizeSpace space;
  Case2SweepCache victim(space, sim_);
  EXPECT_THROW((void)victim.load_snapshot(path("cross.snap")), ContractViolation);
  EXPECT_EQ(victim.stats().entries, 0u);
}

TEST_F(SnapshotTest, Case2LoadSkipsEntriesTheCacheAlreadyCovers) {
  const BufferSizeSpace space;
  const ArrayConfig array{16, 32, Dataflow::kOutputStationary};
  const Case2SweepCache a(space, sim_);
  (void)a.best({64, 64, 64}, array, 10, 600);
  const SnapshotStats saved = a.save_snapshot(path("dup2.snap"));
  EXPECT_EQ(saved.entries, 1u);

  Case2SweepCache b(space, sim_);
  (void)b.best({64, 64, 64}, array, 10, 600);  // already holds the snapshot's entry
  const SnapshotStats loaded = b.load_snapshot(path("dup2.snap"));
  EXPECT_EQ(loaded.entries, 0u);
}

// ------------------------------------------------------------- case 3

TEST_F(SnapshotTest, Case3BothMemoLevelsRoundTripWarm) {
  const ScheduleSpace space;
  const ScheduleSearch search(space, default_scheduled_arrays(), sim_);
  Rng rng(7);
  LogUniformGemmSampler sampler;
  std::vector<std::vector<GemmWorkload>> queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(sampler.sample_many(rng, static_cast<std::size_t>(space.num_arrays())));
  }

  const Case3SweepCache cold(search);
  std::vector<ScheduleSearch::Result> expected;
  for (const auto& q : queries) expected.push_back(cold.best(q));
  (void)cold.save_snapshot(path("c3.snap"));

  Case3SweepCache warm(search);
  const SnapshotStats loaded = warm.load_snapshot(path("c3.snap"));
  EXPECT_GT(loaded.entries, 0u);
  // Both levels must be restored: the per-vector argmins AND the
  // per-workload simulation costs.
  EXPECT_EQ(warm.stats().entries, cold.stats().entries);
  EXPECT_EQ(warm.array_stats().entries, cold.array_stats().entries);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto got = warm.best(queries[i]);
    ASSERT_EQ(got.label, expected[i].label);
    ASSERT_EQ(got.makespan_cycles, expected[i].makespan_cycles);
    ASSERT_EQ(got.energy_pj, expected[i].energy_pj);
  }
  EXPECT_EQ(warm.stats().misses, 0u);
}

TEST_F(SnapshotTest, Case3LoadSkipsEntriesTheCacheAlreadyCovers) {
  const ScheduleSpace space;
  const ScheduleSearch search(space, default_scheduled_arrays(), sim_);
  Rng rng(9);
  LogUniformGemmSampler sampler;
  const std::vector<GemmWorkload> query =
      sampler.sample_many(rng, static_cast<std::size_t>(space.num_arrays()));
  const Case3SweepCache a(search);
  (void)a.best(query);
  const SnapshotStats saved = a.save_snapshot(path("dup3.snap"));
  EXPECT_EQ(saved.entries, a.stats().entries + a.array_stats().entries);

  Case3SweepCache b(search);
  (void)b.best(query);  // both memo levels already hold every entry
  const SnapshotStats loaded = b.load_snapshot(path("dup3.snap"));
  EXPECT_EQ(loaded.entries, 0u);
}

// ----------------------------------------------------------- corruption

// The sweeps run once per case study: each case supplies a small warm
// cache, a fresh victim, and the victim's resident-entry count (both memo
// levels for case 3).

struct Case1Snapshots {
  static constexpr std::uint32_t kCaseId = 1;
  Simulator sim;
  ArrayDataflowSpace space{8};
  Case1SweepCache make() const { return Case1SweepCache(space, sim); }
  void warm(const Case1SweepCache& cache) const {
    (void)cache.best({8, 8, 8}, 8);
    (void)cache.best({16, 4, 32}, 8);
  }
  static std::size_t entries(const Case1SweepCache& cache) { return cache.stats().entries; }
};

struct Case2Snapshots {
  static constexpr std::uint32_t kCaseId = 2;
  Simulator sim;
  BufferSizeSpace space;
  Case2SweepCache make() const { return Case2SweepCache(space, sim); }
  void warm(const Case2SweepCache& cache) const {
    (void)cache.best({8, 8, 8}, {16, 32, Dataflow::kOutputStationary}, 10, 600);
    (void)cache.best({16, 4, 32}, {8, 8, Dataflow::kWeightStationary}, 20, 300);
  }
  static std::size_t entries(const Case2SweepCache& cache) { return cache.stats().entries; }
};

struct Case3Snapshots {
  static constexpr std::uint32_t kCaseId = 3;
  Simulator sim;
  ScheduleSpace space{2};
  ScheduleSearch search{space,
                        {{{16, 16, Dataflow::kOutputStationary}, {200, 200, 200, 20}},
                         {{8, 32, Dataflow::kOutputStationary}, {100, 100, 100, 10}}},
                        sim};
  Case3SweepCache make() const { return Case3SweepCache(search); }
  void warm(const Case3SweepCache& cache) const { (void)cache.best({{8, 8, 8}, {16, 4, 32}}); }
  static std::size_t entries(const Case3SweepCache& cache) {
    return cache.stats().entries + cache.array_stats().entries;
  }
};

template <typename Snapshots>
class SnapshotCorruptionTest : public SnapshotTest {
 protected:
  Snapshots snapshots_;
};

struct CaseName {
  template <typename Snapshots>
  static std::string GetName(int) {
    return "Case" + std::to_string(Snapshots::kCaseId);
  }
};

using CaseSnapshots = ::testing::Types<Case1Snapshots, Case2Snapshots, Case3Snapshots>;
TYPED_TEST_SUITE(SnapshotCorruptionTest, CaseSnapshots, CaseName);

TYPED_TEST(SnapshotCorruptionTest, EverySingleByteSubstitutionIsRejected) {
  const auto cache = this->snapshots_.make();
  this->snapshots_.warm(cache);
  (void)cache.save_snapshot(this->path("fuzz.snap"));
  const std::string good = read_file(this->path("fuzz.snap"));
  ASSERT_GT(good.size(), 0u);

  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ 0xA5u);
    write_file(this->path("fuzz_bad.snap"), bad);
    auto victim = this->snapshots_.make();
    EXPECT_THROW((void)victim.load_snapshot(this->path("fuzz_bad.snap")), ContractViolation)
        << "flipped byte " << i << " of " << good.size();
    // Never a partial load: rejection leaves the cache empty.
    EXPECT_EQ(TypeParam::entries(victim), 0u) << "flipped byte " << i;
  }
}

TYPED_TEST(SnapshotCorruptionTest, EveryTruncationLengthIsRejected) {
  const auto cache = this->snapshots_.make();
  this->snapshots_.warm(cache);
  (void)cache.save_snapshot(this->path("trunc.snap"));
  const std::string good = read_file(this->path("trunc.snap"));

  for (std::size_t len = 0; len < good.size(); ++len) {
    write_file(this->path("trunc_bad.snap"), good.substr(0, len));
    auto victim = this->snapshots_.make();
    EXPECT_THROW((void)victim.load_snapshot(this->path("trunc_bad.snap")), ContractViolation)
        << "truncated to " << len << " of " << good.size();
    EXPECT_EQ(TypeParam::entries(victim), 0u);
  }
}

TYPED_TEST(SnapshotCorruptionTest, WrongVersionWithHonestChecksumIsRejected) {
  // Version 1 files (the layout before per-section counts) and any future
  // version; everything but the version is valid, trailer included.
  for (const std::uint32_t version : {kSnapshotFormatVersion - 1, kSnapshotFormatVersion + 1}) {
    {
      BinWriter w(this->path("ver.snap"));
      w.put_u64(kSnapshotMagic);
      w.put_u32(version);
      w.put_u32(TypeParam::kCaseId);
      w.put_u64(this->snapshots_.make().fingerprint());
      w.put_u64(0);
      w.put_trailer_checksum();
      w.finish();
    }
    auto victim = this->snapshots_.make();
    EXPECT_THROW((void)victim.load_snapshot(this->path("ver.snap")), ContractViolation)
        << "version " << version;
  }
}

TEST_F(SnapshotTest, MissingFileThrows) {
  const ArrayDataflowSpace space(8);
  Case1SweepCache victim(space, sim_);
  EXPECT_THROW((void)victim.load_snapshot(path("missing.snap")), std::runtime_error);
}

// ---------------------------------------------------- CaseStudy plumbing

TEST_F(SnapshotTest, StudyWarmGenerateIsBitIdenticalToCold) {
  for (const CaseId id : {CaseId::kArrayDataflow, CaseId::kBufferSizing, CaseId::kScheduling}) {
    const auto cold = make_case_study(id);
    const Dataset a = cold->generate(60, 99);
    (void)cold->save_cache_snapshot(path("study.snap"));

    const auto warm = make_case_study(id);
    const SnapshotStats loaded = warm->load_cache_snapshot(path("study.snap"));
    EXPECT_GT(loaded.entries, 0u) << case_name(id);
    const Dataset b = warm->generate(60, 99);

    ASSERT_EQ(a.size(), b.size()) << case_name(id);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].features, b[i].features) << case_name(id) << " point " << i;
      ASSERT_EQ(a[i].label, b[i].label) << case_name(id) << " point " << i;
    }
    EXPECT_EQ(warm->cache_stats().misses, 0u) << case_name(id);
  }
}

TEST_F(SnapshotTest, StudyRangesConcatenateToFullRun) {
  // CaseStudy::generate_range obeys the generator's sharding contract:
  // contiguous ranges concatenated in order == one full generate().
  for (const std::size_t shards : {2u, 4u}) {
    const auto whole_study = make_case_study(CaseId::kArrayDataflow);
    const Dataset whole = whole_study->generate(50, 123);

    const auto sharded_study = make_case_study(CaseId::kArrayDataflow);
    Dataset glued(whole.feature_names(), whole.num_classes());
    for (std::size_t s = 0; s < shards; ++s) {
      const Dataset part =
          sharded_study->generate_range(50 * s / shards, 50 * (s + 1) / shards, 123);
      for (const auto& p : part.points()) glued.add(p);
    }
    ASSERT_EQ(whole.size(), glued.size());
    for (std::size_t i = 0; i < whole.size(); ++i) {
      ASSERT_EQ(whole[i].features, glued[i].features) << shards << " shards, point " << i;
      ASSERT_EQ(whole[i].label, glued[i].label) << shards << " shards, point " << i;
    }
  }
}

}  // namespace
}  // namespace airch
