// Binary dataset format (dataset/binary_io.hpp): bit-exact round trips,
// CSV interchange, streaming batches, shard merging, and — the hardening
// half — fuzz-lite corruption sweeps: every single-byte substitution,
// every truncation length, wrong-version and wrong-schema crafted files
// all must throw ContractViolation, never misparse or crash.

#include "dataset/binary_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "dataset/encoding.hpp"
#include "models/neural.hpp"

#include "file_bytes.hpp"

namespace airch {
namespace {

Dataset make_dataset(std::size_t n, int num_features, int num_classes, std::uint64_t seed) {
  std::vector<std::string> names;
  for (int f = 0; f < num_features; ++f) names.push_back("f" + std::to_string(f));
  Dataset ds(names, num_classes);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    DataPoint p;
    // Include negative and large-magnitude features: the record encoding
    // must round-trip the full i64 domain, not just small positives.
    for (int f = 0; f < num_features; ++f) {
      p.features.push_back(rng.uniform_int(-1000000, 1000000) * 4097);
    }
    p.label = static_cast<std::int32_t>(rng.uniform_int(0, num_classes - 1));
    ds.add(std::move(p));
  }
  return ds;
}

void expect_identical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.feature_names(), b.feature_names());
  ASSERT_EQ(a.num_classes(), b.num_classes());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].features, b[i].features) << "point " << i;
    ASSERT_EQ(a[i].label, b[i].label) << "point " << i;
  }
}

using test::read_file;
using test::write_file;

class BinaryIoTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = ::testing::TempDir(); }
  std::string path(const std::string& name) const { return dir_ + name; }
  std::string dir_;
};

// ------------------------------------------------------------ round trips

TEST_F(BinaryIoTest, WriteReadRoundTripIsBitExact) {
  const Dataset ds = make_dataset(257, 5, 40, 7);
  write_binary_dataset(ds, path("rt.bin"));
  expect_identical(ds, read_binary_dataset(path("rt.bin")));
}

TEST_F(BinaryIoTest, EmptyDatasetRoundTrips) {
  const Dataset ds({"a", "b"}, 3);
  write_binary_dataset(ds, path("empty.bin"));
  const Dataset back = read_binary_dataset(path("empty.bin"));
  EXPECT_EQ(back.size(), 0u);
  EXPECT_EQ(back.feature_names(), ds.feature_names());
  EXPECT_EQ(back.num_classes(), 3);
}

TEST_F(BinaryIoTest, CsvBinaryCsvRoundTripIsBitExact) {
  const Dataset ds = make_dataset(100, 4, 10, 3);
  ds.save_csv(path("a.csv"));
  convert_csv_to_binary(path("a.csv"), path("a.bin"), ds.num_classes());
  expect_identical(ds, read_binary_dataset(path("a.bin")));
  convert_binary_to_csv(path("a.bin"), path("b.csv"));
  EXPECT_EQ(read_file(path("a.csv")), read_file(path("b.csv")));
}

TEST_F(BinaryIoTest, CsvConversionRejectsOutOfRangeLabel) {
  const Dataset ds = make_dataset(20, 3, 10, 5);
  ds.save_csv(path("lab.csv"));
  // Declaring fewer classes than the labels use must fail loudly.
  EXPECT_THROW(convert_csv_to_binary(path("lab.csv"), path("lab.bin"), 2), ContractViolation);
}

// ------------------------------------------------------------- streaming

TEST_F(BinaryIoTest, BatchStreamChunksConcatenateToWholeFile) {
  const Dataset ds = make_dataset(103, 3, 8, 11);
  write_binary_dataset(ds, path("chunks.bin"));
  BatchStream stream(path("chunks.bin"));
  EXPECT_EQ(stream.size(), 103u);
  EXPECT_EQ(stream.num_features(), 3);

  Dataset all(stream.feature_names(), stream.num_classes());
  Dataset chunk;
  std::size_t batches = 0;
  while (stream.next_batch(10, chunk)) {
    ++batches;
    EXPECT_LE(chunk.size(), 10u);
    for (const auto& p : chunk.points()) all.add(p);
  }
  EXPECT_EQ(batches, 11u);  // 10 full + 1 tail of 3
  expect_identical(ds, all);

  // Exhausted stream keeps returning false; reset() replays from point 0.
  EXPECT_FALSE(stream.next_batch(10, chunk));
  stream.reset();
  ASSERT_TRUE(stream.next_batch(1000, chunk));
  expect_identical(ds, chunk);
}

TEST_F(BinaryIoTest, FitStreamMatchesFitBitExactly) {
  // One chunk covering the whole file degenerates fit_stream to fit():
  // same Rng sequence, same batch fold — histories and predictions must be
  // bit-identical, not merely close.
  const Dataset train = make_dataset(120, 4, 6, 21);
  const Dataset val = make_dataset(30, 4, 6, 22);
  write_binary_dataset(train, path("train.bin"));

  const FeatureEncoder enc(train);

  NeuralClassifier::Options opts;
  opts.hidden = {16};
  opts.epochs = 3;
  opts.batch_size = 32;
  opts.seed = 5;
  NeuralClassifier in_memory("m", opts);
  NeuralClassifier streamed("s", opts);

  const auto hist_fit = in_memory.fit(train, val, enc);
  BatchStream stream(path("train.bin"));
  const auto hist_stream = streamed.fit_stream(stream, val, enc, train.size());

  ASSERT_EQ(hist_fit.size(), hist_stream.size());
  for (std::size_t i = 0; i < hist_fit.size(); ++i) {
    EXPECT_EQ(hist_fit[i].train_loss, hist_stream[i].train_loss) << "epoch " << i;
    EXPECT_EQ(hist_fit[i].train_accuracy, hist_stream[i].train_accuracy) << "epoch " << i;
    EXPECT_EQ(hist_fit[i].val_accuracy, hist_stream[i].val_accuracy) << "epoch " << i;
  }
  EXPECT_EQ(in_memory.predict(val, enc), streamed.predict(val, enc));
}

TEST_F(BinaryIoTest, FitStreamMultiChunkTrains) {
  // Multi-chunk epochs shuffle within chunks; the result is a different
  // but still functional model — this pins the shape, not bit-identity.
  const Dataset train = make_dataset(100, 4, 6, 31);
  write_binary_dataset(train, path("mc.bin"));
  const FeatureEncoder enc(train);
  NeuralClassifier::Options opts;
  opts.hidden = {8};
  opts.epochs = 2;
  opts.seed = 9;
  NeuralClassifier clf("mc", opts);
  BatchStream stream(path("mc.bin"));
  const auto hist = clf.fit_stream(stream, Dataset(train.feature_names(), 6), enc, 32);
  ASSERT_EQ(hist.size(), 2u);
  EXPECT_EQ(clf.predict(train, enc).size(), train.size());
}

// ------------------------------------------------------ buffer boundaries
//
// Every other file in this suite fits in one stream buffer; these cross
// kBinIoBufferBytes on purpose, at odd offsets.

/// Byte i of a deterministic fill that does not repeat every 256 bytes.
char pattern_byte(std::size_t i) { return static_cast<char>((i * 131 + i / 251) % 256); }

std::string pattern(std::size_t n) {
  std::string out(n, '\0');
  for (std::size_t i = 0; i < n; ++i) out[i] = pattern_byte(i);
  return out;
}

/// One-shot digest over the first `n` bytes of `bytes`.
std::uint64_t digest_of(const std::string& bytes, std::size_t n) {
  ByteChecksum sum;
  sum.update(reinterpret_cast<const unsigned char*>(bytes.data()), n);
  return sum.digest();
}

/// Little-endian value of `n` bytes of `bytes` at `at`.
std::uint64_t le_at(const std::string& bytes, std::size_t at, int n) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  return v;
}

void append_le(std::string& bytes, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

/// Writes `payload` followed by its trailer digest.
void write_with_trailer(const std::string& path, const std::string& payload) {
  std::string file = payload;
  append_le(file, digest_of(payload, payload.size()), 8);
  write_file(path, file);
}

TEST_F(BinaryIoTest, WritesAcrossBufferBoundariesMatchOneShotChecksum) {
  std::string expected;  // built without BinWriter
  const std::string lead = pattern(kBinIoBufferBytes - 3);  // the next u64 straddles 64 KiB
  const std::string big = pattern(2 * kBinIoBufferBytes + 17);  // one call > the buffer
  {
    BinWriter w(path("straddle.bin"));
    w.put_bytes(lead.data(), lead.size());
    expected += lead;
    w.put_u64(0x0123456789ABCDEFULL);
    append_le(expected, 0x0123456789ABCDEFULL, 8);
    w.put_bytes(big.data(), big.size());
    expected += big;
    for (std::uint32_t i = 0; i < 40000; ++i) {  // ~2.5 buffers of small writes
      w.put_u32(i * 2654435761u);
      append_le(expected, i * 2654435761u, 4);
      w.put_bytes(lead.data() + i % 7, i % 7);
      expected.append(lead, i % 7, i % 7);
    }
    w.put_trailer_checksum();
    w.finish();
  }
  const std::string file = read_file(path("straddle.bin"));
  ASSERT_EQ(file.size(), expected.size() + 8);
  EXPECT_TRUE(file.compare(0, expected.size(), expected) == 0);
  EXPECT_EQ(le_at(file, expected.size(), 8), digest_of(file, expected.size()));
}

TEST_F(BinaryIoTest, ReadsAcrossBufferRefillsMatchTheFile) {
  const std::string payload = pattern(3 * kBinIoBufferBytes + 5);
  write_with_trailer(path("refill.bin"), payload);
  BinReader r(path("refill.bin"));
  std::size_t at = 0;
  std::string chunk;
  // A 1033-byte stride of mixed reads drifts across every refill boundary
  // at a different offset; the checksum must cover exactly the bytes
  // consumed, never the buffered read-ahead.
  while (payload.size() - at > 1100) {
    ASSERT_EQ(r.get_u64(), le_at(payload, at, 8)) << "at " << at;
    at += 8;
    ASSERT_EQ(r.get_u32(), le_at(payload, at, 4)) << "at " << at;
    at += 4;
    chunk.assign(1000, '\0');
    r.get_bytes(chunk.data(), chunk.size());
    ASSERT_TRUE(payload.compare(at, chunk.size(), chunk) == 0) << "at " << at;
    at += chunk.size();
    r.skip_bytes(21);
    at += 21;
    ASSERT_EQ(r.tell(), at);
    ASSERT_EQ(r.checksum(), digest_of(payload, at)) << "at " << at;
  }
  r.skip_bytes(payload.size() - at);
  r.verify_trailer_checksum();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST_F(BinaryIoTest, SeekDiscardsTheBufferAndRestartsTheChecksum) {
  const std::string payload = pattern(2 * kBinIoBufferBytes + 100);
  write_with_trailer(path("seek.bin"), payload);
  BinReader r(path("seek.bin"));
  r.skip_bytes(kBinIoBufferBytes + 10);  // the buffer now holds the second chunk
  for (const std::uint64_t target :
       {std::uint64_t{5}, std::uint64_t{kBinIoBufferBytes - 4},
        std::uint64_t{2 * kBinIoBufferBytes + 50}, std::uint64_t{kBinIoBufferBytes + 10}}) {
    r.seek(target);
    EXPECT_EQ(r.tell(), target);
    EXPECT_EQ(r.checksum(), ByteChecksum().digest());
    std::string got(16, '\0');
    r.get_bytes(got.data(), got.size());
    const std::string want = payload.substr(static_cast<std::size_t>(target), got.size());
    EXPECT_EQ(got, want) << "after seek to " << target;
    EXPECT_EQ(r.checksum(), digest_of(want, want.size())) << "after seek to " << target;
  }
  r.seek(0);
  r.skip_bytes(payload.size());
  r.verify_trailer_checksum();
  EXPECT_EQ(r.remaining(), 0u);
}

TEST_F(BinaryIoTest, BatchStreamOverMultiBufferFileConcatenatesToWholeFile) {
  const Dataset ds = make_dataset(4000, 5, 16, 19);  // 44-byte records, ~172 KiB
  write_binary_dataset(ds, path("big.bin"));
  ASSERT_GT(read_file(path("big.bin")).size(), 2 * kBinIoBufferBytes);
  BatchStream stream(path("big.bin"));
  Dataset all(stream.feature_names(), stream.num_classes());
  Dataset chunk;
  while (stream.next_batch(333, chunk)) {
    for (const auto& p : chunk.points()) all.add(p);
  }
  expect_identical(ds, all);
  stream.reset();
  ASSERT_TRUE(stream.next_batch(ds.size(), chunk));
  expect_identical(ds, chunk);
}

// ---------------------------------------------------------------- merging

TEST_F(BinaryIoTest, MergedShardsAreByteIdenticalToSingleWriter) {
  const Dataset full = make_dataset(90, 4, 12, 17);
  write_binary_dataset(full, path("full.bin"));

  for (const std::size_t shards : {2u, 4u}) {
    std::vector<std::string> shard_paths;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t begin = full.size() * s / shards;
      const std::size_t end = full.size() * (s + 1) / shards;
      Dataset part(full.feature_names(), full.num_classes());
      for (std::size_t i = begin; i < end; ++i) part.add(full[i]);
      shard_paths.push_back(path("part" + std::to_string(s) + ".bin"));
      write_binary_dataset(part, shard_paths.back());
    }
    merge_binary_shards(shard_paths, path("merged.bin"));
    EXPECT_EQ(read_file(path("full.bin")), read_file(path("merged.bin"))) << shards << " shards";
  }
}

TEST_F(BinaryIoTest, MergeRejectsSchemaMismatch) {
  write_binary_dataset(make_dataset(5, 3, 8, 1), path("s1.bin"));
  write_binary_dataset(make_dataset(5, 4, 8, 1), path("s2.bin"));  // extra feature
  EXPECT_THROW(merge_binary_shards({path("s1.bin"), path("s2.bin")}, path("m.bin")),
               ContractViolation);
  write_binary_dataset(make_dataset(5, 3, 9, 1), path("s3.bin"));  // different classes
  EXPECT_THROW(merge_binary_shards({path("s1.bin"), path("s3.bin")}, path("m.bin")),
               ContractViolation);
}

// ------------------------------------------------------------- corruption

TEST_F(BinaryIoTest, EverySingleByteSubstitutionIsRejected) {
  // The FNV-1a trailer covers every preceding byte and the trailer itself
  // is the digest, so any single-byte substitution anywhere in the file
  // must surface as ContractViolation at open. This sweeps all of them.
  write_binary_dataset(make_dataset(3, 2, 5, 13), path("fuzz.bin"));
  const std::string good = read_file(path("fuzz.bin"));
  ASSERT_GT(good.size(), 0u);
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(static_cast<unsigned char>(bad[i]) ^ 0xA5u);
    write_file(path("fuzz_bad.bin"), bad);
    EXPECT_THROW(BatchStream stream(path("fuzz_bad.bin")), ContractViolation)
        << "flipped byte " << i << " of " << good.size();
  }
}

TEST_F(BinaryIoTest, EveryTruncationLengthIsRejected) {
  write_binary_dataset(make_dataset(2, 2, 5, 14), path("trunc.bin"));
  const std::string good = read_file(path("trunc.bin"));
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_file(path("trunc_bad.bin"), good.substr(0, len));
    EXPECT_THROW(BatchStream stream(path("trunc_bad.bin")), ContractViolation)
        << "truncated to " << len << " of " << good.size();
  }
}

TEST_F(BinaryIoTest, WrongVersionWithHonestChecksumIsRejected) {
  // Hand-crafted with BinWriter, so the trailer checksum is VALID — the
  // version check itself must fire, not the corruption backstop.
  {
    BinWriter w(path("ver.bin"));
    w.put_u64(kDatasetMagic);
    w.put_u32(kDatasetFormatVersion + 1);
    w.put_u32(1);
    w.put_u32(2);
    const std::string name = "x";
    w.put_u32(static_cast<std::uint32_t>(name.size()));
    w.put_bytes(name.data(), name.size());
    w.put_u64(dataset_schema_hash({name}, 2));
    w.put_u64(0);
    w.put_trailer_checksum();
    w.finish();
  }
  EXPECT_THROW(BatchStream stream(path("ver.bin")), ContractViolation);
}

TEST_F(BinaryIoTest, WrongMagicWithHonestChecksumIsRejected) {
  {
    BinWriter w(path("magic.bin"));
    w.put_u64(kDatasetMagic ^ 1);
    w.put_u64(0);
    w.put_trailer_checksum();
    w.finish();
  }
  EXPECT_THROW(BatchStream stream(path("magic.bin")), ContractViolation);
}

TEST_F(BinaryIoTest, SchemaHashMismatchWithHonestChecksumIsRejected) {
  {
    BinWriter w(path("schema.bin"));
    w.put_u64(kDatasetMagic);
    w.put_u32(kDatasetFormatVersion);
    w.put_u32(1);
    w.put_u32(2);
    const std::string name = "x";
    w.put_u32(static_cast<std::uint32_t>(name.size()));
    w.put_bytes(name.data(), name.size());
    w.put_u64(dataset_schema_hash({name}, 2) ^ 0xDEADBEEFULL);  // lies about the schema
    w.put_u64(0);
    w.put_trailer_checksum();
    w.finish();
  }
  EXPECT_THROW(BatchStream stream(path("schema.bin")), ContractViolation);
}

TEST_F(BinaryIoTest, HonestChecksumOutOfRangeLabelIsRejectedAtDecode) {
  // A file whose checksum is honest about bad content: label 7 with only
  // 5 classes. Open succeeds (bytes are consistent); decode must throw.
  {
    BinWriter w(path("badlab.bin"));
    w.put_u64(kDatasetMagic);
    w.put_u32(kDatasetFormatVersion);
    w.put_u32(1);
    w.put_u32(5);
    const std::string name = "x";
    w.put_u32(static_cast<std::uint32_t>(name.size()));
    w.put_bytes(name.data(), name.size());
    w.put_u64(dataset_schema_hash({name}, 5));
    w.put_u64(1);
    w.put_i64(42);
    w.put_i32(7);
    w.put_trailer_checksum();
    w.finish();
  }
  BatchStream stream(path("badlab.bin"));
  Dataset out;
  EXPECT_THROW(stream.next_batch(10, out), ContractViolation);
}

TEST_F(BinaryIoTest, TrailingGarbageAfterChecksumIsRejected) {
  write_binary_dataset(make_dataset(2, 2, 5, 15), path("tail.bin"));
  write_file(path("tail_bad.bin"), read_file(path("tail.bin")) + std::string("zz"));
  EXPECT_THROW(BatchStream stream(path("tail_bad.bin")), ContractViolation);
}

TEST_F(BinaryIoTest, MissingFileThrows) {
  EXPECT_THROW(BatchStream stream(path("does_not_exist.bin")), std::runtime_error);
}

}  // namespace
}  // namespace airch
