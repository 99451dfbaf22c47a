#pragma once
// Compact binary dataset format for paper-scale (multi-million-point)
// runs, replacing CSV where parse cost and file size dominate. Layout
// (all little-endian, common/binio.hpp discipline):
//
//   u64 magic ("AIRDSET1")      u32 format version
//   u32 num_features            u32 num_classes
//   u32 names_bytes             names_bytes of '\n'-joined feature names
//   u64 schema hash             u64 record count
//   count records of: num_features x i64 features, i32 label
//   u64 trailer checksum (FNV-1a over every preceding byte)
//
// Records are fixed-width — (num_features * 8 + 4) bytes — so the payload
// is mmap-friendly: record i lives at a computable offset, and a shard
// merge is a header rewrite plus raw byte concatenation. That is what
// makes K-shard generation byte-identical to a single-process run (the
// shard-merge determinism contract, property-tested in
// tests/test_generator.cpp): identical schema + concatenated records in
// shard order + a recomputed trailer is exactly the file a single writer
// would have produced.
//
// Corrupt inputs (truncation, flipped bytes, wrong version, schema
// mismatch) throw airch::ContractViolation via AIRCH_CHECK — never UB,
// never a silent partial load. BatchStream validates the entire file
// (header, exact payload length, trailer checksum) at open, then serves
// bounded chunks so training can stream shard-by-shard without ever
// materializing the full set (NeuralClassifier::fit_stream).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "dataset/dataset.hpp"

namespace airch {

/// First 8 bytes of every binary dataset file ("AIRDSET1" in LE byte
/// order); exposed so tests can craft wrong-magic / wrong-version
/// fixtures with valid checksums.
inline constexpr std::uint64_t kDatasetMagic = 0x3154455344524941ULL;
/// Bumped whenever the record or header layout changes; readers reject
/// any other version loudly instead of misparsing.
inline constexpr std::uint32_t kDatasetFormatVersion = 1;

/// Schema identity stored in the header: a digest over the feature names
/// and the class count. Two files merge (and a stream is interchangeable
/// with another) only when their schema hashes match.
[[nodiscard]] std::uint64_t dataset_schema_hash(const std::vector<std::string>& feature_names,
                                                int num_classes);

/// Writes the whole dataset to `path` in the format above.
void write_binary_dataset(const Dataset& ds, const std::string& path);

/// Reads a whole file back; the inverse of write_binary_dataset
/// (bit-exact round trip). Validates everything before returning.
[[nodiscard]] Dataset read_binary_dataset(const std::string& path);

/// Streaming reader: validates the entire file at open (header fields,
/// exact payload length, trailer checksum — so corruption surfaces
/// before any batch is served), then re-serves the record region in
/// bounded chunks. One pass = one epoch; reset() rewinds for the next.
class BatchStream {
 public:
  /// Opens and fully validates `path`; throws ContractViolation on any
  /// corruption or format mismatch.
  explicit BatchStream(const std::string& path);

  [[nodiscard]] const std::vector<std::string>& feature_names() const { return feature_names_; }
  [[nodiscard]] int num_features() const { return static_cast<int>(feature_names_.size()); }
  [[nodiscard]] int num_classes() const { return num_classes_; }
  /// Total records in the file (not the number still unserved).
  [[nodiscard]] std::uint64_t size() const { return count_; }

  /// Replaces `out` with a dataset holding the next `max_points` records
  /// (fewer at the tail; metadata always populated). Returns false — with
  /// `out` empty — once every record has been served.
  bool next_batch(std::size_t max_points, Dataset& out);

  /// Rewinds to the first record (e.g. between training epochs).
  void reset();

 private:
  BinReader in_;
  std::string path_;
  std::vector<std::string> feature_names_;
  int num_classes_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t records_start_ = 0;
  std::uint64_t served_ = 0;
};

/// Concatenates shard files (each a complete binary dataset) into one, in
/// the order given. Every shard is fully validated first and all schemas
/// must match; the output is byte-identical to writing the concatenated
/// points directly — the merge half of the shard determinism contract.
void merge_binary_shards(const std::vector<std::string>& shard_paths,
                         const std::string& out_path);

/// CSV -> binary, streaming (two passes over the CSV: count, then copy —
/// memory stays flat). `num_classes` is required because CSV does not
/// carry it; every label is validated against it.
void convert_csv_to_binary(const std::string& csv_path, const std::string& bin_path,
                           int num_classes);

/// Binary -> CSV, streaming. Produces exactly the bytes Dataset::save_csv
/// would (same canonical formatting), so csv -> binary -> csv is a
/// bit-exact round trip for files this repo wrote.
void convert_binary_to_csv(const std::string& bin_path, const std::string& csv_path);

}  // namespace airch
