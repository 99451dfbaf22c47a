#pragma once
// Feature encoding bridging integer design-space features and the two
// classifier input modalities:
//
//  * bucket indices for the embedding front-end (AIRCHITECT) — each
//    column gets a vocabulary of at most `max_vocab` buckets, built from
//    the training data: an exact value->index map when the column has few
//    distinct values (dataflow ids, budget exponents), otherwise
//    rank-quantile boundaries over the observed values (GEMM dims);
//  * standardized floats for MLP / SVC baselines — per-column
//    z = (log1p(v) - mean) / std, the usual transform for dimensions
//    spanning orders of magnitude.
//
// Encoders are fitted on training data only and applied unchanged to
// validation/test, as in any honest ML evaluation.

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "dataset/dataset.hpp"
#include "ml/embedding.hpp"
#include "ml/matrix.hpp"

namespace airch {

class BinReader;
class BinWriter;

class FeatureEncoder {
 public:
  /// Fits per-column vocabularies and float statistics on `train`.
  explicit FeatureEncoder(const Dataset& train, int max_vocab = 64);

  int num_features() const { return static_cast<int>(columns_.size()); }

  /// Bucket vocabulary sizes, one per feature (embedding table sizes).
  std::vector<int> vocab_sizes() const;

  /// Bucket index of a raw value in column `col`.
  std::int32_t bucket(int col, std::int64_t value) const;

  /// Encodes points [begin, end) of `ds` as bucket indices.
  ml::IntBatch encode_int(const Dataset& ds, std::size_t begin, std::size_t end) const;

  /// Encodes points [begin, end) of `ds` as standardized floats.
  ml::Matrix encode_float(const Dataset& ds, std::size_t begin, std::size_t end) const;

  /// Gather variants: encode ds[idx[begin..end)] (shuffled mini-batches).
  ml::IntBatch encode_int_gather(const Dataset& ds, const std::vector<std::size_t>& idx,
                                 std::size_t begin, std::size_t end) const;
  ml::Matrix encode_float_gather(const Dataset& ds, const std::vector<std::size_t>& idx,
                                 std::size_t begin, std::size_t end) const;

  /// In-place gather variants for hot loops: `out` is resized (a no-op
  /// re-zeroing when the shape already matches) and filled, so a training
  /// loop that reuses one buffer per epoch allocates nothing after the
  /// first batch.
  void encode_int_gather_into(const Dataset& ds, const std::vector<std::size_t>& idx,
                              std::size_t begin, std::size_t end, ml::IntBatch& out) const;
  void encode_float_gather_into(const Dataset& ds, const std::vector<std::size_t>& idx,
                                std::size_t begin, std::size_t end, ml::Matrix& out) const;

  /// Single-point variants (inference path).
  ml::IntBatch encode_int(const std::vector<std::int64_t>& features) const;
  ml::Matrix encode_float(const std::vector<std::int64_t>& features) const;

  /// Batched query variants (serving path): one packed batch for N
  /// feature vectors, so the whole batch flows through a single forward
  /// pass instead of N single-row ones.
  ml::IntBatch encode_int_batch(const std::vector<std::vector<std::int64_t>>& queries) const;
  ml::Matrix encode_float_batch(const std::vector<std::vector<std::int64_t>>& queries) const;

  /// Binary section of a recommender model file (Recommender::save/load):
  /// per column the kind, mean and stddev (IEEE-754 bit patterns), then the
  /// exact value->index map or the quantile boundaries. load() checks every
  /// count against the bytes left in the file and rejects maps and
  /// boundaries bucket_of() could not search; corruption and truncation
  /// throw ContractViolation.
  void save(BinWriter& out) const;
  static FeatureEncoder load(BinReader& in);

 private:
  FeatureEncoder() = default;  // for load()
  struct Column {
    // Exact mode: value -> index. Quantile mode: sorted upper boundaries,
    // bucket = index of first boundary >= value.
    bool exact = false;
    std::map<std::int64_t, std::int32_t> value_to_index;
    std::vector<std::int64_t> boundaries;
    double mean = 0.0;
    double stddev = 1.0;

    std::int32_t bucket_of(std::int64_t v) const;
    int vocab() const;
    float standardize(std::int64_t v) const;
  };

  std::vector<Column> columns_;
};

}  // namespace airch
