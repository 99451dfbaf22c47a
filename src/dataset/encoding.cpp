#include "dataset/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/binio.hpp"
#include "common/check.hpp"

namespace airch {

std::int32_t FeatureEncoder::Column::bucket_of(std::int64_t v) const {
  std::int32_t bucket = 0;
  if (exact) {
    // Unseen values map to the nearest known value's bucket.
    auto it = value_to_index.lower_bound(v);
    if (it == value_to_index.end()) {
      bucket = std::prev(it)->second;
    } else if (it->first == v || it == value_to_index.begin()) {
      bucket = it->second;
    } else {
      auto prev = std::prev(it);
      bucket = (v - prev->first <= it->first - v) ? prev->second : it->second;
    }
  } else {
    const auto it = std::lower_bound(boundaries.begin(), boundaries.end(), v);
    bucket = static_cast<std::int32_t>(it - boundaries.begin());
  }
  // Embedding tables are sized from vocab(); an out-of-range bucket would
  // index past the table.
  AIRCH_DCHECK(bucket >= 0 && bucket < vocab(), "bucket outside embedding vocab range");
  return bucket;
}

int FeatureEncoder::Column::vocab() const {
  return exact ? static_cast<int>(value_to_index.size())
               : static_cast<int>(boundaries.size()) + 1;
}

float FeatureEncoder::Column::standardize(std::int64_t v) const {
  const double z = (std::log1p(static_cast<double>(std::max<std::int64_t>(v, 0))) - mean) / stddev;
  return static_cast<float>(z);
}

FeatureEncoder::FeatureEncoder(const Dataset& train, int max_vocab) {
  if (train.empty()) throw std::invalid_argument("cannot fit encoder on empty dataset");
  if (max_vocab < 2) throw std::invalid_argument("max_vocab must be >= 2");
  const int nf = train.num_features();
  columns_.resize(static_cast<std::size_t>(nf));

  std::vector<std::int64_t> values(train.size());
  for (int col = 0; col < nf; ++col) {
    Column& c = columns_[static_cast<std::size_t>(col)];
    for (std::size_t i = 0; i < train.size(); ++i) {
      values[i] = train[i].features[static_cast<std::size_t>(col)];
    }

    // Float statistics in log1p space.
    double sum = 0.0;
    for (auto v : values) sum += std::log1p(static_cast<double>(std::max<std::int64_t>(v, 0)));
    c.mean = sum / static_cast<double>(values.size());
    double var = 0.0;
    for (auto v : values) {
      const double d = std::log1p(static_cast<double>(std::max<std::int64_t>(v, 0))) - c.mean;
      var += d * d;
    }
    c.stddev = std::sqrt(var / static_cast<double>(values.size()));
    if (c.stddev < 1e-9) c.stddev = 1.0;  // constant column

    // Bucket vocabulary.
    std::vector<std::int64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::int64_t> unique = sorted;
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    if (static_cast<int>(unique.size()) <= max_vocab) {
      c.exact = true;
      for (std::size_t i = 0; i < unique.size(); ++i) {
        c.value_to_index[unique[i]] = static_cast<std::int32_t>(i);
      }
    } else {
      // Rank-quantile boundaries: max_vocab-1 cuts -> max_vocab buckets.
      c.exact = false;
      for (int q = 1; q < max_vocab; ++q) {
        const auto rank = static_cast<std::size_t>(
            static_cast<double>(q) / max_vocab * static_cast<double>(sorted.size()));
        c.boundaries.push_back(sorted[std::min(rank, sorted.size() - 1)]);
      }
      c.boundaries.erase(std::unique(c.boundaries.begin(), c.boundaries.end()),
                         c.boundaries.end());
    }
  }
}

std::vector<int> FeatureEncoder::vocab_sizes() const {
  std::vector<int> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c.vocab());
  return out;
}

std::int32_t FeatureEncoder::bucket(int col, std::int64_t value) const {
  AIRCH_DCHECK(col >= 0 && static_cast<std::size_t>(col) < columns_.size(),
               "feature column index out of range");
  return columns_[static_cast<std::size_t>(col)].bucket_of(value);
}

ml::IntBatch FeatureEncoder::encode_int(const Dataset& ds, std::size_t begin,
                                        std::size_t end) const {
  if (ds.num_features() != num_features()) throw std::invalid_argument("feature arity mismatch");
  ml::IntBatch out;
  out.resize(end - begin, columns_.size());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(i - begin, f) = columns_[f].bucket_of(ds[i].features[f]);
    }
  }
  return out;
}

ml::Matrix FeatureEncoder::encode_float(const Dataset& ds, std::size_t begin,
                                        std::size_t end) const {
  if (ds.num_features() != num_features()) throw std::invalid_argument("feature arity mismatch");
  ml::Matrix out(end - begin, columns_.size());
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(i - begin, f) = columns_[f].standardize(ds[i].features[f]);
    }
  }
  return out;
}

ml::IntBatch FeatureEncoder::encode_int_gather(const Dataset& ds,
                                               const std::vector<std::size_t>& idx,
                                               std::size_t begin, std::size_t end) const {
  ml::IntBatch out;
  encode_int_gather_into(ds, idx, begin, end, out);
  return out;
}

ml::Matrix FeatureEncoder::encode_float_gather(const Dataset& ds,
                                               const std::vector<std::size_t>& idx,
                                               std::size_t begin, std::size_t end) const {
  ml::Matrix out;
  encode_float_gather_into(ds, idx, begin, end, out);
  return out;
}

void FeatureEncoder::encode_int_gather_into(const Dataset& ds,
                                            const std::vector<std::size_t>& idx,
                                            std::size_t begin, std::size_t end,
                                            ml::IntBatch& out) const {
  out.resize(end - begin, columns_.size());
  for (std::size_t i = begin; i < end; ++i) {
    const auto& p = ds[idx[i]];
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(i - begin, f) = columns_[f].bucket_of(p.features[f]);
    }
  }
}

void FeatureEncoder::encode_float_gather_into(const Dataset& ds,
                                              const std::vector<std::size_t>& idx,
                                              std::size_t begin, std::size_t end,
                                              ml::Matrix& out) const {
  out.resize(end - begin, columns_.size());
  for (std::size_t i = begin; i < end; ++i) {
    const auto& p = ds[idx[i]];
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(i - begin, f) = columns_[f].standardize(p.features[f]);
    }
  }
}

ml::IntBatch FeatureEncoder::encode_int(const std::vector<std::int64_t>& features) const {
  if (features.size() != columns_.size()) throw std::invalid_argument("feature arity mismatch");
  ml::IntBatch out;
  out.resize(1, columns_.size());
  for (std::size_t f = 0; f < columns_.size(); ++f) out(0, f) = columns_[f].bucket_of(features[f]);
  return out;
}

ml::Matrix FeatureEncoder::encode_float(const std::vector<std::int64_t>& features) const {
  if (features.size() != columns_.size()) throw std::invalid_argument("feature arity mismatch");
  ml::Matrix out(1, columns_.size());
  for (std::size_t f = 0; f < columns_.size(); ++f) {
    out(0, f) = columns_[f].standardize(features[f]);
  }
  return out;
}

ml::IntBatch FeatureEncoder::encode_int_batch(
    const std::vector<std::vector<std::int64_t>>& queries) const {
  ml::IntBatch out;
  out.resize(queries.size(), columns_.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].size() != columns_.size())
      throw std::invalid_argument("feature arity mismatch");
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(q, f) = columns_[f].bucket_of(queries[q][f]);
    }
  }
  return out;
}

ml::Matrix FeatureEncoder::encode_float_batch(
    const std::vector<std::vector<std::int64_t>>& queries) const {
  ml::Matrix out(queries.size(), columns_.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].size() != columns_.size())
      throw std::invalid_argument("feature arity mismatch");
    for (std::size_t f = 0; f < columns_.size(); ++f) {
      out(q, f) = columns_[f].standardize(queries[q][f]);
    }
  }
  return out;
}

void FeatureEncoder::save(BinWriter& out) const {
  out.put_u64(columns_.size());
  for (const auto& c : columns_) {
    out.put_u32(c.exact ? 1 : 0);
    out.put_f64(c.mean);
    out.put_f64(c.stddev);
    if (c.exact) {
      out.put_u64(c.value_to_index.size());
      for (const auto& [v, idx] : c.value_to_index) {
        out.put_i64(v);
        out.put_i32(idx);
      }
    } else {
      out.put_u64(c.boundaries.size());
      for (const auto b : c.boundaries) out.put_i64(b);
    }
  }
}

FeatureEncoder FeatureEncoder::load(BinReader& in) {
  // Smallest encodings: a column is kind + mean + stddev + count (28
  // bytes), an exact entry is value + index (12), a boundary is 8.
  FeatureEncoder enc;
  enc.columns_.resize(in.get_count(28));
  for (auto& c : enc.columns_) {
    const std::uint32_t kind = in.get_u32();
    AIRCH_CHECK(kind <= 1, "encoder: unknown column kind");
    c.exact = kind == 1;
    c.mean = in.get_f64();
    c.stddev = in.get_f64();
    if (c.exact) {
      const std::uint64_t n = in.get_count(12);
      AIRCH_CHECK(n >= 1, "encoder: exact column without values");
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::int64_t v = in.get_i64();
        const std::int32_t idx = in.get_i32();
        AIRCH_CHECK(c.value_to_index.empty() || v > c.value_to_index.rbegin()->first,
                    "encoder: exact values not strictly increasing");
        AIRCH_CHECK(idx >= 0 && static_cast<std::uint64_t>(idx) < n,
                    "encoder: bucket index outside the column's vocab");
        c.value_to_index.emplace_hint(c.value_to_index.end(), v, idx);
      }
    } else {
      c.boundaries.resize(in.get_count(8));
      for (auto& b : c.boundaries) b = in.get_i64();
      AIRCH_CHECK(std::is_sorted(c.boundaries.begin(), c.boundaries.end()),
                  "encoder: quantile boundaries not sorted");
    }
  }
  return enc;
}

}  // namespace airch
