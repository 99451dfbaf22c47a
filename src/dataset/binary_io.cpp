#include "dataset/binary_io.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/units.hpp"

namespace airch {
namespace {

/// Hard cap on the feature arity a file may declare — far above any case
/// study (case 3 peaks at 12) but low enough that a corrupt count field
/// can never size a pathological allocation before the checksum check.
constexpr std::uint32_t kMaxFeatures = 4096;
/// Class counts fit comfortably in 30 bits (case 3's 1944 is the max).
constexpr std::uint32_t kMaxClasses = 1u << 30;
/// Stream-copy / batch-decode chunk.
constexpr std::size_t kChunk = 1 << 16;

struct HeaderInfo {
  std::vector<std::string> names;
  int num_classes = 0;
  std::uint64_t count = 0;
  std::uint64_t records_start = 0;
  Bytes record_bytes{};
};

/// Fixed per-record width: every feature is 8 bytes LE, the label 4.
Bytes record_width(std::uint32_t num_features) {
  return Bytes{static_cast<std::int64_t>(num_features) * 8 + 4};
}

void write_dataset_header(BinWriter& w, const std::vector<std::string>& names, int num_classes,
                          std::uint64_t count) {
  w.put_u64(kDatasetMagic);
  w.put_u32(kDatasetFormatVersion);
  w.put_u32(static_cast<std::uint32_t>(names.size()));
  w.put_u32(static_cast<std::uint32_t>(num_classes));
  std::string joined;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) joined += '\n';
    joined += names[i];
  }
  w.put_u32(static_cast<std::uint32_t>(joined.size()));
  w.put_bytes(joined.data(), joined.size());
  w.put_u64(dataset_schema_hash(names, num_classes));
  w.put_u64(count);
}

/// Parses and validates the header; on return the reader is positioned at
/// the first record. Every count/length field is bounds-checked against
/// the bytes actually present before it sizes an allocation, and the
/// payload length must match the record count *exactly* — truncation is
/// caught here, not at some later short read.
HeaderInfo read_dataset_header(BinReader& r, const std::string& path) {
  AIRCH_CHECK(r.get_u64() == kDatasetMagic, "not a binary dataset file: " + path);
  const std::uint32_t version = r.get_u32();
  AIRCH_CHECK(version == kDatasetFormatVersion,
              "unsupported binary dataset format version in " + path);
  const std::uint32_t nf = r.get_u32();
  AIRCH_CHECK(nf <= kMaxFeatures, "implausible feature count in " + path);
  const std::uint32_t classes = r.get_u32();
  AIRCH_CHECK(classes >= 1 && classes <= kMaxClasses, "implausible class count in " + path);
  const std::uint32_t names_bytes = r.get_u32();
  AIRCH_CHECK(names_bytes <= r.remaining(), "truncated feature names in " + path);
  std::string joined(names_bytes, '\0');
  r.get_bytes(joined.data(), names_bytes);

  HeaderInfo info;
  info.num_classes = static_cast<int>(classes);
  if (nf > 0) {
    std::size_t start = 0;
    for (std::uint32_t i = 0; i < nf; ++i) {
      const std::size_t sep = i + 1 < nf ? joined.find('\n', start) : joined.size();
      AIRCH_CHECK(sep != std::string::npos && sep > start,
                  "malformed feature names in " + path);
      info.names.push_back(joined.substr(start, sep - start));
      start = sep + 1;
    }
  } else {
    AIRCH_CHECK(names_bytes == 0, "malformed feature names in " + path);
  }
  const std::uint64_t schema = r.get_u64();
  AIRCH_CHECK(schema == dataset_schema_hash(info.names, info.num_classes),
              "schema hash does not match feature names in " + path);
  info.count = r.get_u64();
  info.record_bytes = record_width(nf);
  // Exact-length contract: header + count records + 8-byte trailer.
  // Phrased division-first so a wild count can neither overflow the
  // multiply nor size an allocation.
  const std::uint64_t rem = r.remaining();
  const std::uint64_t rb = static_cast<std::uint64_t>(info.record_bytes.value());
  AIRCH_CHECK(rem >= 8, "truncated file: " + path);
  AIRCH_CHECK((rem - 8) % rb == 0 && info.count == (rem - 8) / rb,
              "record count does not match file size in " + path);
  info.records_start = r.tell();
  return info;
}

}  // namespace

std::uint64_t dataset_schema_hash(const std::vector<std::string>& feature_names,
                                  int num_classes) {
  ByteChecksum sum;
  for (const std::string& name : feature_names) {
    sum.update(reinterpret_cast<const unsigned char*>(name.data()), name.size());
    const unsigned char sep = '\n';
    sum.update(&sep, 1);
  }
  unsigned char classes[4];
  for (int i = 0; i < 4; ++i) {
    classes[i] = static_cast<unsigned char>(
        (static_cast<std::uint32_t>(num_classes) >> (8 * i)) & 0xFFu);
  }
  sum.update(classes, 4);
  return sum.digest();
}

void write_binary_dataset(const Dataset& ds, const std::string& path) {
  BinWriter w(path);
  write_dataset_header(w, ds.feature_names(), ds.num_classes(), ds.size());
  for (const DataPoint& p : ds.points()) {
    for (const std::int64_t f : p.features) w.put_i64(f);
    w.put_i32(p.label);
  }
  w.put_trailer_checksum();
  w.finish();
}

Dataset read_binary_dataset(const std::string& path) {
  BatchStream stream(path);
  Dataset out(stream.feature_names(), stream.num_classes());
  if (stream.size() > 0) {
    const bool got = stream.next_batch(static_cast<std::size_t>(stream.size()), out);
    AIRCH_CHECK(got, "stream served no records despite nonzero count: " + path);
  }
  return out;
}

BatchStream::BatchStream(const std::string& path) : in_(path), path_(path) {
  HeaderInfo info = read_dataset_header(in_, path);
  feature_names_ = std::move(info.names);
  num_classes_ = info.num_classes;
  count_ = info.count;
  records_start_ = info.records_start;
  // Validate the whole payload + trailer up front: corruption anywhere in
  // the file surfaces here, before a single batch is served.
  in_.skip_bytes(count_ * static_cast<std::uint64_t>(info.record_bytes.value()));
  in_.verify_trailer_checksum();
  AIRCH_CHECK(in_.remaining() == 0, "trailing garbage after checksum in " + path);
  in_.seek(records_start_);
}

bool BatchStream::next_batch(std::size_t max_points, Dataset& out) {
  out = Dataset(feature_names_, num_classes_);
  const std::uint64_t left = count_ - served_;
  const std::uint64_t n = std::min<std::uint64_t>(left, max_points);
  if (n == 0) return false;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    DataPoint p;
    p.features.resize(feature_names_.size());
    for (std::int64_t& f : p.features) f = in_.get_i64();
    p.label = in_.get_i32();
    // The checksum was verified at open; this guards hand-crafted files
    // whose checksum is honest about out-of-range content.
    AIRCH_CHECK(p.label >= 0 && p.label < num_classes_, "label out of range in " + path_);
    out.add(std::move(p));
  }
  served_ += n;
  return true;
}

void BatchStream::reset() {
  in_.seek(records_start_);
  served_ = 0;
}

void merge_binary_shards(const std::vector<std::string>& shard_paths,
                         const std::string& out_path) {
  AIRCH_CHECK(!shard_paths.empty(), "merge needs at least one shard");
  // Pass 1: fully validate every shard (BatchStream's open does header +
  // exact length + checksum) and require identical schemas.
  std::vector<std::string> names;
  int num_classes = 0;
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < shard_paths.size(); ++s) {
    const BatchStream stream(shard_paths[s]);
    if (s == 0) {
      names = stream.feature_names();
      num_classes = stream.num_classes();
    } else {
      AIRCH_CHECK(stream.feature_names() == names && stream.num_classes() == num_classes,
                  "shard schema mismatch: " + shard_paths[s]);
    }
    total += stream.size();
  }
  // Pass 2: one header with the summed count, then the shards' record
  // regions byte-for-byte in shard order, then a fresh trailer. The
  // result is exactly what one writer emitting all points would produce.
  BinWriter w(out_path);
  write_dataset_header(w, names, num_classes, total);
  std::vector<unsigned char> buf(kChunk);
  for (const std::string& shard : shard_paths) {
    BinReader r(shard);
    const HeaderInfo info = read_dataset_header(r, shard);
    std::uint64_t left = info.count * static_cast<std::uint64_t>(info.record_bytes.value());
    while (left > 0) {
      const std::size_t step = left < kChunk ? static_cast<std::size_t>(left) : kChunk;
      r.get_bytes(buf.data(), step);
      w.put_bytes(buf.data(), step);
      left -= step;
    }
  }
  w.put_trailer_checksum();
  w.finish();
}

void convert_csv_to_binary(const std::string& csv_path, const std::string& bin_path,
                           int num_classes) {
  AIRCH_CHECK(num_classes >= 1, "num_classes must be positive");
  // Pass 1: header + row count (the binary header needs the count before
  // the first record, and holding 1M parsed rows would defeat streaming).
  std::vector<std::string> names;
  std::uint64_t count = 0;
  {
    CsvReader reader(csv_path);
    names = reader.header();
    AIRCH_CHECK(!names.empty() && names.back() == "label",
                "dataset CSV must end with a 'label' column: " + csv_path);
    names.pop_back();
    std::vector<std::string> cells;
    while (reader.next_row(cells)) ++count;
  }
  // Pass 2: stream rows straight into records.
  CsvReader reader(csv_path);
  BinWriter w(bin_path);
  write_dataset_header(w, names, num_classes, count);
  std::vector<std::string> cells;
  while (reader.next_row(cells)) {
    AIRCH_CHECK(cells.size() == names.size() + 1, "CSV row width mismatch: " + csv_path);
    for (std::size_t i = 0; i < names.size(); ++i) {
      w.put_i64(std::stoll(cells[i]));
    }
    const long label = std::stol(cells.back());
    AIRCH_CHECK(label >= 0 && label < num_classes, "label out of range in " + csv_path);
    w.put_i32(static_cast<std::int32_t>(label));
  }
  w.put_trailer_checksum();
  w.finish();
}

void convert_binary_to_csv(const std::string& bin_path, const std::string& csv_path) {
  BatchStream stream(bin_path);
  CsvWriter writer(csv_path);
  std::vector<std::string> header = stream.feature_names();
  header.push_back("label");
  writer.write_header(header);
  Dataset chunk;
  std::vector<std::int64_t> row;
  while (stream.next_batch(kChunk, chunk)) {
    for (const DataPoint& p : chunk.points()) {
      row = p.features;
      row.push_back(p.label);
      writer.write_row_i64(row);
    }
  }
}

}  // namespace airch
