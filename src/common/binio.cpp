#include "common/binio.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "common/check.hpp"

namespace airch {

// Scalar put/get paths encode through explicit shifts so the file format
// is little-endian regardless of host order.

BinWriter::BinWriter(const std::string& path) : path_(path) {
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_.is_open()) {
    throw std::runtime_error("BinWriter: cannot open for writing: " + path);
  }
}

BinWriter::~BinWriter() {
  // A writer abandoned by an in-flight exception must not mask it; only
  // verify the stream when unwinding is not already in progress.
  if (std::uncaught_exceptions() == 0) {
    finish();
  }
}

void BinWriter::put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }

void BinWriter::put_bytes(const void* data, std::size_t n) {
  const auto* src = static_cast<const unsigned char*>(data);
  while (n > 0) {
    if (used_ == buf_.size()) flush_buffer();
    const std::size_t step = std::min(n, buf_.size() - used_);
    std::memcpy(buf_.data() + used_, src, step);
    used_ += step;
    src += step;
    n -= step;
  }
}

void BinWriter::flush_buffer() {
  sum_.update(buf_.data(), used_);
  out_.write(reinterpret_cast<const char*>(buf_.data()), static_cast<std::streamsize>(used_));
  used_ = 0;
}

void BinWriter::put_trailer_checksum() {
  // The digest is captured before the write so the trailer is not folded
  // into itself; readers compare against the digest over header+payload.
  ByteChecksum sum = sum_;
  sum.update(buf_.data(), used_);
  put_u64(sum.digest());
}

void BinWriter::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  flush_buffer();
  out_.flush();
  AIRCH_CHECK(out_.good(), "BinWriter: write failed (disk full?): " + path_);
  out_.close();
}

BinReader::BinReader(const std::string& path) : path_(path) {
  in_.open(path, std::ios::binary);
  if (!in_.is_open()) {
    throw std::runtime_error("BinReader: cannot open for reading: " + path);
  }
  in_.seekg(0, std::ios::end);
  const std::streamoff end = in_.tellg();
  AIRCH_CHECK(end >= 0, "BinReader: cannot determine size of " + path);
  size_ = static_cast<std::uint64_t>(end);
  in_.seekg(0, std::ios::beg);
}

std::uint64_t BinReader::get_le(int bytes) {
  const auto n = static_cast<std::size_t>(bytes);
  unsigned char b[8];
  const unsigned char* in = buf_.data() + head_;
  if (fill_ - head_ >= n) {  // already buffered, so present in the file
    head_ += n;
    pos_ += n;
  } else {
    consume(b, n);
    in = b;
  }
  std::uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

double BinReader::get_f64() { return std::bit_cast<double>(get_u64()); }

std::uint64_t BinReader::get_count(std::uint64_t min_record_bytes) {
  const std::uint64_t n = get_u64();
  AIRCH_CHECK(n <= remaining() / min_record_bytes,
              "BinReader: record count exceeds the file size (corrupt file): " + path_);
  return n;
}

void BinReader::get_bytes(void* out, std::size_t n) { consume(static_cast<unsigned char*>(out), n); }

void BinReader::skip_bytes(std::uint64_t n) { consume(nullptr, n); }

void BinReader::consume(unsigned char* out, std::uint64_t n) {
  AIRCH_CHECK(n <= remaining(), "BinReader: truncated file (short read) in " + path_);
  while (n > 0) {
    if (head_ == fill_) refill();
    const auto step = static_cast<std::size_t>(std::min<std::uint64_t>(n, fill_ - head_));
    if (out != nullptr) {
      std::memcpy(out, buf_.data() + head_, step);
      out += step;
    }
    head_ += step;
    pos_ += step;
    n -= step;
  }
}

void BinReader::refill() {
  sum_.update(buf_.data(), head_);
  // Every buffered byte is consumed, so the file cursor sits at pos_.
  const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(buf_.size(), remaining()));
  in_.read(reinterpret_cast<char*>(buf_.data()), static_cast<std::streamsize>(want));
  AIRCH_CHECK(in_.gcount() == static_cast<std::streamsize>(want),
              "BinReader: read failed in " + path_);
  head_ = 0;
  fill_ = want;
}

std::uint64_t BinReader::checksum() const {
  ByteChecksum sum = sum_;
  sum.update(buf_.data(), head_);
  return sum.digest();
}

void BinReader::verify_trailer_checksum() {
  const std::uint64_t expected = checksum();
  const std::uint64_t stored = get_u64();
  AIRCH_CHECK(stored == expected, "BinReader: checksum mismatch (corrupt file): " + path_);
}

void BinReader::seek(std::uint64_t pos) {
  AIRCH_CHECK(pos <= size_, "BinReader: seek past end of " + path_);
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(pos), std::ios::beg);
  AIRCH_CHECK(in_.good(), "BinReader: seek failed in " + path_);
  pos_ = pos;
  head_ = 0;
  fill_ = 0;
  sum_ = ByteChecksum();
}

}  // namespace airch
