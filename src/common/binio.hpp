#pragma once
// Checksummed little-endian binary stream primitives, shared by the
// sweep-cache snapshot format (search/sweep_cache), the binary dataset
// format (dataset/binary_io) and the recommender model file
// (core/recommender, with sections from models/neural and
// dataset/encoding). All three formats follow the same discipline:
//
//   header (magic, format version, identity fields, counts)
//   payload (fixed-width little-endian records)
//   trailer (64-bit checksum over every byte written before it)
//
// The writer folds the stream into a running word-folded FNV digest as it
// goes; put_trailer_checksum() appends the digest. The reader recomputes
// the digest over every byte it consumes; verify_trailer_checksum() reads
// the stored digest and compares. The stream is consumed as little-endian
// 64-bit words (a trailing partial word is zero-extended, and the total
// byte length is folded in last); each step h' = (h ^ w) * prime is a
// bijection of the running state for a fixed word and injective in the
// word for a fixed state, so ANY single-byte substitution anywhere in the
// stream changes the final digest — the property the corrupt-input tests
// (flip every byte, expect a throw) rely on. Word folding matters for
// throughput: the xor-multiply chain is serial, so folding 8 bytes per
// multiply is ~8x the bandwidth of the byte-at-a-time classic — it is
// what keeps the checksum off the critical path of multi-million-point
// dataset writes.
//
// Corruption — truncation, a failed bounds check, a checksum mismatch —
// always surfaces as a thrown airch::ContractViolation (AIRCH_CHECK),
// never as UB or a silently short read. Callers that must not observe a
// partial load (cache snapshot restore) stage the decoded payload and
// apply it only after verify_trailer_checksum() passes.
//
// Encoding is explicit little-endian (byte shifts, not memcpy), so files
// are portable across hosts; doubles travel as their IEEE-754 bit
// pattern, which keeps round-trips bit-exact.

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace airch {

/// Running 64-bit word-folded FNV digest over a byte stream. The digest
/// depends only on the byte sequence, never on how update() calls chunk
/// it: partial words are buffered until 8 bytes accumulate, and digest()
/// folds any still-pending tail (zero-extended) plus the total length
/// without disturbing the running state.
class ByteChecksum {
 public:
  void update(const unsigned char* data, std::size_t n) {
    len_ += n;
    if (npend_ > 0) {
      while (npend_ < 8 && n > 0) {
        pend_[npend_++] = *data++;
        --n;
      }
      if (npend_ < 8) return;
      h_ = fold(h_, load_le(pend_));
      npend_ = 0;
    }
    std::uint64_t h = h_;
    for (; n >= 8; data += 8, n -= 8) {
      h = fold(h, load_le(data));
    }
    h_ = h;
    while (n > 0) {
      pend_[npend_++] = *data++;
      --n;
    }
  }
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = h_;
    if (npend_ > 0) {
      std::uint64_t w = 0;
      for (int i = 0; i < npend_; ++i) {
        w |= static_cast<std::uint64_t>(pend_[i]) << (8 * i);
      }
      h = fold(h, w);
    }
    // Folding the length last distinguishes a genuine trailing zero byte
    // from no byte at all (both leave w's top lanes zero).
    return fold(h, len_);
  }

 private:
  static std::uint64_t fold(std::uint64_t h, std::uint64_t w) { return (h ^ w) * 0x100000001B3ULL; }
  static std::uint64_t load_le(const unsigned char* p) {
    std::uint64_t w = 0;
    for (int i = 0; i < 8; ++i) {
      w |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return w;
  }

  std::uint64_t h_ = 0xCBF29CE484222325ULL;
  std::uint64_t len_ = 0;
  unsigned char pend_[8] = {};
  int npend_ = 0;
};

/// Size of the one buffer every BinWriter and BinReader owns: scalar
/// put/get calls copy into or out of it, and the file is written and read
/// in chunks of at most this many bytes.
inline constexpr std::size_t kBinIoBufferBytes = std::size_t{1} << 16;

/// Buffered little-endian writer with a running checksum.
/// Throws std::runtime_error if the file cannot be opened; finish()
/// (also run by the destructor) flushes the buffer and AIRCH_CHECKs that
/// every write reached the stream, so a full disk cannot produce a
/// silently short file.
class BinWriter {
 public:
  explicit BinWriter(const std::string& path);
  ~BinWriter();
  BinWriter(const BinWriter&) = delete;
  BinWriter& operator=(const BinWriter&) = delete;

  void put_u32(std::uint32_t v) { put_le(v, 4); }
  void put_u64(std::uint64_t v) { put_le(v, 8); }
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern; round-trips bit-exactly through get_f64().
  void put_f64(double v);
  void put_bytes(const void* data, std::size_t n);

  /// Appends the digest over every byte written so far as the
  /// (non-self-folded) trailer.
  void put_trailer_checksum();

  /// Flushes and verifies the stream; safe to call more than once.
  void finish();

 private:
  /// Appends the low `bytes` bytes of v, least significant first. Inline
  /// so per-field writes compile to a few stores. Flushing early leaves
  /// the file and its checksum unchanged: the digest does not depend on
  /// how the byte stream is chunked.
  void put_le(std::uint64_t v, int bytes) {
    if (buf_.size() - used_ < 8) flush_buffer();
    unsigned char* out = buf_.data() + used_;
    for (int i = 0; i < bytes; ++i) {
      out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xFFu);
    }
    used_ += static_cast<std::size_t>(bytes);
  }
  /// Folds the buffered bytes into the checksum and hands them to the file.
  void flush_buffer();

  std::ofstream out_;
  std::string path_;
  ByteChecksum sum_;  // every byte already handed to out_
  std::vector<unsigned char> buf_ = std::vector<unsigned char>(kBinIoBufferBytes);
  std::size_t used_ = 0;  // bytes of buf_ not yet handed to out_
  bool finished_ = false;
};

/// Buffered little-endian reader with a running checksum and hard
/// truncation checks: every get_* AIRCH_CHECKs that the requested bytes
/// exist. The checksum covers exactly the bytes consumed, never the
/// read-ahead still in the buffer.
class BinReader {
 public:
  explicit BinReader(const std::string& path);

  [[nodiscard]] std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_le(4)); }
  [[nodiscard]] std::uint64_t get_u64() { return get_le(8); }
  [[nodiscard]] std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  [[nodiscard]] std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  [[nodiscard]] double get_f64();
  /// Reads a u64 count of records of at least `min_record_bytes` each and
  /// AIRCH_CHECKs that they fit in remaining(), so the count can size an
  /// allocation without trusting the file.
  [[nodiscard]] std::uint64_t get_count(std::uint64_t min_record_bytes);
  void get_bytes(void* out, std::size_t n);
  /// Consumes `n` bytes (folding them into the checksum) without storing.
  void skip_bytes(std::uint64_t n);

  /// Digest over every byte consumed since construction or the last seek().
  [[nodiscard]] std::uint64_t checksum() const;

  /// Reads the trailer digest and AIRCH_CHECKs it equals the running one.
  void verify_trailer_checksum();

  [[nodiscard]] std::uint64_t tell() const { return pos_; }
  /// Bytes between the cursor and end-of-file — the bound every count or
  /// length field read from the stream must be validated against before
  /// any allocation sized from it.
  [[nodiscard]] std::uint64_t remaining() const { return size_ - pos_; }

  /// Repositions the cursor (absolute), discards the buffer and resets
  /// the running checksum — used by streaming readers that validate the
  /// whole file once and then re-serve regions of it.
  void seek(std::uint64_t pos);

 private:
  /// Reads `bytes` bytes as a little-endian integer.
  std::uint64_t get_le(int bytes);
  /// Copies (or, with out == nullptr, drops) the next n bytes.
  void consume(unsigned char* out, std::uint64_t n);
  /// Folds the consumed buffer into the checksum and reads the next one.
  void refill();

  std::ifstream in_;
  std::string path_;
  ByteChecksum sum_;  // every consumed byte before buf_[0]
  std::vector<unsigned char> buf_ = std::vector<unsigned char>(kBinIoBufferBytes);
  std::size_t head_ = 0;  // next unconsumed byte of buf_
  std::size_t fill_ = 0;  // valid bytes in buf_; the file cursor sits at pos_ + fill_ - head_
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
};

}  // namespace airch
