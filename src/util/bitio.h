// Bit-level writer/reader used by the entropy coder.
//
// BitWriter packs bits MSB-first into a byte buffer; BitReader replays
// them.  The encoder substrate needs exact bit accounting (the rate
// controller steers on it), and the coder sits on every frame's hot
// path, so both move bits a word at a time: the writer collects up to
// 64 bits in an accumulator and flushes whole bytes, the reader
// extracts any 0..64-bit field from an 8-byte window.  The bytes are
// the same as a bit-by-bit implementation's (tests/util/bitio_test.cpp
// checks both against a bit-serial reference).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "util/check.h"

namespace qosctrl::util {

/// A native 64-bit load as the big-endian (MSB-first) word.
inline std::uint64_t to_big_endian(std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(w);
  }
  return w;
}

/// MSB-first bit sink.
class BitWriter {
 public:
  /// Appends the `count` low bits of `value`, most significant first.
  /// Requires 0 <= count <= 64.
  void put_bits(std::uint64_t value, int count) {
    QC_EXPECT(count >= 0 && count <= 64, "bit count must be in [0, 64]");
    if (count == 0) return;
    bit_count_ += count;
    value &= ~std::uint64_t{0} >> (64 - count);
    if (count < 64 - pending_) {
      acc_ = (acc_ << count) | value;
      pending_ += count;
      return;
    }
    spill(value, count);
  }

  /// Appends a single bit.
  void put_bit(bool bit) { put_bits(bit ? 1 : 0, 1); }

  /// Number of bits written so far.
  std::int64_t bit_count() const { return bit_count_; }

  /// Pads with zero bits to a byte boundary and moves the buffer out;
  /// the writer is left empty, as if newly constructed.
  std::vector<std::uint8_t> finish();

 private:
  /// put_bits() when `count` bits do not fit next to the pending ones:
  /// fills the accumulator, flushes its 8 bytes and keeps the rest.
  void spill(std::uint64_t value, int count);

  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;  ///< the pending bits, right-aligned
  int pending_ = 0;        ///< number of pending bits, in [0, 63]
  std::int64_t bit_count_ = 0;
};

/// MSB-first bit source over a byte buffer.
class BitReader {
 public:
  explicit BitReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}

  /// Reads `count` bits (MSB first), 0 <= count <= 64.  Bits past the
  /// end read as zero and set overrun(); the position still advances.
  std::uint64_t get_bits(int count);

  bool get_bit() { return get_bits(1) != 0; }

  /// Advances past `count` >= 0 bits exactly as get_bits(count) would
  /// (overrun() included), without reading them.
  void skip_bits(std::int64_t count) {
    if (count > bits_left()) overrun_ = true;
    pos_ += count;
  }

  /// The next `count` bits (0 <= count <= 64) without consuming them;
  /// bits past the end read as zero.
  std::uint64_t peek_bits(int count) const {
    QC_EXPECT(count >= 0 && count <= 64, "bit count must be in [0, 64]");
    if (count == 0) return 0;
    // Away from the end: an 8-byte window from the byte holding the
    // next bit, plus a ninth byte for a field that starts mid-byte and
    // spans more than the window's remaining 64 - skip bits.
    const std::uint64_t first = static_cast<std::uint64_t>(pos_ >> 3);
    if (first + 9 > bytes_.size()) return peek_near_end(count);
    std::uint64_t window;
    std::memcpy(&window, bytes_.data() + first, 8);
    const int skip = static_cast<int>(pos_ & 7);
    std::uint64_t v = (to_big_endian(window) << skip) >> (64 - count);
    const int tail = count + skip - 64;
    if (tail > 0) v |= std::uint64_t{bytes_[first + 8]} >> (8 - tail);
    return v;
  }

  /// Bits left before the end of the buffer (0 once past it).
  std::int64_t bits_left() const {
    const std::int64_t size = static_cast<std::int64_t>(bytes_.size()) * 8;
    return pos_ < size ? size - pos_ : 0;
  }

  std::int64_t bits_consumed() const { return pos_; }
  bool overrun() const { return overrun_; }

 private:
  /// peek_bits() within 9 bytes of the end (or past it).
  std::uint64_t peek_near_end(int count) const;

  const std::vector<std::uint8_t>& bytes_;
  std::int64_t pos_ = 0;
  bool overrun_ = false;
};

}  // namespace qosctrl::util
