#include "util/bitio.h"

#include <bit>
#include <cstring>

namespace qosctrl::util {
namespace {

std::uint64_t to_big_endian(std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    return __builtin_bswap64(w);
  }
  return w;
}

}  // namespace

void BitWriter::spill(std::uint64_t value, int count) {
  const int rest = count - (64 - pending_);  // in [0, 63]
  const std::uint64_t full =
      (pending_ == 0 ? 0 : acc_ << (64 - pending_)) | (value >> rest);
  const std::size_t at = bytes_.size();
  bytes_.resize(at + 8);
  const std::uint64_t be = to_big_endian(full);
  std::memcpy(bytes_.data() + at, &be, 8);
  acc_ = rest == 0 ? 0 : value & (~std::uint64_t{0} >> (64 - rest));
  pending_ = rest;
}

std::vector<std::uint8_t> BitWriter::finish() {
  for (; pending_ >= 8; pending_ -= 8) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ >> (pending_ - 8)));
  }
  if (pending_ > 0) {
    bytes_.push_back(static_cast<std::uint8_t>(acc_ << (8 - pending_)));
  }
  std::vector<std::uint8_t> out = std::move(bytes_);
  *this = BitWriter();
  return out;
}

std::uint64_t BitReader::peek_bits(int count) const {
  QC_EXPECT(count >= 0 && count <= 64, "bit count must be in [0, 64]");
  if (count == 0) return 0;
  // An 8-byte window from the byte holding the next bit, zero-filled
  // past the end; a field that starts mid-byte and spans more than the
  // window's remaining 64 - skip bits takes its tail from a ninth byte.
  const std::size_t size = bytes_.size();
  const std::uint64_t first = static_cast<std::uint64_t>(pos_ >> 3);
  const int skip = static_cast<int>(pos_ & 7);
  const auto byte_at = [&](std::uint64_t i) -> std::uint64_t {
    return i < size ? bytes_[static_cast<std::size_t>(i)] : 0;
  };
  std::uint64_t window = 0;
  if (first + 8 <= size) {
    std::memcpy(&window, bytes_.data() + first, 8);
    window = to_big_endian(window);
  } else {
    for (std::uint64_t i = first; i < first + 8; ++i) {
      window = (window << 8) | byte_at(i);
    }
  }
  std::uint64_t v = (window << skip) >> (64 - count);
  const int tail = count + skip - 64;
  if (tail > 0) v |= byte_at(first + 8) >> (8 - tail);
  return v;
}

std::uint64_t BitReader::get_bits(int count) {
  const std::uint64_t v = peek_bits(count);
  if (count > bits_left()) overrun_ = true;
  pos_ += count;
  return v;
}

}  // namespace qosctrl::util
