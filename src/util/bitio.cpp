#include "util/bitio.h"

#include <bit>
#include <cstring>

namespace qosctrl::util {
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

std::uint64_t BitReader::peek_near_end(int count) const {
  // The 8-byte window from the byte holding the next bit, assembled
  // byte by byte and zero-filled past the end; the ninth byte a field
  // starting mid-byte could reach lies past the end too.
  const std::size_t size = bytes_.size();
  const std::uint64_t first = static_cast<std::uint64_t>(pos_ >> 3);
  std::uint64_t window = 0;
  for (std::uint64_t i = first; i < first + 8; ++i) {
    window = (window << 8) |
             (i < size ? bytes_[static_cast<std::size_t>(i)] : 0);
  }
  return (window << (pos_ & 7)) >> (64 - count);
}

std::uint64_t BitReader::get_bits(int count) {
  const std::uint64_t v = peek_bits(count);
  skip_bits(count);
  return v;
}

}  // namespace qosctrl::util
