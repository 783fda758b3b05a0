#include "media/entropy.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace qosctrl::media {

const std::array<int, 64>& zigzag_order() {
  static const std::array<int, 64> order = [] {
    std::array<int, 64> o{};
    int idx = 0;
    for (int s = 0; s < 15; ++s) {  // anti-diagonals
      if (s % 2 == 0) {  // up-right
        for (int y = std::min(s, 7); y >= 0 && s - y <= 7; --y) {
          o[static_cast<std::size_t>(idx++)] = y * 8 + (s - y);
        }
      } else {  // down-left
        for (int x = std::min(s, 7); x >= 0 && s - x <= 7; --x) {
          o[static_cast<std::size_t>(idx++)] = (s - x) * 8 + x;
        }
      }
    }
    return o;
  }();
  return order;
}

void put_ue(util::BitWriter& bw, std::uint32_t v) {
  // Code number v -> (v+1) written with leading zeros: one field of
  // 2 * width - 1 bits whose top width - 1 bits are zero.  Only
  // v = 2^32 - 1 needs 65 bits; its first zero goes out on its own.
  const std::uint64_t code = static_cast<std::uint64_t>(v) + 1;
  const int len = 2 * std::bit_width(code) - 1;
  if (len > 64) bw.put_bits(0, len - 64);
  bw.put_bits(code, std::min(len, 64));
}

std::uint32_t get_ue(util::BitReader& br) {
  // A valid code has at most 32 leading zeros.  A 33rd zero, or the
  // first bit past the end, marks a malformed stream: it decodes as 0
  // after consuming exactly the bits a bit-by-bit scan would have
  // read up to and including that bit.
  const std::uint64_t window = br.peek_bits(33);
  if (window == 0) {
    br.get_bits(
        static_cast<int>(std::min<std::int64_t>(br.bits_left() + 1, 33)));
    return 0;
  }
  const int zeros = 33 - std::bit_width(window);
  br.get_bits(zeros + 1);
  const std::uint64_t code = (std::uint64_t{1} << zeros) | br.get_bits(zeros);
  return static_cast<std::uint32_t>(code - 1);
}

void put_se(util::BitWriter& bw, std::int32_t v) {
  // 0 -> 0, 1 -> 1, -1 -> 2, 2 -> 3, -2 -> 4, ...
  const std::int64_t wide = v;
  const std::uint32_t mapped =
      static_cast<std::uint32_t>(wide > 0 ? 2 * wide - 1 : -2 * wide);
  put_ue(bw, mapped);
}

std::int32_t get_se(util::BitReader& br) {
  const std::uint32_t u = get_ue(br);
  if (u == 0) return 0;
  const std::int64_t mag = (static_cast<std::int64_t>(u) + 1) / 2;
  return (u % 2 == 1) ? static_cast<std::int32_t>(mag)
                      : static_cast<std::int32_t>(-mag);
}

std::int64_t encode_block(util::BitWriter& bw, const Coeffs8& levels) {
  const std::int64_t before = bw.bit_count();
  const auto& zz = zigzag_order();
  int run = 0;
  for (int i = 0; i < 64; ++i) {
    const std::int32_t v = levels[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])];
    if (v == 0) {
      ++run;
      continue;
    }
    bw.put_bit(true);  // "coefficient follows" flag
    put_ue(bw, static_cast<std::uint32_t>(run));
    put_se(bw, v);
    run = 0;
  }
  bw.put_bit(false);  // end of block
  return bw.bit_count() - before;
}

std::optional<Coeffs8> decode_block(util::BitReader& br) {
  Coeffs8 out{};
  const auto& zz = zigzag_order();
  int pos = 0;
  while (br.get_bit()) {
    const int run = static_cast<int>(get_ue(br));
    const std::int32_t level = get_se(br);
    if (run < 0 || pos + run >= 64 || br.overrun()) {
      return std::nullopt;  // corrupt stream: run past end of block
    }
    pos += run;
    out[static_cast<std::size_t>(zz[static_cast<std::size_t>(pos)])] = level;
    ++pos;
  }
  if (br.overrun()) return std::nullopt;
  return out;
}

}  // namespace qosctrl::media
