#include "media/entropy.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace qosctrl::media {
namespace {

constexpr std::array<int, 64> make_zigzag() {
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
}

/// Scan position -> raster position, and its inverse.
constexpr std::array<int, 64> kZigzag = make_zigzag();
constexpr std::array<int, 64> kScanPos = [] {
  std::array<int, 64> pos{};
  for (std::size_t i = 0; i < 64; ++i) {
    pos[static_cast<std::size_t>(kZigzag[i])] = static_cast<int>(i);
  }
  return pos;
}();

/// The signed Exp-Golomb code number: 0 -> 0, 1 -> 1, -1 -> 2, 2 -> 3,
/// -2 -> 4, ..., i.e. 2v - 1 for v > 0 and -2v otherwise, computed
/// without a branch as the zigzag map of -v.  INT32_MIN maps to 2^32,
/// which the uint32 wraps to 0.
std::uint32_t se_code(std::int32_t v) {
  const std::int64_t n = -static_cast<std::int64_t>(v);
  return static_cast<std::uint32_t>((n * 2) ^ (n >> 63));
}

/// The inverse of se_code: (u + 1) / 2, negated for even u, without a
/// branch (code 2^32 - 1 gives 2^31, which the int32 wraps).
std::int32_t se_value(std::uint32_t u) {
  const std::int64_t mag = (static_cast<std::int64_t>(u) + 1) >> 1;
  const std::int64_t negate = static_cast<std::int64_t>(u & 1) - 1;  // 0 or -1
  return static_cast<std::int32_t>((mag ^ negate) - negate);
}

/// An Exp-Golomb field for code number v: v + 1 in 2 * width - 1 bits.
struct GolombField {
  std::uint64_t code;
  int len;
};

GolombField golomb_field(std::uint32_t v) {
  const std::uint64_t code = static_cast<std::uint64_t>(v) + 1;
  return {code, static_cast<int>(2 * std::bit_width(code) - 1)};
}

}  // namespace

const std::array<int, 64>& zigzag_order() { return kZigzag; }

void put_ue(util::BitWriter& bw, std::uint32_t v) {
  // One field of 2 * width - 1 bits whose top width - 1 bits are zero.
  // Only v = 2^32 - 1 needs 65 bits; its first zero goes out on its own.
  const auto [code, len] = golomb_field(v);
  if (len > 64) bw.put_bits(0, len - 64);
  bw.put_bits(code, std::min(len, 64));
}

std::uint32_t get_ue(util::BitReader& br) {
  // A code with fewer than 32 leading zeros lies inside one 64-bit
  // window: its 2 * zeros + 1 bits read as code number + 1.
  const std::uint64_t window = br.peek_bits(64);
  const int lead = std::countl_zero(window);
  if (lead < 32) {
    br.skip_bits(2 * lead + 1);
    return static_cast<std::uint32_t>((window >> (63 - 2 * lead)) - 1);
  }
  // A valid code has at most 32 leading zeros.  A 33rd zero, or the
  // first bit past the end, marks a malformed stream: it decodes as 0
  // after consuming exactly the bits a bit-by-bit scan would have
  // read up to and including that bit.
  if (br.peek_bits(33) == 0) {
    br.skip_bits(
        static_cast<int>(std::min<std::int64_t>(br.bits_left() + 1, 33)));
    return 0;
  }
  br.skip_bits(33);
  const std::uint64_t code = (std::uint64_t{1} << 32) | br.get_bits(32);
  return static_cast<std::uint32_t>(code - 1);
}

void put_se(util::BitWriter& bw, std::int32_t v) { put_ue(bw, se_code(v)); }

std::int32_t get_se(util::BitReader& br) { return se_value(get_ue(br)); }

std::int64_t encode_block(util::BitWriter& bw, const Coeffs8& levels) {
  const std::int64_t before = bw.bit_count();
  // Mark the non-zero positions in scan order, skipping all-zero rows.
  std::uint64_t nonzero = 0;
  for (std::size_t r = 0; r < 64; r += 8) {
    std::int32_t any = 0;
    for (std::size_t c = 0; c < 8; ++c) any |= levels[r + c];
    if (any == 0) continue;
    for (std::size_t c = 0; c < 8; ++c) {
      nonzero |= static_cast<std::uint64_t>(levels[r + c] != 0)
                 << kScanPos[r + c];
    }
  }
  // Fields collect in a local accumulator and reach the writer up to 64
  // bits at a time; the concatenated bits are the same.
  std::uint64_t pending = 0;
  int pending_len = 0;
  const auto emit = [&](std::uint64_t field, int len) {
    if (pending_len + len > 64) {
      bw.put_bits(pending, pending_len);
      pending = 0;
      pending_len = 0;
    }
    pending = (len < 64 ? pending << len : 0) | field;
    pending_len += len;
  };
  int next = 0;  // scan position after the previous coefficient
  for (; nonzero != 0; nonzero &= nonzero - 1) {
    const int i = std::countr_zero(nonzero);
    const auto run = static_cast<std::uint32_t>(i - next);
    next = i + 1;
    const std::int32_t v =
        levels[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(i)])];
    // "Coefficient follows" flag and ue(run), then se(level) (at most
    // 63 bits), as one field when the three fit in 64 bits: any level
    // below 2^23 in magnitude, and larger ones after shorter runs.
    const GolombField r = golomb_field(run);
    const GolombField l = golomb_field(se_code(v));
    const std::uint64_t head = (std::uint64_t{1} << r.len) | r.code;
    if (1 + r.len + l.len <= 64) {
      emit((head << l.len) | l.code, 1 + r.len + l.len);
    } else {
      emit(head, 1 + r.len);
      emit(l.code, l.len);
    }
  }
  emit(0, 1);  // end of block
  bw.put_bits(pending, pending_len);
  return bw.bit_count() - before;
}

std::optional<Coeffs8> decode_block(util::BitReader& br) {
  Coeffs8 out{};
  int pos = 0;
  // Stores a decoded coefficient; false for a run past the end of the
  // block (a corrupt stream).
  const auto place = [&](int run, std::int32_t level) {
    if (run < 0 || pos + run >= 64) return false;
    pos += run;
    out[static_cast<std::size_t>(kZigzag[static_cast<std::size_t>(pos)])] =
        level;
    ++pos;
    return true;
  };
  for (;;) {
    // Decode from one 64-bit window while each coefficient's flag,
    // ue(run) and se(level) lie inside it, as the serial reads would:
    // bits past the end read as zero in both.  The reader advances by
    // the `used` bits when the window is refilled or decoding stops, so
    // a coefficient overruns exactly when `used` passes the bits that
    // were left.
    const std::uint64_t window = br.peek_bits(64);
    const bool overrun = br.overrun();
    const std::int64_t left = br.bits_left();
    int used = 0;
    while (used < 64) {
      const std::uint64_t w = window << used;
      if ((w >> 63) == 0) {  // end of block
        br.skip_bits(used + 1);
        if (br.overrun()) return std::nullopt;
        return out;
      }
      const int run_zeros = std::countl_zero(w << 1);
      const int run_end = 2 * run_zeros + 2;  // flag + ue(run)
      const int level_zeros =
          run_end < 64 ? std::countl_zero(w << run_end) : 64;
      const int end = run_end + 2 * level_zeros + 1;
      if (end > 64 - used) break;
      const int run = static_cast<int>(((w << 1) >> (63 - 2 * run_zeros)) - 1);
      const std::int32_t level = se_value(static_cast<std::uint32_t>(
          ((w << run_end) >> (63 - 2 * level_zeros)) - 1));
      used += end;
      if (overrun || used > left || !place(run, level)) {
        br.skip_bits(used);
        return std::nullopt;
      }
    }
    if (used > 0) {
      br.skip_bits(used);
      continue;
    }
    // Fields longer than the window: the serial reads.
    br.skip_bits(1);
    const int run = static_cast<int>(get_ue(br));
    const std::int32_t level = get_se(br);
    if (br.overrun() || !place(run, level)) return std::nullopt;
  }
}

}  // namespace qosctrl::media
