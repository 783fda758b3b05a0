#include "util/bitio.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "encoder/decoder.h"
#include "encoder/frame_encoder.h"
#include "encoder/system_builder.h"
#include "media/entropy.h"
#include "media/synthetic_video.h"
#include "util/rng.h"

namespace qosctrl::util {
namespace {

TEST(BitWriter, CountsBits) {
  BitWriter bw;
  bw.put_bit(true);
  bw.put_bits(0b1010, 4);
  EXPECT_EQ(bw.bit_count(), 5);
}

TEST(BitWriter, PadsToByteOnFinish) {
  BitWriter bw;
  bw.put_bits(0b101, 3);
  const auto bytes = bw.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10100000);
}

TEST(BitWriter, MsbFirstAcrossBytes) {
  BitWriter bw;
  bw.put_bits(0xABCD, 16);
  const auto bytes = bw.finish();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0xAB);
  EXPECT_EQ(bytes[1], 0xCD);
}

TEST(BitReader, ReadsBackWhatWasWritten) {
  BitWriter bw;
  bw.put_bits(0x3, 2);
  bw.put_bits(0x15, 5);
  bw.put_bits(0xDEADBEEF, 32);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  EXPECT_EQ(br.get_bits(2), 0x3u);
  EXPECT_EQ(br.get_bits(5), 0x15u);
  EXPECT_EQ(br.get_bits(32), 0xDEADBEEFu);
  EXPECT_FALSE(br.overrun());
}

TEST(BitReader, OverrunIsFlaggedNotFatal) {
  const std::vector<std::uint8_t> bytes{0xFF};
  BitReader br(bytes);
  br.get_bits(8);
  EXPECT_FALSE(br.overrun());
  br.get_bits(1);
  EXPECT_TRUE(br.overrun());
}

TEST(BitIo, RandomRoundTrips) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    BitWriter bw;
    std::vector<std::pair<std::uint64_t, int>> written;
    for (int i = 0; i < 200; ++i) {
      const int count = static_cast<int>(rng.uniform_i64(1, 24));
      const std::uint64_t value =
          rng.next_u64() & ((1ULL << count) - 1);
      bw.put_bits(value, count);
      written.emplace_back(value, count);
    }
    const auto bytes = bw.finish();
    BitReader br(bytes);
    for (const auto& [value, count] : written) {
      EXPECT_EQ(br.get_bits(count), value);
    }
    EXPECT_FALSE(br.overrun());
  }
}

TEST(BitWriter, ZeroCountIsNoop) {
  BitWriter bw;
  bw.put_bits(123, 0);
  EXPECT_EQ(bw.bit_count(), 0);
  EXPECT_TRUE(bw.finish().empty());
}

// ---------------------------------------------------------------------------
// Word-at-a-time BitWriter / BitReader against a bit-serial reference:
// one bit per step, the simplest correct MSB-first packing.  Every
// observable (bytes, bit counts, values, positions, the overrun point)
// must agree.

class SerialWriter {
 public:
  void put_bits(std::uint64_t value, int count) {
    for (int i = count - 1; i >= 0; --i) {
      current_ = static_cast<std::uint8_t>((current_ << 1) |
                                           ((value >> i) & 1));
      if (++filled_ == 8) {
        bytes_.push_back(current_);
        current_ = 0;
        filled_ = 0;
      }
    }
    bits_ += count;
  }
  std::int64_t bit_count() const { return bits_; }
  std::vector<std::uint8_t> finish() const {
    std::vector<std::uint8_t> out = bytes_;
    if (filled_ > 0) {
      out.push_back(static_cast<std::uint8_t>(current_ << (8 - filled_)));
    }
    return out;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::uint8_t current_ = 0;
  int filled_ = 0;
  std::int64_t bits_ = 0;
};

class SerialReader {
 public:
  explicit SerialReader(const std::vector<std::uint8_t>& bytes)
      : bytes_(bytes) {}
  std::uint64_t get_bits(int count) {
    std::uint64_t v = 0;
    for (int i = 0; i < count; ++i) {
      const std::size_t byte = static_cast<std::size_t>(pos_ >> 3);
      int bit = 0;
      if (byte >= bytes_.size()) {
        overrun_ = true;
      } else {
        bit = (bytes_[byte] >> (7 - (pos_ & 7))) & 1;
      }
      v = (v << 1) | static_cast<std::uint64_t>(bit);
      ++pos_;
    }
    return v;
  }
  bool get_bit() { return get_bits(1) != 0; }
  std::int64_t bits_consumed() const { return pos_; }
  bool overrun() const { return overrun_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::int64_t pos_ = 0;
  bool overrun_ = false;
};

// Bit-serial Exp-Golomb and block coding: the same stream grammar as
// media/entropy.cpp, one bit per step.
void serial_put_ue(SerialWriter& bw, std::uint32_t v) {
  const std::uint64_t code = static_cast<std::uint64_t>(v) + 1;
  int bits = 0;
  while ((code >> bits) != 0) ++bits;
  bw.put_bits(0, bits - 1);
  bw.put_bits(code, bits);
}

void serial_put_se(SerialWriter& bw, std::int32_t v) {
  const std::int64_t wide = v;
  serial_put_ue(bw, static_cast<std::uint32_t>(wide > 0 ? 2 * wide - 1
                                                        : -2 * wide));
}

std::uint32_t serial_get_ue(SerialReader& br) {
  int zeros = 0;
  while (!br.get_bit()) {
    ++zeros;
    if (zeros > 32 || br.overrun()) return 0;
  }
  const std::uint64_t code = (std::uint64_t{1} << zeros) | br.get_bits(zeros);
  return static_cast<std::uint32_t>(code - 1);
}

std::int32_t serial_get_se(SerialReader& br) {
  const std::uint32_t u = serial_get_ue(br);
  if (u == 0) return 0;
  const std::int64_t mag = (static_cast<std::int64_t>(u) + 1) / 2;
  return static_cast<std::int32_t>(u % 2 == 1 ? mag : -mag);
}

std::optional<media::Coeffs8> serial_decode_block(SerialReader& br) {
  media::Coeffs8 out{};
  const auto& zz = media::zigzag_order();
  int pos = 0;
  while (br.get_bit()) {
    const int run = static_cast<int>(serial_get_ue(br));
    const std::int32_t level = serial_get_se(br);
    if (run < 0 || pos + run >= 64 || br.overrun()) return std::nullopt;
    pos += run;
    out[static_cast<std::size_t>(zz[static_cast<std::size_t>(pos)])] = level;
    ++pos;
  }
  if (br.overrun()) return std::nullopt;
  return out;
}

void serial_encode_block(SerialWriter& bw, const media::Coeffs8& levels) {
  const auto& zz = media::zigzag_order();
  int run = 0;
  for (int i = 0; i < 64; ++i) {
    const std::int32_t v =
        levels[static_cast<std::size_t>(zz[static_cast<std::size_t>(i)])];
    if (v == 0) {
      ++run;
      continue;
    }
    bw.put_bits(1, 1);
    serial_put_ue(bw, static_cast<std::uint32_t>(run));
    serial_put_se(bw, v);
    run = 0;
  }
  bw.put_bits(0, 1);
}

/// A non-zero level from the ranges the block coder must round-trip or
/// reproduce: +-1, up to +-300 (the encoder's range), the int32 ends
/// (INT32_MIN maps to Exp-Golomb code 0, like put_se) and anything in
/// between, whose 63-bit codes push a coefficient's fields past 64 bits.
std::int32_t random_level(Rng& rng) {
  switch (rng.uniform_i64(0, 5)) {
    case 0:
      return rng.uniform_i64(0, 1) == 0 ? 1 : -1;
    case 1:
    case 2: {
      const auto v = static_cast<std::int32_t>(rng.uniform_i64(-300, 300));
      return v == 0 ? 300 : v;
    }
    case 3:
      return INT32_MAX;
    case 4:
      return INT32_MIN;
    default: {
      const auto v = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(rng.next_u64()));
      return v == 0 ? -300 : v;
    }
  }
}

/// Sparse or dense blocks: up to 64 non-zero positions, so runs cover
/// 0..63 (a lone coefficient at scan position 63 has run 63).
media::Coeffs8 random_block(Rng& rng) {
  media::Coeffs8 levels{};
  const auto& zz = media::zigzag_order();
  switch (rng.uniform_i64(0, 3)) {
    case 0:  // one coefficient anywhere in scan order
      levels[static_cast<std::size_t>(
          zz[static_cast<std::size_t>(rng.uniform_i64(0, 63))])] =
          random_level(rng);
      break;
    case 1: {  // dense
      for (auto& v : levels) {
        if (rng.uniform_i64(0, 3) != 0) v = random_level(rng);
      }
      break;
    }
    default: {  // sparse
      const int nonzeros = static_cast<int>(rng.uniform_i64(0, 20));
      for (int k = 0; k < nonzeros; ++k) {
        levels[static_cast<std::size_t>(rng.uniform_i64(0, 63))] =
            random_level(rng);
      }
      break;
    }
  }
  return levels;
}

std::vector<std::uint8_t> random_bytes(Rng& rng, int n) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(n));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

TEST(BitIoProperty, WriterMatchesSerialReferenceOverFullCountRange) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    BitWriter bw;
    SerialWriter ref;
    const int n = static_cast<int>(rng.uniform_i64(0, 120));
    for (int i = 0; i < n; ++i) {
      // Garbage above `count` must be ignored by both.
      const int count = static_cast<int>(rng.uniform_i64(0, 64));
      const std::uint64_t value = rng.next_u64();
      bw.put_bits(value, count);
      ref.put_bits(value, count);
      ASSERT_EQ(bw.bit_count(), ref.bit_count());
    }
    ASSERT_EQ(bw.finish(), ref.finish()) << "trial " << trial;
  }
}

TEST(BitIoProperty, FinishLeavesTheWriterEmpty) {
  BitWriter bw;
  bw.put_bits(0x1234567, 27);
  EXPECT_EQ(bw.finish().size(), 4u);
  EXPECT_EQ(bw.bit_count(), 0);
  EXPECT_TRUE(bw.finish().empty());
  bw.put_bits(0xA, 4);
  EXPECT_EQ(bw.finish(), std::vector<std::uint8_t>{0xA0});
}

TEST(BitIoProperty, ReaderMatchesSerialReferenceOnRandomAndTruncatedBuffers) {
  Rng rng(77);
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<std::uint8_t> bytes =
        random_bytes(rng, static_cast<int>(rng.uniform_i64(0, 40)));
    BitReader br(bytes);
    SerialReader ref(bytes);
    // Read well past the end so the first overrun point is exercised
    // at every alignment.
    const std::int64_t budget = static_cast<std::int64_t>(bytes.size()) * 8 +
                                rng.uniform_i64(0, 200);
    while (ref.bits_consumed() < budget) {
      const int count = static_cast<int>(rng.uniform_i64(0, 64));
      const bool peek = rng.uniform_i64(0, 3) == 0;
      if (peek) {
        SerialReader probe = ref;
        ASSERT_EQ(br.peek_bits(count), probe.get_bits(count));
        ASSERT_EQ(br.bits_consumed(), ref.bits_consumed());
      }
      ASSERT_EQ(br.get_bits(count), ref.get_bits(count))
          << "trial " << trial << " at bit " << ref.bits_consumed();
      ASSERT_EQ(br.bits_consumed(), ref.bits_consumed());
      ASSERT_EQ(br.overrun(), ref.overrun())
          << "trial " << trial << " at bit " << ref.bits_consumed();
      ASSERT_EQ(br.bits_left(),
                std::max<std::int64_t>(
                    0, static_cast<std::int64_t>(bytes.size()) * 8 -
                           ref.bits_consumed()));
      if (rng.uniform_i64(0, 4) == 0) {
        ASSERT_EQ(br.get_bit(), ref.get_bit());
        ASSERT_EQ(br.overrun(), ref.overrun());
      }
    }
  }
}

TEST(BitIoProperty, ExpGolombWritesMatchSerialReference) {
  Rng rng(5);
  BitWriter bw;
  SerialWriter ref;
  for (const std::uint32_t v : {0u, 1u, 2u, 0x7fffffffu, 0x80000000u,
                                0xfffffffeu, 0xffffffffu}) {
    media::put_ue(bw, v);
    serial_put_ue(ref, v);
  }
  for (const std::int32_t v : {0, 1, -1, INT32_MAX, INT32_MIN + 1,
                               INT32_MIN}) {
    media::put_se(bw, v);
    serial_put_se(ref, v);
  }
  for (int i = 0; i < 2000; ++i) {
    const int width = static_cast<int>(rng.uniform_i64(0, 32));
    const auto v = static_cast<std::uint32_t>(
        rng.next_u64() & ((std::uint64_t{1} << width) - 1));
    media::put_ue(bw, v);
    serial_put_ue(ref, v);
    media::put_se(bw, static_cast<std::int32_t>(v));
    serial_put_se(ref, static_cast<std::int32_t>(v));
    ASSERT_EQ(bw.bit_count(), ref.bit_count());
  }
  EXPECT_EQ(bw.finish(), ref.finish());
}

/// Buffers that stress the Exp-Golomb reader: long zero runs (up to
/// 40 leading zeros, past the 32-zero limit), zero tails that end the
/// buffer mid-code, and plain random bytes.
std::vector<std::uint8_t> golomb_stress_buffer(Rng& rng) {
  SerialWriter w;
  const int codes = static_cast<int>(rng.uniform_i64(0, 12));
  for (int c = 0; c < codes; ++c) {
    switch (rng.uniform_i64(0, 3)) {
      case 0: {  // a well-formed or oversized prefix and suffix
        const int zeros = static_cast<int>(rng.uniform_i64(0, 40));
        w.put_bits(0, zeros);
        w.put_bits(1, 1);
        w.put_bits(rng.next_u64(), std::min(zeros, 64));
        break;
      }
      case 1:  // a zero run
        w.put_bits(0, static_cast<int>(rng.uniform_i64(1, 64)));
        break;
      default:  // random bits
        w.put_bits(rng.next_u64(), static_cast<int>(rng.uniform_i64(1, 64)));
        break;
    }
  }
  std::vector<std::uint8_t> bytes = w.finish();
  // Truncate at a random byte.
  bytes.resize(static_cast<std::size_t>(
      rng.uniform_i64(0, static_cast<std::int64_t>(bytes.size()))));
  return bytes;
}

TEST(BitIoProperty, ExpGolombReadsMatchSerialReferenceOnMalformedStreams) {
  Rng rng(31337);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::vector<std::uint8_t> bytes = golomb_stress_buffer(rng);
    BitReader br(bytes);
    SerialReader ref(bytes);
    const std::int64_t budget =
        static_cast<std::int64_t>(bytes.size()) * 8 + 80;
    while (ref.bits_consumed() < budget) {
      if (rng.uniform_i64(0, 1) == 0) {
        ASSERT_EQ(media::get_ue(br), serial_get_ue(ref)) << "trial " << trial;
      } else {
        ASSERT_EQ(media::get_se(br), serial_get_se(ref)) << "trial " << trial;
      }
      ASSERT_EQ(br.bits_consumed(), ref.bits_consumed()) << "trial " << trial;
      ASSERT_EQ(br.overrun(), ref.overrun()) << "trial " << trial;
    }
  }
}

TEST(BitIoProperty, EncodeBlockMatchesSerialReference) {
  Rng rng(6161);
  for (int trial = 0; trial < 400; ++trial) {
    BitWriter bw;
    SerialWriter ref;
    // Start at every bit alignment of the writer's accumulator.
    const int lead = static_cast<int>(rng.uniform_i64(0, 64));
    const std::uint64_t lead_bits = rng.next_u64();
    bw.put_bits(lead_bits, lead);
    ref.put_bits(lead_bits, lead);
    const int blocks = static_cast<int>(rng.uniform_i64(1, 8));
    for (int b = 0; b < blocks; ++b) {
      const media::Coeffs8 levels = random_block(rng);
      const std::int64_t before = ref.bit_count();
      serial_encode_block(ref, levels);
      ASSERT_EQ(media::encode_block(bw, levels), ref.bit_count() - before)
          << "trial " << trial << " block " << b;
      ASSERT_EQ(bw.bit_count(), ref.bit_count());
    }
    ASSERT_EQ(bw.finish(), ref.finish()) << "trial " << trial;
  }
}

TEST(BitIoProperty, DecodeBlockMatchesSerialReferenceOnCorruptStreams) {
  Rng rng(4242);
  for (int trial = 0; trial < 1000; ++trial) {
    BitWriter bw;
    const int blocks = static_cast<int>(rng.uniform_i64(1, 6));
    for (int b = 0; b < blocks; ++b) {
      media::encode_block(bw, random_block(rng));
    }
    std::vector<std::uint8_t> bytes = bw.finish();
    // Corrupt: flip a few bits, then maybe truncate.
    const int flips = static_cast<int>(rng.uniform_i64(0, 4));
    for (int f = 0; f < flips && !bytes.empty(); ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_i64(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_i64(0, 7));
    }
    if (rng.uniform_i64(0, 1) == 0) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_i64(0, static_cast<std::int64_t>(bytes.size()))));
    }
    BitReader br(bytes);
    SerialReader ref(bytes);
    for (int b = 0; b <= blocks; ++b) {
      const std::optional<media::Coeffs8> got = media::decode_block(br);
      const std::optional<media::Coeffs8> want = serial_decode_block(ref);
      ASSERT_EQ(got, want) << "trial " << trial << " block " << b;
      ASSERT_EQ(br.bits_consumed(), ref.bits_consumed());
      ASSERT_EQ(br.overrun(), ref.overrun());
      if (!got) break;
    }
  }
}

TEST(BitIoProperty, DecodeFrameFailsCleanlyOnCorruptBitstreams) {
  media::VideoConfig vc;
  vc.width = 48;
  vc.height = 32;
  vc.num_frames = 2;
  vc.num_scenes = 1;
  vc.seed = 3;
  const media::SyntheticVideo video(vc);
  enc::EncoderConfig cfg;
  cfg.width = vc.width;
  cfg.height = vc.height;
  enc::FrameEncoder encoder(
      cfg, platform::CostModel(platform::figure5_cost_table(),
                               platform::CostModelConfig{}, Rng(1)));
  const enc::EncoderSystem es =
      enc::build_encoder_system(6, 6 * 250000, platform::figure5_cost_table());
  qos::ConstantController ctl(*es.system, 3);
  encoder.encode_frame(video.frame_yuv(0), ctl, *es.system, 8);
  const std::vector<std::uint8_t> intra = encoder.bitstream();
  const media::YuvFrame reference = encoder.reconstructed();
  encoder.encode_frame(video.frame_yuv(1), ctl, *es.system, 8);
  const std::vector<std::uint8_t> inter = encoder.bitstream();

  Rng rng(8);
  int rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const bool use_inter = trial % 2 == 1;
    std::vector<std::uint8_t> bytes = use_inter ? inter : intra;
    if (trial % 3 == 0) {
      bytes.resize(static_cast<std::size_t>(
          rng.uniform_i64(0, static_cast<std::int64_t>(bytes.size()) - 1)));
    } else {
      const int flips = static_cast<int>(rng.uniform_i64(1, 8));
      for (int f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_i64(0, static_cast<std::int64_t>(bytes.size()) - 1));
        bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform_i64(0, 7));
      }
    }
    const enc::DecodeResult d =
        enc::decode_frame(bytes, use_inter ? &reference : nullptr);
    if (!d.ok) {
      ++rejected;
      continue;
    }
    EXPECT_EQ(d.frame.width(), vc.width);
    EXPECT_EQ(d.frame.height(), vc.height);
  }
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace qosctrl::util
