// Golden digests of FrameEncoder::bitstream() over a short QCIF
// sequence with a scene cut, at three quantizers.  The decoder tests
// prove encode/decode agree with each other; these pins fix the
// absolute bytes, so a rewrite of the bit writer, the entropy coder or
// the source renderer that shifts every stream the same way still
// fails here.  The frames' bytes are chained into one digest per
// quantizer, the summed bit count is pinned next to it, and every frame
// must still decode to the encoder's reconstruction.
//
// A digest mismatch means the emitted bitstream changed: re-derive the
// expected value only for an intended format change, never for an
// optimization.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "encoder/decoder.h"
#include "encoder/frame_encoder.h"
#include "encoder/system_builder.h"
#include "media/synthetic_video.h"

namespace qosctrl::enc {
namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes,
                    std::uint64_t h) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct BitstreamPin {
  int qp;
  std::uint64_t digest;
  std::int64_t total_bits;
};

TEST(BitstreamPin, QcifSequenceBytesArePinned) {
  constexpr BitstreamPin kPins[] = {
      {4, 0x1d90fc68d4f9e841ULL, 519630},
      {12, 0x97b806d6e1ab66b8ULL, 158272},
      {24, 0x7b8e3d09a7e37796ULL, 123250},
  };
  media::VideoConfig vc;  // 176x144, 99 macroblocks
  vc.num_frames = 8;
  vc.num_scenes = 2;  // a hard cut at frame 4
  vc.seed = 2005;
  const media::SyntheticVideo video(vc);
  const EncoderSystem es = build_encoder_system(
      99, 19555569, platform::figure5_cost_table());
  for (const BitstreamPin& pin : kPins) {
    EncoderConfig cfg;
    cfg.width = vc.width;
    cfg.height = vc.height;
    FrameEncoder encoder(cfg,
                         platform::CostModel(platform::figure5_cost_table(),
                                             platform::CostModelConfig{},
                                             util::Rng(17)));
    qos::TableController ctl(es.tables);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::int64_t bits = 0;
    media::YuvFrame displayed;
    for (int f = 0; f < vc.num_frames; ++f) {
      const FrameStats s =
          encoder.encode_frame(video.frame_yuv(f), ctl, *es.system, pin.qp);
      h = fnv1a(encoder.bitstream(), h);
      bits += s.bits;
      const DecodeResult d = decode_frame(
          encoder.bitstream(), f == 0 ? nullptr : &displayed);
      ASSERT_TRUE(d.ok) << "qp " << pin.qp << " frame " << f;
      ASSERT_EQ(d.frame.y.data(), encoder.reconstructed().y.data());
      displayed = d.frame;
    }
    EXPECT_EQ(h, pin.digest) << "qp " << pin.qp;
    EXPECT_EQ(bits, pin.total_bits) << "qp " << pin.qp;
  }
}

}  // namespace
}  // namespace qosctrl::enc
