#include "media/synthetic_video.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "media/motion.h"

namespace qosctrl::media {
namespace {

VideoConfig small_config() {
  VideoConfig c;
  c.width = 64;
  c.height = 48;
  c.num_frames = 90;
  c.num_scenes = 3;
  c.seed = 7;
  return c;
}

TEST(SyntheticVideo, DeterministicInConfig) {
  const SyntheticVideo a(small_config());
  const SyntheticVideo b(small_config());
  for (int f : {0, 17, 89}) {
    EXPECT_EQ(a.frame(f).data(), b.frame(f).data()) << "frame " << f;
  }
}

TEST(SyntheticVideo, SeedChangesContent) {
  VideoConfig c1 = small_config();
  VideoConfig c2 = small_config();
  c2.seed = 8;
  EXPECT_NE(SyntheticVideo(c1).frame(5).data(),
            SyntheticVideo(c2).frame(5).data());
}

TEST(SyntheticVideo, SceneStartsPartitionTheTimeline) {
  const SyntheticVideo v(small_config());
  const auto starts = v.scene_starts();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 30);
  EXPECT_EQ(starts[2], 60);
}

TEST(SyntheticVideo, SceneOfAndCuts) {
  const SyntheticVideo v(small_config());
  EXPECT_EQ(v.scene_of(0), 0);
  EXPECT_EQ(v.scene_of(29), 0);
  EXPECT_EQ(v.scene_of(30), 1);
  EXPECT_EQ(v.scene_of(89), 2);
  EXPECT_TRUE(v.is_scene_cut(0));
  EXPECT_TRUE(v.is_scene_cut(30));
  EXPECT_TRUE(v.is_scene_cut(60));
  EXPECT_FALSE(v.is_scene_cut(31));
}

TEST(SyntheticVideo, UnevenSceneSplitSpreadsRemainder) {
  VideoConfig c = small_config();
  c.num_frames = 10;
  c.num_scenes = 3;  // sizes 4, 3, 3
  const SyntheticVideo v(c);
  const auto starts = v.scene_starts();
  EXPECT_EQ(starts[0], 0);
  EXPECT_EQ(starts[1], 4);
  EXPECT_EQ(starts[2], 7);
}

TEST(SyntheticVideo, CutChangesContentMoreThanContinuation) {
  const SyntheticVideo v(small_config());
  // Within-scene consecutive frames are closer than frames across a cut.
  const double within = frame_sse(v.frame(10), v.frame(11));
  const double across = frame_sse(v.frame(29), v.frame(30));
  EXPECT_GT(across, 2.0 * within);
}

TEST(SyntheticVideo, ConsecutiveFramesAreTrackableWithinAScene) {
  // The generator's central promise: inside a scene, a wide-window
  // full-pel search finds a good match for most macroblocks.
  const SyntheticVideo v(VideoConfig{});  // default 176x144, 9 scenes
  const Frame a = v.frame(40);
  const Frame b = v.frame(41);
  MotionConfig cfg{8, 0};
  int good = 0, total = 0;
  for (int mb = 0; mb < b.num_macroblocks(); mb += 3) {
    const auto [x0, y0] = b.mb_origin(mb);
    const MotionResult r = estimate_motion(b, a, x0, y0, cfg);
    ++total;
    if (r.sad < 256 * 6) ++good;  // < 6 gray levels per pixel
  }
  EXPECT_GE(good * 10, total * 7)
      << good << "/" << total << " macroblocks trackable";
}

TEST(SyntheticVideo, BusyScenesOutpanSmallWindows) {
  // Scene 2 (a designated busy scene) pans beyond radius 4.
  const SyntheticVideo v(VideoConfig{});
  const auto starts = v.scene_starts();
  const int f = starts[2] + 5;
  const Frame a = v.frame(f);
  const Frame b = v.frame(f + 1);
  MotionConfig narrow{4, 0};
  MotionConfig wide{8, 0};
  std::int64_t sad_narrow = 0, sad_wide = 0;
  for (int mb = 0; mb < b.num_macroblocks(); mb += 5) {
    const auto [x0, y0] = b.mb_origin(mb);
    sad_narrow += estimate_motion(b, a, x0, y0, narrow).sad;
    sad_wide += estimate_motion(b, a, x0, y0, wide).sad;
  }
  EXPECT_GT(sad_narrow, 2 * sad_wide)
      << "radius 4 should not track the busy pan";
}

TEST(SyntheticVideo, PixelsSpanAUsefulRange) {
  const SyntheticVideo v(small_config());
  const Frame f = v.frame(0);
  int lo = 255, hi = 0;
  for (Sample s : f.data()) {
    lo = std::min<int>(lo, s);
    hi = std::max<int>(hi, s);
  }
  EXPECT_LT(lo, 100);
  EXPECT_GT(hi, 150);
}

std::uint64_t fnv1a(const std::vector<Sample>& bytes, std::uint64_t h) {
  for (const Sample b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// One pinned rendering: a geometry, seed, scene count and noise level,
/// and the FNV-1a digests of the Y, Cb and Cr bytes of every sampled
/// frame (first, second, middle and last frame of each scene) chained
/// in frame order.
struct YuvPin {
  int width, height, num_frames, num_scenes;
  std::uint64_t seed;
  double noise;
  std::uint64_t y, cb, cr;
};

// Objects have radius 8..24, so at 16x16 and 32x16 every object
// straddles the border, and the late frames of each scene carry objects
// that have drifted partly or fully out of the picture.  Noise 0 and 40
// move the clamp.  The digests were recorded from the direct per-pixel
// evaluation and depend on libm's sin/cos; re-derive them only for an
// intended change of the picture, never for a rewrite of the renderer.
constexpr YuvPin kYuvPins[] = {
    {176, 144, 582, 9, 2005, 3.0,
     0xd87d2f2a82d45af8ULL, 0x868ed10b8b70099aULL, 0x00d647fe0667e13eULL},
    {176, 144, 120, 12, 11, 3.0,
     0xfe78ae9d5c70df3cULL, 0x180cdaa0d2215380ULL, 0xef13eb9b4eb2dd4bULL},
    {16, 16, 30, 3, 1, 3.0,
     0x384ba16c5d07d411ULL, 0xba54ffeb730b1e22ULL, 0x6fd944f56880932dULL},
    {32, 16, 12, 1, 7, 3.0,
     0xf370baa9537661fbULL, 0x87a961072c370789ULL, 0x6c0abd8bfc782905ULL},
    {48, 32, 40, 5, 42, 3.0,
     0x1d339a0c764514b7ULL, 0x54d304b30cc5c98bULL, 0x3faa3110f52a8fd5ULL},
    {352, 288, 20, 2, 3, 3.0,
     0x1cf9e4002b17a323ULL, 0xce1f3287efab7d92ULL, 0x5561bb0ded307327ULL},
    {64, 48, 60, 4, 99, 0.0,
     0x274eb3da841379a0ULL, 0x4af1260a98a8f041ULL, 0xbb2e834c3143e164ULL},
    {64, 48, 60, 4, 5, 40.0,
     0x4e1e3bc7a6b71bb1ULL, 0xbb7c219e1f6bb0c1ULL, 0x7de5e6188226ec6fULL},
};

TEST(SyntheticVideo, YuvBytesArePinned) {
  for (const YuvPin& pin : kYuvPins) {
    VideoConfig c;
    c.width = pin.width;
    c.height = pin.height;
    c.num_frames = pin.num_frames;
    c.num_scenes = pin.num_scenes;
    c.seed = pin.seed;
    c.noise_amplitude = pin.noise;
    const SyntheticVideo v(c);
    const std::vector<int> starts = v.scene_starts();
    std::uint64_t y = 0xcbf29ce484222325ULL, cb = y, cr = y;
    for (std::size_t s = 0; s < starts.size(); ++s) {
      const int first = starts[s];
      const int last = s + 1 < starts.size() ? starts[s + 1] - 1
                                             : pin.num_frames - 1;
      std::vector<int> sampled{first, first + 1, (first + last) / 2, last};
      sampled.erase(std::unique(sampled.begin(), sampled.end()),
                    sampled.end());
      for (const int f : sampled) {
        if (f > last) continue;
        const YuvFrame yuv = v.frame_yuv(f);
        ASSERT_EQ(v.frame(f).data(), yuv.y.data()) << "frame " << f;
        y = fnv1a(yuv.y.data(), y);
        cb = fnv1a(yuv.cb.data(), cb);
        cr = fnv1a(yuv.cr.data(), cr);
      }
    }
    const std::string where = std::to_string(pin.width) + "x" +
                              std::to_string(pin.height) + " seed " +
                              std::to_string(pin.seed);
    EXPECT_EQ(y, pin.y) << where << " Y";
    EXPECT_EQ(cb, pin.cb) << where << " Cb";
    EXPECT_EQ(cr, pin.cr) << where << " Cr";
  }
}

/// Every frame of a rendering, not a sample: the FNV-1a digests of the
/// Y, Cb and Cr bytes of frames 0..num_frames-1 chained in frame order.
struct FrameDigests {
  std::uint64_t y = 0xcbf29ce484222325ULL, cb = y, cr = y;
};

void digest_every_frame(const VideoConfig& c, FrameDigests& d) {
  const SyntheticVideo v(c);
  for (int f = 0; f < c.num_frames; ++f) {
    const YuvFrame yuv = v.frame_yuv(f);
    d.y = fnv1a(yuv.y.data(), d.y);
    d.cb = fnv1a(yuv.cb.data(), d.cb);
    d.cr = fnv1a(yuv.cr.data(), d.cr);
  }
}

/// The configurations whose every frame is pinned: the default
/// 582-frame benchmark source, a long single scene (pans carry the
/// sinusoid arguments into the thousands of radians), CIF, an odd
/// macroblock count across (7 x 3), and noise 0 and 40.
const YuvPin kEveryFramePins[] = {
    {176, 144, 582, 9, 2005, 3.0,
     0xa0db80dd87c62384ULL, 0xaf59de21bf2222b5ULL, 0x10bba1639993fed3ULL},
    {176, 144, 400, 1, 9, 3.0,
     0x71067d6ced9569deULL, 0x2088dacbe67ffa9cULL, 0x70f6bc56197b90e4ULL},
    {352, 288, 30, 3, 3, 3.0,
     0x8482cc0d57580f00ULL, 0x86c3061e2b66bf06ULL, 0x2b821144d2f76dfeULL},
    {112, 48, 60, 4, 21, 3.0,
     0xf537336f12287342ULL, 0x4125d8e2d664c406ULL, 0x6da03ff59e0e46a7ULL},
    {176, 144, 40, 4, 99, 0.0,
     0x3e0971304eec609eULL, 0x2198f91db2cca3fbULL, 0x36e7bdd075361a07ULL},
    {176, 144, 40, 4, 5, 40.0,
     0xbfe3a163a5bfe596ULL, 0x719917dc396d8869ULL, 0x9033aa46966baf86ULL},
};

VideoConfig config_of(const YuvPin& pin) {
  VideoConfig c;
  c.width = pin.width;
  c.height = pin.height;
  c.num_frames = pin.num_frames;
  c.num_scenes = pin.num_scenes;
  c.seed = pin.seed;
  c.noise_amplitude = pin.noise;
  return c;
}

TEST(SyntheticVideo, EveryFrameIsPinned) {
  for (const YuvPin& pin : kEveryFramePins) {
    FrameDigests d;
    digest_every_frame(config_of(pin), d);
    const std::string where = std::to_string(pin.width) + "x" +
                              std::to_string(pin.height) + " seed " +
                              std::to_string(pin.seed);
    EXPECT_EQ(d.y, pin.y) << where << " Y";
    EXPECT_EQ(d.cb, pin.cb) << where << " Cb";
    EXPECT_EQ(d.cr, pin.cr) << where << " Cr";
  }
}

TEST(SyntheticVideo, EveryFrameOf32QcifSeedsIsPinned) {
  FrameDigests d;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    digest_every_frame(config_of({176, 144, 24, 3, seed, 3.0, 0, 0, 0}), d);
  }
  EXPECT_EQ(d.y, 0xc44881a3b5d4b69dULL);
  EXPECT_EQ(d.cb, 0x7051d2d26c52d3a9ULL);
  EXPECT_EQ(d.cr, 0x806fad4ca45f1537ULL);
}

TEST(SyntheticVideo, TruncatedByteCertainOnlyFarFromEveryJump) {
  constexpr double kErr = 1e-9;
  constexpr double kIn = 2e-9;    // farther than kErr from the jump
  constexpr double kOut = 0.5e-9; // within kErr of it
  for (const double jump : {1.0, 254.0, 255.0}) {
    EXPECT_TRUE(truncated_byte_is_certain(jump + kIn, kErr)) << jump;
    EXPECT_TRUE(truncated_byte_is_certain(jump - kIn, kErr)) << jump;
    EXPECT_FALSE(truncated_byte_is_certain(jump + kOut, kErr)) << jump;
    EXPECT_FALSE(truncated_byte_is_certain(jump - kOut, kErr)) << jump;
    EXPECT_FALSE(truncated_byte_is_certain(jump, kErr)) << jump;
    EXPECT_FALSE(truncated_byte_is_certain(jump, 0.0)) << jump;
  }
  // Below 0 and on up to 1 every value gives byte 0, from 255 on every
  // value gives 255: only the jumps at 1 and 255 count there.
  for (const double p : {-1e300, -40.0, -kOut, 0.0, kOut, 0.5, 0.99}) {
    EXPECT_TRUE(truncated_byte_is_certain(p, kErr)) << p;
  }
  for (const double p : {255.5, 256.0, 300.0, 0x1p52, 1e300}) {
    EXPECT_TRUE(truncated_byte_is_certain(p, kErr)) << p;
  }
  EXPECT_FALSE(truncated_byte_is_certain(0.5, 0.5));
  EXPECT_TRUE(truncated_byte_is_certain(0.5, 0.4999));
  // Interior values: certain exactly when both neighbours are far.
  EXPECT_TRUE(truncated_byte_is_certain(128.5, 0.4999));
  EXPECT_FALSE(truncated_byte_is_certain(128.5, 0.5));
  EXPECT_FALSE(truncated_byte_is_certain(128.0 + kOut, kErr));
  EXPECT_FALSE(truncated_byte_is_certain(129.0 - kOut, kErr));
  EXPECT_EQ(truncation_jump_distance(-3.0), 4.0);
  EXPECT_EQ(truncation_jump_distance(300.0), 45.0);
  EXPECT_EQ(truncation_jump_distance(17.25), 0.25);
}

// frame() against frame_exact() over every frame of every pinned
// configuration, counting the rows the certified fast path handed to
// the per-pixel loop.
TEST(SyntheticVideo, FastLumaEqualsExactLumaOnEveryPinnedFrame) {
  std::vector<VideoConfig> configs;
  for (const YuvPin& pin : kEveryFramePins) configs.push_back(config_of(pin));
  for (const YuvPin& pin : kYuvPins) configs.push_back(config_of(pin));
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    configs.push_back(config_of({176, 144, 24, 3, seed, 3.0, 0, 0, 0}));
  }
  std::int64_t rows = 0, exact_rows = 0;
  for (const VideoConfig& c : configs) {
    const SyntheticVideo v(c);
    for (int f = 0; f < c.num_frames; ++f) {
      int fallbacks = -1;
      const Frame fast = v.frame(f, &fallbacks);
      ASSERT_EQ(fast.data(), v.frame_exact(f).data())
          << c.width << "x" << c.height << " seed " << c.seed << " frame "
          << f;
      ASSERT_GE(fallbacks, 0);
      ASSERT_LE(fallbacks, c.height);
      exact_rows += fallbacks;
      rows += c.height;
    }
  }
  // The bound is ~1e-11 gray levels, so a fallback row is rare; report
  // the rate rather than pin it.
  RecordProperty("rows", std::to_string(rows));
  RecordProperty("exact_rows", std::to_string(exact_rows));
  std::printf("fast-path rows re-rendered exactly: %lld of %lld\n",
              static_cast<long long>(exact_rows),
              static_cast<long long>(rows));
}

TEST(SyntheticVideoDeath, RejectsBadConfig) {
  VideoConfig c = small_config();
  c.num_scenes = 0;
  EXPECT_DEATH({ SyntheticVideo v(c); }, "scene count");
}

}  // namespace
}  // namespace qosctrl::media
