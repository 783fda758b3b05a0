// Procedural video source — the stand-in for the paper's camera and its
// 582-frame, 9-sequence benchmark.
//
// Each sequence ("scene") has its own texture, global pan velocity, and
// a handful of moving objects; consecutive scenes are separated by hard
// cuts.  The generator is deterministic in (config, seed) and cheap to
// evaluate at any frame index (no inter-frame state), so tests can
// sample frames at random.
//
// The properties the experiments rely on:
//  * hard cuts defeat motion estimation -> expensive, mostly-intra
//    frames (the paper's I-frame jumps in Figures 6-9);
//  * per-scene motion magnitude varies -> per-scene ME load and
//    bitrate levels differ (the plateaus between jumps);
//  * mild sensor noise keeps residuals non-degenerate.
//
// Evaluation.  A pixel is background + objects (in scene order) +
// noise, clamped and truncated to a byte.  The renderer computes the
// x-only and y-only factors of that formula once per column and row
// (the background sinusoids, each object's offsets and texture factors,
// the noise hash keys) and visits an object only inside its clipped
// bounding box, accumulating each row in doubles in the per-pixel
// order.  Every table entry is the very expression the per-pixel
// formula evaluates, so the bytes match a direct per-pixel evaluation
// exactly; tests/media/synthetic_video_test.cpp pins them, and the TU
// is built without floating-point contraction (a fused multiply-add
// would change them).
//
// One term is not separable: the second background sinusoid,
// sin(arg_x + arg_y + phase).  The luma renderer evaluates it by the
// angle-sum identity from per-column and per-row sin/cos, which is
// close to but not the same double.  A proven bound on the difference
// (derived in synthetic_video.cpp) certifies a pixel when its value is
// farther than the bound from every jump of the truncation
// (truncated_byte_is_certain); a row holding an uncertified pixel is
// re-rendered with the per-pixel sin, so the bytes are the exact
// evaluation's by construction.
#pragma once

#include <cmath>
#include <vector>

#include "media/frame.h"
#include "media/yuv.h"
#include "util/rng.h"

namespace qosctrl::media {

struct VideoConfig {
  int width = 176;    ///< QCIF by default
  int height = 144;
  int num_frames = 582;   ///< paper benchmark length
  int num_scenes = 9;     ///< paper: 9 sequences
  double noise_amplitude = 3.0;  ///< uniform sensor noise, gray levels
  std::uint64_t seed = 2005;
};

/// The distance from `p` to the nearest jump of the byte
/// static_cast<Sample>(std::clamp(p, 0.0, 255.0)), which steps at 1,
/// 2, ..., 255 and nowhere else.  For |p| < 2^51, (p + 1.5 * 2^52) -
/// 1.5 * 2^52 is p rounded to an integer, and clamped to [1, 255] that
/// is the nearest jump; a larger |p| rounds to some value on its own
/// side of all the jumps, which clamps to the nearest one as well.  The
/// final subtraction is exact for p in [0.5, 510] (Sterbenz) and
/// rounds monotonically elsewhere, so the result is above a double
/// `err` only when the true distance is.  Branch-free.
inline double truncation_jump_distance(double p) {
  constexpr double kRound = 0x1.8p52;
  const double nearest = (p + kRound) - kRound;
  const double low = nearest < 1.0 ? 1.0 : nearest;
  const double jump = low > 255.0 ? 255.0 : low;
  return std::abs(p - jump);
}

/// True when every real within `err` of `p` gives p's byte under
/// static_cast<Sample>(std::clamp(p, 0.0, 255.0)).
inline bool truncated_byte_is_certain(double p, double err) {
  return truncation_jump_distance(p) > err;
}

/// Deterministic scene-based video generator.
class SyntheticVideo {
 public:
  explicit SyntheticVideo(const VideoConfig& config);

  const VideoConfig& config() const { return config_; }
  int num_frames() const { return config_.num_frames; }

  /// Renders the luma of frame `index` (0-based).  Equal to
  /// frame_yuv(index).y.  `exact_rows`, when given, receives the number
  /// of rows whose fast pixels were not all certified and were
  /// re-rendered by the per-pixel loop.
  Frame frame(int index, int* exact_rows = nullptr) const;

  /// frame(index) with every row rendered by the per-pixel loop that
  /// frame() falls back to: the reference the tests compare the fast
  /// path with.  Byte-identical to frame(index).
  Frame frame_exact(int index) const;

  /// Renders the full 4:2:0 frame: the luma of frame() plus per-scene
  /// chroma fields that pan with the same motion (so chroma is
  /// motion-compensable exactly like luma).
  YuvFrame frame_yuv(int index) const;

  /// Scene index of a frame (0-based).
  int scene_of(int index) const;

  /// True when `index` is the first frame of a new scene (a hard cut);
  /// frame 0 counts as a cut.
  bool is_scene_cut(int index) const;

  /// First frame index of each scene.
  std::vector<int> scene_starts() const;

 private:
  struct MovingObject {
    double cx, cy;      ///< center at scene start (pixels)
    double vx, vy;      ///< velocity (pixels/frame)
    double radius;      ///< half-size
    double brightness;  ///< additive level
    double phase;       ///< texture phase
    double tint_cb, tint_cr;  ///< chroma shift inside the object
  };
  struct Scene {
    double base_level;     ///< background brightness
    double fx1, fy1, ph1;  ///< background sinusoid 1 (freq/phase)
    double fx2, fy2, ph2;  ///< background sinusoid 2
    double amp1, amp2;
    double pan_vx, pan_vy;  ///< global pan velocity (pixels/frame)
    double cb_base, cr_base;  ///< scene color cast
    double chroma_freq, chroma_amp, chroma_phase;  ///< chroma texture
    std::vector<MovingObject> objects;
  };

  Frame render_luma(int index, bool all_exact, int* exact_rows) const;

  VideoConfig config_;
  std::vector<Scene> scenes_;
  std::vector<int> starts_;  ///< first frame of each scene
};

}  // namespace qosctrl::media
