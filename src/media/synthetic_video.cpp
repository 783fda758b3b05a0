#include "media/synthetic_video.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/check.h"

namespace qosctrl::media {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Cheap deterministic per-pixel noise in [-1, 1]: a hash of
/// seed ^ noise_key(x, kNoiseX) ^ noise_key(y, kNoiseY) ^
/// noise_key(t, kNoiseT).
constexpr std::uint64_t kNoiseX = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kNoiseY = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kNoiseT = 0x165667b19e3779f9ULL;

std::uint64_t noise_key(int v, std::uint64_t k) {
  return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) * k;
}

double noise_of(std::uint64_t h) {
  h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  // The 24-bit value converts exactly through int32.
  return (static_cast<double>(static_cast<std::int32_t>(h & 0xffffff)) /
          double(0xffffff)) * 2.0 - 1.0;
}

/// One moving object's disc at one frame, on a sample grid whose
/// sample (i, j) sits at luma position (step * i, step * j).  Only the
/// samples of its bounding box can lie inside it (|dx| and |dy| must
/// both be below the radius), so the box, widened by one sample against
/// rounding and clipped to the grid, is all a renderer has to visit.
struct Disc {
  int x0 = 0, y0 = 0;  ///< first column / row of the box
  int y1 = 0;          ///< one past its last row
  double r2 = 0.0;     ///< squared radius
  std::vector<double> dx;  ///< step * i - cx per box column
  std::vector<double> dy;  ///< step * j - cy per box row
  std::vector<double> tex_x, tex_y;  ///< luma texture factors (frame())
};

/// The half-open range of samples i in [0, n) with |step * i - c| < r,
/// plus a one-sample margin.
std::pair<int, int> box_span(double c, double r, int step, int n) {
  const double lo = std::floor((c - r) / step) - 1.0;
  const double hi = std::ceil((c + r) / step) + 1.0;
  return {static_cast<int>(std::clamp(lo, 0.0, static_cast<double>(n))),
          static_cast<int>(std::clamp(hi, 0.0, static_cast<double>(n)))};
}

Disc disc_at(double cx, double cy, double radius, int step, int width,
             int height) {
  Disc d;
  d.r2 = radius * radius;
  const auto [x0, x1] = box_span(cx, radius, step, width);
  const auto [y0, y1] = box_span(cy, radius, step, height);
  d.x0 = x0;
  d.y0 = y0;
  d.y1 = y1;
  for (int i = x0; i < x1; ++i) d.dx.push_back(step * i - cx);
  for (int j = y0; j < y1; ++j) d.dy.push_back(step * j - cy);
  return d;
}

}  // namespace

SyntheticVideo::SyntheticVideo(const VideoConfig& config) : config_(config) {
  QC_EXPECT(config.width > 0 && config.height > 0,
            "video dimensions must be positive");
  QC_EXPECT(config.num_frames >= 1, "at least one frame required");
  QC_EXPECT(config.num_scenes >= 1 &&
                config.num_scenes <= config.num_frames,
            "scene count must be in [1, num_frames]");

  util::Rng rng(config.seed);
  const double w = config.width;
  const double h = config.height;
  for (int s = 0; s < config.num_scenes; ++s) {
    Scene scene;
    scene.base_level = rng.uniform(80.0, 170.0);
    scene.fx1 = rng.uniform(0.01, 0.08);
    scene.fy1 = rng.uniform(0.01, 0.08);
    scene.ph1 = rng.uniform(0.0, 2.0 * kPi);
    scene.fx2 = rng.uniform(0.08, 0.35);
    scene.fy2 = rng.uniform(0.08, 0.35);
    scene.ph2 = rng.uniform(0.0, 2.0 * kPi);
    scene.amp1 = rng.uniform(15.0, 40.0);
    scene.amp2 = rng.uniform(10.0, 25.0);
    // Scenes come in three activity classes so per-scene load levels
    // differ visibly, as in the paper's figures.  Pans are integer-
    // valued so full-pel motion search *can* lock on exactly — provided
    // the window is wide enough.  Two scenes (the paper's two skip-
    // burst regions) pan at Chebyshev radius 5: beyond constant q=3
    // (radius 3) and q=4 (radius 4), trackable only at q >= 5.
    const bool busy = (s == 2 || s == 6) || (s >= 9 && s % 3 == 1);
    const bool medium = !busy && (s % 2 == 1);
    const int pan_mag = busy ? 5 : (medium ? 2 : 1);
    scene.pan_vx = static_cast<double>(rng.uniform_i64(-pan_mag, pan_mag));
    scene.pan_vy = static_cast<double>(rng.uniform_i64(-pan_mag, pan_mag));
    if (busy) {
      // Force the dominant component to the full magnitude.
      scene.pan_vx = (scene.pan_vx >= 0) ? pan_mag : -pan_mag;
    }
    const int n_objects = static_cast<int>(rng.uniform_i64(3, 6));
    for (int o = 0; o < n_objects; ++o) {
      MovingObject obj;
      obj.cx = rng.uniform(0.0, w);
      obj.cy = rng.uniform(0.0, h);
      const double speed = busy ? 5.0 : (medium ? 3.5 : 2.5);
      obj.vx = rng.uniform(-speed, speed);
      obj.vy = rng.uniform(-speed, speed);
      obj.radius = rng.uniform(8.0, 24.0);
      obj.brightness = rng.uniform(-60.0, 60.0);
      obj.phase = rng.uniform(0.0, 2.0 * kPi);
      obj.tint_cb = rng.uniform(-30.0, 30.0);
      obj.tint_cr = rng.uniform(-30.0, 30.0);
      scene.objects.push_back(obj);
    }
    scene.cb_base = rng.uniform(110.0, 146.0);
    scene.cr_base = rng.uniform(110.0, 146.0);
    scene.chroma_freq = rng.uniform(0.005, 0.03);
    scene.chroma_amp = rng.uniform(8.0, 20.0);
    scene.chroma_phase = rng.uniform(0.0, 2.0 * kPi);
    scenes_.push_back(std::move(scene));
  }

  // Evenly sized scenes (remainder spread over the first ones).
  starts_.resize(static_cast<std::size_t>(config.num_scenes));
  const int base = config.num_frames / config.num_scenes;
  const int extra = config.num_frames % config.num_scenes;
  int at = 0;
  for (int s = 0; s < config.num_scenes; ++s) {
    starts_[static_cast<std::size_t>(s)] = at;
    at += base + (s < extra ? 1 : 0);
  }
}

int SyntheticVideo::scene_of(int index) const {
  QC_EXPECT(index >= 0 && index < config_.num_frames,
            "frame index out of range");
  int s = config_.num_scenes - 1;
  while (s > 0 && starts_[static_cast<std::size_t>(s)] > index) --s;
  return s;
}

bool SyntheticVideo::is_scene_cut(int index) const {
  QC_EXPECT(index >= 0 && index < config_.num_frames,
            "frame index out of range");
  for (int s : starts_) {
    if (s == index) return true;
  }
  return false;
}

std::vector<int> SyntheticVideo::scene_starts() const { return starts_; }

Frame SyntheticVideo::frame(int index, int* exact_rows) const {
  return render_luma(index, false, exact_rows);
}

Frame SyntheticVideo::frame_exact(int index) const {
  return render_luma(index, true, nullptr);
}

Frame SyntheticVideo::render_luma(int index, bool all_exact,
                                  int* exact_rows) const {
  const int s = scene_of(index);
  const Scene& scene = scenes_[static_cast<std::size_t>(s)];
  const int local_t = index - starts_[static_cast<std::size_t>(s)];
  const int width = config_.width;
  const int height = config_.height;
  const double ox = scene.pan_vx * local_t;
  const double oy = scene.pan_vy * local_t;

  // Background: sinusoid 1 is a product of an x-only and a y-only
  // factor.  Sinusoid 2's argument is a sum of an x-only and a y-only
  // term: the exact path evaluates sin(arg2_x + arg2_y + ph2) per pixel,
  // the fast path sin(a + b) = sin a cos b + cos a sin b from per-column
  // sin/cos of a = arg2_x and one sin/cos pair of b = arg2_y + ph2 per
  // row.
  std::vector<double> sin1_x(static_cast<std::size_t>(width));
  std::vector<double> arg2_x(static_cast<std::size_t>(width));
  std::vector<double> sin2_x(static_cast<std::size_t>(width));
  std::vector<double> cos2_x(static_cast<std::size_t>(width));
  double max_arg_x = 0.0;
  for (int x = 0; x < width; ++x) {
    const std::size_t i = static_cast<std::size_t>(x);
    const double wx = x + ox;
    sin1_x[i] = scene.amp1 * std::sin(scene.fx1 * wx * 2.0 * kPi + scene.ph1);
    arg2_x[i] = scene.fx2 * wx * 2.0 * kPi;
    sin2_x[i] = std::sin(arg2_x[i]);
    cos2_x[i] = std::cos(arg2_x[i]);
    max_arg_x = std::max(max_arg_x, std::abs(arg2_x[i]));
  }
  std::vector<double> cos1_y(static_cast<std::size_t>(height));
  std::vector<double> arg2_y(static_cast<std::size_t>(height));
  double max_arg_y = 0.0;
  for (int y = 0; y < height; ++y) {
    const double wy = y + oy;
    cos1_y[static_cast<std::size_t>(y)] = std::cos(scene.fy1 * wy * 2.0 * kPi);
    arg2_y[static_cast<std::size_t>(y)] = scene.fy2 * wy * 2.0 * kPi;
    max_arg_y =
        std::max(max_arg_y, std::abs(arg2_y[static_cast<std::size_t>(y)]));
  }

  // Moving objects: smooth discs with soft edges and a little internal
  // texture, 0.3 * sin(0.5 * dx + phase) * cos(0.5 * dy).
  std::vector<Disc> discs;
  discs.reserve(scene.objects.size());
  double object_level = 0.0;
  for (const auto& obj : scene.objects) {
    Disc d = disc_at(obj.cx + obj.vx * local_t, obj.cy + obj.vy * local_t,
                     obj.radius, 1, width, height);
    d.tex_x.resize(d.dx.size());
    for (std::size_t i = 0; i < d.dx.size(); ++i) {
      d.tex_x[i] = 0.3 * std::sin(0.5 * d.dx[i] + obj.phase);
    }
    d.tex_y.resize(d.dy.size());
    for (std::size_t j = 0; j < d.dy.size(); ++j) {
      d.tex_y[j] = std::cos(0.5 * d.dy[j]);
    }
    discs.push_back(std::move(d));
    object_level += 1.3 * std::abs(obj.brightness);
  }

  // How far the fast pixel value p_f can lie from the exact one p_e.
  // u = 2^-53 is the unit roundoff; libm's sin and cos are taken to be
  // within 1 ulp, i.e. |sin_libm(z) - sin(z)| <= 2u |sin(z)| (same for
  // cos).  Write a = arg2_x, c = arg2_y, f = ph2, and let A bound
  // |a| + |c| + |f| over the frame.
  //  1. Arguments.  The exact path's argument t = fl(fl(a + c) + f) and
  //     the fast path's a + b, b = fl(c + f), each carry roundings of
  //     at most u A (1 + u): |t - (a + b)| <= u A (3 + u).  sin is
  //     1-Lipschitz, so sin(t) and sin(a + b) differ by as much.
  //  2. libm.  The exact sin_libm(t) is within 2u of sin(t).  With
  //     S_a = sin_libm(a) etc., |S_a C_b - sin a cos b| <= 4u (1 + u)
  //     |sin a cos b|, likewise for C_a S_b, and |sin a cos b| +
  //     |cos a sin b| <= 1 (Cauchy-Schwarz): 4u (1 + u) in all.
  //  3. The fast sum.  fl(fl(S_a C_b) + fl(C_a S_b)) rounds two
  //     products of total magnitude <= (1 + 2u)^2 and their sum:
  //     <= 2u (1 + 2u)^2 (1 + u).  A fused multiply-add (AArch64
  //     contraction; this TU turns contraction off) drops one of these
  //     roundings and stays inside the bound.
  //     So the two sines differ by delta <= (3A + 8) u + O(u^2 (A + 14)),
  //     the exact one has magnitude <= 1 + 2u and the fast one <= 1 + 7u.
  //  4. Propagation.  fl(amp2 * s) then differs by <= amp2 (delta + u
  //     (2 + 9u)).  The rest of the pixel -- + background, + each
  //     covering disc (at most n), + noise -- adds terms both paths
  //     share, and each of those n + 2 roundings moves the two results
  //     apart by at most u (|y_f| + |y_e|) <= 2uV, where V bounds every
  //     partial sum: base + amp1 + amp2 + 1.3 sum|brightness| + noise,
  //     times 1.01 for the libm and rounding excess (< 2^-40 relative)
  //     over those nominal amplitudes.
  // Hence |p_f - p_e| <= amp2 u (3A + 12) + 2uV (n + 2), where + 12
  // rather than + 10 absorbs the O(u^2) terms for A < 2^40.  The bound
  // is doubled for the few roundings of its own evaluation.  A row
  // whose every fast byte is truncated_byte_is_certain() at that bound
  // is byte-identical to the exact row; any other row is re-rendered
  // by the exact loop.  Past A = 2^40 every row is.
  constexpr double kU = 0x1p-53;
  const double arg_bound = max_arg_x + max_arg_y + std::abs(scene.ph2);
  const double level_bound =
      1.01 * (std::abs(scene.base_level) + scene.amp1 + scene.amp2 +
              object_level + std::abs(config_.noise_amplitude));
  const double err =
      arg_bound < 0x1p40
          ? 2.0 * (scene.amp2 * kU * (3.0 * arg_bound + 12.0) +
                   2.0 * kU * level_bound *
                       static_cast<double>(discs.size() + 2))
          : std::numeric_limits<double>::infinity();

  const double above_err =
      std::nextafter(err, std::numeric_limits<double>::infinity());

  // Noise keys: the hash input is an xor of a per-column and a per-row
  // term.
  std::vector<std::uint64_t> noise_x(static_cast<std::size_t>(width));
  for (int x = 0; x < width; ++x) {
    noise_x[static_cast<std::size_t>(x)] = noise_key(x, kNoiseX);
  }
  const std::uint64_t frame_key = config_.seed ^ noise_key(index, kNoiseT);

  Frame out(width, height);
  std::vector<double> v(static_cast<std::size_t>(width));
  // Renders row y into `out`; false when the fast background left a
  // byte that truncated_byte_is_certain() does not certify.
  const auto render_row = [&](int y, bool exact) {
    const double cos1 = cos1_y[static_cast<std::size_t>(y)];
    const double arg2 = arg2_y[static_cast<std::size_t>(y)];
    if (exact) {
      for (std::size_t x = 0; x < v.size(); ++x) {
        double p = scene.base_level;
        p += sin1_x[x] * cos1;
        p += scene.amp2 * std::sin(arg2_x[x] + arg2 + scene.ph2);
        v[x] = p;
      }
    } else {
      const double b = arg2 + scene.ph2;
      const double sin_b = std::sin(b);
      const double cos_b = std::cos(b);
      for (std::size_t x = 0; x < v.size(); ++x) {
        double p = scene.base_level;
        p += sin1_x[x] * cos1;
        p += scene.amp2 * (sin2_x[x] * cos_b + cos2_x[x] * sin_b);
        v[x] = p;
      }
    }
    for (std::size_t o = 0; o < discs.size(); ++o) {
      const Disc& d = discs[o];
      if (y < d.y0 || y >= d.y1) continue;
      const std::size_t j = static_cast<std::size_t>(y - d.y0);
      const double dy2 = d.dy[j] * d.dy[j];
      const double tex_y = d.tex_y[j];
      const double brightness = scene.objects[o].brightness;
      for (std::size_t i = 0; i < d.dx.size(); ++i) {
        const double d2 = d.dx[i] * d.dx[i] + dy2;
        if (d2 < d.r2) {
          const double falloff = 1.0 - d2 / d.r2;
          const double texture = d.tex_x[i] * tex_y;
          v[static_cast<std::size_t>(d.x0) + i] +=
              brightness * falloff * (1.0 + texture);
        }
      }
    }
    const std::uint64_t row_key = frame_key ^ noise_key(y, kNoiseY);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] += config_.noise_amplitude * noise_of(noise_x[i] ^ row_key);
    }
    // The bytes, and truncated_byte_is_certain(p, err) for the whole
    // row without a branch: distance - above_err is negative exactly
    // when distance <= err (no double lies between err and above_err,
    // and a difference of doubles is zero only when they are equal), so
    // the OR of the differences' sign bits flags a row with an
    // uncertain byte.
    Sample* row = out.row(y);
    const double* const p = v.data();
    std::uint64_t uncertain = 0;
    for (std::size_t x = 0, n = v.size(); x < n; ++x) {
      row[x] = static_cast<Sample>(std::clamp(p[x], 0.0, 255.0));
      uncertain |= std::bit_cast<std::uint64_t>(
          truncation_jump_distance(p[x]) - above_err);
    }
    return exact || (uncertain >> 63) == 0;
  };
  int fallbacks = 0;
  for (int y = 0; y < height; ++y) {
    if (!render_row(y, all_exact)) {
      render_row(y, true);
      ++fallbacks;
    }
  }
  if (exact_rows != nullptr) *exact_rows = fallbacks;
  return out;
}

YuvFrame SyntheticVideo::frame_yuv(int index) const {
  const int s = scene_of(index);
  const Scene& scene = scenes_[static_cast<std::size_t>(s)];
  const int local_t = index - starts_[static_cast<std::size_t>(s)];

  YuvFrame out;
  out.y = frame(index);
  out.cb = Plane(config_.width / 2, config_.height / 2);
  out.cr = Plane(config_.width / 2, config_.height / 2);
  const int width = out.cb.width();
  const int height = out.cb.height();

  // Chroma sample (cx, cy) sits at luma position (2cx, 2cy); the color
  // fields live in world coordinates so they pan with the luma.  Before
  // the object tints, cb depends on cx only and cr on cy only.
  const double ox = scene.pan_vx * local_t;
  const double oy = scene.pan_vy * local_t;
  std::vector<double> cb_x(static_cast<std::size_t>(width));
  for (int cx = 0; cx < width; ++cx) {
    const double wx = 2 * cx + ox;
    cb_x[static_cast<std::size_t>(cx)] =
        scene.cb_base +
        scene.chroma_amp *
            std::sin(scene.chroma_freq * wx * 2.0 * kPi + scene.chroma_phase);
  }
  std::vector<Disc> discs;
  discs.reserve(scene.objects.size());
  for (const auto& obj : scene.objects) {
    discs.push_back(disc_at(obj.cx + obj.vx * local_t,
                            obj.cy + obj.vy * local_t, obj.radius, 2, width,
                            height));
  }

  std::vector<double> cb(static_cast<std::size_t>(width));
  std::vector<double> cr(static_cast<std::size_t>(width));
  for (int cy = 0; cy < height; ++cy) {
    const double wy = 2 * cy + oy;
    const double cr_y =
        scene.cr_base +
        scene.chroma_amp *
            std::cos(scene.chroma_freq * wy * 2.0 * kPi + scene.chroma_phase);
    cb = cb_x;
    std::fill(cr.begin(), cr.end(), cr_y);
    for (std::size_t o = 0; o < discs.size(); ++o) {
      const Disc& d = discs[o];
      if (cy < d.y0 || cy >= d.y1) continue;
      const double dy = d.dy[static_cast<std::size_t>(cy - d.y0)];
      const double dy2 = dy * dy;
      const MovingObject& obj = scene.objects[o];
      for (std::size_t i = 0; i < d.dx.size(); ++i) {
        const double d2 = d.dx[i] * d.dx[i] + dy2;
        if (d2 < d.r2) {
          const double falloff = 1.0 - d2 / d.r2;
          cb[static_cast<std::size_t>(d.x0) + i] += obj.tint_cb * falloff;
          cr[static_cast<std::size_t>(d.x0) + i] += obj.tint_cr * falloff;
        }
      }
    }
    Sample* cb_row = out.cb.row(cy);
    Sample* cr_row = out.cr.row(cy);
    for (int cx = 0; cx < width; ++cx) {
      cb_row[cx] = static_cast<Sample>(
          std::clamp(cb[static_cast<std::size_t>(cx)], 0.0, 255.0));
      cr_row[cx] = static_cast<Sample>(
          std::clamp(cr[static_cast<std::size_t>(cx)], 0.0, 255.0));
    }
  }
  return out;
}

}  // namespace qosctrl::media
