#include "media/synthetic_video.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "util/check.h"

namespace qosctrl::media {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Cheap deterministic per-pixel noise hash in [-1, 1].
double noise_hash(int x, int y, int t, std::uint64_t seed) {
  std::uint64_t h = seed;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(x)) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(y)) * 0xc2b2ae3d27d4eb4fULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(t)) * 0x165667b19e3779f9ULL;
  h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 32;
  return (static_cast<double>(h & 0xffffff) / double(0xffffff)) * 2.0 - 1.0;
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

Frame SyntheticVideo::frame(int index) const {
  const int s = scene_of(index);
  const Scene& scene = scenes_[static_cast<std::size_t>(s)];
  const int local_t = index - starts_[static_cast<std::size_t>(s)];
  const int width = config_.width;
  const int height = config_.height;
  const double ox = scene.pan_vx * local_t;
  const double oy = scene.pan_vy * local_t;

  // Background: sinusoid 1 is a product of an x-only and a y-only
  // factor; sinusoid 2's argument is a sum of an x-only and a y-only
  // term, so only its sin() is left per pixel.
  std::vector<double> sin1_x(static_cast<std::size_t>(width));
  std::vector<double> arg2_x(static_cast<std::size_t>(width));
  for (int x = 0; x < width; ++x) {
    const double wx = x + ox;
    sin1_x[static_cast<std::size_t>(x)] =
        scene.amp1 * std::sin(scene.fx1 * wx * 2.0 * kPi + scene.ph1);
    arg2_x[static_cast<std::size_t>(x)] = scene.fx2 * wx * 2.0 * kPi;
  }
  std::vector<double> cos1_y(static_cast<std::size_t>(height));
  std::vector<double> arg2_y(static_cast<std::size_t>(height));
  for (int y = 0; y < height; ++y) {
    const double wy = y + oy;
    cos1_y[static_cast<std::size_t>(y)] = std::cos(scene.fy1 * wy * 2.0 * kPi);
    arg2_y[static_cast<std::size_t>(y)] = scene.fy2 * wy * 2.0 * kPi;
  }

  // Moving objects: smooth discs with soft edges and a little internal
  // texture, 0.3 * sin(0.5 * dx + phase) * cos(0.5 * dy).
  std::vector<Disc> discs;
  discs.reserve(scene.objects.size());
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
  }

  Frame out(width, height);
  std::vector<double> v(static_cast<std::size_t>(width));
  for (int y = 0; y < height; ++y) {
    const double cos1 = cos1_y[static_cast<std::size_t>(y)];
    const double arg2 = arg2_y[static_cast<std::size_t>(y)];
    for (std::size_t x = 0; x < v.size(); ++x) {
      double p = scene.base_level;
      p += sin1_x[x] * cos1;
      p += scene.amp2 * std::sin(arg2_x[x] + arg2 + scene.ph2);
      v[x] = p;
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
    Sample* row = out.row(y);
    for (int x = 0; x < width; ++x) {
      const double p = v[static_cast<std::size_t>(x)] +
                       config_.noise_amplitude *
                           noise_hash(x, y, index, config_.seed);
      row[x] = static_cast<Sample>(std::clamp(p, 0.0, 255.0));
    }
  }
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
