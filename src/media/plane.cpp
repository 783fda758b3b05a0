#include "media/plane.h"

#include <algorithm>
#include <cstring>

namespace qosctrl::media {

Plane::Plane(int width, int height, Sample fill)
    : width_(width), height_(height) {
  QC_EXPECT(width > 0 && height > 0, "plane dimensions must be positive");
  QC_EXPECT(width % kTransformSize == 0 && height % kTransformSize == 0,
            "plane dimensions must be multiples of 8");
  data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height),
               fill);
}

Sample Plane::at_clamped(int x, int y) const {
  return at(std::clamp(x, 0, width_ - 1), std::clamp(y, 0, height_ - 1));
}

Block8 read_plane_block8(const Plane& plane, int x0, int y0) {
  QC_EXPECT(plane.in_bounds(x0, y0) &&
                plane.in_bounds(x0 + kTransformSize - 1,
                                y0 + kTransformSize - 1),
            "plane block out of bounds");
  Block8 out;
  for (int y = 0; y < kTransformSize; ++y) {
    const Sample* src = plane.row(y0 + y) + x0;
    Residual* dst = out.data() + y * kTransformSize;
    for (int x = 0; x < kTransformSize; ++x) {
      dst[x] = static_cast<Residual>(src[x]);
    }
  }
  return out;
}

void write_plane_block8(Plane& plane, int x0, int y0,
                        const std::array<Sample, 64>& pixels) {
  QC_EXPECT(plane.in_bounds(x0, y0) &&
                plane.in_bounds(x0 + kTransformSize - 1,
                                y0 + kTransformSize - 1),
            "plane block out of bounds");
  const Sample* src = pixels.data();
  for (int y = 0; y < kTransformSize; ++y) {
    std::memcpy(plane.row(y0 + y) + x0, src, kTransformSize);
    src += kTransformSize;
  }
}

namespace {

/// The 8x8 half-pel interpolation of chroma_motion_compensate over the
/// samples at(x, y), x and y in [0, 8].
template <typename At>
std::array<Sample, 64> interpolate_8x8(const At& at, int fx, int fy) {
  std::array<Sample, 64> out;
  for (int y = 0; y < kTransformSize; ++y) {
    for (int x = 0; x < kTransformSize; ++x) {
      const int a = at(x, y);
      int v;
      if (fx == 0 && fy == 0) {
        v = a;
      } else if (fx == 1 && fy == 0) {
        v = (a + at(x + 1, y) + 1) / 2;
      } else if (fx == 0) {
        v = (a + at(x, y + 1) + 1) / 2;
      } else {
        v = (a + at(x + 1, y) + at(x, y + 1) + at(x + 1, y + 1) + 2) / 4;
      }
      out[static_cast<std::size_t>(y * kTransformSize + x)] =
          static_cast<Sample>(v);
    }
  }
  return out;
}

}  // namespace

std::array<Sample, 64> chroma_motion_compensate(const Plane& reference,
                                                int x0, int y0, int luma_dx2,
                                                int luma_dy2) {
  // Chroma displacement is half the luma displacement.  luma_dx2 is in
  // half-pel luma units, so the chroma offset in half-pel *chroma*
  // units is luma_dx2 / 2, rounded toward zero and carrying the
  // half-pel remainder.
  const int cdx2 = luma_dx2 / 2 + (luma_dx2 % 2);  // round away-from-zero half
  const int cdy2 = luma_dy2 / 2 + (luma_dy2 % 2);
  const int ix = (cdx2 >= 0) ? cdx2 / 2 : (cdx2 - 1) / 2;
  const int iy = (cdy2 >= 0) ? cdy2 / 2 : (cdy2 - 1) / 2;
  const int fx = cdx2 - 2 * ix;
  const int fy = cdy2 - 2 * iy;
  const int bx = x0 + ix;
  const int by = y0 + iy;
  // The interpolation reads the 9x9 samples from (bx, by).  Inside the
  // plane they are read directly; otherwise each coordinate is clamped
  // to the edge, which changes nothing for one inside it.
  if (reference.in_bounds(bx, by) &&
      reference.in_bounds(bx + kTransformSize, by + kTransformSize)) {
    const Sample* origin = reference.row(by) + bx;
    const int stride = reference.stride();
    return interpolate_8x8(
        [origin, stride](int x, int y) { return origin[y * stride + x]; }, fx,
        fy);
  }
  return interpolate_8x8(
      [&reference, bx, by](int x, int y) {
        return reference.at_clamped(bx + x, by + y);
      },
      fx, fy);
}

std::array<Sample, 64> chroma_dc_prediction(const Plane& recon, int x0,
                                            int y0) {
  int sum = 0;
  int count = 0;
  for (int x = 0; x < kTransformSize; ++x) {
    if (recon.in_bounds(x0 + x, y0 - 1)) {
      sum += recon.at(x0 + x, y0 - 1);
      ++count;
    }
  }
  for (int y = 0; y < kTransformSize; ++y) {
    if (recon.in_bounds(x0 - 1, y0 + y)) {
      sum += recon.at(x0 - 1, y0 + y);
      ++count;
    }
  }
  const Sample dc =
      count > 0 ? static_cast<Sample>((sum + count / 2) / count) : 128;
  std::array<Sample, 64> out;
  out.fill(dc);
  return out;
}

double plane_sse(const Plane& a, const Plane& b) {
  QC_EXPECT(a.width() == b.width() && a.height() == b.height(),
            "planes must have equal dimensions");
  double acc = 0.0;
  const auto& da = a.data();
  const auto& db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    const double d = static_cast<double>(da[i]) - static_cast<double>(db[i]);
    acc += d * d;
  }
  return acc;
}

}  // namespace qosctrl::media
