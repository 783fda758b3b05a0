#include "media/quant.h"

#include <cstdlib>

namespace qosctrl::media {

std::int32_t quantize_coeff(std::int32_t c, int qp) {
  QC_EXPECT(qp >= kMinQp && qp <= kMaxQp, "QP out of range");
  const int step = 2 * qp;
  const std::int32_t mag = (std::abs(c) + step / 2) / step;
  return c < 0 ? -mag : mag;
}

std::int32_t dequantize_coeff(std::int32_t level, int qp) {
  QC_EXPECT(qp >= kMinQp && qp <= kMaxQp, "QP out of range");
  return level * 2 * qp;
}

Coeffs8 quantize_block(const Coeffs8& coeffs, int qp) {
  QC_EXPECT(qp >= kMinQp && qp <= kMaxQp, "QP out of range");
  // quantize_coeff's (|c| + qp) / step as a multiply and shift.  With
  // m = ceil(2^32 / step) = (2^32 + e) / step, 0 <= e <= step - 1 <= 61,
  // and n = |c| + qp = q * step + r, 0 <= r < step:
  //   n * m / 2^32 = q + (r * 2^32 + n * e) / (step * 2^32),
  // and the fraction is in [0, 1) whenever n * e < 2^32, since then
  // r * 2^32 + n * e < (step - 1) * 2^32 + 2^32.  So the shifted
  // product is q exactly for n < 2^32 / 61, far above the
  // |c| <= kMaxQuantCoeff (n <= 2^16 + 31) this function accepts.
  // m <= 2^31, so the product is one 32 x 32 -> 64-bit multiply.
  const auto step = static_cast<std::uint32_t>(2 * qp);
  const auto m = static_cast<std::uint32_t>(
      ((std::uint64_t{1} << 32) + step - 1) / step);
  const auto half = static_cast<std::uint32_t>(qp);
  Coeffs8 out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const std::int32_t c = coeffs[i];
    QC_DCHECK(c >= -kMaxQuantCoeff && c <= kMaxQuantCoeff,
              "coefficient beyond the quantizer's range");
    const std::uint32_t n = static_cast<std::uint32_t>(std::abs(c)) + half;
    const auto mag =
        static_cast<std::int32_t>((std::uint64_t{n} * m) >> 32);
    out[i] = c < 0 ? -mag : mag;
  }
  return out;
}

Coeffs8 dequantize_block(const Coeffs8& levels, int qp) {
  QC_EXPECT(qp >= kMinQp && qp <= kMaxQp, "QP out of range");
  Coeffs8 out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = levels[i] * 2 * qp;
  }
  return out;
}

int count_nonzero(const Coeffs8& levels) {
  int n = 0;
  for (std::int32_t v : levels) n += (v != 0) ? 1 : 0;
  return n;
}

}  // namespace qosctrl::media
