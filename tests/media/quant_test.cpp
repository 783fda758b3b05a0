#include "media/quant.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/rng.h"

namespace qosctrl::media {
namespace {

TEST(Quant, ZeroMapsToZero) {
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    EXPECT_EQ(quantize_coeff(0, qp), 0);
    EXPECT_EQ(dequantize_coeff(0, qp), 0);
  }
}

TEST(Quant, RoundsToNearestStep) {
  // step = 2 * qp = 8 at qp 4.
  EXPECT_EQ(quantize_coeff(3, 4), 0);
  EXPECT_EQ(quantize_coeff(4, 4), 1);   // mid-tread rounds up at half
  EXPECT_EQ(quantize_coeff(8, 4), 1);
  EXPECT_EQ(quantize_coeff(12, 4), 2);
}

TEST(Quant, SignSymmetry) {
  util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto c = static_cast<std::int32_t>(rng.uniform_i64(-2000, 2000));
    const int qp = static_cast<int>(rng.uniform_i64(kMinQp, kMaxQp));
    EXPECT_EQ(quantize_coeff(-c, qp), -quantize_coeff(c, qp));
  }
}

TEST(Quant, ReconstructionErrorBoundedByHalfStep) {
  util::Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    const auto c = static_cast<std::int32_t>(rng.uniform_i64(-3000, 3000));
    const int qp = static_cast<int>(rng.uniform_i64(kMinQp, kMaxQp));
    const std::int32_t recon = dequantize_coeff(quantize_coeff(c, qp), qp);
    EXPECT_LE(std::abs(recon - c), qp) << "c=" << c << " qp=" << qp;
  }
}

TEST(Quant, CoarserQpNeverIncreasesLevelMagnitude) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const auto c = static_cast<std::int32_t>(rng.uniform_i64(-3000, 3000));
    for (int qp = kMinQp; qp < kMaxQp; ++qp) {
      EXPECT_GE(std::abs(quantize_coeff(c, qp)),
                std::abs(quantize_coeff(c, qp + 1)));
    }
  }
}

TEST(Quant, BlockHelpersMatchScalar) {
  util::Rng rng(4);
  Coeffs8 coeffs;
  for (auto& v : coeffs) {
    v = static_cast<std::int32_t>(rng.uniform_i64(-500, 500));
  }
  const Coeffs8 levels = quantize_block(coeffs, 6);
  const Coeffs8 recon = dequantize_block(levels, 6);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(levels[i], quantize_coeff(coeffs[i], 6));
    EXPECT_EQ(recon[i], dequantize_coeff(levels[i], 6));
  }
}

TEST(Quant, BlockMatchesScalarExhaustively) {
  // Every QP and every coefficient in the range quantize_block accepts,
  // |c| <= 2^16 (twice the forward DCT's largest output on the
  // encoder's 9-bit residuals), 64 consecutive values per block.
  constexpr std::int32_t kBound = 1 << 16;
  for (int qp = kMinQp; qp <= kMaxQp; ++qp) {
    for (std::int32_t first = -kBound; first <= kBound; first += 64) {
      Coeffs8 coeffs;
      for (std::size_t i = 0; i < coeffs.size(); ++i) {
        coeffs[i] = std::min<std::int32_t>(
            first + static_cast<std::int32_t>(i), kBound);
      }
      const Coeffs8 levels = quantize_block(coeffs, qp);
      for (std::size_t i = 0; i < coeffs.size(); ++i) {
        if (levels[i] != quantize_coeff(coeffs[i], qp)) {
          FAIL() << "qp " << qp << " c " << coeffs[i] << ": " << levels[i]
                 << " != " << quantize_coeff(coeffs[i], qp);
        }
      }
    }
  }
}

TEST(Quant, CountNonzero) {
  Coeffs8 c{};
  EXPECT_EQ(count_nonzero(c), 0);
  c[0] = 5;
  c[63] = -1;
  EXPECT_EQ(count_nonzero(c), 2);
}

TEST(QuantDeath, RejectsOutOfRangeQp) {
  EXPECT_DEATH(quantize_coeff(10, 0), "QP");
  EXPECT_DEATH(quantize_coeff(10, 32), "QP");
}

}  // namespace
}  // namespace qosctrl::media
