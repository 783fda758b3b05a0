// Uniform mid-tread quantization of DCT coefficients, MPEG-4 style:
// step = 2 * QP with QP in [1, 31].  Reconstruction is level * step.
#pragma once

#include "media/frame.h"

namespace qosctrl::media {

inline constexpr int kMinQp = 1;
inline constexpr int kMaxQp = 31;

/// Quantizes one coefficient with quantization parameter `qp`.
std::int32_t quantize_coeff(std::int32_t c, int qp);

/// Reconstructs a coefficient from its quantized level.
std::int32_t dequantize_coeff(std::int32_t level, int qp);

/// The largest coefficient magnitude quantize_block accepts (checked in
/// debug builds): the inverse DCT's input range, eight times the
/// forward DCT's largest output over its 10-bit input range.
inline constexpr std::int32_t kMaxQuantCoeff = 1 << 16;

/// Blockwise helpers.  quantize_block equals quantize_coeff on every
/// coefficient with |c| <= kMaxQuantCoeff; it checks the QP once per
/// block and multiplies by an exact per-QP reciprocal.
Coeffs8 quantize_block(const Coeffs8& coeffs, int qp);
Coeffs8 dequantize_block(const Coeffs8& levels, int qp);

/// Number of non-zero levels in a quantized block (drives the entropy
/// coder's work scale).
int count_nonzero(const Coeffs8& levels);

}  // namespace qosctrl::media
