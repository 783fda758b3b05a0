#include "encoder/frame_encoder.h"

#include <algorithm>

#include "media/dct.h"
#include "media/entropy.h"
#include "media/intra.h"
#include "media/motion.h"
#include "media/plane.h"
#include "media/quant.h"
#include "quality/distortion.h"
#include "util/bitio.h"
#include "util/check.h"

namespace qosctrl::enc {
namespace {

std::size_t quality_index_of(const rt::ParameterizedSystem& sys,
                             rt::QualityLevel q) {
  const auto& levels = sys.quality_levels();
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (levels[i] == q) return i;
  }
  QC_EXPECT(false, "controller chose a quality level outside Q");
}

}  // namespace

FrameEncoder::FrameEncoder(const EncoderConfig& config,
                           platform::CostModel cost_model)
    : config_(config),
      cost_model_(std::move(cost_model)),
      recon_(config.width, config.height),
      reference_(config.width, config.height) {
  QC_EXPECT(config.width % media::kMacroBlockSize == 0 &&
                config.height % media::kMacroBlockSize == 0,
            "frame dimensions must be multiples of 16");
}

FrameStats FrameEncoder::encode_frame(const media::YuvFrame& input,
                                      qos::Controller& controller,
                                      const rt::ParameterizedSystem& sys,
                                      int qp, rt::Cycles t0) {
  QC_EXPECT(input.width() == config_.width &&
                input.height() == config_.height,
            "input frame has wrong dimensions");
  QC_EXPECT(qp >= media::kMinQp && qp <= media::kMaxQp, "QP out of range");

  std::swap(reference_, recon_);
  if (has_reference_) {
    // One O(perimeter) pad replaces the per-pixel clamp branches in
    // every SAD and motion-compensation call of the frame.
    padded_reference_.update_from(reference_.y);
  }
  controller.start_cycle();

  // Frame header: geometry and quantizer (what enc::decode_frame needs
  // besides the reference frame).  The writer is empty: the previous
  // frame's finish() moved its bytes out.
  media::put_ue(frame_writer_,
                static_cast<std::uint32_t>(input.y.mb_cols()));
  media::put_ue(frame_writer_,
                static_cast<std::uint32_t>(input.y.mb_rows()));
  media::put_ue(frame_writer_, static_cast<std::uint32_t>(qp));

  FrameStats stats;
  stats.qp = qp;
  rt::Cycles t = t0;
  MbContext ctx;
  double quality_sum = 0.0;
  int quality_count = 0;
  rt::QualityLevel last_me_quality = sys.qmin();
  stats.min_quality = sys.qmax();
  stats.max_quality = sys.qmin();

  while (!controller.done()) {
    const qos::Decision d = controller.next(t);
    const UnrolledAction ua = decode_unrolled(d.action);
    const std::size_t qi = quality_index_of(sys, d.quality);

    const double work = run_action(ua, qi, qp, input, ctx);
    const rt::Cycles cost = cost_model_.sample(id(ua.action), qi, work);
    controller.observe(cost);
    t += cost;
    stats.encode_cycles += cost;
    stats.phase_cycles[static_cast<std::size_t>(phase_of(ua.action))] += cost;

    const rt::Cycles deadline = sys.deadline(d.quality, d.action);
    if (!rt::is_no_deadline(deadline) && t > deadline) {
      ++stats.deadline_misses;
    }
    if (ua.action == BodyAction::kMotionEstimate) {
      if (quality_count > 0) {
        stats.quality_change_sum +=
            std::abs(d.quality - last_me_quality);
      }
      last_me_quality = d.quality;
      quality_sum += static_cast<double>(d.quality);
      ++quality_count;
      stats.min_quality = std::min(stats.min_quality, d.quality);
      stats.max_quality = std::max(stats.max_quality, d.quality);
    }
    if (ua.action == BodyAction::kReconstruct && ctx.use_intra) {
      ++stats.intra_macroblocks;
    }
  }
  stats.bits = frame_writer_.bit_count();
  bitstream_ = frame_writer_.finish();
  has_reference_ = true;
  stats.mean_quality =
      quality_count > 0 ? quality_sum / quality_count : 0.0;
  // One block-moment pass yields both metrics (the PSNR route is
  // pinned bit-identical to media::psnr in tests/quality/).
  const quality::FrameDistortion distortion =
      quality::measure(input.y, recon_.y);
  stats.psnr = distortion.psnr;
  stats.ssim = distortion.ssim;
  return stats;
}

double FrameEncoder::run_action(const UnrolledAction& ua,
                                std::size_t quality_index, int qp,
                                const media::YuvFrame& input,
                                MbContext& ctx) {
  switch (ua.action) {
    case BodyAction::kGrabMacroBlock: {
      ctx = MbContext{};
      ctx.mb = ua.macroblock;
      const auto [x0, y0] = input.y.mb_origin(ua.macroblock);
      ctx.x0 = x0;
      ctx.y0 = y0;
      ctx.source = media::read_macroblock(input.y, x0, y0);
      for (int c = 0; c < 2; ++c) {
        const media::Plane& plane = (c == 0) ? input.cb : input.cr;
        const media::Block8 b =
            media::read_plane_block8(plane, x0 / 2, y0 / 2);
        for (std::size_t i = 0; i < 64; ++i) {
          ctx.source_c[static_cast<std::size_t>(c)][i] =
              static_cast<media::Sample>(b[i]);
        }
      }
      return 1.0;
    }

    case BodyAction::kMotionEstimate: {
      QC_ENSURE(ctx.mb == ua.macroblock, "action order broke MB context");
      const int radius = media::search_radius_for_level(quality_index);
      if (!has_reference_) {
        ctx.motion_valid = false;
        return 0.1;  // no reference: ME returns immediately
      }
      media::MotionConfig cfg;
      cfg.radius = radius;
      cfg.half_pel =
          config_.half_pel_min_level >= 0 &&
          static_cast<int>(quality_index) >= config_.half_pel_min_level;
      cfg.early_exit_sad =
          config_.me_early_exit_sad <= 0
              ? 0
              : config_.me_early_exit_sad +
                    static_cast<std::int64_t>(256.0 *
                                              config_.me_early_exit_qp_gain *
                                              qp);
      ctx.motion = media::estimate_motion(input.y, padded_reference_, ctx.x0,
                                          ctx.y0, cfg);
      ctx.motion_valid = true;
      const double typical =
          std::max(1.0, config_.typical_point_fraction *
                            static_cast<double>(ctx.motion.points_total));
      return config_.me_work_base +
             config_.me_work_span *
                 static_cast<double>(ctx.motion.points_examined) / typical;
    }

    case BodyAction::kIntraPredict: {
      // Mode decision + residual formation.  The spatial prediction is
      // always computed (the action has constant cost in Figure 5); it
      // wins when clearly better than the motion-compensated one.
      const media::IntraResult intra =
          media::intra_predict(input.y, recon_.y, ctx.x0, ctx.y0);
      ctx.use_intra = !ctx.motion_valid ||
                      intra.sad + config_.intra_bias <
                          ctx.motion.sad;
      if (ctx.use_intra) {
        ctx.intra_mode = intra.mode;
        ctx.prediction = intra.prediction;
        for (int c = 0; c < 2; ++c) {
          const media::Plane& plane = (c == 0) ? recon_.cb : recon_.cr;
          ctx.prediction_c[static_cast<std::size_t>(c)] =
              media::chroma_dc_prediction(plane, ctx.x0 / 2, ctx.y0 / 2);
        }
      } else {
        ctx.prediction = media::motion_compensate_halfpel(
            padded_reference_, ctx.x0, ctx.y0, ctx.motion.dx2,
            ctx.motion.dy2);
        for (int c = 0; c < 2; ++c) {
          const media::Plane& plane =
              (c == 0) ? reference_.cb : reference_.cr;
          ctx.prediction_c[static_cast<std::size_t>(c)] =
              media::chroma_motion_compensate(plane, ctx.x0 / 2, ctx.y0 / 2,
                                              ctx.motion.dx2,
                                              ctx.motion.dy2);
        }
      }
      for (int b = 0; b < 4; ++b) {
        const int bx = (b % 2) * media::kTransformSize;
        const int by = (b / 2) * media::kTransformSize;
        for (int y = 0; y < media::kTransformSize; ++y) {
          for (int x = 0; x < media::kTransformSize; ++x) {
            const int p = (by + y) * media::kMacroBlockSize + (bx + x);
            ctx.residual[static_cast<std::size_t>(b)]
                        [static_cast<std::size_t>(y * media::kTransformSize + x)] =
                static_cast<media::Residual>(
                    static_cast<int>(ctx.source[static_cast<std::size_t>(p)]) -
                    static_cast<int>(ctx.prediction[static_cast<std::size_t>(p)]));
          }
        }
      }
      for (int c = 0; c < 2; ++c) {
        for (std::size_t i = 0; i < 64; ++i) {
          ctx.residual_c[static_cast<std::size_t>(c)][i] =
              static_cast<media::Residual>(
                  static_cast<int>(
                      ctx.source_c[static_cast<std::size_t>(c)][i]) -
                  static_cast<int>(
                      ctx.prediction_c[static_cast<std::size_t>(c)][i]));
        }
      }
      return 1.0;
    }

    case BodyAction::kDct: {
      for (int b = 0; b < 4; ++b) {
        ctx.coeffs[static_cast<std::size_t>(b)] =
            media::forward_dct8(ctx.residual[static_cast<std::size_t>(b)]);
      }
      for (int c = 0; c < 2; ++c) {
        ctx.coeffs_c[static_cast<std::size_t>(c)] =
            media::forward_dct8(ctx.residual_c[static_cast<std::size_t>(c)]);
      }
      return 1.0;
    }

    case BodyAction::kQuantize: {
      ctx.nonzero = 0;
      for (int b = 0; b < 4; ++b) {
        ctx.levels[static_cast<std::size_t>(b)] =
            media::quantize_block(ctx.coeffs[static_cast<std::size_t>(b)], qp);
        ctx.nonzero +=
            media::count_nonzero(ctx.levels[static_cast<std::size_t>(b)]);
      }
      for (int c = 0; c < 2; ++c) {
        ctx.levels_c[static_cast<std::size_t>(c)] = media::quantize_block(
            ctx.coeffs_c[static_cast<std::size_t>(c)], qp);
        ctx.nonzero +=
            media::count_nonzero(ctx.levels_c[static_cast<std::size_t>(c)]);
      }
      return 1.0;
    }

    case BodyAction::kCompress: {
      util::BitWriter& bw = frame_writer_;
      const std::int64_t before = bw.bit_count();
      bw.put_bit(ctx.use_intra);
      if (ctx.use_intra) {
        bw.put_bits(static_cast<std::uint64_t>(ctx.intra_mode), 2);
      } else {
        // Motion vectors travel in half-pel units (even = full pel).
        media::put_se(bw, ctx.motion.dx2);
        media::put_se(bw, ctx.motion.dy2);
      }
      for (int b = 0; b < 4; ++b) {
        media::encode_block(bw, ctx.levels[static_cast<std::size_t>(b)]);
      }
      for (int c = 0; c < 2; ++c) {
        media::encode_block(bw, ctx.levels_c[static_cast<std::size_t>(c)]);
      }
      ctx.bits = bw.bit_count() - before;
      return std::max(
          0.2, static_cast<double>(ctx.bits) / config_.typical_compress_bits);
    }

    case BodyAction::kInverseQuantize: {
      for (int b = 0; b < 4; ++b) {
        ctx.dequant[static_cast<std::size_t>(b)] = media::dequantize_block(
            ctx.levels[static_cast<std::size_t>(b)], qp);
      }
      for (int c = 0; c < 2; ++c) {
        ctx.dequant_c[static_cast<std::size_t>(c)] = media::dequantize_block(
            ctx.levels_c[static_cast<std::size_t>(c)], qp);
      }
      return 1.0;
    }

    case BodyAction::kInverseDct: {
      for (int b = 0; b < 4; ++b) {
        ctx.recon_residual[static_cast<std::size_t>(b)] =
            media::inverse_dct8(ctx.dequant[static_cast<std::size_t>(b)]);
      }
      for (int c = 0; c < 2; ++c) {
        ctx.recon_residual_c[static_cast<std::size_t>(c)] =
            media::inverse_dct8(ctx.dequant_c[static_cast<std::size_t>(c)]);
      }
      // Sparse blocks are cheaper to invert; couple the cost mildly.
      return 0.5 + static_cast<double>(ctx.nonzero) / 96.0;
    }

    case BodyAction::kReconstruct: {
      std::array<media::Sample, 256> pixels;
      for (int b = 0; b < 4; ++b) {
        const int bx = (b % 2) * media::kTransformSize;
        const int by = (b / 2) * media::kTransformSize;
        for (int y = 0; y < media::kTransformSize; ++y) {
          for (int x = 0; x < media::kTransformSize; ++x) {
            const int p = (by + y) * media::kMacroBlockSize + (bx + x);
            const int v =
                static_cast<int>(ctx.prediction[static_cast<std::size_t>(p)]) +
                static_cast<int>(
                    ctx.recon_residual[static_cast<std::size_t>(b)]
                                      [static_cast<std::size_t>(
                                          y * media::kTransformSize + x)]);
            pixels[static_cast<std::size_t>(p)] =
                static_cast<media::Sample>(std::clamp(v, 0, 255));
          }
        }
      }
      media::write_macroblock(recon_.y, ctx.x0, ctx.y0, pixels);
      for (int c = 0; c < 2; ++c) {
        std::array<media::Sample, 64> cpix;
        for (std::size_t i = 0; i < 64; ++i) {
          const int v =
              static_cast<int>(
                  ctx.prediction_c[static_cast<std::size_t>(c)][i]) +
              static_cast<int>(
                  ctx.recon_residual_c[static_cast<std::size_t>(c)][i]);
          cpix[i] = static_cast<media::Sample>(std::clamp(v, 0, 255));
        }
        media::Plane& plane = (c == 0) ? recon_.cb : recon_.cr;
        media::write_plane_block8(plane, ctx.x0 / 2, ctx.y0 / 2, cpix);
      }
      return 1.0;
    }
  }
  QC_EXPECT(false, "unknown body action");
}

}  // namespace qosctrl::enc
