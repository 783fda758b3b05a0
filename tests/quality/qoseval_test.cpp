// The policy-evaluation harness: the fusion rule's fixed points, the
// sweep's bit-identical determinism across worker counts, and the
// acceptance property the harness exists to demonstrate — the paper's
// table-driven controller dominating the fixed-quality baseline on
// the quality / miss frontier.
#include "quality/qoseval.h"

#include <gtest/gtest.h>

#include "farm/metrics.h"

namespace qosctrl::quality {
namespace {

/// 3 scenarios x 2 quality policies x 3 scheduling policies x
/// renegotiation off/on, kept small enough to run in seconds.
SweepConfig small_grid() {
  SweepConfig cfg;
  for (const std::uint64_t seed : {7u, 11u, 19u}) {
    farm::LoadGenConfig lg;
    lg.num_streams = 5;
    lg.resolutions = {{32, 32}};
    lg.resolution_weights = {1.0};
    lg.min_frames = 2;
    lg.max_frames = 4;
    lg.seed = seed;
    cfg.scenarios.push_back(lg);
  }
  for (const sched::PolicyKind kind :
       {sched::PolicyKind::kNonPreemptiveEdf,
        sched::PolicyKind::kPreemptiveEdf,
        sched::PolicyKind::kQuantumEdf}) {
    sched::PolicyParams p;
    p.kind = kind;
    p.context_switch_cost = platform::kContextSwitchCycles;
    p.quantum = 1000000;
    cfg.sched_policies.push_back(p);
  }
  return cfg;
}

TEST(QosEval, FusionFixedPointsAndDiscounting) {
  // Agreeing perfect sources, fully delivered: belief 1.
  EXPECT_DOUBLE_EQ(fuse_stream_quality(45.0, 1.0, 1.0), 1.0);
  // Agreeing worthless sources: belief 0 regardless of delivery.
  EXPECT_DOUBLE_EQ(fuse_stream_quality(20.0, 0.0, 1.0), 0.0);
  // Total conflict (PSNR says perfect, SSIM says worthless): PCR5
  // redistributes the conflict equally - belief 1/2.
  EXPECT_DOUBLE_EQ(fuse_stream_quality(45.0, 0.0, 1.0), 0.5);
  // Reliability discounting is linear in the delivered fraction.
  EXPECT_DOUBLE_EQ(fuse_stream_quality(45.0, 1.0, 0.25), 0.25);
  // Monotone in each quality source.
  EXPECT_LT(fuse_stream_quality(30.0, 0.9, 1.0),
            fuse_stream_quality(35.0, 0.9, 1.0));
  EXPECT_LT(fuse_stream_quality(35.0, 0.8, 1.0),
            fuse_stream_quality(35.0, 0.9, 1.0));
}

TEST(QosEval, LatencyTailDiscountsTheFusedScore) {
  // Zero lag (or a zero discount weight) reduces to the 3-arg form.
  EXPECT_DOUBLE_EQ(fuse_stream_quality(45.0, 1.0, 1.0, 0.0, 0.25),
                   fuse_stream_quality(45.0, 1.0, 1.0));
  EXPECT_DOUBLE_EQ(fuse_stream_quality(45.0, 1.0, 1.0, 0.8, 0.0),
                   fuse_stream_quality(45.0, 1.0, 1.0));
  // A stream always at the edge of its latency window is worth
  // exactly (1 - discount) of one with slack.
  EXPECT_DOUBLE_EQ(fuse_stream_quality(45.0, 1.0, 1.0, 1.0, 0.25), 0.75);
  // Monotone: more tail lag never raises the score.
  EXPECT_GT(fuse_stream_quality(40.0, 0.9, 1.0, 0.2, 0.25),
            fuse_stream_quality(40.0, 0.9, 1.0, 0.8, 0.25));
  // Out-of-range lag fractions are clamped, not amplified.
  EXPECT_DOUBLE_EQ(fuse_stream_quality(45.0, 1.0, 1.0, 7.0, 0.25),
                   fuse_stream_quality(45.0, 1.0, 1.0, 1.0, 0.25));
  EXPECT_GE(fuse_stream_quality(45.0, 1.0, 1.0, 1.0, 1.0), 0.0);
}

TEST(QosEval, FaultAxisAddsCellsAndLowersQuality) {
  SweepConfig cfg = small_grid();
  // One scenario, np only, reneg off: fault axis doubles the cells.
  cfg.scenarios.resize(1);
  cfg.sched_policies.resize(1);
  cfg.renegotiate = {false};
  cfg.fault_axis = {false, true};
  cfg.faults.seed = 41;
  cfg.faults.overrun.probability = 0.3;
  cfg.faults.loss.probability = 0.25;
  const SweepResult r = run_sweep(cfg);
  ASSERT_EQ(r.cells.size(), 2u * 2u);  // quality policies x fault axis
  for (std::size_t i = 0; i < r.cells.size(); i += 2) {
    const CellResult& clean = r.cells[i];
    const CellResult& faulted = r.cells[i + 1];
    ASSERT_FALSE(clean.faulted);
    ASSERT_TRUE(faulted.faulted);
    EXPECT_EQ(clean.concealed, 0);
    EXPECT_GT(faulted.concealed, 0);
    // Faults cost measured quality; the frontier sees the damage.
    EXPECT_LT(faulted.fused_quality, clean.fused_quality);
    EXPECT_GT(faulted.miss_rate, clean.miss_rate);
  }
  // Faulted and clean variants rank as distinct frontier points.
  EXPECT_EQ(r.ranking.size(), 2u * 2u);
}

TEST(QosEval, SweepIsBitIdenticalAcrossWorkerCounts) {
  SweepConfig one = small_grid();
  one.workers = 1;
  SweepConfig two = small_grid();
  two.workers = 2;
  const SweepResult a = run_sweep(one);
  const SweepResult b = run_sweep(two);
  EXPECT_EQ(to_csv(a), to_csv(b));
  EXPECT_EQ(summarize(a), summarize(b));

  // More workers than cells: 8 workers on a 2-cell grid (one scenario,
  // one policy, both quality policies) match one worker.
  one.scenarios.resize(1);
  one.sched_policies.resize(1);
  one.renegotiate = {false};
  SweepConfig eight = one;
  eight.workers = 8;
  const SweepResult c = run_sweep(one);
  ASSERT_EQ(c.cells.size(), 2u);
  const SweepResult d = run_sweep(eight);
  EXPECT_EQ(to_csv(c), to_csv(d));
  EXPECT_EQ(summarize(c), summarize(d));
}

TEST(QosEval, ControlledDominatesTheFixedQualityBaseline) {
  const SweepResult r = run_sweep(small_grid());
  ASSERT_FALSE(r.ranking.empty());
  // The top of the ranking is a table-controlled combination, and it
  // is on the frontier.
  EXPECT_EQ(r.ranking.front().quality_policy, QualityPolicy::kControlled);
  EXPECT_FALSE(r.ranking.front().dominated);
  // Pairwise: under the same scheduling policy and renegotiation
  // setting, the controller beats the baseline on fused quality
  // without conceding miss rate - Pareto dominance, not a tie-break.
  for (const PolicyFrontierPoint& c : r.ranking) {
    if (c.quality_policy != QualityPolicy::kControlled) continue;
    for (const PolicyFrontierPoint& k : r.ranking) {
      if (k.quality_policy != QualityPolicy::kConstant ||
          k.sched.kind != c.sched.kind ||
          k.renegotiate != c.renegotiate) {
        continue;
      }
      EXPECT_GT(c.fused_quality, k.fused_quality)
          << sched::policy_name(c.sched.kind)
          << (c.renegotiate ? "+reneg" : "");
      EXPECT_LE(c.miss_rate, k.miss_rate);
    }
  }
  // Every constant-baseline point is dominated by some controlled one.
  for (const PolicyFrontierPoint& k : r.ranking) {
    if (k.quality_policy == QualityPolicy::kConstant) {
      EXPECT_TRUE(k.dominated);
    }
  }
}

TEST(QosEval, CellsCoverTheFullGridInScenarioMajorOrder) {
  const SweepConfig cfg = small_grid();
  const SweepResult r = run_sweep(cfg);
  ASSERT_EQ(r.cells.size(), 3u * 2u * 3u * 2u);
  std::size_t i = 0;
  for (int s = 0; s < 3; ++s) {
    for (const QualityPolicy qp : cfg.quality_policies) {
      for (const sched::PolicyParams& sp : cfg.sched_policies) {
        for (const bool rn : cfg.renegotiate) {
          const CellResult& c = r.cells[i++];
          EXPECT_EQ(c.scenario, s);
          EXPECT_EQ(c.quality_policy, qp);
          EXPECT_EQ(c.sched.kind, sp.kind);
          EXPECT_EQ(c.renegotiate, rn);
          EXPECT_EQ(c.offered, 5);
          EXPECT_EQ(c.admitted + c.rejected, c.offered);
        }
      }
    }
  }
  // The ranking covers every policy combination exactly once.
  EXPECT_EQ(r.ranking.size(), 2u * 3u * 2u);
}

}  // namespace
}  // namespace qosctrl::quality
