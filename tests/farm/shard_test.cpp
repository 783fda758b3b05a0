// The sharded control plane's contract, pinned three ways:
//
//  * Invariance — on a non-saturating homogeneous load, reports and
//    traces are byte-identical across every (workers, shards)
//    combination: sharding reorganizes the control plane, it must not
//    move a single placement or reorder a single trace event.
//  * Router equivalence at scale — a saturating 1200-stream storm
//    gets the same verdict, processor, and budget from 32 shards as
//    from one controller, stream by stream.
//  * Rebalancer conservation — every migration is admit-first: the
//    stream is re-admitted on the cold shard before the hot shard
//    releases it, so migrations_in == migrations_out ==
//    rebalance_migrations and every admitted stream still serves its
//    full frame count.
#include "farm/shard.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "farm/metrics.h"
#include "farm/presets.h"
#include "farm/simulator.h"
#include "obs/trace.h"
#include "platform/cost_model.h"

namespace qosctrl::farm {
namespace {

FarmScenario small_flash_crowd() {
  PresetParams pp;
  pp.num_streams = 24;  // 8 processors hold 32: nothing is rejected
  return compile_preset(PresetKind::kFlashCrowd, pp);
}

struct RunArtifacts {
  std::string csv;
  std::string chrome;
  std::string summary;
  std::string json;
};

RunArtifacts run_combo(const FarmScenario& sc, int workers, int shards) {
  FarmConfig cfg;
  cfg.num_processors = 8;
  cfg.workers = workers;
  cfg.shards = shards;
  cfg.trace = true;
  const FarmResult r = run_farm(sc, cfg);
  RunArtifacts out;
  out.csv = to_csv(r);
  out.chrome = obs::export_chrome_trace(r.trace, cfg.num_processors);
  out.summary = summarize(r);
  out.json = to_json(r);
  return out;
}

TEST(ShardPlaneTest, ReportsInvariantAcrossWorkersAndShards) {
  const FarmScenario sc = small_flash_crowd();
  const RunArtifacts baseline = run_combo(sc, 1, 1);
  ASSERT_FALSE(baseline.csv.empty());
  for (const int workers : {1, 2, 4}) {
    for (const int shards : {1, 2, 4}) {
      const RunArtifacts run = run_combo(sc, workers, shards);
      // The cross-shard identity artifacts: per-stream report rows and
      // the merged schedule trace.
      EXPECT_EQ(run.csv, baseline.csv)
          << "csv diverged at workers=" << workers << " shards=" << shards;
      EXPECT_EQ(run.chrome, baseline.chrome)
          << "trace diverged at workers=" << workers << " shards=" << shards;
    }
    // summarize/to_json add per-shard sections when shards > 1, so
    // they are pinned across workers at a fixed shard count instead.
    const RunArtifacts sharded = run_combo(sc, workers, 4);
    const RunArtifacts sharded_base = run_combo(sc, 1, 4);
    EXPECT_EQ(sharded.summary, sharded_base.summary)
        << "summary diverged at workers=" << workers;
    EXPECT_EQ(sharded.json, sharded_base.json)
        << "json diverged at workers=" << workers;
  }
}

TEST(ShardPlaneTest, StormVerdictsMatchSingleController) {
  PresetParams pp;
  pp.num_streams = 1200;  // 64 processors hold 256: most joins reject
  const FarmScenario sc = compile_preset(PresetKind::kFlashCrowd, pp);
  TableCache tables(platform::figure5_cost_table());

  ShardPlaneConfig single;
  single.shards = 1;
  ShardedControlPlane one(64, single, AdmissionConfig{}, &tables, sc.sched);
  ShardPlaneConfig sharded;
  sharded.shards = 32;
  ShardedControlPlane many(64, sharded, AdmissionConfig{}, &tables, sc.sched);

  long long admitted = 0;
  for (const StreamSpec& spec : sc.streams) {
    const Placement a = one.admit(spec);
    const Placement b = many.admit(spec);
    ASSERT_EQ(a.admitted, b.admitted) << "stream " << spec.id;
    if (!a.admitted) continue;
    ++admitted;
    EXPECT_EQ(a.processor, b.processor) << "stream " << spec.id;
    EXPECT_EQ(a.table_budget, b.table_budget) << "stream " << spec.id;
    EXPECT_EQ(a.committed_cost, b.committed_cost) << "stream " << spec.id;
    EXPECT_EQ(a.degraded, b.degraded) << "stream " << spec.id;
  }
  EXPECT_EQ(admitted, 256);

  // The router's own books balance: every admit landed on some shard.
  long long sharded_admits = 0, sharded_rejects = 0;
  for (int s = 0; s < many.num_shards(); ++s) {
    sharded_admits += many.shard_stats(s).admitted;
    sharded_rejects += many.shard_stats(s).rejected;
  }
  EXPECT_EQ(sharded_admits, admitted);
  EXPECT_EQ(sharded_admits + sharded_rejects,
            static_cast<long long>(sc.streams.size()));
}

TEST(ShardPlaneTest, RebalancerConservesStreams) {
  FarmScenario sc;
  for (int i = 0; i < 9; ++i) {
    StreamSpec s;
    s.id = i;
    s.width = 64;
    s.height = 48;
    s.frame_period = default_frame_period(12) * 4;
    // Least-loaded round-robin puts 0,1,4,5 on shard 0 and 2,3,6,7 on
    // shard 1; the early leavers empty shard 0, and id 8's late join
    // trips the post-batch rebalancer while shard 1 is still hot.
    const bool short_lived = i == 0 || i == 1 || i == 4 || i == 5;
    s.num_frames = short_lived ? 2 : 12;
    s.join_time = i < 8 ? static_cast<rt::Cycles>(i) * 1000
                        : static_cast<rt::Cycles>(30000000);
    sc.streams.push_back(s);
  }

  FarmConfig cfg;
  cfg.num_processors = 4;
  cfg.shards = 2;
  cfg.rebalance_watermark = 0.55;
  cfg.control_epoch = 1000000;
  const FarmResult r = run_farm(sc, cfg);

  // The first eight arrivals share one control epoch; id 8 gets its
  // own batch.
  EXPECT_EQ(r.join_batches, 2);
  EXPECT_EQ(r.max_join_batch, 8);
  ASSERT_GE(r.rebalance_migrations, 1);

  long long in = 0, out = 0;
  ASSERT_EQ(r.shard_outcomes.size(), 2u);
  for (const ShardOutcome& so : r.shard_outcomes) {
    in += so.stats.migrations_in;
    out += so.stats.migrations_out;
  }
  EXPECT_EQ(in, r.rebalance_migrations);
  EXPECT_EQ(out, r.rebalance_migrations);

  int migrated = 0;
  for (const StreamOutcome& so : r.streams) {
    ASSERT_TRUE(so.placement.admitted) << "stream " << so.spec.id;
    // Conservation: admit-first migration never drops a frame — every
    // stream serves its full lifetime across its segments.
    EXPECT_EQ(static_cast<int>(so.result.frames.size()), so.spec.num_frames)
        << "stream " << so.spec.id;
    for (const FailoverSegment& seg : so.failover) {
      ASSERT_TRUE(seg.placement.admitted);
      EXPECT_EQ(seg.failure_index, -1);  // rebalance, not a failure
      EXPECT_GT(seg.first_frame, 0);
      EXPECT_LT(seg.first_frame, so.spec.num_frames);
      ++migrated;
    }
  }
  EXPECT_EQ(migrated, r.rebalance_migrations);

  // Determinism: the rebalancer is part of the control plane's pure
  // call sequence, so a replay is byte-identical.
  const FarmResult again = run_farm(sc, cfg);
  EXPECT_EQ(to_csv(r), to_csv(again));
  EXPECT_EQ(to_json(r), to_json(again));
}

}  // namespace
}  // namespace qosctrl::farm
