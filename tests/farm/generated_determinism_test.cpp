// The determinism contract over generated scenarios: a seeded
// generator draws small farm runs across the byte-identity axes —
// scheduling policy, C=D splitting, renegotiation with restore, the
// overrun policy, frame loss, transient and permanent processor
// failures, and one or two control-plane shards — and every output
// (JSON report, CSV, text summary, Chrome trace) must be byte-equal
// for 1, 2 and 3 host workers.  The CSV must also not depend on
// whether the run was traced.  The hand-picked pins elsewhere cover
// chosen corners; this one covers the combinations nobody picked.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "farm/metrics.h"
#include "farm/simulator.h"
#include "obs/trace.h"
#include "platform/cost_model.h"
#include "util/rng.h"

namespace qosctrl::farm {
namespace {

/// The generator seed.  Its scenarios reach every path the test
/// checks for at the end (splits, renegotiation, quarantine,
/// failover, outage conceals, preemption); a change to the generator
/// may need a new seed that does.
constexpr std::uint64_t kGeneratorSeed = 7;
constexpr int kScenarios = 12;
constexpr rt::Cycles kM = 176000;  ///< qmin worst case per macroblock

struct GeneratedRun {
  FarmScenario scenario;
  FarmConfig config;
};

template <typename T>
T pick(util::Rng& rng, const std::vector<T>& options) {
  return options[static_cast<std::size_t>(
      rng.uniform_i64(0, static_cast<std::int64_t>(options.size()) - 1))];
}

/// One small random run.  Frame counts and geometries stay tiny so a
/// Debug build (per-pixel checks on) plays all of them in seconds.
GeneratedRun generate(util::Rng& rng) {
  GeneratedRun run;
  FarmScenario& sc = run.scenario;
  FarmConfig& cfg = run.config;
  cfg.num_processors = static_cast<int>(rng.uniform_i64(2, 3));

  // Light incumbents first (a quarter of a processor or less, about
  // one per processor), then newcomers that are mostly heavy
  // constant-quality streams (two thirds of a processor or more).  A
  // heavy newcomer then often fits no processor whole: it is
  // rejected, admitted by renegotiation, or split into C=D pieces.
  const int incumbents =
      cfg.num_processors + static_cast<int>(rng.uniform_i64(0, 1));
  const int num_streams = incumbents + static_cast<int>(rng.uniform_i64(2, 5));
  rt::Cycles join = 0;
  for (int i = 0; i < num_streams; ++i) {
    StreamSpec s;
    s.id = i;
    const auto [w, h] = pick(rng, std::vector<std::pair<int, int>>{
                                      {16, 16}, {32, 16}, {32, 32}});
    s.width = w;
    s.height = h;
    s.num_frames = static_cast<int>(rng.uniform_i64(2, 6));
    s.num_scenes = 1;
    s.buffer_capacity = pick(rng, std::vector<int>{1, 1, 2});
    // The camera period in quarters of the qmin worst case.
    rt::Cycles quarters = pick(rng, std::vector<rt::Cycles>{16, 32});
    if (rng.chance(0.4)) {
      s.mode = pipe::ControlMode::kConstantQuality;
      s.constant_quality = 0;
    }
    if (i >= incumbents && rng.chance(0.6)) {
      s.mode = pipe::ControlMode::kConstantQuality;
      s.constant_quality = 0;
      quarters = pick(rng, std::vector<rt::Cycles>{5, 6});
    }
    s.frame_period = kM * macroblocks_of(s) * quarters / 4;
    s.join_time = join;
    if (i + 1 >= incumbents) join += rng.uniform_i64(0, 4 * kM);
    sc.streams.push_back(s);
  }
  sc.sched.policy.kind =
      pick(rng, std::vector<sched::PolicyKind>{
                    sched::PolicyKind::kNonPreemptiveEdf,
                    sched::PolicyKind::kPreemptiveEdf,
                    sched::PolicyKind::kQuantumEdf});
  if (sc.sched.policy.kind != sched::PolicyKind::kNonPreemptiveEdf) {
    // A paid context switch inflates a zero-slack C=D head past its
    // deadline, so splits need the free-switch draw.
    sc.sched.policy.context_switch_cost =
        rng.chance(0.5) ? platform::kContextSwitchCycles : 0;
  }
  if (sc.sched.policy.kind == sched::PolicyKind::kQuantumEdf) {
    sc.sched.policy.quantum = 1000000;
  }
  sc.sched.split = rng.chance(0.5);
  sc.sched.renegotiate = rng.chance(0.5);
  sc.sched.restore = sc.sched.renegotiate;

  FaultSpec& faults = sc.faults;
  faults.overrun.probability = pick(rng, std::vector<double>{0.0, 0.3});
  faults.overrun.factor = 3.0;
  faults.overrun.policy = pick(
      rng, std::vector<OverrunPolicy>{OverrunPolicy::kAbortConceal,
                                      OverrunPolicy::kDowngrade,
                                      OverrunPolicy::kQuarantine});
  faults.overrun.quarantine_strikes = 1;
  faults.loss.probability = pick(rng, std::vector<double>{0.0, 0.1, 0.3});

  cfg.shards = static_cast<int>(rng.uniform_i64(1, 2));
  if (cfg.shards > 1 && rng.chance(0.5)) {
    cfg.rebalance_watermark = 0.55;
    cfg.control_epoch = 1000000;
  }
  cfg.seed = rng.next_u64();
  cfg.ts_window = rng.chance(0.5) ? 4000000 : 0;

  // Failures land anywhere inside the run: up to the last display
  // deadline of the offered load.
  rt::Cycles horizon = 1;
  for (const StreamSpec& s : sc.streams) {
    horizon = std::max(horizon, leave_time_of(s));
  }
  const int num_failures = static_cast<int>(rng.uniform_i64(0, 2));
  for (int k = 0; k < num_failures; ++k) {
    FailureEvent ev;
    ev.processor =
        static_cast<int>(rng.uniform_i64(0, cfg.num_processors - 1));
    ev.time = rng.uniform_i64(0, horizon);
    ev.repair = rng.chance(0.5) ? rng.uniform_i64(1000000, 8000000) : 0;
    faults.failures.push_back(ev);
  }
  return run;
}

struct Outputs {
  std::string json;
  std::string csv;
  std::string summary;
  std::string trace;
};

/// What the generated runs exercised, summed over scenarios: the
/// axes are only worth drawing if the runs reach the paths behind
/// them.
struct Reach {
  int split_streams = 0;
  int renegotiated = 0;
  int quarantined = 0;
  int failover_readmissions = 0;
  int failure_drops = 0;
  long long preemptions = 0;

  void add(const FarmResult& r) {
    split_streams += r.split_streams;
    renegotiated += r.renegotiated_streams;
    quarantined += r.quarantined_streams;
    failover_readmissions += r.failover_readmissions;
    failure_drops += r.faults_total.failure_drops;
    preemptions += r.total_preemptions;
  }
};

Outputs play(const GeneratedRun& run, int workers, bool trace,
             Reach* reach = nullptr) {
  FarmConfig cfg = run.config;
  cfg.workers = workers;
  cfg.trace = trace;
  const FarmResult r = run_farm(run.scenario, cfg);
  if (reach != nullptr) reach->add(r);
  return Outputs{to_json(r), to_csv(r), summarize(r),
                 obs::export_chrome_trace(r.trace, cfg.num_processors)};
}

TEST(GeneratedDeterminism, OutputsAreByteEqualAcrossWorkers) {
  util::Rng rng(kGeneratorSeed);
  Reach reach;
  bool policy_seen[3] = {false, false, false};
  for (int i = 0; i < kScenarios; ++i) {
    const GeneratedRun run = generate(rng);
    policy_seen[static_cast<int>(run.scenario.sched.policy.kind)] = true;
    SCOPED_TRACE("generated scenario " + std::to_string(i));
    const Outputs base = play(run, 1, true, &reach);
    EXPECT_FALSE(base.trace.empty());
    for (const int workers : {2, 3}) {
      const Outputs other = play(run, workers, true);
      EXPECT_EQ(base.json, other.json) << workers << " workers: JSON";
      EXPECT_EQ(base.csv, other.csv) << workers << " workers: CSV";
      EXPECT_EQ(base.summary, other.summary) << workers << " workers: summary";
      EXPECT_EQ(base.trace, other.trace) << workers << " workers: trace";
    }
    EXPECT_EQ(base.csv, play(run, 2, false).csv) << "CSV with tracing off";
  }
  for (const bool seen : policy_seen) EXPECT_TRUE(seen);
  EXPECT_GT(reach.split_streams, 0);
  EXPECT_GT(reach.renegotiated, 0);
  EXPECT_GT(reach.quarantined, 0);
  EXPECT_GT(reach.failover_readmissions, 0);
  EXPECT_GT(reach.failure_drops, 0);
  EXPECT_GT(reach.preemptions, 0);
}

}  // namespace
}  // namespace qosctrl::farm
