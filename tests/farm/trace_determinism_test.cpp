// The observability determinism contract: a run's merged schedule
// trace — and the metrics registry serialized from it — is a pure
// function of (scenario, config).  The host worker count must never
// show: per-processor ring buffers are merged in (time, buffer id,
// emission order), and histograms merge bucket-wise, so this test pins
// the exported Chrome JSON and the metrics JSON byte for byte across
// 1, 2, and 4 workers, under every scheduling policy, with and
// without injected faults.
#include <gtest/gtest.h>

#include <string>

#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/simulator.h"
#include "obs/json_of.h"
#include "obs/trace.h"
#include "platform/cost_model.h"
#include "sched/policy.h"

namespace qosctrl::farm {
namespace {

FarmScenario traced_scenario(sched::PolicyKind policy, bool faults) {
  LoadGenConfig load;
  load.num_streams = 6;
  load.resolutions = {{32, 32}};
  load.resolution_weights = {1.0};
  load.min_frames = 4;
  load.max_frames = 6;
  load.seed = 13;
  FarmScenario sc = generate_scenario(load);
  sc.sched.policy.kind = policy;
  sc.sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sc.sched.policy.quantum = 1000000;
  sc.sched.renegotiate = true;
  sc.sched.restore = true;
  if (faults) {
    sc.faults.overrun.probability = 0.3;
    sc.faults.overrun.factor = 3.0;
    sc.faults.loss.probability = 0.15;
    // One transient outage and one permanent failure: the trace must
    // carry conceal / failover / repair events identically everywhere.
    sc.faults.failures.push_back({1, 20000000, 15000000});
    sc.faults.failures.push_back({2, 30000000, 0});
  }
  return sc;
}

struct TracedRun {
  std::string chrome;
  std::string metrics_json;
  long long dropped = 0;
  std::size_t events = 0;
};

TracedRun run_traced(sched::PolicyKind policy, bool faults, int workers) {
  FarmConfig cfg;
  cfg.num_processors = 3;
  cfg.workers = workers;
  cfg.trace = true;
  const FarmResult r = run_farm(traced_scenario(policy, faults), cfg);
  TracedRun out;
  out.chrome = obs::export_chrome_trace(r.trace, cfg.num_processors);
  out.metrics_json = obs::json_of(r.metrics);
  out.dropped = r.trace_dropped;
  out.events = r.trace.size();
  return out;
}

class TraceDeterminism
    : public ::testing::TestWithParam<std::tuple<sched::PolicyKind, bool>> {};

TEST_P(TraceDeterminism, ByteIdenticalAcrossWorkerCounts) {
  const auto [policy, faults] = GetParam();
  const TracedRun baseline = run_traced(policy, faults, 1);
  EXPECT_GT(baseline.events, 0u);
  EXPECT_EQ(baseline.dropped, 0);
  for (const int workers : {2, 4}) {
    const TracedRun run = run_traced(policy, faults, workers);
    EXPECT_EQ(run.chrome, baseline.chrome)
        << "trace diverged at workers=" << workers;
    EXPECT_EQ(run.metrics_json, baseline.metrics_json)
        << "metrics diverged at workers=" << workers;
    EXPECT_EQ(run.dropped, baseline.dropped);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndFaults, TraceDeterminism,
    ::testing::Combine(::testing::Values(sched::PolicyKind::kNonPreemptiveEdf,
                                         sched::PolicyKind::kPreemptiveEdf,
                                         sched::PolicyKind::kQuantumEdf),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(sched::policy_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) ? "_faults" : "_clean");
    });

TEST(TraceDeterminism, TracingDoesNotChangeTheSimulation) {
  // Tracing must be observation only: the same scenario with the
  // recorder off produces the same encoded output and metrics.
  FarmConfig off;
  off.num_processors = 3;
  const FarmScenario sc =
      traced_scenario(sched::PolicyKind::kPreemptiveEdf, true);
  const FarmResult r_off = run_farm(sc, off);
  FarmConfig on = off;
  on.trace = true;
  const FarmResult r_on = run_farm(sc, on);
  EXPECT_EQ(r_off.encoded_frames, r_on.encoded_frames);
  EXPECT_EQ(r_off.total_display_misses, r_on.total_display_misses);
  EXPECT_EQ(obs::json_of(r_off.metrics), obs::json_of(r_on.metrics));
  EXPECT_TRUE(r_off.trace.empty());
  EXPECT_FALSE(r_on.trace.empty());
}

TEST(TraceDeterminism, TinyBufferDropsOldestAndCountsInMetrics) {
  FarmConfig cfg;
  cfg.num_processors = 2;
  cfg.trace = true;
  cfg.trace_buffer_capacity = 8;  // force overflow
  const FarmResult r =
      run_farm(traced_scenario(sched::PolicyKind::kNonPreemptiveEdf, false),
               cfg);
  EXPECT_GT(r.trace_dropped, 0);
  EXPECT_EQ(r.metrics.counters().at("trace_dropped"), r.trace_dropped);
  // The drops attribute to their owning ring buffer — one per
  // processor plus the control plane — and the attribution sums to
  // the fleet total (no drop is lost or double-counted).
  ASSERT_EQ(r.trace_dropped_per_buffer.size(), 3u);
  long long attributed = 0;
  for (const long long d : r.trace_dropped_per_buffer) {
    EXPECT_GE(d, 0);
    attributed += d;
  }
  EXPECT_EQ(attributed, r.trace_dropped);
  // The report surfaces the split next to the fleet counter.
  EXPECT_NE(summarize(r).find("cpu0="), std::string::npos);
  EXPECT_NE(to_json(r).find("\"trace_dropped_per_buffer\":["),
            std::string::npos);
  // The retained tail still merges and exports.
  EXPECT_LE(r.trace.size(), 8u * 3u);
  EXPECT_FALSE(obs::export_chrome_trace(r.trace, 2).empty());
}

}  // namespace
}  // namespace qosctrl::farm
