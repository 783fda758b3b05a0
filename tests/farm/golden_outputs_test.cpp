// Golden digests of the farm's outputs — the Chrome trace export, the
// metrics registry JSON, the windowed series JSON, the whole JSON
// report, the CSV and the text summary — over four scenarios that
// together reach every trace EventKind the data and control planes can
// emit, plus faults, failover, shards, series, SLO alerts and every
// scheduling policy.  The determinism pins
// elsewhere compare runs against runs (workers x shards x policies),
// so a change that shifts every run the same way passes them; these
// FNV-1a digests pin the absolute bytes instead.  The trace, metrics
// and series are integer-valued, so those three digests are
// platform-stable.  The report, CSV and summary carry doubles (PSNR,
// SSIM, utilization, rates), so those three digests are toolchain-pinned
// like tests/encoder/bitstream_pin_test.cpp: a different libm or
// compiler may legitimately move them.  The build provenance (version,
// compiler, SIMD backend) of the report and of the summary's first line
// is cut before digesting.
//
// A digest mismatch means an observable output changed: re-derive the
// expected value only for an intended behavior change, never for a
// refactor.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "farm/load_gen.h"
#include "farm/metrics.h"
#include "farm/simulator.h"
#include "obs/json_of.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "platform/cost_model.h"

namespace qosctrl::farm {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The JSON report from its first seed field on: everything but the
/// version, compiler and SIMD backend of the "build" header.
std::string report_without_provenance(const FarmResult& r) {
  const std::string json = to_json(r);
  const std::size_t seeds = json.find("\"farm_seed\"");
  EXPECT_NE(seeds, std::string::npos);
  return json.substr(seeds);
}

/// The text summary from its first seed field on: everything but the
/// version line that heads it.
std::string summary_without_provenance(const FarmResult& r) {
  const std::string text = summarize(r);
  const std::size_t seeds = text.find(" seed=");
  EXPECT_NE(seeds, std::string::npos);
  return text.substr(seeds);
}

std::vector<obs::SloSpec> alerting_slos() {
  std::vector<obs::SloSpec> out;
  for (const char* text :
       {"latency_p99<0.3w", "conceal_rate<=0.01", "queue_p99<2",
        "miss_rate<=0.5:controlled", "recovery_latency<10w"}) {
    obs::SloSpec spec;
    std::string error;
    EXPECT_TRUE(obs::parse_slo(text, &spec, &error)) << text << ": " << error;
    out.push_back(spec);
  }
  return out;
}

/// Preemptive EDF with every fault class: overruns policed into
/// quarantine, post-encode loss, a transient outage that catches a
/// preempted frame, a second transient outage, and a permanent failure
/// whose failover leaves one stream without a host.  Renegotiation
/// and restore are on; SLOs are tight enough to raise burn alerts.
FarmResult faulted_preemptive() {
  LoadGenConfig load;
  load.num_streams = 16;
  load.min_frames = 6;
  load.max_frames = 12;
  load.constant_mode_fraction = 0.3;
  load.seed = 13;
  FarmScenario sc = generate_scenario(load);
  sc.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  sc.sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sc.sched.renegotiate = true;
  sc.sched.restore = true;
  sc.faults.overrun.probability = 0.4;
  sc.faults.overrun.factor = 3.0;
  sc.faults.overrun.policy = OverrunPolicy::kQuarantine;
  sc.faults.overrun.quarantine_strikes = 1;
  sc.faults.loss.probability = 0.1;
  sc.faults.failures.push_back({0, 18750000, 6000000});
  sc.faults.failures.push_back({1, 20000000, 15000000});
  sc.faults.failures.push_back({2, 30000000, 0});
  FarmConfig cfg;
  cfg.num_processors = 3;
  cfg.workers = 2;
  cfg.seed = 13 * 0x9e3779b9ULL + 1;
  cfg.trace = true;
  cfg.ts_window = 4000000;
  cfg.slos = alerting_slos();
  return run_farm(sc, cfg);
}

/// A generated churn load with C=D splitting on (two streams split)
/// under downgrade policing.  A transient outage on the tail processor
/// catches relay frames in service and suspended; a later one on the
/// head processor catches head frames in service, queued, and on
/// arrival.
FarmResult split_relay() {
  LoadGenConfig load;
  load.num_streams = 14;
  load.min_frames = 6;
  load.max_frames = 12;
  load.seed = 41;
  FarmScenario sc = generate_scenario(load);
  sc.sched.policy.kind = sched::PolicyKind::kPreemptiveEdf;
  sc.sched.split = true;
  sc.faults.overrun.probability = 0.3;
  sc.faults.overrun.factor = 3.0;
  sc.faults.overrun.policy = OverrunPolicy::kDowngrade;
  sc.faults.failures.push_back({1, 18500000, 4000000});
  sc.faults.failures.push_back({0, 31500000, 4000000});
  FarmConfig cfg;
  cfg.num_processors = 3;
  cfg.workers = 3;
  cfg.trace = true;
  cfg.ts_window = 4000000;
  return run_farm(sc, cfg);
}

/// Quantum-sliced EDF with a quantum well below a frame's cost, so
/// earlier-deadline arrivals wait for a quantum boundary of the runner
/// and then preempt it, each preemption paying two context switches.
/// Post-encode loss and a transient outage that catches a frame in
/// service ride along.
FarmResult quantum_sliced() {
  LoadGenConfig load;
  load.num_streams = 12;
  load.min_frames = 6;
  load.max_frames = 12;
  load.seed = 29;
  FarmScenario sc = generate_scenario(load);
  sc.sched.policy.kind = sched::PolicyKind::kQuantumEdf;
  sc.sched.policy.quantum = 400000;
  sc.sched.policy.context_switch_cost = platform::kContextSwitchCycles;
  sc.faults.loss.probability = 0.1;
  sc.faults.failures.push_back({1, 35500000, 5000000});
  FarmConfig cfg;
  cfg.num_processors = 3;
  cfg.workers = 2;
  cfg.trace = true;
  cfg.ts_window = 4000000;
  return run_farm(sc, cfg);
}

/// A two-shard plane with join batching per control epoch and the
/// rebalancer on (the conservation scenario of shard_test), crowded
/// enough that later joins land off their preferred processor or are
/// rejected.
FarmResult sharded_rebalance() {
  FarmScenario sc;
  for (int i = 0; i < 14; ++i) {
    StreamSpec s;
    s.id = i;
    s.width = 64;
    s.height = 48;
    s.frame_period = default_frame_period(12) * 4;
    const bool short_lived = i == 0 || i == 1 || i == 4 || i == 5;
    s.num_frames = short_lived ? 2 : 12;
    s.join_time = i < 8    ? static_cast<rt::Cycles>(i) * 1000
                  : i == 8 ? static_cast<rt::Cycles>(30000000)
                           : static_cast<rt::Cycles>(31000000) +
                                 static_cast<rt::Cycles>(i - 9) * 500000;
    sc.streams.push_back(s);
  }
  FarmConfig cfg;
  cfg.num_processors = 4;
  cfg.workers = 4;
  cfg.shards = 2;
  cfg.rebalance_watermark = 0.55;
  cfg.control_epoch = 1000000;
  cfg.trace = true;
  cfg.ts_window = 4000000;
  return run_farm(sc, cfg);
}

struct Golden {
  const char* name;
  FarmResult (*run)();
  int num_processors;
  std::uint64_t trace;
  std::uint64_t metrics;
  std::uint64_t series;
  std::uint64_t report;
  std::uint64_t csv;
  std::uint64_t summary;
};

const Golden kGoldens[] = {
    {"faulted_preemptive", faulted_preemptive, 3, 0x4ec0f08bc94a9705ULL,
     0xaf44c2b646aa5088ULL, 0x668ac802ffc04a2bULL,
     0x7a6df492a743ddf8ULL, 0x700a9eed7660f552ULL,
     0x8b3469910c464d51ULL},
    {"split_relay", split_relay, 3, 0x4503f4f3fc4ff41aULL,
     0x71d1d27c216d8559ULL, 0x7f2df721e939c32aULL,
     0x5f4213538a54e352ULL, 0xe64f9bc95e4401e2ULL,
     0xe1b6174ea1aa6ca8ULL},
    {"quantum_sliced", quantum_sliced, 3, 0x7922267aae696d13ULL,
     0x135b3051cd4b1666ULL, 0xb4a920f998db5f0fULL,
     0x7290d09c5aafcd37ULL, 0x4718f9561419f9e0ULL,
     0xd37fa658d375c37dULL},
    {"sharded_rebalance", sharded_rebalance, 4, 0xfd51e95ad8eab94fULL,
     0xea0c00cf6ed3f420ULL, 0x1916b6456eb7b9c3ULL,
     0x98c2fd6c06443bf9ULL, 0x42996964edd530f8ULL,
     0x967ed62b3efbda17ULL},
};

TEST(GoldenOutputs, DigestsArePinned) {
  for (const Golden& g : kGoldens) {
    const FarmResult r = g.run();
    EXPECT_EQ(fnv1a(obs::export_chrome_trace(r.trace, g.num_processors)),
              g.trace)
        << g.name << " trace";
    EXPECT_EQ(fnv1a(obs::json_of(r.metrics)), g.metrics)
        << g.name << " metrics";
    EXPECT_EQ(fnv1a(obs::json_of(r.series)), g.series) << g.name << " series";
    EXPECT_EQ(fnv1a(report_without_provenance(r)), g.report)
        << g.name << " report";
    EXPECT_EQ(fnv1a(to_csv(r)), g.csv) << g.name << " csv";
    EXPECT_EQ(fnv1a(summary_without_provenance(r)), g.summary)
        << g.name << " summary";
    EXPECT_EQ(r.trace_dropped, 0) << g.name;
  }
}

// The quantum_sliced pin covers quantum-boundary preemption only if
// the scenario actually preempts.
TEST(GoldenOutputs, QuantumScenarioPreempts) {
  const FarmResult r = quantum_sliced();
  EXPECT_GT(r.total_preemptions, 0);
  EXPECT_GT(r.total_overhead_cycles, 0);
}

// kDeadlineMiss is the one kind no scenario reaches: admission
// certifies every admitted stream's worst case (and the C=D split's
// two pieces), and the policer cuts injected overruns at that
// commitment, so a delivered frame never finishes past its display
// deadline.  The miss path is pinned by the sink's unit test instead.
TEST(GoldenOutputs, ScenariosReachEveryEventKind) {
  std::set<obs::EventKind> kinds;
  std::set<std::uint32_t> reasons;
  std::set<std::uint32_t> outcomes;
  for (const Golden& g : kGoldens) {
    for (const obs::TraceEvent& e : g.run().trace) {
      const auto kind = static_cast<obs::EventKind>(e.kind);
      kinds.insert(kind);
      if (kind == obs::EventKind::kConceal) reasons.insert(e.aux);
      if (kind == obs::EventKind::kComplete) outcomes.insert(e.aux);
    }
  }
  for (int k = 1; k <= static_cast<int>(obs::EventKind::kSloAlert); ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    if (kind == obs::EventKind::kDeadlineMiss) continue;
    EXPECT_EQ(kinds.count(kind), 1u) << "no scenario emits EventKind " << k;
  }
  EXPECT_EQ(kinds.count(obs::EventKind::kDeadlineMiss), 0u)
      << "a scenario now reaches kDeadlineMiss; update the note above";
  EXPECT_EQ(reasons.size(), 4u) << "every ConcealReason";
  EXPECT_EQ(outcomes.size(), 3u) << "every CompleteOutcome";
}

}  // namespace
}  // namespace qosctrl::farm
